"""Ablation: shadow dTLB capacity vs the TSA covert channel.

Section V's design choice is to size the shadow structures for the worst
case.  This ablation sweeps the shadow dTLB capacity and locates the
crossover where the Trojan can no longer create contention inside one
speculation window: below it the TSA channel transmits reliably, above
it the channel is dead.

The Trojan can issue at most LDQ-bounded distinct-page loads inside one
window; the demo Trojan issues 4, so capacities > ~6 (trojan pages plus
in-window incidental fills) already starve the channel — far below the
SECURE bound of LDQ+STQ = 128, confirming the paper's note that "a much
smaller size will suffice" while worst-case sizing is what *guarantees*
it.
"""

from repro.attacks.tsa import _run_tsa_channel
from repro.core.policy import CommitPolicy
from repro.core.safespec import SafeSpecConfig, SizingMode
from repro.core.shadow import FullPolicy
from repro.spec import MachineSpec

CAPACITIES = (2, 4, 6, 16, 64, 128)


def _channel_works(capacity: int) -> bool:
    config = SafeSpecConfig(
        policy=CommitPolicy.WFC, sizing=SizingMode.CUSTOM,
        full_policy=FullPolicy.DROP,
        dcache_entries=256, icache_entries=256,
        itlb_entries=64, dtlb_entries=capacity)
    result = _run_tsa_channel(CommitPolicy.WFC, 1,
                              MachineSpec().derive(safespec=config))
    return bool(result.details["channel_works"])


def test_ablation_shadow_dtlb_sizing():
    outcomes = {cap: _channel_works(cap) for cap in CAPACITIES}
    print()
    print("shadow dTLB capacity -> TSA channel")
    for capacity, works in outcomes.items():
        print(f"  {capacity:4d} entries: "
              f"{'channel WORKS' if works else 'channel closed'}")

    # The undersized configurations leak...
    assert outcomes[4], "4-entry shadow dTLB should expose the channel"
    # ...and generous / worst-case sizing closes the channel.
    assert not outcomes[64]
    assert not outcomes[128]
    # The transition is monotone: once closed, larger stays closed.
    closed_seen = False
    for capacity in CAPACITIES:
        if not outcomes[capacity]:
            closed_seen = True
        else:
            assert not closed_seen, "channel reopened at larger capacity"
