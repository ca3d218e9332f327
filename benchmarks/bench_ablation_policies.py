"""Ablation: the WFB / WFC trade-off in one table.

The paper elects WFC ("the benefit from doing WFB is small, so we elect
to support WFC to get the increased protection to cover Meltdown",
Section IV-B).  This ablation quantifies both sides of that choice on
this reproduction:

* security: which attacks each policy closes (Meltdown is the split);
* performance: normalized IPC of each policy on a workload subset;
* occupancy: WFB's earlier promotion keeps shadow structures smaller.
"""

from repro.attacks import run_meltdown, run_spectre_v1
from repro.core.policy import CommitPolicy

BENCHMARKS = ["mcf", "x264", "lbm", "gcc"]


def test_policy_tradeoff(runner):
    wfb_ipc = runner.normalized_ipc(CommitPolicy.WFB)
    wfc_ipc = runner.normalized_ipc(CommitPolicy.WFC)
    sizing = {
        policy: runner.shadow_sizing("shadow_dcache", policy)["Average"]
        for policy in (CommitPolicy.WFB, CommitPolicy.WFC)
    }
    print()
    print(f"{'policy':6s} {'geo-mean IPC':>13s} {'avg p99.99 d-shadow':>21s}")
    print(f"{'WFB':6s} {wfb_ipc['Average']:13.4f} "
          f"{sizing[CommitPolicy.WFB]:21.1f}")
    print(f"{'WFC':6s} {wfc_ipc['Average']:13.4f} "
          f"{sizing[CommitPolicy.WFC]:21.1f}")

    # The paper's observation: the WFB performance benefit is small.
    assert abs(wfb_ipc["Average"] - wfc_ipc["Average"]) < 0.05
    # WFB promotes earlier, so it needs no more shadow space than WFC.
    assert sizing[CommitPolicy.WFB] <= sizing[CommitPolicy.WFC] + 1


def test_policy_security_split():
    """The deciding argument for WFC: only it stops Meltdown."""
    results = {
        ("meltdown", "wfb"): run_meltdown(CommitPolicy.WFB, 42),
        ("meltdown", "wfc"): run_meltdown(CommitPolicy.WFC, 42),
        ("spectre_v1", "wfb"): run_spectre_v1(CommitPolicy.WFB, 42),
        ("spectre_v1", "wfc"): run_spectre_v1(CommitPolicy.WFC, 42),
    }
    print()
    for (attack, policy), result in results.items():
        print(f"  {attack:10s} {policy}: "
              f"{'LEAKED' if result.success else 'closed'}")
    assert results[("meltdown", "wfb")].success
    assert results[("meltdown", "wfc")].closed
    assert results[("spectre_v1", "wfb")].closed
    assert results[("spectre_v1", "wfc")].closed
