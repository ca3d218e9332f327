"""Figure 12: d-cache read miss rates (including the shadow d-cache).

The paper finds "little difference in behavior between SafeSpec and the
baseline with respect to the data accesses" — the WFC and baseline
series track each other per benchmark.
"""

from repro.analysis.experiment import AVERAGE
from repro.analysis.report import render_two_series
from repro.core.policy import CommitPolicy


def test_fig12_dcache_read_miss_rates(runner):
    wfc = runner.dcache_miss_rates(CommitPolicy.WFC)
    base = runner.dcache_miss_rates(CommitPolicy.BASELINE)
    print()
    print(render_two_series(
        "Figure 12: d-cache read miss rate (shadow-inclusive)",
        "WFC", wfc, "baseline", base))

    for name in wfc:
        if name == AVERAGE:
            continue
        assert 0.0 <= wfc[name] <= 1.0
        # Little difference: WFC within (0.08 absolute or 1.5x relative).
        delta = abs(wfc[name] - base[name])
        assert delta <= max(0.08, 0.5 * base[name]), \
            f"{name}: WFC {wfc[name]:.3f} vs baseline {base[name]:.3f}"

    # Memory-bound benchmarks must show the highest miss rates (shape).
    assert base["mcf"] > base["namd"]
    assert base["omnetpp"] > base["exchange2"]
