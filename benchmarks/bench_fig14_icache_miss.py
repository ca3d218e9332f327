"""Figure 14: i-cache miss rates (including the shadow i-cache).

The paper finds the i-cache behaviour close between WFC and baseline,
with some benchmarks showing lower WFC miss rates thanks to the shadow
acting as extra capacity.
"""

from repro.analysis.experiment import AVERAGE
from repro.analysis.report import render_two_series
from repro.core.policy import CommitPolicy


def test_fig14_icache_miss_rates(runner):
    wfc = runner.icache_miss_rates(CommitPolicy.WFC)
    base = runner.icache_miss_rates(CommitPolicy.BASELINE)
    print()
    print(render_two_series(
        "Figure 14: i-cache miss rate (shadow-inclusive)",
        "WFC", wfc, "baseline", base))

    for name in wfc:
        if name == AVERAGE:
            continue
        assert 0.0 <= wfc[name] <= 1.0
        delta = abs(wfc[name] - base[name])
        assert delta <= max(0.08, 0.6 * max(base[name], 0.01)), \
            f"{name}: WFC {wfc[name]:.3f} vs baseline {base[name]:.3f}"

    # Code-footprint-heavy benchmarks show the highest i-miss rates.
    assert base["gcc"] > base["lbm"]
    assert base["xalancbmk"] > base["mcf"]
