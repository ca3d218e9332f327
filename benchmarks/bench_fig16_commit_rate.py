"""Figure 16: commit rate of the shadow state (i-cache vs d-cache).

The paper observes that a substantially higher fraction of the shadow
d-cache state ends up committed than of the shadow i-cache state
("speculative loads are issued later in the pipeline making them more
likely to commit"), and that both structures filter a large number of
mis-speculated accesses.
"""

from repro.analysis.experiment import AVERAGE
from repro.analysis.report import render_two_series
from repro.core.policy import CommitPolicy


def test_fig16_shadow_commit_rates(runner):
    icache = runner.shadow_commit_rates("shadow_icache", CommitPolicy.WFC)
    dcache = runner.shadow_commit_rates("shadow_dcache", CommitPolicy.WFC)
    print()
    print(render_two_series("Figure 16: commit rate of shadow state",
                            "i-cache", icache, "d-cache", dcache))

    for series in (icache, dcache):
        for name, value in series.items():
            assert 0.0 <= value <= 1.0, f"{name}: rate {value}"
    # The paper's headline shape: d-cache shadow state commits at a
    # higher average rate than i-cache shadow state.
    assert dcache[AVERAGE] >= icache[AVERAGE] - 0.05, (
        f"d-cache commit rate {dcache[AVERAGE]:.3f} should not trail "
        f"i-cache {icache[AVERAGE]:.3f}")
