"""Figure 15: percentage of i-cache hits on the shadow i-cache.

The paper attributes high shadow i-cache hit fractions to the i-cache's
spatial locality: while a line is still speculative, several
instructions execute from it.  In this reproduction the line-granular
fetch path coalesces same-line fetches into one access, so the shadow
fraction is measured over *line* accesses; the shape assertion is that
shadow hits appear wherever speculative code sweeps new lines
(code-footprint-heavy benchmarks).
"""

from repro.analysis.report import render_figure_series
from repro.core.policy import CommitPolicy


def test_fig15_shadow_icache_hit_fraction(runner):
    series = runner.shadow_icache_hits(CommitPolicy.WFC)
    print()
    print(render_figure_series(
        "Figure 15: fraction of fetch hits on the shadow i-cache",
        series, scale_max=1.0))

    for name, value in series.items():
        assert 0.0 <= value <= 1.0, f"{name}: fraction {value}"
