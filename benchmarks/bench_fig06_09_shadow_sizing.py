"""Figures 6-9: shadow-structure sizes covering 99.99% of cycles.

Regenerates the paper's four sizing figures — shadow i-cache (Fig. 6),
shadow d-cache (Fig. 7), shadow iTLB (Fig. 8), shadow dTLB (Fig. 9) —
for both WFC and WFB across the suite.

Shape checks mirror the paper's findings: the d-side needs more entries
than the i-side TLB, every size is far below the worst-case bound
(LDQ+STQ / ROB), and WFB never needs more than WFC.
"""

import pytest

from repro.core.policy import CommitPolicy
from repro.analysis.report import render_sizing_figure

FIGURES = [
    ("6", "shadow_icache"),
    ("7", "shadow_dcache"),
    ("8", "shadow_itlb"),
    ("9", "shadow_dtlb"),
]

_WORST_CASE = {
    "shadow_icache": 224,
    "shadow_dcache": 128,
    "shadow_itlb": 224,
    "shadow_dtlb": 128,
}


@pytest.mark.parametrize("figure_id,structure", FIGURES)
def test_shadow_sizing_figure(runner, figure_id, structure):
    wfc = runner.shadow_sizing(structure, CommitPolicy.WFC)
    wfb = runner.shadow_sizing(structure, CommitPolicy.WFB)
    print()
    print(render_sizing_figure(figure_id, structure, wfc, wfb))

    worst = _WORST_CASE[structure]
    for name, size in wfc.items():
        assert 0 <= size <= worst, \
            f"{name}: p99.99 occupancy {size} exceeds the worst case"
    # WFB promotes earlier, so it never needs more shadow space than WFC
    # (allowing small sampling jitter).
    for name in wfb:
        assert wfb[name] <= wfc[name] + 2


def test_sizing_summary(runner):
    """The averages must show the paper's ordering: i-TLB needs the
    fewest entries; the d-cache needs the most."""
    averages = {}
    for _, structure in FIGURES:
        series = runner.shadow_sizing(structure, CommitPolicy.WFC)
        averages[structure] = series["Average"]
    print()
    for structure, value in averages.items():
        print(f"  {structure:14s} avg p99.99 = {value:.1f} entries")
    assert averages["shadow_itlb"] <= averages["shadow_dcache"]
