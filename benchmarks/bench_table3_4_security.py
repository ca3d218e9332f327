"""Tables III & IV: the security matrix.

Runs every attack PoC under BASELINE / WFB / WFC and asserts the exact
closed/leaked pattern the paper reports:

Table III — Meltdown closed by WFC only; Spectre 1/2 closed by both.
Table IV  — I-cache, iTLB, dTLB and Transient variants closed by both.
"""

from repro.api import Session
from repro.attacks.runner import render_matrix
from repro.attacks.tsa import run_tsa_vulnerable
from repro.core.policy import CommitPolicy

# attack -> {policy: attack succeeds?} straight from the paper's tables
# (plus the two extension variants, whose expected rows follow the
# paper's taxonomy: anything needing a mispredicted branch is closed by
# WFB as well).
EXPECTED = {
    "spectre_v1": {"baseline": True, "wfb": False, "wfc": False},
    "spectre_v1_pp": {"baseline": True, "wfb": False, "wfc": False},
    "spectre_v2": {"baseline": True, "wfb": False, "wfc": False},
    "meltdown": {"baseline": True, "wfb": True, "wfc": False},
    "meltdown_spectre": {"baseline": True, "wfb": False, "wfc": False},
    "icache": {"baseline": True, "wfb": False, "wfc": False},
    "itlb": {"baseline": True, "wfb": False, "wfc": False},
    "dtlb": {"baseline": True, "wfb": False, "wfc": False},
    "transient": {"baseline": False, "wfb": False, "wfc": False},
}


def test_tables_3_and_4_security_matrix():
    matrix = Session(cache=False).matrix(secret=42)
    print()
    print(render_matrix(matrix))

    for attack, expectations in EXPECTED.items():
        for policy, should_leak in expectations.items():
            result = matrix[attack][policy]
            assert result.success == should_leak, (
                f"{attack} under {policy}: expected "
                f"{'leak' if should_leak else 'closed'}, got {result}")


def test_transient_channel_exists_when_undersized():
    """Section V's premise: the TSA channel is real — it works against a
    SafeSpec implementation whose shadow dTLB is undersized, which is
    exactly why Table IV's configuration sizes for the worst case."""
    result = run_tsa_vulnerable(CommitPolicy.WFC, secret=1)
    print()
    print(f"  undersized shadow dTLB: channel_works="
          f"{result.details['channel_works']}")
    assert result.details["channel_works"]
    assert result.success
