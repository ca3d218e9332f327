"""End-to-end attack tests — the paper's Tables III and IV.

Each test runs a complete PoC attack (train, flush, trigger, receive)
and asserts the paper's reported outcome for that (attack, policy) cell.
"""

import pytest

from repro_testlib import POLICIES
from repro.api import Session
from repro.attacks import (run_attack_by_name, run_dtlb_variant,
                           run_icache_variant, run_itlb_variant,
                           run_meltdown, run_spectre_v1, run_spectre_v2,
                           run_tsa)
from repro.api.registry import attack_names
from repro.attacks.runner import AttackResult, render_matrix
from repro.attacks.tsa import run_tsa_vulnerable
from repro.errors import ConfigError

BASELINE, WFB, WFC = POLICIES


class TestSpectreV1:
    """Table III row: Spectre 1 closed by WFB and WFC."""

    def test_baseline_leaks(self):
        assert run_spectre_v1(BASELINE, secret=123).success

    def test_wfb_closes(self):
        assert run_spectre_v1(WFB, secret=123).closed

    def test_wfc_closes(self):
        assert run_spectre_v1(WFC, secret=123).closed

    def test_leaks_arbitrary_byte(self):
        for secret in (1, 77, 255):
            assert run_spectre_v1(BASELINE, secret=secret).leaked == secret

    def test_rejects_non_byte_secret(self):
        with pytest.raises(ConfigError, match="secret must be a byte"):
            run_spectre_v1(BASELINE, secret=300)


class TestSpectreV2:
    """Table III row: Spectre 2 closed by WFB and WFC."""

    def test_baseline_leaks(self):
        result = run_spectre_v2(BASELINE, secret=99)
        assert result.success
        # sanity: the poisoner really hijacked the BTB entry
        assert result.details["poisoned_target"] == \
            result.details["gadget_pc"]

    def test_wfb_closes(self):
        assert run_spectre_v2(WFB, secret=99).closed

    def test_wfc_closes(self):
        assert run_spectre_v2(WFC, secret=99).closed


class TestMeltdown:
    """Table III row: Meltdown closed by WFC but NOT by WFB."""

    def test_baseline_leaks(self):
        result = run_meltdown(BASELINE, secret=42)
        assert result.success
        assert "permission" in result.details["faults"]

    def test_wfb_still_leaks(self):
        """The paper's key WFB/WFC distinction: a faulting load has no
        branch dependence, so WFB promotes its dependent transmit line
        before the fault squashes."""
        assert run_meltdown(WFB, secret=42).success

    def test_wfc_closes(self):
        assert run_meltdown(WFC, secret=42).closed


class TestIcacheVariant:
    """Table IV row: the paper's new I-cache variant."""

    def test_baseline_leaks(self):
        assert run_icache_variant(BASELINE, secret=42).success

    def test_wfb_closes(self):
        assert run_icache_variant(WFB, secret=42).closed

    def test_wfc_closes(self):
        assert run_icache_variant(WFC, secret=42).closed

    def test_rejects_slot_zero_secret(self):
        with pytest.raises(ConfigError, match="benign slot"):
            run_icache_variant(BASELINE, secret=0)


class TestTlbVariants:
    """Table IV rows: iTLB and dTLB variants."""

    def test_dtlb_baseline_leaks(self):
        assert run_dtlb_variant(BASELINE, secret=42).success

    def test_dtlb_wfb_closes(self):
        assert run_dtlb_variant(WFB, secret=42).closed

    def test_dtlb_wfc_closes(self):
        assert run_dtlb_variant(WFC, secret=42).closed

    def test_itlb_baseline_leaks(self):
        assert run_itlb_variant(BASELINE, secret=42).success

    def test_itlb_wfb_closes(self):
        assert run_itlb_variant(WFB, secret=42).closed

    def test_itlb_wfc_closes(self):
        assert run_itlb_variant(WFC, secret=42).closed


class TestTransient:
    """Table IV 'Transient' row plus the Section V vulnerability demo."""

    def test_undersized_shadow_channel_works(self):
        result = run_tsa_vulnerable(WFC, secret=1)
        assert result.details["channel_works"]
        assert result.success

    def test_undersized_shadow_transmits_zero_too(self):
        assert run_tsa_vulnerable(WFC, secret=0).success

    def test_secure_sizing_closes_wfc(self):
        result = run_tsa(WFC, secret=1)
        assert not result.details["channel_works"]
        assert result.closed

    def test_secure_sizing_closes_wfb(self):
        assert run_tsa(WFB, secret=1).closed

    def test_baseline_has_no_shadow_channel(self):
        result = run_tsa(BASELINE, secret=1)
        assert result.leaked is None


class TestRunner:
    def test_run_attack_by_name(self):
        assert run_attack_by_name("spectre_v1", BASELINE, 42).success

    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigError):
            run_attack_by_name("rowhammer", BASELINE)

    def test_matrix_subset(self):
        matrix = Session(cache=False).matrix(attacks=["spectre_v1"],
                                             policies=[BASELINE, WFC])
        assert matrix["spectre_v1"]["baseline"].success
        assert matrix["spectre_v1"]["wfc"].closed

    def test_render_matrix(self):
        matrix = Session(cache=False).matrix(attacks=["spectre_v1"],
                                             policies=[WFC])
        text = render_matrix(matrix)
        assert "spectre_v1" in text
        assert "closed" in text

    def test_render_matrix_columns_line_up(self):
        # Every registered attack, including names longer than the
        # header's "attack" column used to be.
        names = attack_names()
        matrix = {name: {policy.value: AttackResult(name, policy, 42, None)
                         for policy in POLICIES}
                  for name in names}
        lines = render_matrix(matrix).splitlines()
        header, rows = lines[0], lines[2:]
        assert lines[1] == "-" * len(header)
        assert [row.split()[0] for row in rows] == names
        # Each policy column ends where its header label ends.
        ends = [header.index(policy.value) + len(policy.value)
                for policy in POLICIES]
        for row in rows:
            assert len(row) == len(header)
            for end in ends:
                assert row[end - len("closed"):end] == "closed"

    def test_unknown_attack_in_matrix_rejected(self):
        with pytest.raises(ConfigError):
            Session(cache=False).matrix(attacks=["nope"])

