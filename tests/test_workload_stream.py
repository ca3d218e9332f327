"""The workload generator's random stream.

Programs are drawn from :class:`repro.workloads.pcg64.PCG64`, a pure
Python port of ``numpy.random.default_rng(seed)``.  Two checks keep
every suite program what it was:

* each suite profile's program (instructions, labels and chase writes)
  is pinned by a digest in ``fixtures/suite_program_digests.json``;
* where numpy is installed, the port is compared with
  ``default_rng`` draw by draw, for several seeds and for each of the
  four calls the generator makes.

To regenerate the digests after an intentional program change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_workload_stream.py
"""

import hashlib
import json
import os
import pathlib
import random

import pytest

from repro.workloads import SUITE_PROFILES, generate_program
from repro.workloads.pcg64 import PCG64

FIXTURE = (pathlib.Path(__file__).parent / "fixtures"
           / "suite_program_digests.json")

# Seeds for the draw-by-draw comparison: the suite's, the edges of one
# 32-bit word, and seeds spanning two, three and five words.
SEEDS = (0, 1, 101, 111, 122, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7)
DRAWS = 2000

# integers() spans covering every branch: no draw, 32-bit Lemire (with
# and without frequent rejection), the raw 32-bit draw, 64-bit Lemire
# (likewise) and the raw 64-bit draw; plus the generator's own spans.
SPANS = (1, 2, 4, 19, 3 << 30, 2**32 - 1, 2**32, 2**32 + 1, 3 << 62,
         2**64, 24 - 5, 48, 1 << 62)


def _numpy_integers(rng, low: int, high: int) -> int:
    # numpy's default int64 result cannot hold the widest spans; its
    # uint64 path draws through the same bounded-integer routine.
    return int(rng.integers(low, high, dtype="uint64" if high > 2**63
                            else "int64"))


def _program_digest(workload) -> str:
    digest = hashlib.sha256()
    for instruction in workload.program.instructions:
        _, fields = instruction.__reduce__()
        digest.update(repr(tuple(getattr(f, "value", f)
                                 for f in fields)).encode())
    digest.update(repr(sorted(workload.program.labels.items())).encode())
    digest.update(repr(workload.chase_writes).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("profile", SUITE_PROFILES, ids=lambda p: p.name)
def test_suite_program_matches_digest(profile):
    digest = _program_digest(generate_program(profile))
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        fixture = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
        fixture[profile.name] = digest
        FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True)
                           + "\n")
        pytest.skip(f"regenerated {profile.name} in {FIXTURE.name}")
    fixture = json.loads(FIXTURE.read_text())
    assert digest == fixture[profile.name]


def test_fixture_covers_the_suite_exactly():
    fixture = json.loads(FIXTURE.read_text())
    assert sorted(fixture) == sorted(p.name for p in SUITE_PROFILES)


class TestAgainstNumpy:
    """Draw by draw against ``numpy.random.default_rng``."""

    @pytest.fixture
    def numpy_rng(self):
        np = pytest.importorskip("numpy")
        return np.random.default_rng

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random(self, numpy_rng, seed):
        ours, theirs = PCG64(seed), numpy_rng(seed)
        assert [ours.random() for _ in range(DRAWS)] == \
            [theirs.random() for _ in range(DRAWS)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_integers(self, numpy_rng, seed):
        ours, theirs = PCG64(seed), numpy_rng(seed)
        pick = random.Random(seed)
        for _ in range(DRAWS):
            span = pick.choice(SPANS)
            low = 0 if span > 2**62 else pick.randrange(-8, 8)
            assert ours.integers(low, low + span) == \
                _numpy_integers(theirs, low, low + span)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_choice(self, numpy_rng, seed):
        ours, theirs = PCG64(seed), numpy_rng(seed)
        ops = ["add", "xor", "sub", "or"]
        for size in (1, 2, 3, 4) * (DRAWS // 4):
            assert ours.choice(ops[:size]) == str(theirs.choice(ops[:size]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_permutation(self, numpy_rng, seed):
        ours, theirs = PCG64(seed), numpy_rng(seed)
        for n in (0, 1, 2, 3, 17, 64, 2048):
            assert ours.permutation(n) == \
                [int(v) for v in theirs.permutation(n)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_calls_share_the_32_bit_buffer(self, numpy_rng,
                                                        seed):
        # A 32-bit draw leaves half a 64-bit word buffered; random() and
        # 64-bit integers() draw past it and later 32-bit draws use it.
        ours, theirs = PCG64(seed), numpy_rng(seed)
        pick = random.Random(seed)
        for _ in range(DRAWS):
            call = pick.randrange(4)
            if call == 0:
                assert ours.random() == theirs.random()
            elif call == 1:
                span = pick.choice(SPANS)
                assert ours.integers(0, span) == \
                    _numpy_integers(theirs, 0, span)
            elif call == 2:
                assert ours.choice("abc") == str(theirs.choice(list("abc")))
            else:
                n = pick.randrange(40)
                assert ours.permutation(n) == \
                    [int(v) for v in theirs.permutation(n)]


def test_integers_rejects_an_empty_range():
    with pytest.raises(ValueError):
        PCG64(0).integers(5, 5)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        PCG64(-1)
