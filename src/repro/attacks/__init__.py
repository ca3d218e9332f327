"""Proof-of-concept speculation attacks run against the simulated CPU.

Each attack module states what is its own — programs, memory image,
training, trigger, receiver and benign slots — as an
:class:`~repro.attacks.runner.Attack`; :func:`~repro.attacks.runner.run_attack`
does every shared step and returns an
:class:`~repro.attacks.runner.AttackResult` saying what was leaked.
Together they regenerate Tables III and IV of the paper:

================  =====================  ========  =====  =====
Attack            Module                 BASELINE  WFB    WFC
================  =====================  ========  =====  =====
Spectre v1        ``spectre_v1``         leaks     safe   safe
Spectre v1 (P+P)  ``spectre_pp``         leaks     safe   safe
Spectre v2        ``spectre_v2``         leaks     safe   safe
Meltdown          ``meltdown``           leaks     LEAKS  safe
Meltdown+Spectre  ``meltdown_spectre``   leaks     safe   safe
I-cache           ``icache_variant``     leaks     safe   safe
iTLB              ``tlb_variant``        leaks     safe   safe
dTLB              ``tlb_variant``        leaks     safe   safe
Transient         ``tsa``                n/a       (small shadow leaks;
                                                   SECURE sizing safe)
ret2spec          ``ret2spec``           leaks     safe   safe
SpectreRSB        ``spectre_rsb``        leaks     safe   safe
Spectre v2 BHB    ``spectre_v2_bhb``     leaks     safe   safe
Spectre v4        ``ssb_v4``             leaks     LEAKS  safe
================  =====================  ========  =====  =====

Each entry point registers itself with
:data:`repro.api.registry.ATTACKS`, which is where the catalogue — CLI
choices, matrix rows and the expected-closed metadata — derives from.
This ``__init__`` is the one place the attack modules are imported, so
registration (and hence table) order is fixed here no matter which
entry point touches the package first.
"""

from repro.api.registry import expected_closed
from repro.attacks.runner import AttackResult, run_attack_by_name
# Import order below IS the registry order: the paper's Tables III/IV
# row order (spectre_v1, spectre_v1_pp, spectre_v2, meltdown,
# meltdown_spectre, icache, itlb, dtlb, transient), then the extended
# scenario families (ret2spec, spectre_rsb, spectre_v2_bhb, ssb_v4).
from repro.attacks.spectre_v1 import run_spectre_v1
from repro.attacks.spectre_pp import run_spectre_v1_prime_probe
from repro.attacks.spectre_v2 import run_spectre_v2
from repro.attacks.meltdown import run_meltdown
from repro.attacks.meltdown_spectre import run_meltdown_spectre
from repro.attacks.icache_variant import run_icache_variant
from repro.attacks.tlb_variant import run_dtlb_variant, run_itlb_variant
from repro.attacks.tsa import run_tsa
from repro.attacks.ret2spec import run_ret2spec
from repro.attacks.spectre_rsb import run_spectre_rsb
from repro.attacks.spectre_v2_bhb import run_spectre_v2_bhb
from repro.attacks.ssb_v4 import run_ssb_v4

__all__ = [
    "AttackResult",
    "expected_closed",
    "run_attack_by_name",
    "run_dtlb_variant",
    "run_icache_variant",
    "run_itlb_variant",
    "run_meltdown",
    "run_meltdown_spectre",
    "run_ret2spec",
    "run_spectre_rsb",
    "run_spectre_v1",
    "run_spectre_v1_prime_probe",
    "run_spectre_v2",
    "run_spectre_v2_bhb",
    "run_ssb_v4",
    "run_tsa",
]
