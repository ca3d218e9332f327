"""Tables I & II: the simulated CPU and memory-system configuration.

Regenerates (and asserts) the paper's configuration tables from the
library defaults, so any drift between the code and the paper is caught.
"""

from repro.memory.hierarchy import HierarchyConfig
from repro.pipeline.config import CoreConfig


def render_table1(config: CoreConfig) -> str:
    rows = [
        ("CPU", "SkyLake-like out-of-order core"),
        ("Issue", f"{config.issue_width}-way issue"),
        ("IQ", f"{config.iq_entries}-entry Issue Queue"),
        ("Commit", f"Up to {config.commit_width} Micro-Ops/cycle"),
        ("ROB", f"{config.rob_entries}-entry Reorder Buffer"),
        ("LDQ", f"{config.ldq_entries}-entry"),
        ("STQ", f"{config.stq_entries}-entry"),
    ]
    lines = ["Table I: configuration of the simulated CPU",
             "-" * 44]
    lines += [f"  {name:8s} {value}" for name, value in rows]
    return "\n".join(lines)


def render_table2(config: HierarchyConfig) -> str:
    def cache_row(cfg, extra=""):
        return (f"{cfg.size_bytes // 1024} KB, {cfg.associativity}-way, "
                f"{cfg.line_bytes}B line, {cfg.hit_latency} cycle hit"
                f"{extra}")

    rows = [
        ("L1I-Cache", cache_row(config.l1i)),
        ("L1D-Cache", cache_row(config.l1d)),
        ("L2 Cache", cache_row(config.l2)),
        ("L3 Cache", cache_row(config.l3)),
        ("iTLB", f"{config.itlb.entries}-entry"),
        ("dTLB", f"{config.dtlb.entries}-entry"),
        ("Memory", f"{config.memory_latency} cycles"),
    ]
    lines = ["Table II: configuration of the simulated memory system",
             "-" * 54]
    lines += [f"  {name:10s} {value}" for name, value in rows]
    return "\n".join(lines)


def test_tables_1_and_2():
    table1 = render_table1(CoreConfig())
    table2 = render_table2(HierarchyConfig())
    print()
    print(table1)
    print()
    print(table2)

    core = CoreConfig()
    assert core.issue_width == 6
    assert core.iq_entries == 96
    assert core.rob_entries == 224
    assert core.ldq_entries == 72
    assert core.stq_entries == 56
    memory = HierarchyConfig()
    assert memory.l1d.size_bytes == 32 * 1024
    assert memory.l2.size_bytes == 256 * 1024
    assert memory.l3.size_bytes == 2 * 1024 * 1024
    assert memory.itlb.entries == 64
    assert memory.memory_latency == 191
