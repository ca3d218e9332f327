#!/usr/bin/env python
"""Shadow-occupancy anomaly detection (paper Section VII future work).

The paper suggests that because benign programs keep the worst-case
shadow structures mostly empty, "abnormal growth of the structures [can
be used] as an indicator of a possible attack".  This example runs a
benign workload and a TSA-style burst through the detector and shows the
alarm firing only for the burst.

Usage::

    python examples/anomaly_detection.py
"""

from repro import CommitPolicy, Machine, ProgramBuilder
from repro.core.detector import ShadowAnomalyDetector
from repro.workloads import generate_program, profile_by_name


def benign_run() -> None:
    machine = Machine(policy=CommitPolicy.WFC)
    workload = generate_program(profile_by_name("namd"))
    workload.apply_memory_image(machine)
    detector = ShadowAnomalyDetector().attach(machine)
    machine.run(workload.program, max_instructions=5000)
    report = detector.detach()
    print("benign workload (namd):")
    print(f"  peak occupancies: {report.peak_occupancy}")
    print(f"  attack suspected: {report.attack_suspected}")
    print()


def bursty_run() -> None:
    machine = Machine(policy=CommitPolicy.WFC)
    machine.map_user_range(0x100_0000, 64 * 4096)
    detector = ShadowAnomalyDetector(
        {"shadow_dtlb": 12}).attach(machine)
    b = ProgramBuilder()
    b.li("r1", 0x100_0000)
    for page in range(32):        # trojan-like burst: 32 cold pages
        b.load("r2", "r1", page * 4096)
    b.halt()
    machine.run(b.build())
    report = detector.detach()
    print("TSA-style burst (32 distinct cold pages in one window):")
    print(f"  peak occupancies: {report.peak_occupancy}")
    print(f"  attack suspected: {report.attack_suspected}")
    for event in report.events[:3]:
        print(f"  alarm: {event}")


def main() -> None:
    benign_run()
    bursty_run()


if __name__ == "__main__":
    main()
