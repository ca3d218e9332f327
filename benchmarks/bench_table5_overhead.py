"""Table V: SafeSpec hardware overhead at 40 nm.

Regenerates the paper's CACTI-based overhead comparison with the
analytical SRAM/CAM model: the worst-case "Secure" sizing versus the
p99.99-sized WFC configuration, reported absolutely and relative to the
Table II cache configuration.

Shape assertions follow the paper: the Secure configuration costs
several times WFC on both axes, WFC's overhead is a few percent, and
even the Secure overhead "is tolerable ... making the design highly
practical".
"""

from repro.hwmodel.overhead import (SECURE_SIZING, WFC_SIZING,
                                    render_table5, table5)


def test_table5_overhead():
    rows = table5()
    print()
    print(render_table5())

    secure, wfc = rows["Secure"], rows["WFC"]

    # WFC is sized from the Figures 6-9 percentiles; Secure from the
    # worst-case bounds.
    assert SECURE_SIZING.dcache == 128 and SECURE_SIZING.icache == 224
    assert WFC_SIZING.dcache == 48 and WFC_SIZING.icache == 25

    # Paper shape: order-of-magnitude gap between Secure and WFC.
    assert secure.estimate.total_power_mw > 4 * wfc.estimate.total_power_mw
    assert secure.estimate.area_mm2 > 4 * wfc.estimate.area_mm2

    # WFC overhead is small (paper: 3% power, 2% area).
    assert wfc.power_percent_of_l1 < 10.0
    assert wfc.area_percent_of_l1 < 5.0

    # Secure overhead is tolerable (paper: 26.4% power, 17% area).
    assert secure.power_percent_of_l1 < 50.0
    assert secure.area_percent_of_l1 < 30.0

    # Shadow access time stays under the 4-cycle L1 hit assumption at
    # a 3 GHz clock (paper Section VI-A's conservative access model).
    assert secure.estimate.access_time_ns < 4 / 3.0
