"""Section 4.3 / 1 prose claims: the ledger's ``Sec 4.3`` / ``Sec 1`` rows."""


def test_data_transfer_reduction_12x(off):
    assert not off(r"Sec 4\.3/(HEMult|Rotate) memory cut", 2)


def test_rescale_memory_latency_reduction(off):
    assert not off(r"Sec 4\.3/Rescale memory cut", 1)


def test_redundant_memory_reduction_38pct(off):
    assert not off("Sec 1/redundant DRAM traffic removed", 1)


def test_gme_beats_fab2(off):
    assert not off(r"Sec 4\.3/GME vs FAB-2/helr_ms", 1)


def test_hbm_bandwidth_gap_to_asics(off):
    assert not off(r"Table 8 speedups/ARK vs GME/boot_ms \(published\)", 1)
