import pytest

from beamspace.hwmodel import (MUTE_FRACTIONS, ArchModel, power_proxy,
                               savings_vs_baseline, throughput_bps)


def test_published_arithmetic():
    assert round(power_proxy(0.21, 0.83), 4) == 0.3443
    assert round(power_proxy(0.45, 0.83), 4) == 0.5435


def test_no_muting_at_full_activity():
    for mf in (0.0, 0.5, 1.0):
        assert power_proxy(1.0, mf) == 1.0


def test_savings():
    assert abs(savings_vs_baseline(0.21, 0.83) - 0.6557) < 1e-12
    assert savings_vs_baseline(1.0, 0.5) == 0.0
    assert savings_vs_baseline(0.0, 0.83) == 0.83


def test_proxy_monotone_in_alpha_and_mf():
    assert power_proxy(0.2, 0.8) < power_proxy(0.3, 0.8)
    # larger mute-capable fraction never increases the proxy
    assert power_proxy(0.3, 0.9) <= power_proxy(0.3, 0.7)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        power_proxy(-0.1, 0.5)
    with pytest.raises(ValueError):
        power_proxy(0.5, 1.1)
    with pytest.raises(ValueError):
        ArchModel("AT", 1.5, 1e9, 8, 64, 4)
    with pytest.raises(ValueError):
        ArchModel("SYSTOLIC", 0.5, 1e9, 8, 64, 4)


def test_adder_tree_throughput():
    arch = ArchModel("AT", 0.83, 1e9, 8, 64, 4)
    assert throughput_bps(arch) == 32e9


def test_mac_throughput_divided_by_beams():
    arch = ArchModel("MAC", 0.92, 1e9, 8, 64, 4)
    assert throughput_bps(arch) == 0.5e9


def test_degenerate_zero_bits():
    # a symbol of zero bits has no throughput to report: rejected at construction
    with pytest.raises(ValueError, match="bits_per_symbol"):
        ArchModel("AT", 0.83, 1e9, 8, 64, 0)


@pytest.mark.parametrize("clock_hz", [0.0, -1.0, float("nan"), float("inf")])
def test_clock_must_be_finite_and_positive(clock_hz):
    with pytest.raises(ValueError, match="clock_hz"):
        ArchModel("MAC", 0.92, clock_hz, 8, 64, 4)


@pytest.mark.parametrize("field, args", [("num_ues", (0, 64, 4)), ("num_beams", (8, 0, 4)),
                                         ("num_beams", (8, -64, 4)),
                                         ("bits_per_symbol", (8, 64, -1))])
def test_counts_must_be_at_least_one(field, args):
    with pytest.raises(ValueError, match=field):
        ArchModel("MAC", 0.92, 1e9, *args)


def test_mute_fraction_table():
    assert MUTE_FRACTIONS["at-spade"] == 0.70
    assert MUTE_FRACTIONS["at-cspade"] == 0.83
    assert MUTE_FRACTIONS["spade-cm"] == 0.77
    assert MUTE_FRACTIONS["cspade-cm"] == 0.92
    assert MUTE_FRACTIONS["mac-cspade"] == 0.92
