import itertools

import numpy as np

from beamspace.modem import BITS_PER_SYMBOL, demap_hard, map_bits

ALL_LABELS = np.array(list(itertools.product([0, 1], repeat=4)))


def test_roundtrip_all_labels():
    syms = map_bits(ALL_LABELS)
    assert np.array_equal(demap_hard(syms), ALL_LABELS)


def test_average_energy_is_one():
    syms = map_bits(ALL_LABELS)
    assert abs(np.mean(np.abs(syms) ** 2) - 1.0) < 1e-12


def test_constellation_distinct_and_negation_symmetric():
    syms = map_bits(ALL_LABELS)
    assert len(np.unique(np.round(syms, 12))) == 16
    pts = set(np.round(syms, 12))
    assert pts == set(np.round(-syms, 12))


def test_gray_adjacency():
    syms = map_bits(ALL_LABELS) * np.sqrt(10.0)  # levels at odd integers
    for i, j in itertools.combinations(range(16), 2):
        d = syms[i] - syms[j]
        if np.isclose(abs(d), 2.0):  # horizontally or vertically adjacent
            assert np.sum(ALL_LABELS[i] != ALL_LABELS[j]) == 1


def test_threshold_tie_rules():
    # the slicing thresholds -2, 0, +2 in units of sqrt(1/10)
    got = demap_hard(np.array([2.0 + 0j, -2.0 + 0j, 0.0 + 0j]) * np.sqrt(0.1))
    # ties go to the lower-magnitude level: +1, -1, and 0 resolves to +1
    assert np.array_equal(got[0][:2], [1, 1])
    assert np.array_equal(got[1][:2], [0, 1])
    assert np.array_equal(got[2][:2], [1, 1])


def test_far_outside_clips_to_corner():
    got = demap_hard(np.array([100.0 + 100.0j, -100.0 - 100.0j]))
    corner_pp = demap_hard(map_bits(np.array([[1, 0, 1, 0]])))[0]
    corner_mm = demap_hard(map_bits(np.array([[0, 0, 0, 0]])))[0]
    assert np.array_equal(got[0], corner_pp)
    assert np.array_equal(got[1], corner_mm)


def test_batched_shapes():
    bits = np.random.default_rng(0).integers(0, 2, size=(7, 3, BITS_PER_SYMBOL))
    syms = map_bits(bits)
    assert syms.shape == (7, 3)
    assert demap_hard(syms).shape == (7, 3, BITS_PER_SYMBOL)


def _frozen_demap_hard(symbols):
    """demap_hard as first written (at unit energy): one slicer per rail,
    np.where chains."""
    s = np.asarray(symbols) / np.sqrt(1.0 / 10.0)

    def slice_dim(x):
        idx = np.where(x >= 0.0, 2, 1)
        idx = np.where(x > 2.0, 3, idx)
        return np.where(x < -2.0, 0, idx)

    gray = np.array([0b00, 0b01, 0b11, 0b10])
    gi, gq = gray[slice_dim(s.real)], gray[slice_dim(s.imag)]
    return np.stack([gi >> 1, gi & 1, gq >> 1, gq & 1], axis=-1)


def test_demap_matches_frozen_copy_on_estimate_grid():
    # Every (13, 8) estimate code on each rail, paired three ways, as 1-D
    # input and as a transposed 2-D block (the harness demaps shat.T).
    codes = np.arange(-4095, 4096) * 2.0 ** -8
    for im in (codes, codes[::-1], np.roll(codes, 777)):
        symbols = codes + 1j * im
        assert np.array_equal(demap_hard(symbols), _frozen_demap_hard(symbols))
        block = symbols[:8184].reshape(8, -1).T
        assert np.array_equal(demap_hard(block), _frozen_demap_hard(block))


def _frozen_map_bits(bits):
    """map_bits as first written (at unit energy): one Gray level lookup per
    rail."""
    levels = np.array([-3.0, -1.0, 3.0, 1.0])
    i_idx = bits[..., 0] * 2 + bits[..., 1]
    q_idx = bits[..., 2] * 2 + bits[..., 3]
    return (levels[i_idx] + 1j * levels[q_idx]) * np.sqrt(1.0 / 10.0)


def _stacked_demap_hard(symbols):
    """demap_hard before its bit-pair table: Gray codes split by np.stack."""
    s = np.asarray(symbols) / np.sqrt(1.0 / 10.0)
    rails = np.ascontiguousarray(s, dtype=complex).view(float).reshape(s.shape + (2,))
    idx = (rails >= -2.0).astype(np.int64) + (rails >= 0.0) + (rails > 2.0)
    g = np.array([0b00, 0b01, 0b11, 0b10])[idx]
    return np.stack([g >> 1, g & 1], axis=-1).reshape(s.shape + (BITS_PER_SYMBOL,))


def test_tables_match_old_formulas_byte_for_byte():
    bits = np.random.default_rng(3).integers(0, 2, size=(128, 8, BITS_PER_SYMBOL))
    for b in (ALL_LABELS, bits, ALL_LABELS[5]):
        got, ref = map_bits(b), _frozen_map_bits(b)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    # the slicer edges (+-2, 0 and -0.0 on each rail, in units of sqrt(1/10))
    # and their neighbours, next to the 16 symbols
    edges = np.array([-2.0, 2.0, 0.0, -0.0, -3.0, 3.0, 1.0, -1.0])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf)]) * np.sqrt(1.0 / 10.0)
    grid = edges[:, None] + 1j * edges[None, :]
    for symbols in (grid, grid.T, map_bits(ALL_LABELS), map_bits(bits).T):
        got, ref = demap_hard(symbols), _stacked_demap_hard(symbols)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
        assert np.array_equal(got, _frozen_demap_hard(symbols))
