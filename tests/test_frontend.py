import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import erf

from beamspace import harness
from beamspace.channel import ScenarioConfig, draw_scenario
from beamspace.frontend import (AdcConfig, ReceiveVector, dft_pilots, dft_unitary,
                                ls_estimate, optimal_unit_step, perfect_csi,
                                quantize_adc, receive, unified_step, unit_noise)
from beamspace.harness import SimConfig
from beamspace.numerics import ANTENNA_Y_FMT, BEAMSPACE_Y_FMT, FxComplexArray, to_fixed

# Recorded from this implementation at build time; guards against drift.
LS_REL_ERR_GOLDEN = 0.07688070016788927


def _noise(H, s, rng):
    """The unit normals that ``receive`` takes for H s, drawn by
    ``unit_noise`` from ``rng``: a Generator, or a list of them for a stack."""
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    return unit_noise(rngs, np.shape(H)[:-1] + np.shape(s)[1:])


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _Phi(x):
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def quantizer_mse(step: float, bits: int) -> float:
    """E[(Q_m(z, step) - z)^2] for z ~ N(0,1), via exact per-cell Gaussian integrals."""
    half_levels = 1 << (bits - 1)
    k = np.arange(half_levels)
    a = k * step
    b = np.where(k == half_levels - 1, np.inf, (k + 1) * step)
    level = (k + 0.5) * step
    b_fin = np.where(np.isinf(b), 0.0, b)
    pa, pb = _phi(a), np.where(np.isinf(b), 0.0, _phi(b_fin))
    Pa, Pb = _Phi(a), np.where(np.isinf(b), 1.0, _Phi(b_fin))
    bpb = b_fin * pb
    cell = (1.0 + level ** 2) * (Pb - Pa) - 2.0 * level * (pa - pb) - (bpb - a * pa)
    return 2.0 * float(cell.sum())


@pytest.mark.parametrize("m", range(1, 9))
def test_unit_step_table_rederived(m):
    res = minimize_scalar(lambda d: quantizer_mse(d, m), bounds=(1e-3, 4.0),
                          method="bounded", options={"xatol": 1e-12})
    assert abs(optimal_unit_step(m) - res.x) <= 1e-9 * res.x


def test_import_loads_no_scipy():
    code = ("import sys, beamspace\n"
            "beamspace.optimal_unit_step(6)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out == "[]\n"


def test_one_bit_step_closed_form():
    assert abs(optimal_unit_step(1) - 2.0 * np.sqrt(2.0 / np.pi)) < 1e-6


def test_unit_step_local_optimality():
    for m in range(1, 9):
        d = optimal_unit_step(m)
        assert quantizer_mse(d, m) <= quantizer_mse(d * 1.01, m)
        assert quantizer_mse(d, m) <= quantizer_mse(d * 0.99, m)


def test_unit_step_out_of_range():
    with pytest.raises(ValueError):
        optimal_unit_step(0)
    with pytest.raises(ValueError):
        optimal_unit_step(9)


def test_adc_config_rejects_bad_bits_and_steps():
    assert AdcConfig(6, 0.5).step == 0.5
    with pytest.raises(ValueError, match="bits"):
        AdcConfig(0, 0.5)
    with pytest.raises(ValueError, match="positive"):
        AdcConfig(6, 0.0)
    with pytest.raises(ValueError, match="positive"):
        AdcConfig(6, np.array([0.5, 0.0, 0.25]).reshape(3, 1, 1))
    assert [f.name for f in dataclasses.fields(AdcConfig)] == ["bits", "step"]


def test_unified_step_single_antenna():
    # |h|^2 + N0 = 2 makes the row variance term exactly 1.
    H = np.array([[1.0 + 0j]])
    assert abs(unified_step(H, 1.0, 6) - optimal_unit_step(6)) < 1e-12


def test_unified_step_equal_rows():
    H = np.ones((4, 2), dtype=complex)
    one_row = unified_step(H[:1], 0.5, 4)
    assert abs(unified_step(H, 0.5, 4) - one_row) < 1e-12


def test_unified_step_matches_row_oracle():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    N0, m = 0.2, 5
    ref = max(optimal_unit_step(m) * np.sqrt((np.sum(np.abs(H[b]) ** 2) + N0) / 2)
              for b in range(4))
    assert abs(unified_step(H, N0, m) - ref) < 1e-12


def test_unified_step_on_a_stack_equals_each_matrix_alone():
    # Each step of a stack equals, exactly, that of its matrix alone and the
    # per-matrix formula as first written (row sums over axis 1).
    rng = np.random.default_rng(21)
    for los in (1, 0):
        gens = [np.random.default_rng([los, i]) for i in range(8)]
        H = draw_scenario(ScenarioConfig(num_antennas=64, num_ues=8, los=bool(los)), gens).H
        for bits in (1, 6, 8):
            N0 = float(rng.uniform(0.01, 4.0))
            steps = unified_step(H, N0, bits)
            assert steps.shape == (8,)
            for n in range(8):
                row_var = np.sum(np.abs(H[n]) ** 2, axis=1) + N0
                ref = optimal_unit_step(bits) * float(np.sqrt(row_var.max() / 2.0))
                assert steps[n] == unified_step(H[n], N0, bits) == ref


def test_unified_step_scale_equivariance():
    rng = np.random.default_rng(6)
    H = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    c = 3.7
    assert np.isclose(unified_step(c * H, c * c * 0.4, 6),
                      c * unified_step(H, 0.4, 6))


def test_midrise_level_map():
    assert quantize_adc(np.array([0.7]), 1.0, 2)[0] == 0.5 + 0.5j
    assert quantize_adc(np.array([10.0]), 1.0, 2)[0].real == 1.5


def test_zero_maps_to_positive_half_level():
    q = quantize_adc(np.array([0.0 + 0.0j]), 1.0, 4)[0]
    assert q == 0.5 + 0.5j


def test_levels_are_fixed_points():
    step, m = 0.7, 3
    for k in range(-(1 << (m - 1)), 1 << (m - 1)):
        level = (k + 0.5)
        q = quantize_adc(np.array([level * step]), step, m)[0].real
        assert q == level


@given(st.floats(min_value=1e-6, max_value=50.0, allow_nan=False))
def test_quantizer_odd_symmetry(x):
    step, m = 0.9, 5
    qp = quantize_adc(np.array([x]), step, m)[0].real
    qn = quantize_adc(np.array([-x]), step, m)[0].real
    assert qn == -qp


def test_level_count_is_two_to_m():
    m = 3
    xs = np.linspace(-10, 10, 5001)
    q = quantize_adc(xs, 1.0, m).real
    assert len(np.unique(q)) == 2 ** m


def test_dft_of_impulse():
    x = np.zeros(8)
    x[0] = 1.0
    assert np.allclose(dft_unitary(x), np.full(8, 1 / np.sqrt(8)), atol=1e-12)


def test_dft_unitarity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(33) + 1j * rng.standard_normal(33)  # non power of two
    assert abs(np.linalg.norm(dft_unitary(x)) - np.linalg.norm(x)) < 1e-12
    assert np.allclose(np.fft.ifft(dft_unitary(x)) * np.sqrt(33), x, atol=1e-12)


def test_four_point_dft_of_ones():
    assert np.allclose(dft_unitary(np.ones(4)), [2, 0, 0, 0], atol=1e-12)


def test_beamspace_noise_stays_white():
    rng = np.random.default_rng(11)
    N0 = 0.8
    # no signal and no ADC: receive returns the noise and its unitary DFT
    H, s = np.zeros((16, 1)), np.zeros((1, 20000))
    n, nb = receive(H, s, N0, None, _noise(H, s, rng))
    assert np.all(np.abs(np.mean(np.abs(n.values) ** 2, axis=1) - N0) < 0.05 * N0)
    var = np.mean(np.abs(nb.values) ** 2, axis=1)
    assert np.all(np.abs(var - N0) < 0.05 * N0)


@pytest.mark.parametrize("blocks", [1, 4])
def test_receive_noise_is_n0_over_2_on_each_rail(blocks):
    # The float-chain z-test (test_harness) sees only the total noise power,
    # so a split uneven between the rails would pass it.  Here each rail of
    # each block, as receive scales unit_noise, has mean 0 and variance N0 / 2,
    # and the rails are uncorrelated: with M samples a rail's sample
    # variance has relative sd sqrt(2 / M), and the bounds are 6 sd.
    N0 = 0.3
    H, s = np.zeros((blocks, 64, 1)), np.zeros((1, 2048))
    rngs = [np.random.default_rng([5, n]) for n in range(blocks)]
    z, _ = receive(H, s, N0, None, _noise(H, s, rngs), beamspace=False)
    for block in z.values.reshape(blocks, -1):
        M, var = block.size, N0 / 2.0
        for rail in (block.real, block.imag):
            assert abs(rail.mean()) < 6.0 * np.sqrt(var / M)
            assert abs(rail.var() / var - 1.0) < 6.0 * np.sqrt(2.0 / M)
        assert abs(np.mean(block.real * block.imag)) < 6.0 * var / np.sqrt(M)


def _small_setup(seed=0):
    scen = draw_scenario(ScenarioConfig(num_antennas=16, num_ues=2),
                         np.random.default_rng(seed))
    H = scen.H
    N0 = 0.1
    step = unified_step(H, N0, 6)
    adc = AdcConfig(6, step)
    return H, N0, adc


def test_receive_deterministic():
    H, N0, adc = _small_setup()
    s = np.array([0.3 + 0.1j, -0.2 - 0.4j])
    a1, b1 = receive(H, s, N0, adc, _noise(H, s, np.random.default_rng(77)))
    a2, b2 = receive(H, s, N0, adc, _noise(H, s, np.random.default_rng(77)))
    assert np.array_equal(a1.values, a2.values)
    assert np.array_equal(b1.values, b2.values)


def test_receive_formats_and_grid():
    H, N0, adc = _small_setup()
    s = np.array([0.3 + 0.1j, -0.2 - 0.4j])
    ybar, yb = receive(H, s, N0, adc, _noise(H, s, np.random.default_rng(1)))
    assert ybar.fmt == ANTENNA_Y_FMT and ybar.domain == "antenna"
    assert yb.fmt == BEAMSPACE_Y_FMT and yb.domain == "beamspace"
    # antenna values are exact half-integers
    assert np.all(np.mod(ybar.values.real * 2, 1) == 0)
    assert np.all(np.abs(np.mod(ybar.values.real, 1)) == 0.5)
    # beamspace values live on the (9, 1) half-integer grid
    assert np.all(np.mod(yb.values.real * 2, 1) == 0)


def test_beamspace_is_dft_of_antenna():
    H, N0, adc = _small_setup(3)
    s = np.array([0.1 + 0.2j, 0.4 - 0.1j])
    ybar, yb = receive(H, s, N0, adc, _noise(H, s, np.random.default_rng(5)))
    ref = dft_unitary(ybar.values)
    # requantization to (9, 1) moves each component at most half an lsb
    assert np.max(np.abs(yb.values.real - ref.real)) <= 0.25 + 1e-12
    assert np.max(np.abs(yb.values.imag - ref.imag)) <= 0.25 + 1e-12


def test_unquantized_receive():
    H, N0, _ = _small_setup(4)
    s = np.array([0.1, 0.2])
    ybar, yb = receive(H, s, N0, None, _noise(H, s, np.random.default_rng(5)))
    assert ybar.fmt is None and yb.fmt is None
    assert np.allclose(yb.values, dft_unitary(ybar.values), atol=1e-12)


def test_ls_noiseless_unquantized_is_exact():
    rng = np.random.default_rng(8)
    H = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    P = dft_pilots(4)
    Y = H @ P  # noiseless observation
    assert np.allclose(ls_estimate(Y, P), H, atol=1e-12)


def test_pilots_are_orthogonal():
    P = dft_pilots(8)
    assert np.allclose(P @ P.conj().T, np.eye(8), atol=1e-12)


def test_pilots_are_built_once_and_read_only():
    P = dft_pilots(8)
    assert dft_pilots(8) is P and dft_pilots(4) is not P
    assert not P.flags.writeable
    with pytest.raises(ValueError):
        P[0, 0] = 0.0
    ref = np.fft.fft(np.eye(8)) / np.sqrt(8)
    assert P.tobytes() == ref.tobytes()


def test_perfect_csi_is_step_normalized_truth():
    H = np.array([[1.0 + 2.0j], [3.0 - 1.0j]])
    assert np.allclose(perfect_csi(H, 0.5), 2.0 * H)


def test_ls_estimate_golden_relative_error():
    scen = draw_scenario(ScenarioConfig(num_antennas=32, num_ues=4),
                         np.random.default_rng(42))
    H = scen.H
    N0 = 10 ** (-30 / 10)
    step = unified_step(H, N0, 6)
    adc = AdcConfig(6, step)
    P = dft_pilots(4)
    ybar, _ = receive(H, P, N0, adc, _noise(H, P, np.random.default_rng(42)))
    Ha = ls_estimate(ybar.values, P)
    ref = H / step
    rel = np.linalg.norm(Ha - ref) / np.linalg.norm(ref)
    assert abs(rel - LS_REL_ERR_GOLDEN) < 1e-9
    assert rel < 0.1


def _frozen_receive(H, s, N0, adc, rng):
    """receive as first written: two noise draws, one quantizer pass and one
    to_fixed call per rail, DFT by division."""
    shape = (H.shape[0],) + np.shape(s)[1:]
    z = H @ s + (rng.standard_normal(shape)
                 + 1j * rng.standard_normal(shape)) * np.sqrt(N0 / 2.0)

    def dft(x):
        return np.fft.fft(x, axis=0) / np.sqrt(x.shape[0])

    if adc is None:
        return z, dft(z)
    half_levels = 1 << (adc.bits - 1)

    def q(x):
        return np.clip(np.floor(x / adc.step), -half_levels, half_levels - 1) + 0.5

    ybar = q(z.real) + 1j * q(z.imag)
    yb = dft(ybar)
    re, _ = to_fixed(yb.real, BEAMSPACE_Y_FMT)
    im, _ = to_fixed(yb.imag, BEAMSPACE_Y_FMT)
    return ybar, (re + 1j * im) * BEAMSPACE_Y_FMT.lsb


def test_receive_vector_takes_values_only_on_its_grid():
    fmt = BEAMSPACE_Y_FMT                   # codes -256..255, lsb 1/2
    edge = np.array([-128.0 + 127.5j, 0.5 - 0.0j])     # min_code, max_code; -0.0
    y = ReceiveVector("beamspace", edge, fmt)
    assert np.array_equal(y.fx.codes, [-256 + 255j, 1 + 0j]) and y.fx.fmt == fmt
    assert y.values.tobytes() == edge.tobytes() and y.fmt == fmt
    for bad in (0.25, 0.75j, 128.0, -128.5, 1j * 128.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ReceiveVector("beamspace", np.array([0.5, bad]), fmt)
    with pytest.raises(ValueError):
        ReceiveVector("beamspace", FxComplexArray(np.ones(2), ANTENNA_Y_FMT), fmt)
    raw = np.array([0.3 + 0.1j])
    y = ReceiveVector("antenna", raw, None)
    assert y.fx is None and y.fmt is None and y.values is raw


def test_receive_matches_frozen_copy():
    # 1-8 bit ADCs and no ADC; batched and 1-D; values, codes and the rng state after.
    rng = np.random.default_rng(9)
    for i in range(180):
        bits = i % 9
        H = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
        shape = (8,) if i % 4 == 0 else (8, int(rng.integers(1, 130)))
        s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        N0 = float(rng.uniform(0.01, 4.0))
        adc = AdcConfig(bits, unified_step(H, N0, bits)) if bits else None
        r_new, r_ref = np.random.default_rng([i, 1]), np.random.default_rng([i, 1])
        got = receive(H, s, N0, adc, _noise(H, s, r_new))
        ref = _frozen_receive(H, s, N0, adc, r_ref)
        for g, r in zip(got, ref):
            assert g.values.shape == r.shape and g.values.dtype == r.dtype
            assert g.values.tobytes() == r.tobytes(), i
        if adc is None:
            assert got[0].fx is got[1].fx is None
        else:
            # the codes as made: 2 ybar in (7, 1), and to_fixed's (9, 1) rails
            assert np.array_equal(got[0].fx.codes, 2 * ref[0]) and got[0].fmt == ANTENNA_Y_FMT
            assert np.array_equal(got[1].fx.codes_re, to_fixed(ref[1].real, BEAMSPACE_Y_FMT)[0])
            assert np.array_equal(got[1].fx.codes_im, to_fixed(ref[1].imag, BEAMSPACE_Y_FMT)[0])
            assert got[1].fmt == BEAMSPACE_Y_FMT
        assert r_new.bit_generator.state == r_ref.bit_generator.state
        # antenna only: the same antenna bytes and the same stream consumed
        r_ant = np.random.default_rng([i, 1])
        ant, none = receive(H, s, N0, adc, _noise(H, s, r_ant), beamspace=False)
        assert none is None
        assert ant.values.shape == ref[0].shape and ant.values.dtype == ref[0].dtype
        assert ant.values.tobytes() == ref[0].tobytes(), i
        assert r_ant.bit_generator.state == r_ref.bit_generator.state


@pytest.mark.parametrize("bits", [6, 1, None])
@pytest.mark.parametrize("los", [True, False])
def test_stacked_pilot_receive_equals_each_block_alone(bits, los):
    # A chunk's LS pilot observations in one receive over the stack, each
    # block with its own Generator and step, equal those of each block's
    # receive alone: codes in both domains (samples without an ADC), and
    # each Generator's state after.
    cfg = ScenarioConfig(num_antennas=64, num_ues=8, los=los)
    pilots = dft_pilots(8)
    for size in (1, 3, 8):
        H = draw_scenario(cfg, [np.random.default_rng([size, i]) for i in range(size)]).H
        N0 = 10.0 ** (-size / 10.0)
        adc = None if bits is None else AdcConfig(
            bits, unified_step(H, N0, bits)[:, None, None])
        gens = [np.random.default_rng([7, size, i]) for i in range(size)]
        stacked = receive(H, pilots, N0, adc, _noise(H, pilots, gens))
        antenna_only = receive(H, pilots, N0, adc, _noise(
            H, pilots, [np.random.default_rng([7, size, i]) for i in range(size)]),
            beamspace=False)
        assert antenna_only[1] is None
        for n in range(size):
            gen = np.random.default_rng([7, size, n])
            alone = receive(H[n], pilots, N0, None if adc is None else AdcConfig(
                bits, float(adc.step[n, 0, 0])), _noise(H[n], pilots, gen))
            assert gen.bit_generator.state == gens[n].bit_generator.state
            for got, ref in zip(stacked + antenna_only[:1], alone + alone[:1]):
                assert got.domain == ref.domain and got.fmt == ref.fmt
                if adc is None:
                    assert got.values[n].tobytes() == ref.values.tobytes()
                else:
                    assert got.fx.codes[n].tobytes() == ref.fx.codes.tobytes()


def _product_first_receive(H, s, N0, adc, rng, beamspace=True):
    """receive as it was before the draws moved ahead of the product: H s
    first, then each Generator's noise; the arithmetic is otherwise the same."""
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    z = np.asarray(H @ s, dtype=complex)
    noise = np.empty((len(rngs), 2, z.size // len(rngs)))
    for g, out in zip(rngs, noise):
        g.standard_normal(out=out)
    noise *= np.sqrt(N0 / 2.0)
    z.real += noise[:, 0].reshape(z.shape)
    z.imag += noise[:, 1].reshape(z.shape)
    del noise
    if adc is None:
        return (ReceiveVector("antenna", z, None),
                ReceiveVector("beamspace", dft_unitary(z), None) if beamspace else None)
    ybar = quantize_adc(z, adc.step, adc.bits)
    del z
    yb = FxComplexArray.quantize(dft_unitary(ybar), BEAMSPACE_Y_FMT) if beamspace else None
    ybar *= 2.0 ** ANTENNA_Y_FMT.frac
    return (ReceiveVector("antenna", FxComplexArray(ybar, ANTENNA_Y_FMT), ANTENNA_Y_FMT),
            ReceiveVector("beamspace", yb, BEAMSPACE_Y_FMT) if beamspace else None)


def _receive_case(blocks, bits, shape):
    """H, s, N0, the ADC and a factory of the Generators: for blocks 0 one
    64 x 8 block with a float step and one Generator alone, as the data
    receive of _sim_block; else a stack of ``blocks`` with steps (N, 1, 1)
    and a list of Generators, as the pilot receive of _prepare_chunk."""
    H = draw_scenario(ScenarioConfig(num_antennas=64, num_ues=8),
                      [np.random.default_rng([3, n]) for n in range(blocks or 1)]).H
    if shape == "pilots":
        s = dft_pilots(8)                                           # U x U
    else:
        rng = np.random.default_rng(5)                              # U x T symbols
        s = (rng.choice([-3, -1, 1, 3], (8, 128))
             + 1j * rng.choice([-3, -1, 1, 3], (8, 128))) / np.sqrt(10.0)
    N0 = 0.3
    step = unified_step(H, N0, bits or 1)[:, None, None]
    if not blocks:
        H, step = H[0], float(step[0, 0, 0])
    adc = AdcConfig(bits, step) if bits else None

    def gens():
        rngs = [np.random.default_rng([11, n]) for n in range(blocks or 1)]
        return rngs if blocks else rngs[0]
    return H, s, N0, adc, gens


@pytest.mark.parametrize("shape", ["data", "pilots"])
@pytest.mark.parametrize("beamspace", [True, False])
@pytest.mark.parametrize("bits", [6, 1, None])
@pytest.mark.parametrize("blocks", [0, 3], ids=["one-block", "stack-of-3"])
def test_receive_matches_product_first_copy(blocks, bits, beamspace, shape):
    # Drawing the noise before H s moves no byte: the same codes in both
    # domains (samples without an ADC), and each Generator left in the same state.
    H, s, N0, adc, gens = _receive_case(blocks, bits, shape)
    new_gens, ref_gens = gens(), gens()
    got = receive(H, s, N0, adc, _noise(H, s, new_gens), beamspace)
    ref = _product_first_receive(H, s, N0, adc, ref_gens, beamspace)
    assert (got[1] is None) == (ref[1] is None) == (not beamspace)
    for g, r in zip(got, ref):
        if r is None:
            continue
        assert g.domain == r.domain and g.fmt == r.fmt
        if adc is None:
            assert g.values.shape == r.values.shape
            assert g.values.tobytes() == r.values.tobytes()
        else:
            assert g.fx.codes.shape == r.fx.codes.shape
            assert g.fx.codes.tobytes() == r.fx.codes.tobytes()
    pairs = zip(new_gens, ref_gens) if blocks else [(new_gens, ref_gens)]
    for g_new, g_ref in pairs:
        assert g_new.bit_generator.state == g_ref.bit_generator.state


@pytest.mark.parametrize("blocks", [1, 3], ids=["one-block", "stack-of-3"])
def test_receive_draws_every_noise_block_before_the_product(blocks, monkeypatch):
    """In a chunk (the LS pilots of all its blocks, then each block's data),
    each receive's unit normals are drawn (unit_noise) just before it forms
    H @ s.  Measured with 2 cores on an AVX-512 host: a 16384-normal fill
    takes 180 us right after an OpenBLAS zgemm and 150 us otherwise, since
    OpenBLAS's kernels return with the upper vector state dirty and numpy's
    normal sampler is SSE code.  The order moves no byte
    (test_receive_matches_product_first_copy), so only this test keeps a
    refactor from bringing the slow order back unnoticed."""
    events = []

    class RecordingMatrix(np.ndarray):
        def __matmul__(self, other):
            events.append("product")
            return np.asarray(self) @ other

    def drawn(rngs, shape):
        noise = unit_noise(rngs, shape)
        events.append("draw")
        return noise

    def recorded_receive(H, *args):
        return receive(np.asarray(H).view(RecordingMatrix), *args)

    monkeypatch.setattr(harness, "unit_noise", drawn)
    monkeypatch.setattr(harness, "receive", recorded_receive)
    cfg = SimConfig(scenario=ScenarioConfig(num_antennas=64, num_ues=8), algorithm="almmse",
                    csi_mode="ls", adc_bits=6, arithmetic="fixed")
    harness._sim_chunk((cfg,), 6.0, range(blocks))
    assert events == ["draw", "product"] * (1 + blocks)
