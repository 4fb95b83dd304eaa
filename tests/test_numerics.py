import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beamspace.numerics import (DecompositionError, FixedFormat, FxComplexArray,
                                fx_value, round_ties_away, solve_hermitian_pd,
                                to_fixed)

W4F2 = FixedFormat(4, 2)


def test_exactly_representable_value():
    codes, sat = to_fixed(0.25, W4F2)
    assert codes == 1
    assert not sat
    assert fx_value(codes, W4F2) == 0.25


def test_saturation_at_max_code():
    codes, sat = to_fixed(100.0, W4F2)
    assert codes == W4F2.max_code == 7
    assert sat
    assert fx_value(codes, W4F2) == 1.75


def test_round_to_nearest():
    # 0.3 is 1.2 quarters, which rounds down to 1 quarter.
    codes, sat = to_fixed(0.3, W4F2)
    assert codes == 1 and not sat
    assert fx_value(codes, W4F2) == 0.25


def test_ties_round_away_from_zero():
    assert round_ties_away(1.5) == 2.0
    assert round_ties_away(-1.5) == -2.0
    assert round_ties_away(2.5) == 3.0
    assert round_ties_away(0.5) == 1.0
    assert round_ties_away(-0.5) == -1.0


def test_rounding_is_exact_next_to_halves_and_above_2_pow_52():
    below_half = math.nextafter(0.5, 0.0)                  # 0.49999999999999994
    assert round_ties_away(below_half) == 0.0
    assert round_ties_away(-below_half) == 0.0
    assert round_ties_away(2.0 ** 52 + 1) == 2.0 ** 52 + 1
    assert round_ties_away(-(2.0 ** 52 + 1)) == -(2.0 ** 52 + 1)
    assert [float(round_ties_away(x)) for x in (0.5, -0.5, 2.5, -2.5)] == [1, -1, 3, -3]
    codes, _ = to_fixed(below_half * W4F2.lsb, W4F2)
    assert codes == 0
    assert FxComplexArray.quantize(np.array([below_half * W4F2.lsb]), W4F2).codes[0] == 0


def _round_oracle(x: float) -> float:
    """Round half away from zero in exact rational arithmetic."""
    q = abs(Fraction(x))
    return math.copysign(float(math.floor(q + Fraction(1, 2))), x)


def test_rounding_matches_exact_oracle():
    # every k + 1/2 for |k| < 2000 and its neighbouring floats, the same at
    # 2^20 + k and 2^51 + k, every float within 64 ulp of 2^52 and 2^53, and
    # random floats of every scale
    halves = np.concatenate([np.arange(-2000, 2000) + 0.5,
                             2.0 ** 20 + np.arange(-500, 500) + 0.5,
                             2.0 ** 51 + np.arange(-500, 500) + 0.5])
    near = [np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf)]
    powers = [np.array([p]) for p in (2.0 ** 52, 2.0 ** 53)]
    for _ in range(64):
        powers += [np.nextafter(powers[-2], np.inf), np.nextafter(powers[-1], -np.inf)]
    rng = np.random.default_rng(3)
    scaled = rng.standard_normal(5000) * 2.0 ** rng.integers(-60, 60, 5000)
    x = np.concatenate([halves, *near, *powers, scaled])
    x = np.concatenate([x, -x, [0.0, -0.0]])
    got = round_ties_away(x)
    want = np.array([_round_oracle(v) for v in x.tolist()])
    assert got.tobytes() == want.tobytes()


def test_requantize_widening_is_exact():
    codes, sat = to_fixed(fx_value(2, FixedFormat(4, 2)), FixedFormat(8, 4))
    assert codes == 8 and not sat
    assert fx_value(codes, FixedFormat(8, 4)) == 0.5


def test_requantize_tie_away():
    src = FixedFormat(8, 3)
    dst = FixedFormat(8, 1)
    codes, _ = to_fixed(0.375, src)
    out, _ = to_fixed(fx_value(codes, src), dst)
    assert fx_value(out, dst) == 0.5
    codes, _ = to_fixed(-0.375, src)
    out, _ = to_fixed(fx_value(codes, src), dst)
    assert fx_value(out, dst) == -0.5


def test_format_validation():
    with pytest.raises(ValueError):
        FixedFormat(1, 0)
    with pytest.raises(ValueError):
        FixedFormat(8, -1)


def test_fx_complex_array_value_roundtrip():
    z = np.array([0.25 + 0.5j, -0.75 - 1.0j])
    fx = FxComplexArray.quantize(z, W4F2)
    assert np.array_equal(fx.values, z)


def test_complex_quantize_matches_per_rail_to_fixed():
    # ties, saturation on both signs, signed zeros and a non-contiguous input
    z = np.array([[0.125 - 0.375j, -0.0 + 0.1j, 9.0 - 9.0j],
                  [-0.1 - 0.0j, 1.875 + 1.9j, -2.2 + 0.625j]]).T
    fx = FxComplexArray.quantize(z, W4F2)
    assert fx.codes.flags.c_contiguous and fx.codes.shape == z.shape
    assert np.array_equal(fx.codes_re, to_fixed(z.real, W4F2)[0])
    assert np.array_equal(fx.codes_im, to_fixed(z.imag, W4F2)[0])
    assert not np.signbit(fx.values.view(float)[fx.values.view(float) == 0]).any()


def test_complex_quantize_gives_positive_zero_codes():
    # inputs in (-0.5, 0) LSB, -0.0 among them, round to the code +0.0 on both
    # rails, the bytes an integer code converted back to float has
    lsb = W4F2.lsb
    x = -lsb * np.array([0.0, 1e-300, 0.1, 0.25, 0.4, 0.4999999])
    z = np.stack([x, x[::-1]], axis=-1).view(complex)[:, 0]    # -0.0 on both rails
    fx = FxComplexArray.quantize(z, W4F2)
    assert fx.codes.tobytes() == np.zeros(z.shape, dtype=complex).tobytes()
    assert fx.values.tobytes() == np.zeros(z.shape, dtype=complex).tobytes()
    # -0.5 LSB is a tie and rounds away from zero
    assert FxComplexArray.quantize(np.array([-0.5 * lsb - 0.5j * lsb]), W4F2).codes[0] == -1 - 1j


def test_negative_saturation_is_symmetric():
    fmt = FixedFormat(6, 2)
    codes, sat = to_fixed(-100.0, fmt)
    assert codes == -fmt.max_code
    assert sat


@given(st.integers(min_value=-(1 << 6) + 1, max_value=(1 << 6) - 1))
def test_roundtrip_identity_on_grid(code):
    fmt = FixedFormat(7, 3)
    x = code * fmt.lsb
    out, sat = to_fixed(x, fmt)
    assert out == code
    assert not sat


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_saturation_bound(x):
    fmt = FixedFormat(6, 2)
    codes, _ = to_fixed(x, fmt)
    assert abs(fx_value(codes, fmt)) <= fmt.max_code * fmt.lsb + 1e-15


@given(st.floats(min_value=-7.0, max_value=7.0, allow_nan=False))
def test_quantization_error_half_lsb(x):
    fmt = FixedFormat(6, 2)
    codes, sat = to_fixed(x, fmt)
    if not sat:
        assert abs(fx_value(codes, fmt) - x) <= fmt.lsb / 2 + 1e-12


def test_solve_identity_system():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    X = solve_hermitian_pd(np.eye(4), B)
    assert np.allclose(X, B, atol=1e-12)


def test_solve_scalar_system():
    X = solve_hermitian_pd(2.0 * np.eye(2), np.eye(2))
    assert np.allclose(X, 0.5 * np.eye(2), atol=1e-12)


def test_solve_matches_direct_inverse_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 8)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = G @ G.conj().T + np.eye(n)
        B = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        X = solve_hermitian_pd(A, B)
        # independent route: explicit inverse, no triangular solves
        X_ref = np.linalg.inv(A) @ B
        assert np.linalg.norm(A @ X - B) <= 1e-9 * np.linalg.norm(B)
        assert np.allclose(X, X_ref, atol=1e-8)


def test_solve_rejects_non_pd():
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(DecompositionError):
        solve_hermitian_pd(A, np.eye(2))


def _rand_pd_stack(rng, m, n):
    G = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return G @ G.conj().transpose(0, 2, 1) + np.eye(n)


def test_solve_stacked_equals_slice_by_slice():
    rng = np.random.default_rng(11)
    A = _rand_pd_stack(rng, 8, 5)
    B = rng.standard_normal((8, 5, 3)) + 1j * rng.standard_normal((8, 5, 3))
    X = solve_hermitian_pd(A, B)
    assert X.shape == (8, 5, 3)
    for a, b, x in zip(A, B, X):
        assert np.allclose(x, solve_hermitian_pd(a, b), atol=1e-12)
    # one right-hand side broadcast against the whole stack
    X = solve_hermitian_pd(A, np.eye(5))
    for a, x in zip(A, X):
        assert np.allclose(x, np.linalg.inv(a), atol=1e-10)


def test_solve_rejects_one_non_pd_slice():
    rng = np.random.default_rng(12)
    A = _rand_pd_stack(rng, 4, 3)
    A[2] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(DecompositionError):
        solve_hermitian_pd(A, np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_input(bad):
    A = np.stack([np.eye(2), 2.0 * np.eye(2)])
    A_bad = A.copy()
    A_bad[1, 0, 0] = bad
    with pytest.raises(ValueError):
        solve_hermitian_pd(A_bad, np.eye(2))
    B = np.eye(2)
    B[1, 1] = bad
    with pytest.raises(ValueError):
        solve_hermitian_pd(A, B)
