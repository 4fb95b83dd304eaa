import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamspace.numerics as numerics
from beamspace.channel import ScenarioConfig, draw_scenario
from beamspace.equalize import (EqualizerMatrix, lmmse_filter, omp_filter,
                                quantize_filter)
from beamspace.frontend import (AdcConfig, ReceiveVector, dft_pilots, dft_unitary,
                                ls_estimate, perfect_csi, receive,
                                unified_step, unit_noise)
from beamspace.modem import map_bits
from beamspace.numerics import (ANTENNA_W_FMT, BEAMSPACE_W_FMT, BEAMSPACE_Y_FMT,
                                ESTIMATE_FMT, FixedFormat, FxComplexArray)
from beamspace.spade import (ActivityReport, ThresholdPair, _threshold_code,
                             adaptive_mvm, check_float64_exact, exact_mvm_fixed,
                             masked_reference)


def _make_eq(W, domain="beamspace"):
    return quantize_filter(EqualizerMatrix(W=np.asarray(W, dtype=complex),
                                           domain=domain), BEAMSPACE_W_FMT)


def _make_y(vals, domain="beamspace"):
    vals = np.asarray(vals, dtype=complex)
    # snap onto the (9, 1) half-lsb grid so the codes are exact
    vals = np.round(vals * 2) / 2
    return ReceiveVector(domain, vals, BEAMSPACE_Y_FMT)


def _rand_instance(rng, U=3, B=5, T=None):
    W = (rng.uniform(-0.4, 0.4, (U, B)) + 1j * rng.uniform(-0.4, 0.4, (U, B)))
    eq = _make_eq(W)
    shape = (B,) if T is None else (B, T)
    codes = rng.integers(BEAMSPACE_Y_FMT.min_code, BEAMSPACE_Y_FMT.max_code + 1,
                         size=shape + (2,))
    y = ReceiveVector("beamspace",
                      (codes[..., 0] + 1j * codes[..., 1]) * BEAMSPACE_Y_FMT.lsb,
                      BEAMSPACE_Y_FMT)
    return eq, y


def test_identity_filter_requantizes_input():
    eq = _make_eq(np.eye(4))
    y = _make_y([1.0 + 0.5j, -2.5, 3.0 - 1.0j, 0.5j])
    est = exact_mvm_fixed(eq, y)
    # quantized identity: 0.25 * I with k = -2, compensation is exact
    assert np.allclose(est.values, y.values, atol=2 ** -8)


def test_single_entry_product():
    eq = _make_eq([[0.25 + 0j]])
    y = _make_y([2.0 + 0j])
    est = exact_mvm_fixed(eq, y)
    assert est.values[0] == pytest.approx(0.5, abs=2 ** -8)


def test_exact_mvm_matches_float_oracle():
    # operands scaled so the (13, 8) output cannot saturate
    rng = np.random.default_rng(0)
    for _ in range(50):
        W = (rng.uniform(-0.05, 0.05, (4, 8))
             + 1j * rng.uniform(-0.05, 0.05, (4, 8)))
        eq = _make_eq(W)
        codes = rng.integers(-30, 31, size=(8, 2))
        y = ReceiveVector("beamspace",
                          (codes[:, 0] + 1j * codes[:, 1]) * BEAMSPACE_Y_FMT.lsb,
                          BEAMSPACE_Y_FMT)
        est = exact_mvm_fixed(eq, y)
        Wq = eq.fx.values * 2.0 ** -eq.scale_exp
        ref = Wq @ y.values
        tol = ESTIMATE_FMT.lsb * (1 + 1e-12) / 2 + 1e-12
        assert np.max(np.abs(est.values.real - ref.real)) <= tol
        assert np.max(np.abs(est.values.imag - ref.imag)) <= tol


def test_domain_mismatch_rejected():
    eq = _make_eq(np.eye(2), domain="antenna")
    y = _make_y([1.0, 2.0])
    with pytest.raises(ValueError):
        exact_mvm_fixed(eq, y)


def test_unquantized_filter_rejected():
    eq = EqualizerMatrix(W=np.eye(2, dtype=complex))
    y = _make_y([1.0, 2.0])
    with pytest.raises(ValueError):
        exact_mvm_fixed(eq, y)


def test_zero_thresholds_reproduce_exact():
    rng = np.random.default_rng(1)
    for scheme in ("spade", "cspade"):
        eq, y = _rand_instance(rng, T=4)
        est, rep = adaptive_mvm(eq, y, ThresholdPair(0.0, 0.0), scheme)
        ref = exact_mvm_fixed(eq, y)
        assert np.array_equal(est.codes_re, ref.codes_re)
        assert np.array_equal(est.codes_im, ref.codes_im)
        assert rep.alpha == 1.0


def test_infinite_thresholds_skip_everything():
    rng = np.random.default_rng(2)
    for scheme in ("spade", "cspade"):
        eq, y = _rand_instance(rng)
        est, rep = adaptive_mvm(eq, y, ThresholdPair(np.inf, np.inf), scheme)
        assert np.all(est.codes_re == 0) and np.all(est.codes_im == 0)
        assert rep.alpha == 0.0


def test_cspade_hand_example():
    eq = _make_eq([[0.25 + 0j, 0.05 + 0j]])
    # 0.25 is already in [0.25, 0.5), so no rescale and thresholds stay put
    assert eq.scale_exp == 0
    y = ReceiveVector("beamspace", np.array([0.0 + 0j, 2.0 + 0j]), BEAMSPACE_Y_FMT)
    tw = 0.2  # between the two quantized weights 0.25 and 0.05
    est, rep = adaptive_mvm(eq, y, ThresholdPair(tw, 0.5), "cspade")
    # term 1 passes on w, term 2 passes on y
    assert rep.alpha == 1.0
    y2 = ReceiveVector("beamspace", np.array([0.0 + 0j, 0.0 + 0j]), BEAMSPACE_Y_FMT)
    est2, rep2 = adaptive_mvm(eq, y2, ThresholdPair(tw, 0.5), "cspade")
    assert rep2.alpha == 0.5


def test_zero_input_gives_zero_output():
    rng = np.random.default_rng(3)
    eq, _ = _rand_instance(rng)
    y = ReceiveVector("beamspace", np.zeros(5, dtype=complex), BEAMSPACE_Y_FMT)
    for scheme in ("spade", "cspade"):
        for thr in (ThresholdPair(0, 0), ThresholdPair(0.1, 3.0)):
            est, _ = adaptive_mvm(eq, y, thr, scheme)
            assert np.all(est.values == 0)


def test_adaptive_matches_masked_reference():
    rng = np.random.default_rng(4)
    for i in range(200):
        T = None if i % 2 else 3
        eq, y = _rand_instance(rng, T=T)
        thr = ThresholdPair(float(rng.uniform(0, 0.6)), float(rng.uniform(0, 40)))
        for scheme in ("spade", "cspade"):
            est, _ = adaptive_mvm(eq, y, thr, scheme)
            ref = masked_reference(eq, y, thr, scheme)
            assert np.array_equal(est.codes_re, ref.codes_re)
            assert np.array_equal(est.codes_im, ref.codes_im)


def test_alpha_monotone_in_each_threshold():
    rng = np.random.default_rng(5)
    tw_grid = [0.0, 0.05, 0.1, 0.3, np.inf]
    ty_grid = [0.0, 2.0, 8.0, 32.0, np.inf]
    for _ in range(20):
        eq, y = _rand_instance(rng)
        for scheme in ("spade", "cspade"):
            for ty in (0.0, 8.0):
                alphas = [adaptive_mvm(eq, y, ThresholdPair(tw, ty), scheme)[1].alpha
                          for tw in tw_grid]
                assert all(a >= b for a, b in zip(alphas, alphas[1:]))
            for tw in (0.0, 0.1):
                alphas = [adaptive_mvm(eq, y, ThresholdPair(tw, ty), scheme)[1].alpha
                          for ty in ty_grid]
                assert all(a >= b for a, b in zip(alphas, alphas[1:]))


def test_spade_skips_at_least_as_much_as_cspade():
    rng = np.random.default_rng(6)
    for _ in range(50):
        eq, y = _rand_instance(rng)
        thr = ThresholdPair(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 30)))
        a_s = adaptive_mvm(eq, y, thr, "spade")[1].alpha
        a_c = adaptive_mvm(eq, y, thr, "cspade")[1].alpha
        assert a_s <= a_c + 1e-15


def test_skip_error_bound():
    # each skipped real product is below tau_w * tau_y in quantized units
    rng = np.random.default_rng(7)
    for _ in range(30):
        eq, y = _rand_instance(rng, U=2, B=6)
        tw, ty = float(rng.uniform(0, 0.3)), float(rng.uniform(0, 10))
        for scheme in ("spade", "cspade"):
            est, _ = adaptive_mvm(eq, y, ThresholdPair(tw, ty), scheme)
            ref = exact_mvm_fixed(eq, y)
            bound = 4 * 6 * tw * ty * 2.0 ** -eq.scale_exp + 2 * ESTIMATE_FMT.lsb
            diff = np.abs(est.values - ref.values)
            assert np.max(np.maximum(diff.real, diff.imag)) <= bound + 1e-9


def test_negative_threshold_rejected():
    for tau_w, tau_y in [(-0.1, 1.0), (0.1, -1.0), (np.nan, 1.0), (0.1, np.nan)]:
        with pytest.raises(ValueError):
            ThresholdPair(tau_w, tau_y)
    ThresholdPair(np.inf, np.inf)       # infinity skips every small product


def test_activity_report_alpha():
    assert ActivityReport(40, 80).alpha == 0.5
    assert ActivityReport(0, 0).alpha == 0.0


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_adaptive_equals_reference_property(seed):
    rng = np.random.default_rng(seed)
    eq, y = _rand_instance(rng, U=2, B=4)
    thr = ThresholdPair(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 30)))
    scheme = "spade" if seed % 2 else "cspade"
    est, _ = adaptive_mvm(eq, y, thr, scheme)
    ref = masked_reference(eq, y, thr, scheme)
    assert np.array_equal(est.codes_re, ref.codes_re)
    assert np.array_equal(est.codes_im, ref.codes_im)


def _harness_block(i, T):
    """One block as the BER harness builds it: 64 antennas, 8 UEs, 6-bit
    ADC at an SNR in the swept range, perfect or LS CSI, an LMMSE filter in
    the beamspace (in the antenna domain for i % 4 == 3, a 16-beam
    entrywise OMP filter for i % 4 == 1), T data vectors (1-D data for T
    None).  LoS for even i, non-LoS for odd i."""
    rng = np.random.default_rng([47, i])
    H = draw_scenario(ScenarioConfig(num_antennas=64, num_ues=8, los=i % 2 == 0),
                      rng).H
    N0 = 10.0 ** (-rng.uniform(-4.0, 16.0) / 10.0)
    adc = AdcConfig(6, unified_step(H, N0, 6))
    antenna = i % 4 == 3
    if rng.integers(2):
        Ha = perfect_csi(H, adc.step)
        Hb = dft_unitary(Ha)
    else:
        pilots = dft_pilots(8)
        ybar_p, yb_p = receive(H, pilots, N0, adc, unit_noise([rng], H.shape))
        Ha = ls_estimate(ybar_p.values, pilots)
        Hb = ls_estimate(yb_p.values, pilots)
    rho = N0 / adc.step ** 2
    domain = "antenna" if antenna else "beamspace"
    filt = (omp_filter(Hb, rho, 16, "entrywise") if i % 4 == 1
            else lmmse_filter(Ha if antenna else Hb, rho, domain))
    eq = quantize_filter(filt, ANTENNA_W_FMT if antenna else BEAMSPACE_W_FMT)
    S = map_bits(rng.integers(0, 2, size=(T or 1, 8, 4))).T
    s = S if T else S[:, 0]
    ybar, yb = receive(H, s, N0, adc, unit_noise([rng], H.shape[:1] + s.shape[1:]))
    return eq, ybar if antenna else yb, rng


def _mask_count(eq, y, thr, scheme):
    """Executed real products counted on explicit (U, B, T) keep masks."""
    tw = _threshold_code(thr.tau_w, eq.fx.fmt)
    ty = _threshold_code(thr.tau_y, y.fmt)
    yc = np.reshape(y.fx.codes, (eq.fx.codes.shape[-1], -1))
    kw = [np.abs(eq.fx.codes_re)[:, :, None] >= tw, np.abs(eq.fx.codes_im)[:, :, None] >= tw]
    ky = [np.abs(yc.real)[None] >= ty, np.abs(yc.imag)[None] >= ty]
    if scheme == "cspade":
        kw = [kw[0] | kw[1]] * 2
        ky = [ky[0] | ky[1]] * 2
    return sum(int((a | b).sum()) for a in kw for b in ky)


def test_kernel_matches_masked_reference_on_harness_corpus():
    for i in range(48):
        eq, y, rng = _harness_block(i, None if i % 3 == 0 else 5)
        if y.domain == "antenna":
            thrs = [ThresholdPair(0.0, 0.0)]
        else:
            thrs = [ThresholdPair(float(rng.uniform(0, 0.1)), float(rng.uniform(0, 30))),
                    ThresholdPair(float(rng.uniform(0, 0.05)), float(rng.uniform(0, 8))),
                    ThresholdPair(np.inf, float(rng.uniform(0, 30)))]
        ref = masked_reference(eq, y, ThresholdPair(0.0, 0.0), "spade")
        est = exact_mvm_fixed(eq, y)
        assert np.array_equal(est.codes_re, ref.codes_re), i
        assert np.array_equal(est.codes_im, ref.codes_im), i
        for thr in thrs:
            for scheme in ("spade", "cspade"):
                est, rep = adaptive_mvm(eq, y, thr, scheme)
                ref = masked_reference(eq, y, thr, scheme)
                assert est.codes_re.shape == ref.codes_re.shape
                assert np.array_equal(est.codes_re, ref.codes_re), (i, scheme)
                assert np.array_equal(est.codes_im, ref.codes_im), (i, scheme)
                assert rep.executed_real_mults == _mask_count(eq, y, thr, scheme)
                assert rep.total_real_mults == 4 * 8 * 64 * (y.values.size // 64)


def test_float64_bound_holds_for_every_format_pair():
    formats = [v for v in vars(numerics).values() if isinstance(v, FixedFormat)]
    assert len(formats) >= 5
    for w_fmt in formats:
        for y_fmt in formats:
            check_float64_exact(1 << 20, w_fmt, y_fmt)


def test_float64_guard_trips_on_oversize_format():
    with pytest.raises(ValueError):
        check_float64_exact(64, FixedFormat(32, 0), FixedFormat(22, 0))
    wide = FixedFormat(40, 0)
    eq = EqualizerMatrix(W=np.ones((2, 4), dtype=complex),
                         fx=FxComplexArray(np.ones((2, 4), complex), wide))
    y = ReceiveVector("beamspace", np.ones(4, dtype=complex), FixedFormat(16, 0))
    with pytest.raises(ValueError):
        exact_mvm_fixed(eq, y)
    with pytest.raises(ValueError):
        adaptive_mvm(eq, y, ThresholdPair(1.0, 1.0), "cspade")
