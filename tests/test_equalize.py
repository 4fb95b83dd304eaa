import itertools

import numpy as np
import pytest

import beamspace.equalize as equalize
from beamspace.channel import ScenarioConfig, draw_scenario
from beamspace.equalize import (EqualizerMatrix, lmmse_filter, omp_filter,
                                quantize_filter, residual_objective)
from beamspace.frontend import (AdcConfig, dft_pilots, dft_unitary, ls_estimate,
                                perfect_csi, receive, unified_step, unit_noise)
from beamspace.numerics import BEAMSPACE_W_FMT, FixedFormat


def _rand_H(rng, B, U):
    return rng.standard_normal((B, U)) + 1j * rng.standard_normal((B, U))


def test_lmmse_identity_channel():
    eq = lmmse_filter(np.eye(4), 0.0)
    assert np.allclose(eq.W, np.eye(4), atol=1e-12)


def test_lmmse_regularized_identity():
    eq = lmmse_filter(np.eye(4), 1.0)
    assert np.allclose(eq.W, 0.5 * np.eye(4), atol=1e-12)


def test_lmmse_matches_normal_equations_oracle():
    rng = np.random.default_rng(0)
    H = _rand_H(rng, 8, 2)
    rho = 0.1
    eq = lmmse_filter(H, rho)
    W_ref = np.linalg.inv(H.conj().T @ H + rho * np.eye(2)) @ H.conj().T
    assert np.allclose(eq.W, W_ref, atol=1e-9)


def test_lmmse_local_optimality():
    rng = np.random.default_rng(1)
    H = _rand_H(rng, 8, 2)
    rho = 0.1
    eq = lmmse_filter(H, rho)
    base = residual_objective(eq, H, rho)
    for _ in range(100):
        E = 1e-3 * (_rand_H(rng, 8, 2)).T
        perturbed = EqualizerMatrix(W=eq.W + E)
        assert residual_objective(perturbed, H, rho) >= base - 1e-12


def test_objective_at_zero_filter():
    H = np.ones((6, 3), dtype=complex)
    eq = EqualizerMatrix(W=np.zeros((3, 6), dtype=complex))
    assert abs(residual_objective(eq, H, 0.7) - 3.0) < 1e-12


def test_objective_half_identity():
    U = 5
    eq = lmmse_filter(np.eye(U), 1.0)
    assert abs(residual_objective(eq, np.eye(U), 1.0) - U / 2) < 1e-12


def test_full_support_omp_equals_lmmse():
    rng = np.random.default_rng(2)
    H = _rand_H(rng, 6, 2)
    rho = 0.3
    ref = lmmse_filter(H, rho).W
    for mode in ("entrywise", "columnwise"):
        eq = omp_filter(H, rho, 6, mode)
        assert np.allclose(eq.W, ref, atol=1e-9)


def test_single_atom_picks_strongest_beam():
    rng = np.random.default_rng(3)
    H = _rand_H(rng, 8, 1)
    for mode in ("entrywise", "columnwise"):
        eq = omp_filter(H, 1e-9, 1, mode)
        picked = int(np.flatnonzero(np.abs(eq.W[0]) > 0)[0])
        assert picked == int(np.argmax(np.abs(H[:, 0])))


def test_comp_vs_exhaustive_support_oracle():
    rng = np.random.default_rng(4)
    rho = 0.05
    for _ in range(25):
        H = _rand_H(rng, 6, 2)
        eq = omp_filter(H, rho, 2, "columnwise")
        obj = residual_objective(eq, H, rho)
        best = np.inf
        for S in itertools.combinations(range(6), 2):
            H_S = H[list(S), :]
            W = np.zeros((2, 6), dtype=complex)
            W[:, list(S)] = H_S.conj().T @ np.linalg.inv(
                H_S @ H_S.conj().T + rho * np.eye(len(S)))
            best = min(best, residual_objective(EqualizerMatrix(W=W), H, rho))
        assert obj >= best - 1e-9
        # COMP's solution on its own support matches the closed-form oracle
        S = list(eq.support)
        W_ref = H[S, :].conj().T @ np.linalg.inv(
            H[S, :] @ H[S, :].conj().T + rho * np.eye(len(S)))
        assert np.allclose(eq.W[:, S], W_ref, atol=1e-9)


def test_residual_monotone_in_iterations():
    rng = np.random.default_rng(5)
    H = _rand_H(rng, 8, 3)
    rho = 0.2
    for mode in ("entrywise", "columnwise"):
        objs = [residual_objective(omp_filter(H, rho, K, mode), H, rho)
                for K in range(1, 9)]
        assert all(a >= b - 1e-10 for a, b in zip(objs, objs[1:]))
    assert residual_objective(lmmse_filter(H, rho), H, rho) <= objs[-1] + 1e-10


def test_support_sizes():
    rng = np.random.default_rng(6)
    H = _rand_H(rng, 10, 3)
    K = 4
    eq = omp_filter(H, 0.1, K, "entrywise")
    for u in range(3):
        assert np.count_nonzero(eq.W[u]) == K
        assert len(eq.support[u]) == K
    eq = omp_filter(H, 0.1, K, "columnwise")
    nz_cols = np.count_nonzero(np.any(eq.W != 0, axis=0))
    assert nz_cols <= K
    assert len(eq.support) == K


def test_omp_k_out_of_range():
    H = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError):
        omp_filter(H, 0.1, 0, "entrywise")
    with pytest.raises(ValueError):
        omp_filter(H, 0.1, 5, "columnwise")
    with pytest.raises(ValueError):
        omp_filter(H, 0.0, 1, "entrywise")


def _harness_instance(i):
    """Beamspace CSI and rho as the BER harness builds them for one block:
    64 antennas, 8 UEs, 6-bit ADC at an SNR in the swept range, perfect or
    LS channel estimates; LoS for even i, non-LoS for odd i."""
    rng = np.random.default_rng([31, i])
    H = draw_scenario(ScenarioConfig(num_antennas=64, num_ues=8, los=i % 2 == 0),
                      rng).H
    N0 = 10.0 ** (-rng.uniform(-4.0, 16.0) / 10.0)
    adc = AdcConfig(6, unified_step(H, N0, 6))
    if rng.integers(2):
        Hb = dft_unitary(perfect_csi(H, adc.step))
    else:
        pilots = dft_pilots(8)
        _, yb = receive(H, pilots, N0, adc, unit_noise([rng], H.shape))
        Hb = ls_estimate(yb.values, pilots)
    return Hb, N0 / adc.step ** 2


def _per_ue_omp_oracle(H, rho, K, mode):
    """OMP as written from its definition: one UE (or the shared support) at
    a time, each step re-solving the k x k restricted regularized LS
    H_S^H (H_S H_S^H + rho I)^-1 through an explicit inverse."""
    B, U = H.shape
    W = np.zeros((U, B), dtype=complex)

    def restricted(S):
        H_S = H[S, :]
        return H_S, H_S.conj().T @ np.linalg.inv(H_S @ H_S.conj().T
                                                 + rho * np.eye(len(S)))

    if mode == "entrywise":
        supports = []
        for u in range(U):
            r, S = np.eye(U, dtype=complex)[u], []
            for _ in range(K):
                corr = np.abs(H.conj() @ r)
                corr[S] = -1.0
                S.append(int(np.argmax(corr)))
                H_S, W_S = restricted(S)
                r = np.eye(U)[u] - W_S[u] @ H_S
            W[u, S] = W_S[u]
            supports.append(sorted(S))
        return W, supports
    R, S = np.eye(U, dtype=complex), []
    for _ in range(K):
        score = np.linalg.norm(R @ H.conj().T, axis=0)
        score[S] = -1.0
        S.append(int(np.argmax(score)))
        H_S, W_S = restricted(S)
        R = np.eye(U) - W_S @ H_S
    W[:, S] = W_S
    return W, sorted(S)


def test_omp_matches_per_ue_oracle_on_harness_corpus():
    # 200 instances: LoS/non-LoS alternate, K = 16 and 32 (delta 0.25, 0.5)
    # in pairs, so each of the four combinations gets 50, in both modes.
    for i in range(200):
        H, rho = _harness_instance(i)
        K = (16, 32)[i // 2 % 2]
        for mode in ("entrywise", "columnwise"):
            eq = quantize_filter(omp_filter(H, rho, K, mode), BEAMSPACE_W_FMT)
            W_ref, support_ref = _per_ue_omp_oracle(H, rho, K, mode)
            ref = quantize_filter(EqualizerMatrix(W=W_ref), BEAMSPACE_W_FMT)
            support = ([s.tolist() for s in eq.support] if mode == "entrywise"
                       else eq.support.tolist())
            assert support == support_ref, (i, mode)
            assert eq.scale_exp == ref.scale_exp, (i, mode)
            assert np.array_equal(eq.fx.codes_re, ref.fx.codes_re), (i, mode)
            assert np.array_equal(eq.fx.codes_im, ref.fx.codes_im), (i, mode)


@pytest.mark.parametrize("mode", ["entrywise", "columnwise"])
def test_omp_makes_one_solve_per_step(monkeypatch, mode):
    calls = []
    solve = equalize.solve_hermitian_pd

    def counting_solve(a, b):
        calls.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(equalize, "solve_hermitian_pd", counting_solve)
    H, rho = _harness_instance(0)
    for K in (1, 16, 32):
        calls.clear()
        omp_filter(H, rho, K, mode)
        assert len(calls) == K


@pytest.mark.parametrize("mode", ["entrywise", "columnwise"])
def test_omp_filters_of_every_size_from_one_run(monkeypatch, mode):
    # The supports are nested, so the filter a run to K_max passes at step K
    # is the filter of a run to K alone, bit for bit (LoS/non-LoS, perfect
    # and LS CSI among the four instances).
    calls = []
    solve = equalize.solve_hermitian_pd

    def counting_solve(a, b):
        calls.append(a.shape)
        return solve(a, b)

    for i in range(4):
        H, rho = _harness_instance(i)
        B = H.shape[0]
        monkeypatch.setattr(equalize, "solve_hermitian_pd", counting_solve)
        calls.clear()
        eqs = omp_filter(H, rho, range(1, B + 1), mode)
        assert len(calls) == B
        monkeypatch.undo()
        assert len(eqs) == B
        for K, eq in zip(range(1, B + 1), eqs):
            alone = omp_filter(H, rho, K, mode)
            assert eq.W.tobytes() == alone.W.tobytes(), (i, K)
            assert eq.domain == alone.domain
            if mode == "entrywise":
                assert [s.tolist() for s in eq.support] == [s.tolist() for s in alone.support]
            else:
                assert eq.support.tolist() == alone.support.tolist()
    # any order, repeats allowed; a filter per size asked for
    H, rho = _harness_instance(5)
    out = omp_filter(H, rho, [5, 2, 5], mode)
    sizes = [len(eq.support if mode == "columnwise" else eq.support[0]) for eq in out]
    assert sizes == [5, 2, 5]
    assert out[0].W.tobytes() == out[2].W.tobytes() == omp_filter(H, rho, 5, mode).W.tobytes()
    for bad in ([], [0, 3], [3, 65]):
        with pytest.raises(ValueError):
            omp_filter(H, rho, bad, mode)


def _stack_corpus():
    """Twelve harness instances, and twelve integer-valued channels whose
    equal magnitudes tie the OMP argmax (two beams repeat another's row)."""
    Hs, rhos = zip(*map(_harness_instance, range(12)))
    rng = np.random.default_rng(12)
    ties = rng.integers(-2, 3, (12, 64, 8)) + 1j * rng.integers(-2, 3, (12, 64, 8))
    ties[:, 5] = ties[:, 9] = ties[:, 2]
    return [(np.stack(Hs), np.array(rhos)), (ties, np.full(12, 0.5))]


@pytest.mark.parametrize("mode", ["entrywise", "columnwise"])
def test_stacked_omp_equals_single_matrix_calls(mode):
    for Hs, rhos in _stack_corpus():
        sizes = [1, 3, 16, 32, 64]
        stacked = omp_filter(Hs, rhos, sizes, mode)
        for n in range(len(Hs)):
            for K, alone, eq in zip(sizes, omp_filter(Hs[n], rhos[n], sizes, mode), stacked):
                s = eq[n]
                assert s.W.tobytes() == alone.W.tobytes(), (n, K)
                assert s.support.tobytes() == alone.support.tobytes(), (n, K)
                q, q_alone = quantize_filter(eq, BEAMSPACE_W_FMT)[n], quantize_filter(
                    alone, BEAMSPACE_W_FMT)
                assert q.fx.codes.tobytes() == q_alone.fx.codes.tobytes(), (n, K)
                assert q.scale_exp == q_alone.scale_exp and type(q.scale_exp) is int
        # one K gives one stacked filter; one rho serves the whole stack
        one = omp_filter(Hs, rhos[0], 5, mode)
        assert one.W.shape == (len(Hs), 8, 64)
        assert one[3].W.tobytes() == omp_filter(Hs[3], rhos[0], 5, mode).W.tobytes()


def test_stacked_lmmse_equals_single_matrix_calls():
    for Hs, rhos in _stack_corpus():
        stacked = lmmse_filter(Hs, rhos, domain="antenna")
        q_stacked = quantize_filter(stacked, BEAMSPACE_W_FMT)
        assert q_stacked.scale_exp.shape == (len(Hs),)
        for n in range(len(Hs)):
            alone = lmmse_filter(Hs[n], rhos[n], domain="antenna")
            assert stacked[n].W.tobytes() == alone.W.tobytes()
            assert stacked[n].domain == "antenna" and stacked[n].support is None
            q = quantize_filter(alone, BEAMSPACE_W_FMT)
            assert q_stacked[n].fx.codes.tobytes() == q.fx.codes.tobytes()
            assert q_stacked[n].scale_exp == q.scale_exp


@pytest.mark.parametrize("build", [
    lambda Hs, rhos: lmmse_filter(Hs, rhos),
    lambda Hs, rhos: omp_filter(Hs, rhos, 5, "entrywise"),
], ids=["lmmse", "eomp"])
def test_quantized_stack_holds_only_codes(build):
    # A quantized filter is its codes and scale exponent, with no float W:
    # each filter of a stack views the stack's codes and takes its exponent.
    # Float filters keep their W.
    Hs, rhos = _stack_corpus()[0]
    eq = build(Hs, rhos)
    q = quantize_filter(eq, BEAMSPACE_W_FMT)
    assert q.W is None and eq.W.shape == q.fx.codes.shape
    for n in range(len(Hs)):
        assert q[n].W is None and eq[n].W is not None
        assert np.shares_memory(q[n].fx.codes, q.fx.codes)
        assert q[n].scale_exp == q.scale_exp[n]


def test_stacked_quantize_keeps_zero_matrices_at_scale_zero():
    W = np.zeros((3, 2, 4), dtype=complex)
    W[1, 0, 0] = 0.01
    eq = quantize_filter(EqualizerMatrix(W=W), FixedFormat(8, 7))
    assert eq.scale_exp.tolist() == [0, 5, 0]


def test_antenna_beamspace_filter_equivalence():
    # unitary transform commutes with LMMSE: W_b = W_a F^H
    rng = np.random.default_rng(7)
    Ha = _rand_H(rng, 16, 3)
    rho = 0.2
    Wa = lmmse_filter(Ha, rho, domain="antenna").W
    Wb = lmmse_filter(dft_unitary(Ha), rho, domain="beamspace").W
    assert np.allclose(Wb, dft_unitary(Wa.conj().T).conj().T, atol=1e-10)


def test_scale_exponent_in_range():
    rng = np.random.default_rng(8)
    for _ in range(50):
        W = _rand_H(rng, 6, 2).T * 10.0 ** rng.uniform(-4, 3)
        eq = quantize_filter(EqualizerMatrix(W=W), BEAMSPACE_W_FMT)
        m = max(np.abs(W.real).max(), np.abs(W.imag).max())
        assert 0.25 <= m * 2.0 ** eq.scale_exp < 0.5


def test_scale_exponent_examples():
    W = np.array([[0.3 + 0j]])
    assert quantize_filter(EqualizerMatrix(W=W), BEAMSPACE_W_FMT).scale_exp == 0
    W = np.array([[0.01 + 0j]])
    assert quantize_filter(EqualizerMatrix(W=W), BEAMSPACE_W_FMT).scale_exp == 5


def test_quantize_preserves_zeros_and_bounds_error():
    rng = np.random.default_rng(9)
    W = _rand_H(rng, 8, 2).T
    W[:, ::2] = 0.0
    eq = quantize_filter(EqualizerMatrix(W=W), BEAMSPACE_W_FMT)
    assert np.all(eq.fx.codes_re[:, ::2] == 0)
    assert np.all(eq.fx.codes_im[:, ::2] == 0)
    recon = eq.fx.values * 2.0 ** -eq.scale_exp
    tol = BEAMSPACE_W_FMT.lsb / 2 * 2.0 ** -eq.scale_exp + 1e-15
    assert np.max(np.abs(recon.real - W.real)) <= tol
    assert np.max(np.abs(recon.imag - W.imag)) <= tol


def test_quantize_all_zero_matrix():
    eq = quantize_filter(EqualizerMatrix(W=np.zeros((2, 4), dtype=complex)),
                         FixedFormat(8, 7))
    assert eq.scale_exp == 0
    assert np.all(eq.fx.codes_re == 0) and np.all(eq.fx.codes_im == 0)
