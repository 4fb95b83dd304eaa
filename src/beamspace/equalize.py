"""Linear equalizer construction: dense LMMSE and sparse OMP variants.

Filter math runs in double precision; quantize_filter produces the
fixed-point view used by the equalization kernels, with a power-of-two
rescale 2^k chosen so the largest entry component lands in [0.25, 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import FixedFormat, FxComplexArray, solve_hermitian_pd


@dataclass
class EqualizerMatrix:
    """U x B filter with its OMP support (None: dense) and optional fixed-point view."""

    W: np.ndarray                      # complex, shape (U, B)
    domain: str = "beamspace"          # 'antenna' | 'beamspace'
    support: object = None             # entrywise: list of per-row index arrays
                                       # columnwise: shared index array
    fx: FxComplexArray | None = None
    scale_exp: int = 0                 # stored codes represent W * 2^scale_exp

    @property
    def num_ues(self) -> int:
        return self.W.shape[0]

    @property
    def num_beams(self) -> int:
        return self.W.shape[1]


def lmmse_filter(H: np.ndarray, rho: float, domain: str = "beamspace") -> EqualizerMatrix:
    """Regularized LMMSE filter W = (H^H H + rho I)^-1 H^H via the U x U Gram."""
    H = np.asarray(H, dtype=complex)
    U = H.shape[1]
    gram = H.conj().T @ H + rho * np.eye(U)
    W = solve_hermitian_pd(gram, H.conj().T)
    return EqualizerMatrix(W=W, domain=domain)


def residual_objective(eq: EqualizerMatrix, H: np.ndarray, rho: float) -> float:
    """||I - W H||_F^2 + rho ||W||_F^2."""
    H = np.asarray(H)
    U = eq.num_ues
    r = np.eye(U) - eq.W @ H
    return float(np.linalg.norm(r, "fro") ** 2 + rho * np.linalg.norm(eq.W, "fro") ** 2)


def omp_filter(H: np.ndarray, rho: float, K: int | list[int], mode: str,
               domain: str = "beamspace") -> EqualizerMatrix | list[EqualizerMatrix]:
    """Strictly sparse filter via orthogonal matching pursuit over beam rows.

    mode 'entrywise': per UE, greedily pick K beams maximizing the residual
    correlation |r (h_b^r)^H| and re-solve the support-restricted
    regularized LS each iteration.  mode 'columnwise': one shared support
    picked by the residual-matrix column norm ||R (h_b^r)^H||_2.
    Ties break toward the smallest beam index.

    Both modes work on the U x U Gram G = H_S^H H_S + rho I of a support S
    instead of the k x k matrix H_S H_S^H + rho I.  By the push-through
    identity the restricted LS solution is W_S = G^-1 H_S^H and the
    residual I - W_S H_S is rho G^-1.  Entrywise OMP keeps one Gram per
    UE and steps all UEs in lockstep: each step adds every UE's new beam
    h_b^H h_b to its Gram and makes one stacked solve, so a filter costs
    K solves in either mode.  rho must be positive (G is singular for
    rho = 0 while |S| < U).

    K may also be a sequence of sizes: one greedy run to the largest then
    returns the list of filters of those sizes, in the order given.  The
    state after step k does not depend on K (the supports are nested), so
    each equals the filter of a run to that size alone, bit for bit.
    """
    H = np.asarray(H, dtype=complex)
    B, U = H.shape
    sizes = [K] if np.isscalar(K) else list(K)
    if not sizes or not all(1 <= k <= B for k in sizes):
        raise ValueError(f"K must be in 1..{B}, got {K}")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    eye = np.eye(U)
    built = {}

    if mode == "entrywise":
        # Column u of X is G_u^-1 e_u, so row u of the residual (G_u is
        # Hermitian) is rho conj(X[:, u])^T and its correlation with beam b
        # is rho |H[b] X[:, u]|.  Row u of the filter, on S_u, is
        # conj(H[S_u] X[:, u])^T.
        G = np.tile(rho * np.eye(U, dtype=complex), (U, 1, 1))
        chosen = np.zeros((U, B), dtype=bool)
        rows = np.arange(U)
        HX = H                                 # X = I before the first step
        for k in range(1, max(sizes) + 1):
            corr = np.abs(HX.T)                # (U, B)
            corr[chosen] = -1.0
            b_star = np.argmax(corr, axis=1)   # first (smallest) index on ties
            chosen[rows, b_star] = True
            h = H[b_star]                      # (U, U): row u is UE u's new beam
            G += h.conj()[:, :, None] * h[:, None, :]
            X = solve_hermitian_pd(G, eye[:, :, None])[..., 0].T
            HX = H @ X
            if k in sizes:
                built[k] = EqualizerMatrix(W=np.where(chosen, HX.T.conj(), 0.0),
                                           domain=domain,
                                           support=[np.flatnonzero(row) for row in chosen])

    elif mode == "columnwise":
        Hh = H.conj().T
        G = rho * eye
        chosen = np.zeros(B, dtype=bool)
        Ginv = eye                             # R / rho, with R = I before the first step
        for k in range(1, max(sizes) + 1):
            score = np.linalg.norm(Ginv @ Hh, axis=0)  # ||R (h_b^r)^H||_2 / rho
            score[chosen] = -1.0
            b_star = int(np.argmax(score))
            chosen[b_star] = True
            h = H[b_star]
            G = G + np.outer(h.conj(), h)
            Ginv = solve_hermitian_pd(G, eye)
            if k in sizes:
                W = np.zeros((U, B), dtype=complex)
                W[:, chosen] = Ginv @ Hh[:, chosen]
                built[k] = EqualizerMatrix(W=W, domain=domain, support=np.flatnonzero(chosen))

    else:
        raise ValueError(f"unknown OMP mode {mode!r}")
    filters = [built[k] for k in sizes]
    return filters[0] if np.isscalar(K) else filters


def quantize_filter(eq: EqualizerMatrix, fmt: FixedFormat) -> EqualizerMatrix:
    """Attach a fixed-point view: scale by 2^k into [0.25, 0.5), then quantize."""
    W = eq.W
    max_abs = float(max(np.abs(W.real).max(), np.abs(W.imag).max(), 0.0))
    # max_abs = m 2^e with m in [0.5, 1), so max_abs 2^(-e-1) is in [0.25, 0.5)
    k = -math.frexp(max_abs)[1] - 1 if max_abs else 0
    return replace(eq, fx=FxComplexArray.quantize(W * 2.0 ** k, fmt), scale_exp=k)
