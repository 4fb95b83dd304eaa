"""Linear equalizer construction: dense LMMSE and sparse OMP variants.

Filter math runs in double precision; quantize_filter gives the fixed-point
codes that the equalization kernels multiply, with a power-of-two rescale
2^k chosen so the largest entry component lands in [0.25, 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import FixedFormat, FxComplexArray, solve_hermitian_pd


@dataclass
class EqualizerMatrix:
    """U x B filter with its OMP support (None: dense), or a stack of N such
    filters with a leading axis on every field.  A quantized filter
    (quantize_filter) holds only its codes fx and scale_exp, W being None."""

    W: np.ndarray | None               # complex, shape (U, B) or (N, U, B)
    domain: str = "beamspace"          # 'antenna' | 'beamspace'
    support: np.ndarray | None = None  # sorted beam indices, entrywise (U, K) per
                                       # row, columnwise (K,) shared
    fx: FxComplexArray | None = None
    scale_exp: int | np.ndarray = 0    # the codes represent W * 2^scale_exp

    def __getitem__(self, n: int) -> EqualizerMatrix:
        """Filter n of a stack, its arrays views into the stack's."""
        return EqualizerMatrix(
            W=None if self.W is None else self.W[n], domain=self.domain,
            support=None if self.support is None else self.support[n],
            fx=None if self.fx is None else FxComplexArray(self.fx.codes[n], self.fx.fmt),
            scale_exp=int(self.scale_exp[n] if np.ndim(self.scale_exp) else self.scale_exp))


def _stacked(H: np.ndarray, rho) -> tuple[np.ndarray, np.ndarray]:
    """H as an (N, B, U) stack and rho as (N, 1, 1): one matrix is a stack of
    one, and a scalar rho serves every matrix of a stack."""
    H = np.asarray(H, dtype=complex)
    stack = H.reshape((-1,) + H.shape[-2:])
    return stack, np.broadcast_to(np.asarray(rho, dtype=float), stack.shape[:1])[:, None, None]


def _unstacked(eq: EqualizerMatrix, H: np.ndarray) -> EqualizerMatrix:
    """The filter of one matrix H from its stack of one, or the stack as is."""
    return eq[0] if np.ndim(H) == 2 else eq


def lmmse_filter(H: np.ndarray, rho, domain: str = "beamspace") -> EqualizerMatrix:
    """Regularized LMMSE filter W = (H^H H + rho I)^-1 H^H via the U x U Gram.

    H may be one B x U matrix or a stack (N, B, U) with rho a scalar or one
    value per matrix; a stack gives a stack of filters, each equal byte for
    byte to the filter of its matrix alone."""
    Hs, rho_s = _stacked(H, rho)
    U = Hs.shape[-1]
    Hh = Hs.conj().swapaxes(-1, -2)
    gram = Hh @ Hs + rho_s * np.eye(U)
    W = solve_hermitian_pd(gram, Hh)
    return _unstacked(EqualizerMatrix(W=W, domain=domain), H)


def residual_objective(eq: EqualizerMatrix, H: np.ndarray, rho: float) -> float:
    """||I - W H||_F^2 + rho ||W||_F^2."""
    H = np.asarray(H)
    r = np.eye(eq.W.shape[-2]) - eq.W @ H
    return float(np.linalg.norm(r, "fro") ** 2 + rho * np.linalg.norm(eq.W, "fro") ** 2)


def omp_filter(H: np.ndarray, rho, K: int | list[int], mode: str,
               domain: str = "beamspace") -> EqualizerMatrix | list[EqualizerMatrix]:
    """Strictly sparse filter via orthogonal matching pursuit over beam rows.

    mode 'entrywise': per UE, greedily pick K beams maximizing the residual
    correlation |r (h_b^r)^H| and re-solve the support-restricted
    regularized LS each iteration.  mode 'columnwise': one shared support
    picked by the residual-matrix column norm ||R (h_b^r)^H||_2.
    Ties break toward the smallest beam index.

    One greedy loop serves both modes.  It works on the U x U Gram
    G = H_S^H H_S + rho I of a support S instead of the k x k matrix
    H_S H_S^H + rho I.  By the push-through identity the restricted LS
    solution is W_S = G^-1 H_S^H and the residual I - W_S H_S is rho G^-1.
    The loop keeps a stack of Grams, one per UE (entrywise) or one shared
    (columnwise).  Each step adds each Gram's new beam h_b^H h_b and makes
    one stacked solve, so a filter costs K solves in either mode.  From
    that solve comes one U x B matrix P whose row u is row u of
    G_u^-1 H^H, G_u being the Gram that serves UE u.  P scores the next
    beam (|P| per entry, or its column norm over UEs) and, masked to the
    support, is the filter.  Columnwise W is thus the full product
    G^-1 H^H masked, which BLAS may round in the last bits differently from
    a product over the support's columns alone; supports and quantized
    codes do not depend on that.  rho must be positive (G is singular for
    rho = 0 while |S| < U).

    H may also be a stack (N, B, U), with rho a scalar or one value per
    matrix: the N runs step in lockstep, still one solve per step, and
    each filter of the stack equals the filter of its matrix alone, byte
    for byte.  K may also be a sequence of sizes: one greedy run to the
    largest then returns the list of filters of those sizes, in the order
    given.  The state after step k does not depend on K (the supports are
    nested), so each equals the filter of a run to that size alone.
    """
    Hs, rho_s = _stacked(H, rho)
    N, B, U = Hs.shape
    sizes = [K] if np.isscalar(K) else list(K)
    if not sizes or not all(1 <= k <= B for k in sizes):
        raise ValueError(f"K must be in 1..{B}, got {K}")
    if not np.all(rho_s > 0):
        raise ValueError(f"rho must be positive, got {rho}")
    if mode not in ("entrywise", "columnwise"):
        raise ValueError(f"unknown OMP mode {mode!r}")
    entrywise = mode == "entrywise"
    R = U if entrywise else 1
    G = np.repeat((rho_s * np.eye(U, dtype=complex))[:, None], R, axis=1)
    chosen = np.zeros((N, R, B), dtype=bool)
    at = np.arange(N)[:, None], np.arange(R)
    rhs = np.eye(U).reshape(R, U, U // R)     # e_r for Gram r, or I for the shared one
    Hh = Hs.conj().swapaxes(-1, -2)
    P = Hh                                    # the residual rho G^-1 is I before step 1
    built = {}
    for k in range(1, max(sizes) + 1):
        score = np.abs(P) if entrywise else np.linalg.norm(P, axis=-2, keepdims=True)
        score[chosen] = -1.0
        b_star = np.argmax(score, axis=-1)    # first (smallest) index on ties
        chosen[at + (b_star,)] = True
        h = Hs[at[0], b_star]                 # (N, R, U): row r is Gram r's new beam
        G += h.conj()[..., :, None] * h[..., None, :]
        X = solve_hermitian_pd(G, rhs).reshape(N, U, U)
        # Row u of X is G_u^-1 e_u (its conjugate is row u of G_u^-1) or row
        # u of the shared G^-1.
        P = (X.conj() if entrywise else X) @ Hh
        if k in sizes:
            built[k] = EqualizerMatrix(
                W=np.where(chosen, P, 0.0), domain=domain,
                support=np.nonzero(chosen)[-1].reshape((N, U, k) if entrywise else (N, k)))
    filters = [_unstacked(built[k], H) for k in sizes]
    return filters[0] if np.isscalar(K) else filters


def quantize_filter(eq: EqualizerMatrix, fmt: FixedFormat) -> EqualizerMatrix:
    """The filter as codes alone, W dropped: scaled by 2^k into [0.25, 0.5),
    then quantized.  A stack of filters gets one k per filter."""
    W = eq.W
    max_abs = np.maximum(np.abs(W.real).max(axis=(-2, -1)), np.abs(W.imag).max(axis=(-2, -1)))
    # max_abs = m 2^e with m in [0.5, 1), so max_abs 2^(-e-1) is in [0.25, 0.5)
    k = np.where(max_abs > 0, -np.frexp(max_abs)[1] - 1, 0)
    fx = FxComplexArray.quantize(W * np.ldexp(1.0, k)[..., None, None], fmt)
    return replace(eq, W=None, fx=fx, scale_exp=int(k) if k.ndim == 0 else k)
