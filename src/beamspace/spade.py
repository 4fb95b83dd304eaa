"""Sparsity-adaptive fixed-point matrix-vector products.

One kernel serves every fixed-point equalizer: it multiplies the integer
operand codes as float64 complex matrices, acc = W Y - W_lo Y_lo.  W_lo and
Y_lo keep only the operands strictly below their thresholds (each real rail
for SPADE, each complex entry for CSPADE), so W_lo Y_lo sums exactly the
skipped products, and 4UBT - sum_b n_w[b] n_y[b] real products execute, with
n[b] the below-threshold rails of beam b.  The float64 sums are exact while
2 B 2^(Ww-1) 2^(Wy-1) < 2^53 for operand widths Ww and Wy, which the kernel
checks.  exact_mvm_fixed is the kernel with nothing skipped;
masked_reference is a deliberately independent mask-then-multiply oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equalize import EqualizerMatrix
from .frontend import ReceiveVector
from .numerics import ESTIMATE_FMT, FixedFormat, FxComplexArray, round_ties_away


@dataclass(frozen=True)
class ThresholdPair:
    """Skip thresholds in quantized-operand units: tau_w for weights, tau_y for data."""

    tau_w: float
    tau_y: float

    def __post_init__(self):
        if not (self.tau_w >= 0 and self.tau_y >= 0):     # also false for NaN
            raise ValueError("thresholds must be nonnegative")


@dataclass
class ActivityReport:
    """Executed-multiplication accounting for one or more matrix-vector products."""

    executed_real_mults: int
    total_real_mults: int

    @property
    def alpha(self) -> float:
        if self.total_real_mults == 0:
            return 0.0
        return self.executed_real_mults / self.total_real_mults


def _check_operands(eq: EqualizerMatrix, y: ReceiveVector) -> None:
    if eq.fx is None:
        raise ValueError("equalizer has no fixed-point view; call quantize_filter first")
    if y.fx is None:
        raise ValueError("received vector is not quantized")
    if eq.domain != y.domain:
        raise ValueError(f"domain mismatch: filter {eq.domain!r} vs data {y.domain!r}")


def _requantize(acc: np.ndarray, eq: EqualizerMatrix, y: ReceiveVector) -> FxComplexArray:
    """Symbol estimates in ESTIMATE_FMT from accumulators of W and Y codes,
    which carry both operands' fractional bits and the filter's extra 2^k gain."""
    gain = 2.0 ** (-eq.fx.fmt.frac - y.fmt.frac - eq.scale_exp)
    return FxComplexArray.quantize(acc * gain, ESTIMATE_FMT)


def check_float64_exact(num_beams: int, w_fmt: FixedFormat, y_fmt: FixedFormat) -> None:
    """Raise ValueError unless float64 sums num_beams products of the codes exactly."""
    if 2 * num_beams * -w_fmt.min_code * -y_fmt.min_code >= 2 ** 53:
        raise ValueError(f"{num_beams}-beam {w_fmt} x {y_fmt} products are inexact in float64")


def _below(x: np.ndarray, t: float, per_rail: bool, beam_axis: int):
    """x with every operand at or above t zeroed, and its below-threshold rails per
    beam.  An operand is a real rail (SPADE) or a complex entry (CSPADE: two rails)."""
    rails = x.view(float).reshape(x.shape + (2,))
    low = np.abs(rails) < t
    if per_rail:
        return (rails * low).view(complex)[..., 0], low.sum(axis=(1 - beam_axis, 2))
    low = low[..., 0] & low[..., 1]     # an entry is below only if both rails are
    return x * low, 2 * low.sum(axis=1 - beam_axis)


def _mvm(eq: EqualizerMatrix, y: ReceiveVector, thr: ThresholdPair, scheme: str):
    """acc = W Y - W_lo Y_lo on float64 codes; returns (FxComplexArray, ActivityReport)."""
    _check_operands(eq, y)
    W = eq.fx.codes
    U, B = W.shape
    check_float64_exact(B, eq.fx.fmt, y.fmt)
    Y = y.fx.codes.reshape(B, -1)
    # Thresholds in code units, matching the operand codes.
    tw = _threshold_code(thr.tau_w, eq.fx.fmt)
    ty = _threshold_code(thr.tau_y, y.fmt)
    acc = W @ Y
    skipped = 0
    if tw > 0 and ty > 0:               # a skip needs both operands below threshold
        W_lo, n_w = _below(W, tw, scheme != "cspade", 1)
        Y_lo, n_y = _below(Y, ty, scheme != "cspade", 0)
        acc -= W_lo @ Y_lo
        skipped = int(n_w @ n_y)
    est = _requantize(acc.reshape((U,) + y.fx.codes.shape[1:]), eq, y)
    return est, ActivityReport(4 * U * Y.size - skipped, 4 * U * Y.size)


def exact_mvm_fixed(eq: EqualizerMatrix, y: ReceiveVector) -> FxComplexArray:
    """Bit-exact fixed-point MVM: integer partial products, wide accumulator,
    2^-k compensation, saturating requantization to ESTIMATE_FMT."""
    return _mvm(eq, y, ThresholdPair(0.0, 0.0), "exact")[0]


def _threshold_code(tau: float, fmt: FixedFormat) -> float:
    """A threshold snapped onto the operand format grid, in code units
    (infinity passes through)."""
    return float(round_ties_away(tau * 2.0 ** fmt.frac))


def adaptive_mvm(eq: EqualizerMatrix, y: ReceiveVector, thr: ThresholdPair, scheme: str):
    """SPADE/CSPADE MVM: skip products whose operands both fall strictly below
    their thresholds.  Returns (FxComplexArray, ActivityReport)."""
    if scheme not in ("spade", "cspade"):
        raise ValueError(f"unknown scheme {scheme!r}")
    return _mvm(eq, y, thr, scheme)


def masked_reference(eq: EqualizerMatrix, y: ReceiveVector, thr: ThresholdPair,
                     scheme: str) -> FxComplexArray:
    """Independent oracle: materialize skip masks, then run exact Python-integer
    arithmetic on the masked operands.  Must match adaptive_mvm bit-exactly."""
    _check_operands(eq, y)
    wr = eq.fx.codes_re.astype(np.int64)
    wi = eq.fx.codes_im.astype(np.int64)
    yr = y.fx.codes_re.astype(np.int64)
    yi = y.fx.codes_im.astype(np.int64)
    tw = _threshold_code(thr.tau_w, eq.fx.fmt)
    ty = _threshold_code(thr.tau_y, y.fmt)
    batched = yr.ndim == 2
    yr2 = yr if batched else yr[:, None]
    yi2 = yi if batched else yi[:, None]
    U, B = wr.shape
    T = yr2.shape[1]
    acc = np.zeros((U, T), dtype=complex)
    for t in range(T):
        for u in range(U):
            sr = 0
            si = 0
            for b in range(B):
                a, c = int(wr[u, b]), int(wi[u, b])
                p, q = int(yr2[b, t]), int(yi2[b, t])
                if scheme == "spade":
                    keep_w_re = abs(a) >= tw
                    keep_w_im = abs(c) >= tw
                    keep_y_re = abs(p) >= ty
                    keep_y_im = abs(q) >= ty
                    if keep_w_re or keep_y_re:
                        sr += a * p
                    if keep_w_im or keep_y_im:
                        sr -= c * q
                    if keep_w_re or keep_y_im:
                        si += a * q
                    if keep_w_im or keep_y_re:
                        si += c * p
                elif scheme == "cspade":
                    if max(abs(a), abs(c)) >= tw or max(abs(p), abs(q)) >= ty:
                        sr += a * p - c * q
                        si += a * q + c * p
                else:
                    raise ValueError(f"unknown scheme {scheme!r}")
            acc[u, t] = complex(sr, si)
    return _requantize(acc if batched else acc[:, 0], eq, y)
