"""Fixed-point arithmetic emulation and shared complex linear algebra.

All fixed-point values are two's-complement codes with a format (W, F):
W total bits including sign, F fractional bits.  The real value of a code
c is c * 2**-F.  Conversion rounds to nearest with ties away from zero and
saturates to the format extremes instead of wrapping.  One rounding rule
(``_scaled_round``) serves ``round_ties_away``, ``to_fixed`` and
``FxComplexArray.quantize``; the last runs it as one in-place float pass,
with no integer round trip.  It is the only rule in the package that rounds
values to codes: the filter, beamspace-data and estimate codes are made
once, by ``FxComplexArray.quantize`` (the antenna-data codes by the ADC's
mid-rise quantizer), and the kernels read them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DecompositionError(Exception):
    """Cholesky factorization failed (input not positive definite)."""


@dataclass(frozen=True)
class FixedFormat:
    """Two's-complement fixed-point format: W total bits, F fractional bits."""

    width: int
    frac: int

    def __post_init__(self):
        if self.width < 2:
            raise ValueError(f"width must be >= 2, got {self.width}")
        if self.frac < 0:
            raise ValueError(f"frac must be >= 0, got {self.frac}")

    @property
    def lsb(self) -> float:
        return 2.0 ** -self.frac

    @property
    def min_code(self) -> int:
        return -(1 << (self.width - 1))

    @property
    def max_code(self) -> int:
        return (1 << (self.width - 1)) - 1


# Formats from the equalizer fixed-point parameter table.
ANTENNA_Y_FMT = FixedFormat(7, 1)       # ADC outputs, step-normalized
ANTENNA_W_FMT = FixedFormat(11, 10)     # antenna-domain filter entries
BEAMSPACE_Y_FMT = FixedFormat(9, 1)     # beamspace received vector
BEAMSPACE_W_FMT = FixedFormat(12, 11)   # beamspace filter entries
ESTIMATE_FMT = FixedFormat(13, 8)       # symbol estimates


_BELOW_HALF = np.nextafter(0.5, 0.0)     # 0.5 - 2^-54


def _scaled_round(x, scale: float) -> np.ndarray:
    """x * scale rounded to the nearest integer, ties away from zero, as a new
    float array (0-d for scalar x): the package's one rounding rule.

    Adding the float just below a half before truncating is exact for every
    finite float: a tie k + 1/2 still rounds up to k + 1, while 0.5 itself
    would lift the float just below a half, and odd integers above 2^52,
    to the next integer."""
    r = np.multiply(x, scale, out=np.empty(np.shape(x)))
    r += np.copysign(_BELOW_HALF, r)
    return np.trunc(r, out=r)


def round_ties_away(x):
    """Round to nearest integer, ties away from zero (elementwise)."""
    return _scaled_round(x, 1.0)


def to_fixed(x, fmt: FixedFormat):
    """Convert real values to fixed-point codes.

    Returns ``(codes, saturated)`` where codes is int64 and saturated marks
    entries clipped to the format extremes.  Saturation is symmetric
    (+/- max_code), so |value| never exceeds max_code * lsb.  Works
    elementwise on arrays.
    """
    raw = _scaled_round(x, 2.0 ** fmt.frac)
    codes = np.clip(raw, -fmt.max_code, fmt.max_code)
    saturated = raw != codes
    return codes.astype(np.int64), saturated


def fx_value(codes, fmt: FixedFormat):
    """Real value represented by fixed-point codes."""
    return np.asarray(codes, dtype=float) * fmt.lsb


@dataclass
class FxComplexArray:
    """Complex fixed-point array: the integer codes of both rails, held as one
    contiguous complex float64 array (exact for widths up to 53 bits), and
    their shared format."""

    codes: np.ndarray
    fmt: FixedFormat

    def __post_init__(self):
        self.codes = np.ascontiguousarray(self.codes, dtype=complex)

    @classmethod
    def quantize(cls, x, fmt: FixedFormat) -> FxComplexArray:
        """Codes of complex values x, the codes to_fixed gives each rail: one
        float pass over the interleaved rails that scales, rounds and clips."""
        r = _scaled_round(np.ascontiguousarray(x, dtype=complex).view(float), 2.0 ** fmt.frac)
        np.clip(r, -fmt.max_code, fmt.max_code, out=r)
        r += 0.0        # -0.0 -> +0.0, as an integer code has no signed zero
        return cls(r.view(complex), fmt)

    @property
    def codes_re(self) -> np.ndarray:
        return self.codes.real

    @property
    def codes_im(self) -> np.ndarray:
        return self.codes.imag

    @property
    def values(self) -> np.ndarray:
        # Scaled on the float view: a complex-by-real product may flip a zero's sign.
        return fx_value(self.codes.view(float), self.fmt).view(complex)


def solve_hermitian_pd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for Hermitian positive-definite A.

    A may be one (n, n) matrix or a stack (..., n, n); B is then (n,),
    (n, k) or a stack (..., n, k) that broadcasts against A.  A Cholesky
    factorization of the lower triangle checks positive definiteness and
    raises DecompositionError if any slice has a non-positive pivot; the
    system itself is solved by LU.  Non-finite input raises ValueError.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(str(exc)) from exc
    return np.linalg.solve(a, b)
