"""Receiver front end: ADC quantization, beamspace DFT, channel estimation.

The ADC is a mid-rise uniform symmetric quantizer with 2^m levels per real
dimension at +/-(k + 1/2) * step.  Outputs are stored divided by the step
("step-normalized"), so they are exact half-integers representable in the
(7, 1) antenna-domain format.  The beamspace transform is an exact unitary
DFT followed by output quantization to the (9, 1) format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import ANTENNA_Y_FMT, BEAMSPACE_Y_FMT, FixedFormat, FxComplexArray


@dataclass(frozen=True)
class AdcConfig:
    """ADC resolution and step size for one coherence block."""

    bits: int
    step: float        # unified step of all antennas and both rails; (N, 1, 1) per stack

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if np.asarray(self.step).min() <= 0:
            raise ValueError("step must be positive")


class ReceiveVector:
    """Received samples tagged with their domain and fixed-point format.

    Quantized samples (fmt set) are step-normalized and held once, as the
    FxComplexArray ``fx`` of their codes; ``values`` reads them back, exact
    on the format grid.  Given as values rather than as codes, they must lie
    on that grid within [min_code, max_code] * lsb, or ValueError.  fmt None
    means unquantized floating-point samples in physical units, and fx None.
    """

    def __init__(self, domain: str, values, fmt: FixedFormat | None):
        self.domain, self.fmt = domain, fmt     # domain: 'antenna' | 'beamspace'
        self.fx = self._values = None
        if fmt is None:
            self._values = values       # complex, shape (B,) or (B, T)
        elif isinstance(values, FxComplexArray):
            if values.fmt != fmt:
                raise ValueError(f"codes in {values.fmt}, not {fmt}")
            self.fx = values
        else:
            codes = np.ascontiguousarray(values, dtype=complex).view(float) * 2.0 ** fmt.frac
            if not np.all((codes == np.trunc(codes)) & (codes >= fmt.min_code)
                          & (codes <= fmt.max_code)):
                raise ValueError(f"values off the {fmt} grid")
            self.fx = FxComplexArray(codes.view(complex), fmt)

    @property
    def values(self) -> np.ndarray:
        return self._values if self.fx is None else self.fx.values


# MSE-optimal mid-rise unit steps for 1..8 bits: the minimizers over (1e-3, 4)
# of the exact Gaussian quantization MSE; tests/test_frontend.py re-derives them.
_UNIT_STEPS = (1.5957690979363168, 0.9956866994286742, 0.5860194297825778,
               0.3352006244682113, 0.18813879341749468, 0.10406300540217393,
               0.05686767220142458, 0.030762391571219593)


def optimal_unit_step(bits: int) -> float:
    """MSE-optimal mid-rise step size for a standard Gaussian input."""
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in 1..8, got {bits}")
    return _UNIT_STEPS[bits - 1]


def unified_step(H: np.ndarray, N0: float, bits: int):
    """Worst-antenna step size for unit-energy symbols: max_b step1 *
    sqrt((||h_b^r||^2 + N0) / 2); one per matrix, (N,) for a stack (N, B, U)."""
    row_var = np.sum(np.abs(np.asarray(H)) ** 2, axis=-1) + N0
    return optimal_unit_step(bits) * np.sqrt(row_var.max(axis=-1) / 2.0)


def quantize_adc(z: np.ndarray, step: float, bits: int) -> np.ndarray:
    """Mid-rise quantization, returned step-normalized (half-integer levels).

    Operates independently on real and imaginary parts.  Inputs at exactly
    zero map to the positive level +1/2.  ``step`` may be an array that
    broadcasts against z, one step per matrix of a stack.
    """
    if np.asarray(step).min() <= 0:
        raise ValueError("step must be positive")
    half_levels = 1 << (bits - 1)
    # Both rails in one pass over the interleaved float view.
    q = np.floor(np.ascontiguousarray(z, dtype=complex).view(float) / step)
    np.clip(q, -half_levels, half_levels - 1, out=q)
    q += 0.5
    return q.view(complex).reshape(np.shape(z))


def dft_unitary(x: np.ndarray) -> np.ndarray:
    """Unitary DFT (F F^H = I) along the beam axis: the first of a vector, the
    second-last of a matrix or of a stack of matrices."""
    x = np.asarray(x, dtype=complex)
    axis = -2 if x.ndim > 1 else 0
    out = np.fft.fft(x, axis=axis)
    out *= 1.0 / np.sqrt(x.shape[axis])    # what dividing by sqrt(B) computes
    return out


def unit_noise(rngs, shape) -> np.ndarray:
    """The unit normals of the receive noise of samples ``shape``, split
    evenly over the list of Generators ``rngs``: per Generator one
    standard_normal fill of both rails, the real rail's block first, as an
    (N, 2, M) array for N Generators.  Drawn before the product H s that
    ``receive`` forms: OpenBLAS's AVX-512 kernels return with the upper
    vector state dirty, which slows numpy's (SSE) normal sampler by a fifth."""
    noise = np.empty((len(rngs), 2, math.prod(shape) // len(rngs)))
    for g, out in zip(rngs, noise):
        g.standard_normal(out=out)
    return noise


def receive(H: np.ndarray, s: np.ndarray, N0: float, adc: AdcConfig | None,
            noise: np.ndarray, beamspace: bool = True):
    """One (possibly batched) receive operation.

    Returns (antenna ReceiveVector, beamspace ReceiveVector), the second None
    unless ``beamspace``.  The noise is circularly-symmetric complex Gaussian
    with per-entry variance N0: ``noise``, the unit normals of ``unit_noise``
    for the shape of H s, scaled in place and added in place onto H s.
    With an ADC, both hold the codes that are made here: in the (7, 1)
    format those of the step-normalized mid-rise levels, and in the (9, 1)
    format those of the exact unitary DFT of the levels, re-quantized with
    saturation.  With adc=None both are exact floating-point samples in
    physical units.  A stack H (N, B, U) takes the unit normals of a list
    of N Generators and steps (N, 1, 1): each block's samples and codes
    equal those of its receive alone.
    """
    noise *= np.sqrt(N0 / 2.0)
    z = np.asarray(H @ s, dtype=complex)
    z.real += noise[:, 0].reshape(z.shape)
    z.imag += noise[:, 1].reshape(z.shape)
    del noise           # each 64 x 128 temporary goes as soon as it is used
    if adc is None:
        return (ReceiveVector("antenna", z, None),
                ReceiveVector("beamspace", dft_unitary(z), None) if beamspace else None)
    ybar = quantize_adc(z, adc.step, adc.bits)
    del z
    yb = FxComplexArray.quantize(dft_unitary(ybar), BEAMSPACE_Y_FMT) if beamspace else None
    ybar *= 2.0 ** ANTENNA_Y_FMT.frac   # the levels' codes, in place
    return (ReceiveVector("antenna", FxComplexArray(ybar, ANTENNA_Y_FMT), ANTENNA_Y_FMT),
            ReceiveVector("beamspace", yb, BEAMSPACE_Y_FMT) if beamspace else None)


@lru_cache(maxsize=16)
def dft_pilots(num_ues: int) -> np.ndarray:
    """Orthogonal pilot matrix of unit symbol energy: the unitary U x U DFT.

    Built once per num_ues and returned read-only."""
    pilots = np.fft.fft(np.eye(num_ues)) / np.sqrt(num_ues)
    pilots.flags.writeable = False
    return pilots


def ls_estimate(y_pilot_values: np.ndarray, pilots: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate from U pilot-slot observations.

    y_pilot_values has shape (B, U), or (N, B, U) for a stack of blocks, with
    slot u carrying pilots[:, u]; the estimate lives in the same domain and
    normalization as the observations.  Noiseless unquantized observations
    recover the channel exactly.
    """
    y = np.asarray(y_pilot_values)
    if y.shape[-1] != pilots.shape[0]:
        raise ValueError("pilot observation count does not match pilot length")
    return y @ pilots.conj().T


def perfect_csi(H: np.ndarray, step) -> np.ndarray:
    """Genie estimate: true channel, step-normalized like the data path; a
    stack (N, B, U) takes one step per block, shaped (N, 1, 1)."""
    return np.asarray(H, dtype=complex) / step
