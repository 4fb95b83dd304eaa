"""Gray-mapped 16-QAM modulation and hard-decision demapping.

Per-dimension levels are {-3, -1, +1, +3} / sqrt(10) (unit mean symbol energy)
with the reflected Gray code 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3.  A symbol
carries 4 bits: the first two select the in-phase level, the last two the
quadrature level.
"""

from __future__ import annotations

import numpy as np

BITS_PER_SYMBOL = 4

# bit pair (as integer b0*2 + b1) -> unnormalized level
_GRAY_TO_LEVEL = np.array([-3.0, -1.0, 3.0, 1.0])  # 00, 01, 10, 11
# 4-bit label (b0 b1 b2 b3 as an integer) -> unnormalized symbol
_SYMBOLS = (_GRAY_TO_LEVEL[:, None] + 1j * _GRAY_TO_LEVEL[None, :]).ravel()
_LABEL_WEIGHTS = np.array([8, 4, 2, 1])
# level index 0..3 (levels -3, -1, +1, +3) -> its Gray bit pair
_LEVEL_INDEX_TO_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
_NORM = np.sqrt(1.0 / 10.0)


def map_bits(bits: np.ndarray) -> np.ndarray:
    """Map bits (..., 4) to 16-QAM symbols of shape (...)."""
    bits = np.asarray(bits)
    if bits.shape[-1] != BITS_PER_SYMBOL:
        raise ValueError(f"last axis must have {BITS_PER_SYMBOL} bits")
    return _SYMBOLS[bits @ _LABEL_WEIGHTS] * _NORM


def _slice_dim(x: np.ndarray) -> np.ndarray:
    """Level index 0..3 for levels -3,-1,+1,+3 with thresholds at -2, 0, +2.

    Values exactly on a threshold round toward the lower-magnitude level
    (0.0 resolves to +1, matching the quantizer's sign-of-zero rule).
    """
    return (x >= -2.0).astype(np.int64) + (x >= 0.0) + (x > 2.0)


def demap_hard(symbols: np.ndarray) -> np.ndarray:
    """Nearest-point hard decisions: symbols (...) -> bits (..., 4)."""
    s = np.asarray(symbols) / _NORM
    rails = np.ascontiguousarray(s, dtype=complex).view(float).reshape(s.shape + (2,))
    # (..., 2, 2): the in-phase then the quadrature bit pair
    pairs = np.take(_LEVEL_INDEX_TO_BITS, _slice_dim(rails), axis=0)
    return pairs.reshape(s.shape + (BITS_PER_SYMBOL,))
