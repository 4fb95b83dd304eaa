"""Analytical architecture model: activity rate -> power proxy and throughput.

The proxy treats mute-capable circuitry as switching at rate alpha and the
rest at rate 1, i.e. relative power (1 - mf) + alpha * mf against the same
architecture with power saving disabled.  This is a deliberately coarse
model: an active unit is assumed to toggle at rate 1 and a muted one at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Mute-capable area fractions of the modeled architectures.
MUTE_FRACTIONS = {
    "at-spade": 0.70,
    "at-cspade": 0.83,
    "spade-cm": 0.77,
    "cspade-cm": 0.92,
    "mac-cspade": 0.92,
}


@dataclass
class ArchModel:
    """Equalizer architecture: fully parallel adder-tree or sequential MAC."""

    kind: str                  # 'AT' | 'MAC'
    mute_fraction: float
    clock_hz: float
    num_ues: int
    num_beams: int
    bits_per_symbol: int

    def __post_init__(self):
        if self.kind not in ("AT", "MAC"):
            raise ValueError(f"kind must be 'AT' or 'MAC', got {self.kind!r}")
        if not 0.0 <= self.mute_fraction <= 1.0:
            raise ValueError("mute_fraction must be in [0, 1]")
        if not 0.0 < self.clock_hz < math.inf:     # also false for NaN
            raise ValueError(f"clock_hz must be finite and positive, got {self.clock_hz}")
        for name in ("num_ues", "num_beams", "bits_per_symbol"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def power_proxy(alpha: float, mute_fraction: float) -> float:
    """Relative dynamic power vs. the no-power-saving baseline."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 0.0 <= mute_fraction <= 1.0:
        raise ValueError(f"mute_fraction must be in [0, 1], got {mute_fraction}")
    return (1.0 - mute_fraction) + alpha * mute_fraction


def savings_vs_baseline(alpha: float, mute_fraction: float) -> float:
    """Fractional power saving relative to the no-power-saving baseline."""
    return 1.0 - power_proxy(alpha, mute_fraction)


def throughput_bps(arch: ArchModel) -> float:
    """Detection throughput: AT emits one MVM per cycle, MAC one per B cycles."""
    base = arch.num_ues * arch.bits_per_symbol * arch.clock_hz
    if arch.kind == "AT":
        return base
    return base / arch.num_beams
