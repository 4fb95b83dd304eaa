"""Plane-wave channel synthesis for a half-wavelength ULA basestation.

Each UE channel is a superposition of complex sinusoids (one per
propagation path).  LoS scenarios have one dominant unit-power path plus a
few weak scattered paths; non-LoS scenarios have many i.i.d. Gaussian
paths with a per-path power decay.  Receive power control, in draw_scenario
only, rescales each UE column into a +/- power_ctrl_db window around ||h||^2 = B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class ScenarioConfig:
    """System geometry and UE drop statistics for one simulation scenario."""

    num_antennas: int = 64
    num_ues: int = 8
    los: bool = True
    sector_deg: float = 120.0
    min_sep_deg: float = 1.0
    power_ctrl_db: float = 3.0
    num_paths_los: int = 3
    num_paths_nlos: int = 12
    los_scatter_db: float = -13.0       # mean power of each LoS scattered path
    decay_db_per_path: float = 1.5      # non-LoS per-path power decay
    max_placement_tries: int = 1000

    def __post_init__(self):
        for name in ("num_antennas", "num_ues", "num_paths_los", "num_paths_nlos"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("sector_deg", "min_sep_deg", "power_ctrl_db", "los_scatter_db",
                     "decay_db_per_path"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("power_ctrl_db", "min_sep_deg", "max_placement_tries"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        # The linear powers a draw forms: each and their sum finite and positive.
        for name, db in (("power_ctrl_db", [self.power_ctrl_db, -self.power_ctrl_db]),
                         ("los_scatter_db", [self.los_scatter_db]),
                         ("decay_db_per_path",
                          -self.decay_db_per_path * np.arange(self.num_paths_nlos))):
            with np.errstate(over="ignore"):
                powers = 10.0 ** (np.asarray(db) / 10.0)
            if not (powers.min() > 0.0 and np.isfinite(powers.sum())):
                raise ValueError(f"{name} = {getattr(self, name)} gives a linear power"
                                 " that is not finite and positive")
        if self.sector_deg <= 0:
            raise ValueError("sector_deg must be positive")
        if self.num_ues > self.num_antennas:
            raise ValueError("num_ues must not exceed num_antennas")
        if self.min_sep_deg * self.num_ues > self.sector_deg:
            raise ValueError("UEs with the required separation do not fit the sector")


class ChannelMatrix:
    """Antenna-domain channel with per-UE drop metadata, from the draws of
    ``draw_scenario``.  ``superpose`` forms the blocks' path superpositions,
    which draw nothing (numpy runs their exponentials outside the GIL, so
    another thread may call it); the first read of ``H`` (B, U), or
    (N, B, U) for a stack, scales their columns by power control."""

    def __init__(self, angles_deg: np.ndarray, paths: tuple, offsets: list):
        self.angles_deg, self._paths, self._offsets, self._sum = angles_deg, paths, offsets, None

    def superpose(self) -> None:
        self._sum = _superpose(*self._paths)

    @cached_property
    def H(self) -> np.ndarray:
        if self._sum is None:
            self.superpose()
        H, self._sum = _scale_columns(self._sum, self._offsets, float(self._sum.shape[-2])), None
        return H[0] if self.angles_deg.ndim == 1 else H


def _basis(freqs: np.ndarray, num_antennas: int) -> np.ndarray:
    """ULA steering vectors [1, e^{j phi}, ..., e^{j (B-1) phi}] of paths with
    spatial frequencies phi (..., L): (..., B, L), exponentiated in place."""
    phases = np.multiply(1j * np.arange(num_antennas)[:, None], freqs[..., None, :])
    return np.exp(phases, out=phases)


def _draw_angles(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """UE azimuths, uniform on the sector subject to the minimum separation:
    by rejection, then after max_placement_tries by shifting the k-th of U sorted
    uniforms on the sector less (U - 1) separations by k separations."""
    half = cfg.sector_deg / 2.0
    for _ in range(cfg.max_placement_tries):
        az = rng.uniform(-half, half, size=cfg.num_ues)
        if cfg.num_ues == 1:
            return az
        if np.diff(np.sort(az)).min() >= cfg.min_sep_deg:   # the closest pair
            return az
    span = cfg.sector_deg - (cfg.num_ues - 1) * cfg.min_sep_deg
    az = np.sort(rng.uniform(-half, -half + span, size=cfg.num_ues))
    return rng.permutation(az + cfg.min_sep_deg * np.arange(cfg.num_ues))


def _draw_paths(cfg: ScenarioConfig, rngs, azimuths_deg: np.ndarray):
    """Complex gains and spatial frequencies (N, U, L) of every UE's paths,
    block n drawing from rngs[n] with UE azimuths azimuths_deg[n] (N, U).
    Scalar draws per UE: for LoS the phase of the dominant unit-power path
    at the UE azimuth; then per scattered path (every non-LoS path) a normal,
    a normal and a uniform angle in the sector.  The arithmetic is batched."""
    half = cfg.sector_deg / 2.0
    if cfg.los:
        powers = np.full(cfg.num_paths_los - 1, 10.0 ** (cfg.los_scatter_db / 10.0))
    else:
        powers = 10.0 ** (-cfg.decay_db_per_path * np.arange(cfg.num_paths_nlos) / 10.0)
        powers /= powers.sum()
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random().
    phases, draws = [], []
    for rng, azimuths in zip(rngs, azimuths_deg):
        normal, uniform = rng.standard_normal, rng.random
        for _ in azimuths:
            if cfg.los:
                phases.append(2.0 * np.pi * uniform())
            for _ in powers:
                draws += (*normal(2).tolist(), uniform())
    d = np.array(draws).reshape(azimuths_deg.shape + (len(powers), 3))
    gains = (d[..., 0] + 1j * d[..., 1]) * np.sqrt(powers / 2.0)
    freqs = np.pi * np.sin(np.deg2rad(-half + 2.0 * half * d[..., 2]))
    if cfg.los:                         # (N, U) arrays join (N, U, L) ones on axis 2
        gains = np.dstack([np.exp(1j * np.array(phases)).reshape(azimuths_deg.shape), gains])
        freqs = np.dstack([np.pi * np.sin(np.deg2rad(azimuths_deg)), freqs])
    return gains, freqs


def _scale_columns(H: np.ndarray, offsets: list, target: float) -> np.ndarray:
    """H (..., B, U) with each column scaled to power target * 10^(o / 10), o its
    offset in dB (a list of U per matrix)."""
    scales = []
    for Hn, offs in zip(H.reshape((-1,) + H.shape[-2:]), offsets):
        # The bytes np.linalg.norm(h) ** 2 gives: a dot product per rail, one sqrt.
        powers = [math.sqrt(h.real.dot(h.real) + h.imag.dot(h.imag)) ** 2 for h in Hn.T]
        if 0.0 in powers:
            raise ValueError(f"column {powers.index(0.0)} has zero power")
        scales += [math.sqrt(target * 10.0 ** (o / 10.0) / p) for o, p in zip(offs, powers)]
    return H * np.reshape(scales, H.shape[:-2] + (1, -1))


def _superpose(freqs: np.ndarray, gains: np.ndarray, num_antennas: int) -> np.ndarray:
    """The channels (N, B, U) of paths with frequencies and gains (N, U, L):
    products (n, U, B, L) @ (n, U, L, 1), the bytes of N U matvecs, over
    n <= 4 blocks at a time, which bounds the basis (384 KiB at 64 x 8 x 12)."""
    parts = [(_basis(freqs[n:n + 4], num_antennas) @ gains[n:n + 4, ..., None])[..., 0]
             for n in range(0, len(freqs), 4)]
    return np.swapaxes(np.concatenate(parts), -1, -2).copy()


def draw_scenario(cfg: ScenarioConfig, rng) -> ChannelMatrix:
    """Draw UE placements, path gains and power-control offsets, for a
    power-controlled channel that is built from them when read (ChannelMatrix),
    so reading it draws nothing.  A list of N Generators gives a stack: H
    (N, B, U) and angles (N, U), each block equal byte for byte to its
    Generator's draw alone."""
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    angles = np.array([_draw_angles(cfg, r) for r in rngs])
    gains, freqs = _draw_paths(cfg, rngs, angles)
    # Each UE's power-control offset in dB, uniform on +/- power_ctrl_db.
    offsets = [r.uniform(-cfg.power_ctrl_db, cfg.power_ctrl_db, size=cfg.num_ues).tolist()
               for r in rngs]
    return ChannelMatrix(angles if rngs is rng else angles[0],
                         (freqs, gains, cfg.num_antennas), offsets)


def dump_channel_csv(H: np.ndarray, path) -> None:
    """Write an antenna-domain channel as CSV rows ``b,u,re,im``."""
    import csv                          # only here: ``import beamspace`` skips it
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["b", "u", "re", "im"])
        for b in range(H.shape[0]):
            for u in range(H.shape[1]):
                writer.writerow([b, u, repr(float(H[b, u].real)),
                                 repr(float(H[b, u].imag))])
