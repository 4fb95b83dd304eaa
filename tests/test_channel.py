import threading

import numpy as np
import pytest

from beamspace.channel import (ScenarioConfig, _basis, _draw_angles, _scale_columns,
                               draw_scenario, dump_channel_csv)
from beamspace.frontend import dft_unitary


def steering_vector(phi, num_antennas):
    """The ULA response of one path: its column of the steering basis."""
    return _basis(np.array([phi]), num_antennas)[:, 0]


def test_steering_boresight():
    assert np.allclose(steering_vector(0.0, 4), np.ones(4))


def test_steering_alternating():
    assert np.allclose(steering_vector(np.pi, 3), [1, -1, 1])


def test_steering_quarter_turn():
    assert np.allclose(steering_vector(np.pi / 2, 4), [1, 1j, -1, -1j])


def test_steering_norm_is_num_antennas():
    rng = np.random.default_rng(1)
    for _ in range(20):
        phi = rng.uniform(-np.pi, np.pi)
        B = int(rng.integers(1, 100))
        a = steering_vector(phi, B)
        assert np.allclose(np.abs(a), 1.0)
        assert abs(np.linalg.norm(a) ** 2 - B) < 1e-9


# A UE's channel superposes its paths, h = sum_l alpha_l a(phi_l): draw_scenario
# computes it as _basis(freqs, B) @ gains.

def test_single_boresight_path():
    assert np.allclose(_basis(np.array([0.0]), 5) @ np.array([1.0 + 0j]), np.ones(5))


def test_destructive_superposition():
    assert np.allclose(_basis(np.array([0.0, 0.0]), 6) @ np.array([1.0, -1.0]), 0.0)


def test_matches_per_path_accumulation_oracle():
    rng = np.random.default_rng(3)
    gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    freqs = rng.uniform(-np.pi, np.pi, 2)
    h = _basis(freqs, 16) @ gains
    ref = sum(g * np.exp(1j * f * np.arange(16)) for g, f in zip(gains, freqs))
    assert np.allclose(h, ref, atol=1e-12)


def test_single_ue_scenario():
    cfg = ScenarioConfig(num_antennas=16, num_ues=1)
    scen = draw_scenario(cfg, np.random.default_rng(0))
    assert scen.H.shape == (16, 1)


def test_same_seed_same_channel():
    cfg = ScenarioConfig()
    a = draw_scenario(cfg, np.random.default_rng(42))
    b = draw_scenario(cfg, np.random.default_rng(42))
    assert np.array_equal(a.H, b.H)
    assert np.array_equal(a.angles_deg, b.angles_deg)


def test_pairwise_separation():
    cfg = ScenarioConfig()
    for seed in range(5):
        scen = draw_scenario(cfg, np.random.default_rng(seed))
        az = scen.angles_deg
        gaps = np.abs(az[:, None] - az[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() >= cfg.min_sep_deg
        assert np.all(np.abs(az) <= cfg.sector_deg / 2)


def test_power_control_window():
    cfg = ScenarioConfig(los=False)
    B = cfg.num_antennas
    for seed in range(5):
        scen = draw_scenario(cfg, np.random.default_rng(seed))
        col_db = 10 * np.log10(np.linalg.norm(scen.H, axis=0) ** 2 / B)
        assert np.all(np.abs(col_db) <= cfg.power_ctrl_db + 1e-9)


def test_power_control_zero_offset():
    H = 2.0 * np.ones((4, 1), dtype=complex)  # power 16 = 4B
    out = _scale_columns(H, [[0.0]], 4.0)
    assert abs(np.linalg.norm(out[:, 0]) ** 2 - 4.0) < 1e-12


def test_power_control_plus3_offset():
    H = np.ones((4, 1), dtype=complex)
    out = _scale_columns(H, [[3.0]], 4.0)
    assert abs(np.linalg.norm(out[:, 0]) ** 2 - 4.0 * 10 ** 0.3) < 1e-9


def test_power_control_rejects_zero_column():
    with pytest.raises(ValueError, match="column 1 has zero power"):
        _scale_columns(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex), [[0.0, 0.0]], 4.0)


def test_dft_grid_path_is_one_beam():
    B = 32
    k = 5
    alpha = 0.7 - 0.2j
    h = alpha * steering_vector(2 * np.pi * k / B, B)
    hb = dft_unitary(h)
    mags = np.abs(hb)
    # the DFT here uses exp(-j...), so the energy lands on bin B-k
    assert np.count_nonzero(mags > 1e-9) == 1
    assert abs(mags.max() - np.sqrt(B) * abs(alpha)) < 1e-9


def test_infeasible_geometry_rejected_at_config():
    with pytest.raises(ValueError):
        ScenarioConfig(num_antennas=64, num_ues=8, sector_deg=6.0, min_sep_deg=1.0)


def test_placement_falls_back_to_direct_draw():
    # 8 UEs in an 8 degree sector with 1 degree gaps barely fits; a single
    # rejection-sampling try essentially never lands it, so the direct draw does.
    cfg = ScenarioConfig(num_antennas=64, num_ues=8, sector_deg=8.0,
                         min_sep_deg=1.0, max_placement_tries=1)
    for seed in range(300):
        angles = draw_scenario(cfg, np.random.default_rng(seed)).angles_deg
        assert np.all(np.abs(angles) <= 4.0)
        assert np.diff(np.sort(angles)).min() >= 1.0


def test_direct_placement_matches_rejection_law():
    # 3 UEs x 3 deg in a 10 deg sector: rejection accepts 38% of draws.  Both
    # samplers are uniform on the feasible set, where the sorted angles have
    # means -4, 0 and 4 deg and each UE's angle has mean 0.
    rng = np.random.default_rng(3)
    for tries in (1000, 0):
        cfg = ScenarioConfig(num_antennas=8, num_ues=3, sector_deg=10.0,
                             min_sep_deg=3.0, max_placement_tries=tries)
        az = np.array([_draw_angles(cfg, rng) for _ in range(4000)])
        assert np.allclose(np.sort(az, axis=1).mean(axis=0), [-4.0, 0.0, 4.0], atol=0.1)
        assert np.allclose(az.mean(axis=0), 0.0, atol=0.2)


def test_channel_csv_roundtrip(tmp_path):
    scen = draw_scenario(ScenarioConfig(num_antennas=8, num_ues=3),
                         np.random.default_rng(9))
    path = tmp_path / "chan.csv"
    dump_channel_csv(scen.H, path)
    assert path.read_text().splitlines()[0] == "b,u,re,im"
    b, u, re, im = np.loadtxt(path, delimiter=",", skiprows=1).T   # one row per entry
    H = np.zeros_like(scen.H)
    H[b.astype(int), u.astype(int)] = re + 1j * im
    assert len(b) == H.size and np.array_equal(H, scen.H)


def _frozen_draw_scenario(cfg, rng):
    """draw_scenario as first written: per-path scalar arithmetic, one
    steering basis per UE, one power-control draw per column."""
    half = cfg.sector_deg / 2.0
    for _ in range(cfg.max_placement_tries):
        angles = rng.uniform(-half, half, size=cfg.num_ues)
        gaps = np.abs(angles[:, None] - angles[None, :])
        np.fill_diagonal(gaps, np.inf)
        if cfg.num_ues == 1 or gaps.min() >= cfg.min_sep_deg:
            break
    paths = []
    for az in angles:
        if cfg.los:
            gains = [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))]
            freqs = [np.pi * np.sin(np.deg2rad(az))]
            powers = [10.0 ** (cfg.los_scatter_db / 10.0)] * (cfg.num_paths_los - 1)
        else:
            gains, freqs = [], []
            powers = 10.0 ** (-cfg.decay_db_per_path * np.arange(cfg.num_paths_nlos) / 10.0)
            powers /= powers.sum()
        for p in powers:
            gains.append((rng.standard_normal() + 1j * rng.standard_normal())
                         * np.sqrt(p / 2.0))
            freqs.append(np.pi * np.sin(np.deg2rad(rng.uniform(-half, half))))
        paths.append((np.array(gains), np.array(freqs)))
    H = np.column_stack([
        np.exp(1j * np.outer(np.arange(cfg.num_antennas), f)) @ g for g, f in paths])
    out = H.copy()
    for u in range(H.shape[1]):
        p = np.linalg.norm(H[:, u]) ** 2
        offset_db = rng.uniform(-cfg.power_ctrl_db, cfg.power_ctrl_db)
        out[:, u] *= np.sqrt(cfg.num_antennas * 10.0 ** (offset_db / 10.0) / p)
    return out, angles, paths


@pytest.mark.parametrize("los", [True, False])
@pytest.mark.parametrize("num_ues", [1, 8, 16])
def test_draw_scenario_matches_frozen_copy(los, num_ues):
    # H and angles byte for byte, and the rng state after the draw.
    cfg = ScenarioConfig(num_antennas=64, num_ues=num_ues, los=los)
    for seed in range(40):
        r_new, r_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        scen = draw_scenario(cfg, r_new)
        H, angles, _ = _frozen_draw_scenario(cfg, r_ref)
        assert scen.H.tobytes() == H.tobytes()
        assert scen.angles_deg.tobytes() == angles.tobytes()
        assert r_new.bit_generator.state == r_ref.bit_generator.state


@pytest.mark.parametrize("los", [True, False])
@pytest.mark.parametrize("num_ues", [1, 8, 16])
def test_draw_scenario_on_a_stack_matches_frozen_copy(los, num_ues):
    # Stacks of 1 to 8 Generators: each block's H and angles byte for byte
    # as the frozen copy draws them alone, and each Generator's state after.
    cfg = ScenarioConfig(num_antennas=64, num_ues=num_ues, los=los)
    seeds = iter(range(36))
    for size in range(1, 9):
        block_seeds = [next(seeds) for _ in range(size)]
        r_new = [np.random.default_rng(seed) for seed in block_seeds]
        scen = draw_scenario(cfg, r_new)
        assert scen.H.shape == (size, 64, num_ues) and scen.angles_deg.shape == (size, num_ues)
        for n, seed in enumerate(block_seeds):
            r_ref = np.random.default_rng(seed)
            H, angles, _ = _frozen_draw_scenario(cfg, r_ref)
            assert scen.H[n].tobytes() == H.tobytes()
            assert scen.angles_deg[n].tobytes() == angles.tobytes()
            assert r_new[n].bit_generator.state == r_ref.bit_generator.state


@pytest.mark.parametrize("los", [True, False])
@pytest.mark.parametrize("elsewhere", [False, True], ids=["at-read", "other-thread"])
def test_deferred_channel_build_matches_frozen_copy(los, elsewhere):
    # draw_scenario makes every draw before H is built: each Generator's state
    # right after the draw is the frozen copy's after its whole draw, and H,
    # built after later draws from the same Generators (its superpositions at
    # the first read, or beforehand on another thread), and the angles are
    # the frozen copy's, byte for byte.
    cfg = ScenarioConfig(num_antennas=64, num_ues=8, los=los)
    baseline = threading.active_count()
    for size in (1, 2, 7, 8):
        seeds = [[size, n] for n in range(size)]
        r_new = [np.random.default_rng(seed) for seed in seeds]
        scen = draw_scenario(cfg, r_new)
        refs = []
        for seed, r in zip(seeds, r_new):
            r_ref = np.random.default_rng(seed)
            refs.append(_frozen_draw_scenario(cfg, r_ref)[:2])
            assert r.bit_generator.state == r_ref.bit_generator.state
            r.standard_normal(100)                  # later draws move no byte of H
        if elsewhere:
            thread = threading.Thread(target=scen.superpose)
            thread.start()
            thread.join()
        assert scen.H.shape == (size, 64, 8)
        for n, (H, angles) in enumerate(refs):
            assert scen.H[n].tobytes() == H.tobytes()
            assert scen.angles_deg[n].tobytes() == angles.tobytes()
    assert threading.active_count() == baseline


def test_power_control_on_a_stack_equals_each_matrix_alone():
    # scaling a stack's columns, and a stacked draw_scenario, give each
    # matrix byte for byte as it comes alone
    rng = np.random.default_rng(12)
    H = rng.standard_normal((5, 16, 3)) + 1j * rng.standard_normal((5, 16, 3))
    offsets = rng.uniform(-3.0, 3.0, size=(5, 3)).tolist()
    out = _scale_columns(H, offsets, 16.0)
    cfg = ScenarioConfig(num_antennas=16, num_ues=3, los=False)
    stacked = draw_scenario(cfg, [np.random.default_rng(i) for i in range(5)]).H
    for n in range(5):
        assert out[n].tobytes() == _scale_columns(H[n], offsets[n:n + 1], 16.0).tobytes()
        alone = draw_scenario(cfg, np.random.default_rng(n)).H
        assert stacked[n].tobytes() == alone.tobytes()
