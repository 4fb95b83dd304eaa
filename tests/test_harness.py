import concurrent.futures
import dataclasses
import importlib.util
import multiprocessing
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import beamspace.channel as channel
import beamspace.equalize as equalize
import beamspace.harness as harness
from beamspace.channel import ScenarioConfig
from beamspace.harness import (DETECTORS, ConfigError, ParetoPoint, SimConfig,
                               UnreachableError, activity_samples, pareto_sweep,
                               run_ber_curve, run_ber_point, snr_operating_point)
from beamspace.spade import ThresholdPair

SMALL_SCEN = ScenarioConfig(num_antennas=16, num_ues=2)
# A valid value of every config field some detector needs.
PARAMS = {"delta": 0.5, "tau_w": 0.02, "tau_y": 4.0}


def _cfg(**kw):
    base = dict(scenario=SMALL_SCEN, min_bits_per_point=20_000,
                min_errors_per_point=50, coherence_len=64, seed=1)
    base.update(kw)
    return SimConfig(**base)


def test_validation_errors():
    with pytest.raises(ConfigError):
        _cfg(algorithm="zf").validate()
    with pytest.raises(ConfigError):
        _cfg(algorithm="eomp").validate()           # missing delta
    with pytest.raises(ConfigError):
        _cfg(algorithm="spade", tau_w=0.1).validate()  # missing tau_y
    with pytest.raises(ConfigError):
        _cfg(arithmetic="fixed", adc_bits=None).validate()
    with pytest.raises(ConfigError):
        _cfg(csi_mode="genie").validate()
    with pytest.raises(ConfigError):
        _cfg(adc_bits=12).validate()
    _cfg(min_errors_per_point=0).validate()     # the least valid error count
    # every detector: each field it needs missing, or out of range
    bad_values = {"delta": (0.0, 1.5, np.nan), "tau_w": (-0.01, np.nan),
                  "tau_y": (-1.0, np.nan)}
    for alg, det in harness.DETECTORS.items():
        params = {name: PARAMS[name] for name in det.params}
        _cfg(algorithm=alg, **params).validate()
        if det.adaptive:
            _cfg(algorithm=alg, tau_w=np.inf, tau_y=np.inf).validate()
        for name in det.params:
            for bad in (None, *bad_values[name]):
                with pytest.raises(ConfigError):
                    _cfg(algorithm=alg, **{**params, name: bad}).validate()


def test_pure_guessing_at_very_low_snr():
    pt = run_ber_point(_cfg(algorithm="almmse", min_bits_per_point=100_000), -40.0)
    assert abs(pt.ber - 0.5) < 0.01


def test_noiseless_float_pipeline_is_error_free():
    cfg = _cfg(algorithm="almmse", arithmetic="float", adc_bits=None,
               csi_mode="perfect", min_bits_per_point=100_000,
               max_bits_per_point=100_001)
    pt = run_ber_point(cfg, 60.0)
    assert pt.bits >= 100_000
    assert pt.errors == 0


def test_deterministic_across_runs_and_workers():
    cfg = _cfg(algorithm="cspade", tau_w=0.02, tau_y=4.0)
    a = run_ber_point(cfg, 8.0)
    b = run_ber_point(cfg, 8.0)
    c = run_ber_point(dataclasses.replace(cfg, workers=2), 8.0)
    assert a == b == c


def test_antenna_and_beamspace_lmmse_decide_identically():
    # float arithmetic: the unitary transform cannot change any decision
    base = dict(arithmetic="float", adc_bits=None, csi_mode="perfect",
                min_bits_per_point=20_000)
    for snr in (4.0, 10.0):
        pa = run_ber_point(_cfg(algorithm="almmse", **base), snr)
        pb = run_ber_point(_cfg(algorithm="blmmse", **base), snr)
        assert pa.errors == pb.errors
        assert pa.bits == pb.bits


def test_zero_thresholds_match_dense_beamspace():
    pa = run_ber_point(_cfg(algorithm="blmmse"), 9.0)
    pb = run_ber_point(_cfg(algorithm="cspade", tau_w=0.0, tau_y=0.0), 9.0)
    assert pa.errors == pb.errors
    assert pb.mean_alpha == 1.0


def test_alpha_equals_delta_for_sparse_filters():
    for alg in ("eomp", "comp"):
        pt = run_ber_point(_cfg(algorithm=alg, delta=0.25), 10.0)
        assert pt.mean_alpha == 0.25


def test_ber_curve_order_and_monotone_trend():
    grid = [0.0, 6.0, 12.0]
    pts = run_ber_curve(_cfg(algorithm="almmse"), grid)
    assert [p.snr_db for p in pts] == grid
    assert pts[0].ber >= pts[-1].ber


def test_activity_samples_bounds():
    cfg = _cfg(algorithm="cspade", tau_w=0.05, tau_y=6.0)
    alphas = activity_samples(cfg, 8.0, 10)
    assert alphas.shape == (10,)
    assert np.all((alphas >= 0.0) & (alphas <= 1.0))


def test_operating_point_bisection_contract():
    cfg = _cfg(algorithm="almmse", snr_lo_db=-10.0, snr_hi_db=25.0)
    op = snr_operating_point(cfg, target_ber=1e-2)
    assert run_ber_point(cfg, op).ber <= 1e-2
    assert run_ber_point(cfg, op - 0.25).ber > 1e-2


def test_operating_point_unreachable():
    cfg = _cfg(algorithm="almmse", arithmetic="float", adc_bits=None,
               csi_mode="perfect", snr_lo_db=50.0, snr_hi_db=60.0)
    with pytest.raises(UnreachableError):
        snr_operating_point(cfg)  # BER is already 0 at the lower extreme
    cfg = _cfg(algorithm="almmse", snr_lo_db=-40.0, snr_hi_db=-30.0)
    with pytest.raises(UnreachableError):
        snr_operating_point(cfg)  # target never reached


@pytest.mark.parametrize("lo, hi, thr, op, probes", [
    (0.0, 0.3, 0.2, 0.3, [0.0, 0.3]),                 # off-grid hi, one step apart
    (0.1, 0.6, 0.3, 0.35, [0.1, 0.6, 0.35]),
    (-4.0, 16.1, 16.05, 16.1, [-4.0, 16.1, 6.0, 11.0, 13.5, 14.75, 15.25, 15.5,
                               15.75]),
    (-4.0, 16.1, 3.3, 3.5, [-4.0, 16.1, 6.0, 1.0, 3.5, 2.25, 2.75, 3.0, 3.25]),
])
def test_operating_point_search_probes(lo, hi, thr, op, probes, monkeypatch):
    # The search probes a 0.25 dB grid from snr_lo_db; snr_hi_db is an answer too.
    probed = []

    def step_ber(cfg, snr_db):
        probed.append(snr_db)
        return harness.BerPoint(snr_db, 1e-4 if snr_db >= thr else 1e-2, 1, 0, 1.0)

    monkeypatch.setattr(harness, "run_ber_point", step_ber)
    assert snr_operating_point(SimConfig(snr_lo_db=lo, snr_hi_db=hi)) == pytest.approx(op)
    assert probed == pytest.approx(probes)


def test_pareto_single_candidate():
    cfg = _cfg(algorithm="eomp", snr_lo_db=-5.0, snr_hi_db=25.0)
    pts = pareto_sweep(cfg, [1.0], target_ber=1e-2)
    assert len(pts) == 1
    assert pts[0].delta == 1.0
    assert pts[0].alpha == 1.0


def test_pareto_drops_dominated_points():
    cfg = _cfg(algorithm="cspade", snr_lo_db=-5.0, snr_hi_db=25.0)
    # (0, 0) is dense; a huge tau_w with tau_y=0 is identical in SNR terms
    # only if nothing is skipped, so compare two dense-equivalent candidates
    pts = pareto_sweep(cfg, [ThresholdPair(0.0, 0.0), ThresholdPair(0.01, 2.0)],
                       target_ber=1e-2)
    assert len(pts) >= 1
    alphas = [p.alpha for p in pts]
    assert alphas == sorted(alphas)
    for p in pts:
        assert not any(q.alpha <= p.alpha and q.snr_op_db < p.snr_op_db
                       for q in pts if q is not p)


@pytest.mark.parametrize("alg, candidates", [
    ("almmse", [1.0, 0.5]),
    ("cspade", [1.0, 0.5]),
    ("eomp", [ThresholdPair(0.02, 4.0)]),
])
def test_pareto_rejects_candidates_of_other_params(alg, candidates, rounds):
    cfg = _cfg(algorithm=alg, **PARAMS)
    with pytest.raises(ConfigError):
        pareto_sweep(cfg, candidates, target_ber=1e-2)
    assert rounds == []


@pytest.mark.parametrize("target", [float("nan"), float("inf"), 0.0, 1.0, -1.0])
def test_target_ber_outside_unit_interval_rejected(target, rounds):
    # every `ber <= nan` is False, so a NaN target once walked to snr_hi_db
    with pytest.raises(ConfigError, match="target BER"):
        snr_operating_point(_cfg(algorithm="almmse"), target)
    with pytest.raises(ConfigError, match="target BER"):
        pareto_sweep(_cfg(algorithm="eomp", delta=1.0), [1.0, 0.5], target_ber=target)
    assert rounds == []


def test_sparse_density_grid_alphas_exact():
    cfg = _cfg(algorithm="eomp", snr_lo_db=-5.0, snr_hi_db=25.0)
    pts = pareto_sweep(cfg, [1.0, 0.5, 0.25], target_ber=1e-2)
    assert set(round(p.alpha, 12) for p in pts) <= {1.0, 0.5, 0.25}
    for p in pts:
        assert p.alpha == p.delta


@pytest.fixture
def pool_count(monkeypatch):
    """Counts process pools the harness constructs."""
    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    return built


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("call", [
    lambda w: snr_operating_point(
        _cfg(algorithm="almmse", snr_lo_db=-10.0, snr_hi_db=25.0, workers=w), 1e-2),
    lambda w: pareto_sweep(_cfg(algorithm="eomp", snr_lo_db=-5.0, snr_hi_db=25.0,
                                workers=w), [1.0, 0.5], target_ber=1e-2),
    lambda w: run_ber_curve(_cfg(algorithm="almmse", workers=w), [0.0, 6.0, 12.0]),
], ids=["snr_operating_point", "pareto_sweep", "run_ber_curve"])
def test_one_pool_per_public_call(pool_count, call, workers):
    call(workers)
    assert len(pool_count) == (1 if workers > 1 else 0)
    assert multiprocessing.active_children() == []


def test_pool_shut_down_after_exception(pool_count):
    cfg = _cfg(algorithm="almmse", snr_lo_db=-40.0, snr_hi_db=-30.0, workers=2)
    with pytest.raises(UnreachableError):
        snr_operating_point(cfg)
    assert len(pool_count) == 1
    assert multiprocessing.active_children() == []
    run_ber_point(cfg, -40.0)  # a later call opens a pool of its own
    assert len(pool_count) == 2


def test_block_results_sum_the_same_in_any_grouping():
    # BlockResult's + is associative: a list's totals do not depend on how
    # it is cut into runs, nor on the order in which the runs' sums add.
    rng = np.random.default_rng(4)
    results = [harness.BlockResult(*rng.integers(0, 10**6, 4).tolist()) for _ in range(40)]
    zero = harness.BlockResult(0, 0, 0, 0)
    total = harness.BlockResult(*map(sum, zip(*map(dataclasses.astuple, results))))
    for _ in range(20):
        cuts = [0, *sorted(rng.choice(np.arange(1, 40), int(rng.integers(0, 12)),
                                      replace=False).tolist()), 40]
        runs = [sum(results[a:b], zero) for a, b in zip(cuts, cuts[1:])]
        assert sum(runs, zero) == total
        right = zero
        for run in reversed(runs):
            right = run + right
        assert right == total
    assert all(type(v) is int for v in dataclasses.astuple(total))


def test_gap_regression_golden():
    # recorded at build time from this implementation; small-budget run so
    # the operating points are noisy but fully deterministic
    scen = ScenarioConfig(num_antennas=64, num_ues=8)
    base = dict(scenario=scen, csi_mode="perfect", adc_bits=6,
                arithmetic="fixed", min_bits_per_point=100_000,
                min_errors_per_point=50, seed=2024,
                snr_lo_db=-4.0, snr_hi_db=12.0)
    opa = snr_operating_point(SimConfig(algorithm="almmse", **base))
    opc = snr_operating_point(SimConfig(algorithm="cspade", tau_w=0.03,
                                        tau_y=9.0, **base))
    assert opa == 0.25
    assert opc == 2.25


@pytest.fixture
def rounds(monkeypatch):
    """Records (config, SNR, first block index) of every block round, one
    entry per config of the round's group."""
    seen = []
    inner = harness._map_blocks

    def recorded(cfgs, snr_db, indices):
        indices = list(indices)
        seen.extend((dataclasses.astuple(cfg), snr_db, indices[0]) for cfg in cfgs)
        return inner(cfgs, snr_db, indices)

    monkeypatch.setattr(harness, "_map_blocks", recorded)
    return seen


def test_pareto_sweep_runs_each_point_once(rounds):
    cfg = _cfg(algorithm="eomp", snr_lo_db=-5.0, snr_hi_db=25.0)
    front = pareto_sweep(cfg, [1.0, 0.5], target_ber=1e-2)
    assert rounds and len(rounds) == len(set(rounds))
    # the same answer as separate public calls, which share no memo
    sep = []
    for delta in (1.0, 0.5):
        sub = dataclasses.replace(cfg, delta=delta)
        op = snr_operating_point(sub, 1e-2)
        sep.append((run_ber_point(sub, op).mean_alpha, op))
    assert front and {(p.alpha, p.snr_op_db) for p in front} <= set(sep)


def test_point_memo_ends_with_the_public_call(rounds):
    cfg = _cfg(algorithm="almmse")
    a = run_ber_point(cfg, 6.0)
    n = len(rounds)
    assert run_ber_point(cfg, 6.0) == a
    assert len(rounds) == 2 * n
    assert run_ber_curve(cfg, [6.0, 6.0]) == [a, a]
    assert len(rounds) == 3 * n


def _bench_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_tracer_names_exist():
    # The benchmark tracer wraps names of beamspace.harness (and
    # solve_hermitian_pd of beamspace.equalize) by attribute; a rename
    # would break --trace 1 only.
    tracing = _bench_tracing()
    assert [n for n in tracing.STAGES if not hasattr(harness, n)] == []
    assert hasattr(equalize, "solve_hermitian_pd")
    before = dict(vars(harness))
    with tracing.Tracer(stages=True):
        pass
    assert dict(vars(harness)) == before


def test_bench_grid_constant_is_the_harness_grid(monkeypatch):
    # bench/checks.py keeps its own copy of the operating-point grid for its
    # bisection check; it imports its sibling bench modules by name.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    checks = importlib.import_module("checks")
    assert checks.RESOLUTION_DB == harness._RESOLUTION_DB


@pytest.mark.parametrize("alg", harness.DETECTORS)
def test_bench_tracer_sees_every_detector_stage(alg):
    # _sim_block must reach the filter builders and kernels through the
    # harness module names the tracer rebinds, not through references
    # captured in DETECTORS.
    tracing = _bench_tracing()
    with tracing.Tracer(stages=True) as tracer:
        harness._sim_chunk((_cfg(algorithm=alg, **PARAMS),), 6.0, [0])
    names = {span[0] for span in tracer.spans}
    assert {"equalize.filter", "spade.mvm"} <= names


def test_bench_tracer_sees_chunk_stages():
    # A chunk of four blocks builds each filter in one stacked call, through
    # the names the tracer rebinds: one LMMSE solve, one solve per OMP step.
    tracing = _bench_tracing()
    cfgs = (_cfg(algorithm="eomp", delta=0.5), _cfg(algorithm="almmse"))
    with tracing.Tracer(stages=True) as tracer:
        results = harness._map_blocks(cfgs, 6.0, range(4))
    names = Counter(span[0] for span in tracer.spans)
    K = round(0.5 * SMALL_SCEN.num_antennas)
    assert len(results) == names["harness.block"] == 8
    assert names["equalize.filter"] == names["equalize.quantize"] == 2
    assert names["numerics.solve"] == K + 1
    # The front end runs once over the chunk: one channel draw, one ADC
    # step and one LS pilot receive (a frontend.csi span); the data is
    # received block by block.
    assert names["channel.draw"] == 1
    assert names["frontend.step"] == 1          # unified_step
    assert names["frontend.receive"] == 4


def _every_detector(base: SimConfig) -> list:
    """One group: every detector, with several densities and thresholds."""
    group = [dataclasses.replace(base, algorithm=a) for a in ("almmse", "blmmse")]
    group += [dataclasses.replace(base, algorithm=a, delta=d)
              for a in ("eomp", "comp") for d in (0.25, 1.0, 0.125, 0.5)]
    group += [dataclasses.replace(base, algorithm=a, tau_w=w, tau_y=y)
              for a in ("spade", "cspade") for w, y in ((0.0, 0.0), (0.02, 4.0), (0.05, 8.0))]
    return group


@pytest.mark.parametrize("los", [True, False])
@pytest.mark.parametrize("csi_mode", ["perfect", "ls"])
@pytest.mark.parametrize("arithmetic, adc_bits", [("fixed", 6), ("float", 6), ("float", None)])
def test_sim_group_equals_solo_blocks(los, csi_mode, arithmetic, adc_bits):
    base = _cfg(scenario=dataclasses.replace(SMALL_SCEN, los=los), csi_mode=csi_mode,
                arithmetic=arithmetic, adc_bits=adc_bits)
    full = _every_detector(base)
    by_alg = {a: [c for c in full if c.algorithm == a] for a in harness.DETECTORS}
    groups = [full, by_alg["almmse"] + by_alg["blmmse"] + by_alg["cspade"][1:2],
              by_alg["eomp"], by_alg["comp"][::-1], by_alg["cspade"] + by_alg["eomp"][:1]]
    for snr_db in (-2.0, 6.0, 14.0):
        for i in (0, 3):
            solo = {id(c): harness._sim_chunk((c,), snr_db, [i])[0] for c in full}
            for group in groups:
                assert harness._sim_chunk(tuple(group), snr_db, [i]) == [
                    solo[id(c)] for c in group], (snr_db, i, [c.algorithm for c in group])


@pytest.mark.parametrize("csi_mode", ["perfect", "ls"])
def test_front_end_builds_beamspace_only_for_beamspace_detectors(csi_mode, monkeypatch):
    calls = []
    receive = harness.receive

    def recorded(*args, **kwargs):
        rx = receive(*args, **kwargs)
        calls.append(rx[1] is not None)
        return rx

    monkeypatch.setattr(harness, "receive", recorded)
    base = _cfg(csi_mode=csi_mode)
    receives = 2 if csi_mode == "ls" else 1          # LS pilots, then data
    for algs, beamspace in ((["almmse"], False), (["almmse", "blmmse"], True),
                            (["blmmse", "almmse"], True), (["spade"], True)):
        calls.clear()
        harness._sim_chunk(tuple(dataclasses.replace(base, algorithm=a, **PARAMS)
                                 for a in algs), 6.0, [0])
        assert calls == [beamspace] * receives, algs


def _front(points):
    """The Pareto set of (alpha, SNR operating point), as the sweep defines it."""
    front = [p for p in points if not any(
        q.alpha <= p.alpha and q.snr_op_db <= p.snr_op_db
        and (q.alpha < p.alpha or q.snr_op_db < p.snr_op_db) for q in points)]
    return sorted(front, key=lambda p: (p.alpha, p.snr_op_db))


@pytest.mark.parametrize("alg, candidates, csi_mode, workers", [
    ("eomp", [1.0, 0.5, 0.25, 0.125], "perfect", 1),
    ("eomp", [0.5, 0.25], "ls", 2),
    ("comp", [0.25, 1.0, 0.5], "ls", 1),
    ("cspade", [ThresholdPair(0.0, 0.0), ThresholdPair(0.02, 4.0),
                ThresholdPair(0.05, 8.0), ThresholdPair(0.4, 40.0)], "perfect", 1),
])
def test_pareto_sweep_equals_separate_calls(alg, candidates, csi_mode, workers, monkeypatch):
    calls = []
    inner = harness.run_ber_point

    def recorded(cfg, snr_db):
        point = inner(cfg, snr_db)
        calls.append((dataclasses.astuple(cfg), snr_db, point))
        return point

    monkeypatch.setattr(harness, "run_ber_point", recorded)
    cfg = _cfg(algorithm=alg, csi_mode=csi_mode, snr_lo_db=-5.0, snr_hi_db=25.0,
               workers=workers)
    with harness._pool_scope():
        front = pareto_sweep(cfg, candidates, target_ber=1e-2)
        memo = dict(harness._scope.points)
    swept, calls[:] = list(calls), []

    points, separate = [], {}
    for c in candidates:
        values = dataclasses.astuple(c) if dataclasses.is_dataclass(c) else (c,)
        tag = dict(zip(cfg.detector.params, values))
        sub = dataclasses.replace(cfg, **tag)
        with harness._pool_scope():
            try:
                op = snr_operating_point(sub, 1e-2)
            except UnreachableError:
                op = None
            separate.update(harness._scope.points)
        if op is not None:
            points.append(ParetoPoint(harness.run_ber_point(sub, op).mean_alpha, op, **tag))
    assert swept == calls
    assert memo == separate
    assert front == _front(points)


def test_threshold_grid_builds_one_filter_per_block(monkeypatch):
    # However the blocks are chunked, each block's filter is built and
    # quantized exactly once for all the configs of its group: counted in
    # filter matrices (one per matrix of a stacked call), not in calls.
    matrices, calls = Counter(), Counter()

    def counting(name, count):
        fn = getattr(harness, name)

        def counted(*args, **kwargs):
            matrices[name] += count(*args)
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def stack(a):
        return int(np.prod(np.shape(a)[:-2]))

    monkeypatch.setattr(harness, "lmmse_filter", counting("lmmse_filter", lambda H, *_: stack(H)))
    monkeypatch.setattr(harness, "quantize_filter",
                        counting("quantize_filter", lambda eq, *_: stack(eq.W)))
    monkeypatch.setattr(harness, "_sim_chunk", counting("_sim_chunk", lambda c, s, i, *_: len(i)))
    monkeypatch.setattr(harness, "_sim_block", counting("_sim_block", lambda *_: 1))
    cfg = _cfg(algorithm="cspade", snr_lo_db=-5.0, snr_hi_db=25.0)
    grid = [ThresholdPair(w, y) for w in (0.01, 0.03) for y in (2.0, 6.0)]
    with harness._pool_scope():
        pareto_sweep(cfg, grid, target_ber=1e-2)
        memo = dict(harness._scope.points)
    bits_per_block = SMALL_SCEN.num_ues * 4 * cfg.coherence_len
    group_blocks = matrices["_sim_chunk"]
    assert matrices["_sim_block"] == sum(p.bits // bits_per_block for p in memo.values())
    assert matrices["lmmse_filter"] == matrices["quantize_filter"] == group_blocks
    assert calls["lmmse_filter"] == calls["quantize_filter"] == calls["_sim_chunk"]
    assert calls["_sim_chunk"] < group_blocks
    assert matrices["_sim_block"] >= 2 * group_blocks


@pytest.mark.parametrize("los", [True, False])
@pytest.mark.parametrize("csi_mode", ["perfect", "ls"])
@pytest.mark.parametrize("arithmetic, adc_bits", [("fixed", 6), ("float", 6), ("float", None)])
def test_sim_chunk_equals_sim_group_blocks(los, csi_mode, arithmetic, adc_bits):
    base = _cfg(scenario=dataclasses.replace(SMALL_SCEN, los=los), csi_mode=csi_mode,
                arithmetic=arithmetic, adc_bits=adc_bits)
    full = _every_detector(base)
    groups = [full, [c for c in full if c.algorithm in ("almmse", "comp", "spade")][::-1]]
    indices = list(range(5, 13))
    for group in map(tuple, groups):
        blocks = [res for i in indices for res in harness._sim_chunk(group, 6.0, [i])]
        for size in (1, 3, 8):
            chunked = [res for j in range(0, len(indices), size)
                       for res in harness._sim_chunk(group, 6.0, indices[j:j + size])]
            assert chunked == blocks, (size, [c.algorithm for c in group])


# Gray bit pair of each 16-QAM rail level -3, -1, +1, +3 (in units of
# sqrt(1 / 10)), and the bit errors of deciding level j when i was sent.
GRAY = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
BIT_ERRORS = (GRAY[:, None] != GRAY[None, :]).sum(-1)


@pytest.mark.parametrize("snr_db", [0.0, 6.0])
@pytest.mark.parametrize("alg", ["almmse", "blmmse", "eomp", "comp"])
def test_float_chain_matches_exact_error_expectation(alg, snr_db, monkeypatch):
    # Without an ADC, a float linear detector given the channel H, the
    # symbols s and its filter W outputs W H s (or W F H s in beamspace)
    # plus circular Gaussian noise of variance N0 ||w_u||^2 / 2 per rail.
    # Each rail's bit errors, 0, 1 or 2, then have an exact distribution
    # from Phi at the demap thresholds 0 and +-2 sqrt(1 / 10), with
    # N0 = 10^(-SNR / 10) taken from the SNR alone.  The simulated count
    # must pass a z-test against it.  The rails are independent; UEs share
    # noise through W, so their covariance is bounded by Cauchy-Schwarz,
    # which overstates the variance and keeps the test conservative.
    cfg = _cfg(scenario=ScenarioConfig(num_antennas=16, num_ues=2, los=False),
               algorithm=alg, delta=0.25, adc_bits=None, arithmetic="float",
               csi_mode="perfect", min_bits_per_point=400_000,
               min_errors_per_point=0)
    sent, filters = [], []
    receive = harness.receive

    def recorded_receive(H, s, *args):
        sent.append((H, s))
        return receive(H, s, *args)

    def recorded(build):
        def wrapped(*args, **kwargs):
            out = build(*args, **kwargs)
            [eq] = out if isinstance(out, list) else [out]
            filters.extend(eq.W)
            return out
        return wrapped

    monkeypatch.setattr(harness, "receive", recorded_receive)
    for name in ("lmmse_filter", "omp_filter"):
        monkeypatch.setattr(harness, name, recorded(getattr(harness, name)))
    point = run_ber_point(cfg, snr_db)
    assert len(filters) == len(sent) == point.bits // (2 * 4 * cfg.coherence_len)

    N0 = 10.0 ** (-snr_db / 10.0)
    unit = np.sqrt(1.0 / 10.0)
    thresholds = np.array([-2.0, 0.0, 2.0]) * unit
    expected = variance = 0.0
    for W, (H, s) in zip(filters, sent):
        Hd = H if DETECTORS[alg].domain == "antenna" else np.fft.fft(H, axis=0, norm="ortho")
        if not DETECTORS[alg].omp:              # the LMMSE regularization, too
            ref = np.linalg.solve(Hd.conj().T @ Hd + N0 * np.eye(H.shape[1]),
                                  Hd.conj().T)
            np.testing.assert_allclose(W, ref, rtol=0, atol=1e-12)
        levels = np.stack([s.real, s.imag], -1) / unit      # (U, T, rail), on the grid
        sent_level = np.rint((levels + 3.0) / 2.0).astype(int)
        np.testing.assert_allclose(levels, 2.0 * sent_level - 3.0, rtol=0, atol=1e-12)
        mean = W @ Hd @ s
        sigma = np.sqrt(N0 / 2.0 * np.sum(np.abs(W) ** 2, axis=1))
        cdf = ndtr((thresholds - np.stack([mean.real, mean.imag], -1)[..., None])
                   / sigma[:, None, None, None])
        decided = np.diff(cdf, prepend=0.0, append=1.0, axis=-1)  # P(level j)
        errors = BIT_ERRORS[sent_level]
        mean_errors = (decided * errors).sum(-1)
        rail_var = (decided * errors ** 2).sum(-1) - mean_errors ** 2
        expected += mean_errors.sum()
        variance += (np.sqrt(rail_var.sum(-1)).sum(0) ** 2).sum()
    z = (point.errors - expected) / np.sqrt(variance)
    assert expected > 100 and abs(z) < 4, (point.errors, expected, variance)


def test_map_blocks_cuts_rounds_into_chunks(monkeypatch):
    chunks = []
    inner = harness._sim_chunk

    def recorded(cfgs, snr_db, indices, *args):
        chunks.append(list(indices))
        return inner(cfgs, snr_db, indices, *args)

    monkeypatch.setattr(harness, "_sim_chunk", recorded)
    cfg = _cfg(algorithm="almmse", coherence_len=8)
    for workers, n, sizes in ((1, 3, [3]), (1, 20, [6, 7, 7]), (1, 16, [8, 8]), (4, 1, [1])):
        chunks.clear()
        harness._map_blocks((dataclasses.replace(cfg, workers=workers),), 6.0, range(2, 2 + n))
        assert [len(c) for c in chunks] == sizes
        assert [i for c in chunks for i in c] == list(range(2, 2 + n))


def test_map_blocks_identical_at_one_two_and_four_workers():
    group = (_cfg(algorithm="eomp", delta=0.25), _cfg(algorithm="cspade", **PARAMS))
    serial = harness._map_blocks(group, 6.0, range(3, 23))
    for workers in (2, 4):
        pooled = tuple(dataclasses.replace(c, workers=workers) for c in group)
        assert harness._map_blocks(pooled, 6.0, range(3, 23)) == serial
    assert multiprocessing.active_children() == []


@pytest.fixture
def pool_tasks(monkeypatch):
    """Records the block indices of each task submitted to a harness pool,
    and the worker count of each pool built."""
    seen = {"tasks": [], "workers": []}

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *, max_workers):
            seen["workers"].append(max_workers)
            super().__init__(max_workers=max_workers)

        def submit(self, fn, /, *args, **kwargs):
            seen["tasks"].append(list(args[-1]))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return seen


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("n", [1, 3, 25, 40])
def test_pooled_round_is_one_task_per_worker(pool_tasks, n, workers):
    cfg = _cfg(algorithm="almmse", coherence_len=8)
    indices = list(range(5, 5 + n))
    serial = harness._map_blocks((cfg,), 6.0, indices)
    pooled = harness._map_blocks((dataclasses.replace(cfg, workers=workers),), 6.0, indices)
    assert pooled == serial
    tasks = pool_tasks["tasks"]
    if n == 1:
        # one task, run in the calling process: no pool is built
        assert tasks == [] and pool_tasks["workers"] == []
    else:
        assert len(tasks) == min(n, workers)
        assert pool_tasks["workers"] == [min(n, workers)]
        assert [i for task in tasks for i in task] == indices
        assert max(map(len, tasks)) - min(map(len, tasks)) <= 1
    assert multiprocessing.active_children() == []


@pytest.fixture
def helpers(monkeypatch):
    """``helpers(on)`` forces whether chunks start a helper thread, in place
    of the spare-core rule; ``helpers.started`` counts the helpers started."""
    started = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    def force(on):
        monkeypatch.setattr(harness, "_spare_core", lambda: on)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    force.started = started
    return force


@pytest.mark.parametrize("los", [True, False])
@pytest.mark.parametrize("csi_mode", ["perfect", "ls"])
@pytest.mark.parametrize("arithmetic, adc_bits", [("fixed", 6), ("float", None)])
def test_helper_thread_leaves_block_results_identical(los, csi_mode, arithmetic, adc_bits,
                                                      helpers):
    base = _cfg(scenario=dataclasses.replace(SMALL_SCEN, los=los), csi_mode=csi_mode,
                arithmetic=arithmetic, adc_bits=adc_bits)
    group = tuple(_every_detector(base))
    baseline = threading.active_count()
    for n in (1, 7, 8, 9, 17):                  # shares of 1, 1, 1, 2 and 3 chunks
        runs = {}
        for on in (False, True):
            helpers(on)
            runs[on] = harness._map_blocks(group, 6.0, range(4, 4 + n))
        assert runs[True] == runs[False], n
    assert len(helpers.started) == 5
    assert threading.active_count() == baseline


def _raise_in_helper(fn, at):
    """``fn``, but raising RuntimeError at its ``at``-th call off the main thread."""
    calls = []

    def wrapped(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            calls.append(1)
            if len(calls) == at:
                raise RuntimeError("helper failed")
        return fn(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("module, name", [(harness, "unit_noise"), (channel, "_superpose")])
def test_helper_failure_reaches_the_caller(module, name, helpers, monkeypatch):
    # a failure in the data draws (a call per block) or in the channel's path
    # superpositions (a call per chunk), in the first chunk's job or in a
    # later one (20 blocks: chunks of 6, 7 and 7)
    helpers(True)
    baseline = threading.active_count()
    fn = getattr(module, name)
    for at in (1, 10, 20) if name == "unit_noise" else (1, 2, 3):
        monkeypatch.setattr(module, name, _raise_in_helper(fn, at))
        with pytest.raises(RuntimeError, match="helper failed"):
            harness._map_blocks((_cfg(),), 6.0, range(20))
        assert threading.active_count() == baseline
    monkeypatch.setattr(module, name, _raise_in_helper(fn, 1))
    with pytest.raises(RuntimeError, match="helper failed"):
        run_ber_point(_cfg(), 6.0)
    assert helpers.started and threading.active_count() == baseline


@pytest.mark.parametrize("failing_call", [1, 2, 5, 9, 20])
def test_main_thread_failure_mid_chunk_ends_the_helper(failing_call, helpers, monkeypatch):
    # demap_hard raising on its n-th call, in the first, second or last of
    # chunks of 6, 7 and 7 blocks: the helper is drawing a chunk ahead, or
    # waiting for its next job
    helpers(True)
    baseline = threading.active_count()
    calls = []
    demap = harness.demap_hard

    def failing(*args):
        calls.append(1)
        if len(calls) == failing_call:
            raise ValueError("demap failed")
        return demap(*args)

    monkeypatch.setattr(harness, "demap_hard", failing)
    with pytest.raises(ValueError, match="demap failed"):
        harness._map_blocks((_cfg(),), 6.0, range(20))
    assert helpers.started and threading.active_count() == baseline


@pytest.mark.parametrize("on", [False, True], ids=["inline", "helper"])
def test_data_is_drawn_at_most_one_chunk_ahead(on, helpers, monkeypatch):
    # At each draw of a block's data noise (64 x 128 unit normals, 128 KiB),
    # the blocks drawn so far end no later than the chunk after the one that
    # holds the next block to detect.  Perfect CSI, so that every unit_noise
    # call draws a block's data noise.
    helpers(on)
    n = 43                                      # chunks of 7, 7, 7, 7, 7 and 8
    ends = np.cumsum([len(c) for c in harness._split(list(range(n)), 6)])
    drawn, done, within = [], [], []
    draw, block = harness.unit_noise, harness._sim_block

    def counted_draw(*args):
        # the end of the chunk after the one holding the next block to detect
        bound = ends[min(np.searchsorted(ends, len(done), side="right") + 1, len(ends) - 1)]
        drawn.append(1)
        within.append(len(drawn) <= bound)
        return draw(*args)

    def counted_block(*args):
        out = block(*args)
        done.append(1)
        return out

    monkeypatch.setattr(harness, "unit_noise", counted_draw)
    monkeypatch.setattr(harness, "_sim_block", counted_block)
    cfg = _cfg(scenario=ScenarioConfig(num_antennas=64, num_ues=8), coherence_len=128,
               csi_mode="perfect")
    harness._map_blocks((cfg,), 6.0, range(n))
    assert len(drawn) == len(done) == n and all(within)
    assert len(helpers.started) == on


def test_no_helper_outlives_a_public_call(helpers):
    helpers(True)
    baseline = threading.active_count()
    cfg = _cfg(algorithm="cspade", **PARAMS, snr_lo_db=-4.0, snr_hi_db=16.0)
    calls = [lambda: run_ber_point(cfg, 6.0),
             lambda: run_ber_curve(cfg, [0.0, 8.0]),
             lambda: activity_samples(cfg, 6.0, 5),
             lambda: snr_operating_point(cfg, 1e-2),
             lambda: pareto_sweep(cfg, [ThresholdPair(0.02, 4.0)], 1e-2)]
    for call in calls:
        call()
        assert threading.active_count() == baseline
    assert len(helpers.started) > len(calls)


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_helper_only_when_a_round_runs_here_with_a_second_core(cores, helpers, monkeypatch):
    # The helper is on when the round runs in this process alone (one block
    # at any worker count, or one worker) and the affinity mask holds two
    # cores or more; never in the workers of a pool.
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert harness._spare_core() == (cores >= 2)
    cfg = _cfg(algorithm="almmse", coherence_len=8)
    for workers, n in ((1, 3), (4, 1), (2, 4)):
        helpers.started.clear()
        serial = harness._map_blocks((cfg,), 6.0, range(n))
        pooled = harness._map_blocks((dataclasses.replace(cfg, workers=workers),), 6.0, range(n))
        assert pooled == serial
        alone = min(n, workers) == 1
        assert len(helpers.started) == (1 + alone) * (cores >= 2), (workers, n)
    assert multiprocessing.active_children() == []


def test_pooled_call_after_a_serial_call_with_helpers(monkeypatch):
    # Helpers at one worker, as on two cores, then a pool forked from the same
    # process: no helper is alive at the fork, and the points match.
    monkeypatch.setattr(harness, "_spare_core", lambda: True)
    baseline = threading.active_count()
    cfg = _cfg(algorithm="eomp", delta=0.5)
    serial = run_ber_curve(cfg, [0.0, 6.0])
    assert threading.active_count() == baseline
    assert run_ber_curve(dataclasses.replace(cfg, workers=2), [0.0, 6.0]) == serial
    assert multiprocessing.active_children() == []
    assert threading.active_count() == baseline


def test_bench_stages_run_on_the_main_thread_only(helpers, monkeypatch):
    # The benchmark tracer keeps one unlocked span stack per process, so the
    # helper must call no name it rebinds: each runs on the main thread.
    helpers(True)
    tracing = _bench_tracing()
    threads = Counter()

    def recorded(name, fn):
        def wrapped(*args, **kwargs):
            threads[name, threading.get_ident()] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in tracing.STAGES:
        monkeypatch.setattr(harness, name, recorded(name, getattr(harness, name)))
    monkeypatch.setattr(equalize, "solve_hermitian_pd",
                        recorded("solve_hermitian_pd", equalize.solve_hermitian_pd))
    cfg = _cfg(scenario=dataclasses.replace(SMALL_SCEN, los=False), coherence_len=128,
               min_bits_per_point=8192)
    run_ber_curve(cfg, [0.0, 8.0])                          # ber-nlos-ls shaped
    harness._map_blocks(tuple(_every_detector(_cfg())), 6.0, range(3))
    assert helpers.started
    assert {ident for _, ident in threads} == {threading.main_thread().ident}
    assert {"draw_scenario", "receive", "map_bits", "demap_hard", "lmmse_filter",
            "omp_filter", "adaptive_mvm", "solve_hermitian_pd"} <= {n for n, _ in threads}


WARM_PROBE = '''
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

LAZY = ("numpy.random", "numpy.fft")


def warm(fn, *args):
    """Runs a harness task, failing unless the worker holds LAZY as it starts."""
    missing = [name for name in LAZY if name not in sys.modules]
    if missing:
        raise RuntimeError(f"a task started in a worker without {missing}")
    return fn(*args)


class ForkPool(ProcessPoolExecutor):
    def __init__(self, *, max_workers):
        super().__init__(max_workers=max_workers,
                         mp_context=multiprocessing.get_context("fork"))

    def submit(self, fn, /, *args):
        return super().submit(warm, fn, *args)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import beamspace.harness as harness
    from beamspace.channel import ScenarioConfig

    assert not any(name in sys.modules for name in LAZY), "loaded at import"
    harness.ProcessPoolExecutor = ForkPool
    cfg = harness.SimConfig(scenario=ScenarioConfig(num_antennas=16, num_ues=2),
                            coherence_len=8, workers=2)
    print(len(harness._map_blocks((cfg,), 6.0, range(6))))
'''


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the fork start method is not available")
def test_forked_workers_start_with_numpy_random_loaded(tmp_path):
    # A fresh interpreter, because this one has long loaded numpy.random: the
    # package loads neither lazy submodule at import, and the first pool of
    # the process loads both before its workers fork.
    src = Path(harness.__file__).resolve().parents[1]
    script = tmp_path / "warm_probe.py"
    script.write_text(WARM_PROBE)
    out = subprocess.run([sys.executable, str(script), str(src)], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["6"]


FOOTPRINT_PROBE = '''
import os
import sys
from dataclasses import replace

POOLING = ("multiprocessing", "concurrent.futures", "csv")
PROCESS_POOL = ("multiprocessing", "concurrent.futures.process", "csv")
FIRST_FORK = ("concurrent.futures.process", "numpy.fft", "numpy.random")


def loaded(names, modules):
    return sorted(m for m in modules if any(m == n or m.startswith(n + ".") for n in names))


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import beamspace
    from beamspace.channel import ScenarioConfig

    assert not loaded(POOLING, sys.modules), loaded(POOLING, sys.modules)
    assert "queue" not in sys.modules                 # loaded with the helper's executor
    cfg = beamspace.SimConfig(scenario=ScenarioConfig(num_antennas=16, num_ues=2),
                              coherence_len=8, min_bits_per_point=512,
                              min_errors_per_point=0)
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})             # one core: no chunk starts a helper
    serial = beamspace.run_ber_point(cfg, 6.0)
    assert not loaded(POOLING, sys.modules), loaded(POOLING, sys.modules)
    os.sched_setaffinity(0, cores)
    if len(cores) >= 2:
        # a helper loads the thread half of concurrent.futures, never a process pool
        assert beamspace.run_ber_point(cfg, 6.0) == serial
        assert not loaded(PROCESS_POOL, sys.modules), loaded(PROCESS_POOL, sys.modules)

    at_fork = []
    os.register_at_fork(before=lambda: at_fork.append(set(sys.modules)))
    assert beamspace.run_ber_point(replace(cfg, workers=2), 6.0) == serial
    assert at_fork, "no worker was forked"
    missing = [name for name in FIRST_FORK if name not in at_fork[0]]
    assert not missing, f"the first fork came before {missing} was loaded"

    import multiprocessing
    assert multiprocessing.active_children() == []
    print(serial.bits)
'''


@pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                    reason="pool workers are not forked by default")
def test_pool_machinery_loads_at_the_first_fork(tmp_path):
    # A fresh interpreter, because this one has long loaded the pool modules:
    # importing the package and a serial BER point on one core load no pool
    # machinery (nor csv); on two or more cores a serial point's helper loads
    # the thread executor but no process pool; and a pooled point loads the
    # process pool before its workers fork.
    src = Path(harness.__file__).resolve().parents[1]
    script = tmp_path / "footprint_probe.py"
    script.write_text(FOOTPRINT_PROBE)
    out = subprocess.run([sys.executable, str(script), str(src)], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["512"]
