"""Command-line interface for the beamspace equalization harness.

Every configuration key can come from a flat key=value config file
(--config) and be overridden by a CLI flag of the same name.  Outputs are
CSV with a single header row; validation failures, argparse's errors
among them, print one machine-readable ``error: ...`` line and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
import typing
from dataclasses import fields

import numpy as np

from . import hwmodel
from .channel import ScenarioConfig, draw_scenario, dump_channel_csv
from .harness import (DETECTORS, ConfigError, SimConfig, UnreachableError,
                      activity_samples, pareto_sweep, run_ber_curve,
                      snr_operating_point)
from .numerics import DecompositionError


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise ConfigError, for main to print as one line."""

    def error(self, message):
        raise ConfigError(message)


def _config_keys() -> tuple[dict, set]:
    """key -> (type, belongs-to-scenario) for every ScenarioConfig and
    SimConfig field but ``scenario``, and the set of optional keys (typed
    ``X | None``); an optional field takes the type of its non-None
    alternative."""
    keys, optional = {}, set()
    for cls, is_scen in ((ScenarioConfig, True), (SimConfig, False)):
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if f.name == "scenario":
                continue
            alternatives = typing.get_args(hints[f.name]) or (hints[f.name],)
            if type(None) in alternatives:
                optional.add(f.name)
            typ = next(t for t in alternatives if t is not type(None))
            keys[f.name] = (typ, is_scen)
    return keys, optional


_CONFIG_KEYS, _OPTIONAL_KEYS = _config_keys()
# Config fields some detector sweeps in ``pareto``; each gets a grid flag.
_SWEPT = sorted({name for det in DETECTORS.values() for name in det.params})


def _parse_value(key: str, raw: str, where: str = ""):
    """The typed value of config key ``key``; errors start with ``where``."""
    typ, _ = _CONFIG_KEYS[key]
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        if key in _OPTIONAL_KEYS:
            return None
        raise ConfigError(f"{where}{key} takes no none or empty value, got {raw!r}")
    if typ is bool:
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"{where}bad boolean for {key}: {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{where}bad {typ.__name__} for {key}: {raw!r}") from None


def read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, raw, f"{path}:{lineno}: ")
    return values


def build_sim_config(args: argparse.Namespace, validate: bool = True) -> SimConfig:
    values = {}
    if args.config:
        values.update(read_config_file(args.config))
    for key in _CONFIG_KEYS:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            values[key] = _parse_value(key, cli_val, f"--{key.replace('_', '-')}: ")
    scen_kwargs = {k: values[k] for k, (t, is_scen) in _CONFIG_KEYS.items()
                   if is_scen and k in values}
    sim_kwargs = {k: values[k] for k, (t, is_scen) in _CONFIG_KEYS.items()
                  if not is_scen and k in values}
    try:
        scenario = ScenarioConfig(**scen_kwargs)
        cfg = SimConfig(scenario=scenario, **sim_kwargs)
        if validate:
            cfg.validate()
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    for key in _CONFIG_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar="V")


def _write_csv(path, header, rows) -> None:
    fh = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])
    finally:
        if path:
            fh.close()


def _parse_grid(args, dest: str) -> list[float]:
    flag = f"--{dest.replace('_', '-')}"
    try:
        grid = [float(x) for x in getattr(args, dest).split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    if not grid:
        raise ConfigError(f"{flag} needs at least one value")
    return grid


def _cmd_ber(args) -> int:
    cfg = build_sim_config(args)
    grid = _parse_grid(args, "snr_grid_db")
    points = run_ber_curve(cfg, grid)
    _write_csv(args.out, ["snr_db", "ber", "bits", "mean_alpha"],
               [(p.snr_db, p.ber, p.bits, p.mean_alpha) for p in points])
    return 0


def _cmd_snrop(args) -> int:
    cfg = build_sim_config(args)
    try:
        snr_op = snr_operating_point(cfg, target_ber=args.target_ber)
    except UnreachableError as exc:
        print(f"error: unreachable: {exc}", file=sys.stderr)
        return 3
    _write_csv(args.out, ["snr_op_db"], [(snr_op,)])
    return 0


def _cmd_pareto(args) -> int:
    # the grids fill in the algorithm's params; pareto_sweep validates each candidate
    cfg = build_sim_config(args, validate=False)
    params = cfg.detector.params
    if not params:
        raise ConfigError(f"{cfg.algorithm} has no parameter to sweep")
    if {name for name in _SWEPT if getattr(args, f"{name}_grid")} != set(params):
        raise ConfigError(f"pareto of {cfg.algorithm} takes grids of exactly "
                          f"{' and '.join(params)}")
    candidates = list(itertools.product(
        *(_parse_grid(args, f"{name}_grid") for name in params)))
    pts = pareto_sweep(cfg, candidates, target_ber=args.target_ber)
    header = [*params, "alpha", "snr_op_db"]
    _write_csv(args.out, header, [[getattr(p, key) for key in header] for p in pts])
    return 0


def _cmd_activity(args) -> int:
    cfg = build_sim_config(args)
    if args.bins < 1:
        raise ConfigError(f"bins must be >= 1, got {args.bins}")
    alphas = activity_samples(cfg, args.snr_db, args.num_blocks)
    edges = np.linspace(0.0, 1.0, args.bins + 1)
    counts, _ = np.histogram(alphas, bins=edges)
    _write_csv(args.out, ["bin_lo", "bin_hi", "count"],
               [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
                for i in range(len(counts))])
    return 0


def _cmd_power(args) -> int:
    if args.mute_fraction is not None:
        archs = [(args.arch or "custom", args.mute_fraction)]
    elif args.arch == "custom":
        raise ConfigError("--arch custom requires --mute-fraction")
    elif args.arch:
        archs = [(args.arch, hwmodel.MUTE_FRACTIONS[args.arch.lower()])]
    else:
        archs = sorted(hwmodel.MUTE_FRACTIONS.items())
    rows = []
    for name, mf in archs:
        kind = "MAC" if name.lower().startswith("mac") else "AT"
        arch = hwmodel.ArchModel(kind=kind, mute_fraction=mf,
                                 clock_hz=args.clock_hz, num_ues=args.num_ues,
                                 num_beams=args.num_antennas,
                                 bits_per_symbol=4)
        rows.append((name, args.alpha, mf, hwmodel.power_proxy(args.alpha, mf),
                     hwmodel.savings_vs_baseline(args.alpha, mf),
                     hwmodel.throughput_bps(arch) / 1e9))
    _write_csv(args.out, ["arch", "alpha", "mute_fraction", "relative_power",
                          "savings", "throughput_gbps"], rows)
    return 0


def _cmd_gen_channels(args) -> int:
    cfg = build_sim_config(args)
    if args.count < 1:
        raise ConfigError(f"count must be >= 1, got {args.count}")
    os.makedirs(args.outdir, exist_ok=True)
    for i in range(args.count):
        rng = np.random.default_rng([cfg.seed, i])
        scen = draw_scenario(cfg.scenario, rng)
        dump_channel_csv(scen.H, os.path.join(args.outdir, f"channel_{i:04d}.csv"))
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="beamspace", description="Beamspace equalization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ber", help="uncoded BER curve over an SNR grid")
    _add_common(p)
    p.add_argument("--snr-grid-db", required=True, help="comma-separated SNR list")
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("snrop", help="minimum SNR reaching the target BER")
    _add_common(p)
    p.add_argument("--target-ber", type=float, default=1e-3)
    p.set_defaults(func=_cmd_snrop)

    p = sub.add_parser("pareto", help="threshold or density Pareto sweep")
    _add_common(p)
    p.add_argument("--target-ber", type=float, default=1e-3)
    for name in _SWEPT:
        p.add_argument(f"--{name.replace('_', '-')}-grid")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("activity", help="activity-rate histogram at fixed thresholds")
    _add_common(p)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--num-blocks", type=int, default=100)
    p.add_argument("--bins", type=int, default=20)
    p.set_defaults(func=_cmd_activity)

    p = sub.add_parser("power", help="architectural power-proxy report")
    p.add_argument("--out")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--arch", choices=sorted(hwmodel.MUTE_FRACTIONS) + ["custom"])
    p.add_argument("--mute-fraction", type=float)
    p.add_argument("--clock-hz", type=float, default=1e9)
    p.add_argument("--num-ues", type=int, default=8)
    p.add_argument("--num-antennas", type=int, default=64)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("gen-channels", help="dump channel realizations as CSV")
    _add_common(p)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_gen_channels)

    # Every long option but --help takes one value, also one starting with '-'
    # (-1e0, -4,-2) that argparse would read as a flag: pass --flag=value.
    tokens, argv = iter(sys.argv[1:] if argv is None else argv), []
    for token in tokens:
        if token.startswith("--") and "=" not in token and token != "--help":
            token = "=".join([token, *itertools.islice(tokens, 1)])
        argv.append(token)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, DecompositionError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
