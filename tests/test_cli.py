import argparse
import dataclasses
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

import beamspace.harness as harness
from beamspace.channel import ScenarioConfig
from beamspace.cli import _CONFIG_KEYS, build_sim_config, main, read_config_file
from beamspace.numerics import DecompositionError

COMMON = ["--num-antennas", "16", "--num-ues", "2", "--coherence-len", "64",
          "--min-bits-per-point", "20000", "--min-errors-per-point", "50",
          "--seed", "1"]


def test_ber_csv_and_worker_independence(tmp_path, capsys):
    outs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"ber_{workers}.csv"
        rc = main(["ber", *COMMON, "--algorithm", "almmse",
                   "--workers", str(workers),
                   "--snr-grid-db", "0,6,12", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    lines = outs[0].decode().strip().splitlines()
    assert lines[0] == "snr_db,ber,bits,mean_alpha"
    assert len(lines) == 4


def test_csv_rows_end_in_a_bare_newline(tmp_path, capsys):
    # stdout and --out files alike: `head -n 1` gives the header with no
    # trailing carriage return
    flags = ["ber", *COMMON, "--snr-grid-db", "0,6"]
    assert main(flags) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "ber.csv"
    assert main([*flags, "--out", str(out)]) == 0
    for text in (printed, out.read_bytes().decode()):
        assert "\r" not in text and text.endswith("\n")
    assert printed == out.read_text()
    assert printed.split("\n")[0] == "snr_db,ber,bits,mean_alpha"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# small system\n"
        "num_antennas = 16\n"
        "num_ues = 2\n"
        "coherence_len = 64\n"
        "min_bits_per_point = 20000\n"
        "min_errors_per_point = 50\n"
        "seed = 1\n"
        "algorithm = blmmse\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["ber", "--config", str(cfg), "--snr-grid-db", "9",
                 "--out", str(out_a)]) == 0
    # the flag overrides the file; cspade at zero thresholds decides like blmmse
    assert main(["ber", "--config", str(cfg), "--algorithm", "cspade",
                 "--tau-w", "0", "--tau-y", "0", "--snr-grid-db", "9",
                 "--out", str(out_b)]) == 0
    ber_a = out_a.read_text().strip().splitlines()[1].split(",")[1]
    ber_b = out_b.read_text().strip().splitlines()[1].split(",")[1]
    assert ber_a == ber_b


def test_bad_config_key_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("modulation = 64qam\n")
    rc = main(["ber", "--config", str(cfg), "--snr-grid-db", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    # symbols have unit energy: there is no energy key
    cfg.write_text("Es = 2\n")
    rc = main(["ber", "--config", str(cfg), "--snr-grid-db", "0"])
    assert f"{cfg}:1: unknown key 'Es'" in _one_error_line(rc, capsys)


def test_bad_algorithm_fails_cleanly(capsys):
    rc = main(["ber", *COMMON, "--algorithm", "zf", "--snr-grid-db", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_tight_placement_runs(workers, tmp_path):
    # 40 UEs x 3 deg fill the 120 deg sector so tightly that rejection sampling
    # gives up; the direct draw places them, also inside a pool worker
    out = tmp_path / "ber.csv"
    rc = main(["ber", "--num-ues", "40", "--min-sep-deg", "3", "--snr-grid-db", "0",
               "--min-bits-per-point", "100000", "--workers", workers, "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2
    assert multiprocessing.active_children() == []


def _singular(*args, **kwargs):
    raise DecompositionError("matrix is not positive definite")


def test_decomposition_error_fails_cleanly(monkeypatch, capsys):
    # at workers=2 the error is raised in a forked pool worker, which
    # inherits the patched filter builder
    monkeypatch.setattr(harness, "lmmse_filter", _singular)
    for workers in ("1", "2"):
        rc = main(["ber", *COMMON, "--algorithm", "almmse", "--snr-grid-db", "0",
                   "--workers", workers])
        assert rc == 2
        assert capsys.readouterr().err == "error: matrix is not positive definite\n"
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("flags, field", [
    (["--num-antennas", "0"], "num_antennas"),
    (["--num-ues", "0"], "num_ues"),
    (["--num-ues", "-1"], "num_ues"),
    (["--num-paths-los", "0"], "num_paths_los"),
    (["--los", "false", "--num-paths-nlos", "0"], "num_paths_nlos"),
    (["--power-ctrl-db", "-3"], "power_ctrl_db"),
    (["--min-sep-deg", "-1"], "min_sep_deg"),
    (["--los", "maybe"], "los"),
    (["--num-ues", "9", "--num-antennas", "8"], "num_ues"),   # more UEs than antennas
    (["--power-ctrl-db", "inf"], "power_ctrl_db"),
    (["--sector-deg", "nan"], "sector_deg"),
    (["--min-sep-deg", "nan"], "min_sep_deg"),
    (["--los-scatter-db", "nan"], "los_scatter_db"),
    (["--los", "false", "--decay-db-per-path", "inf"], "decay_db_per_path"),
    (["--sector-deg", "-10"], "sector_deg"),
    (["--num-ues", "1", "--min-sep-deg", "0", "--sector-deg", "-10"], "sector_deg"),
    (["--num-ues", "1", "--min-sep-deg", "0", "--sector-deg", "0"], "sector_deg"),
])
def test_out_of_range_scenario_field_fails_cleanly(flags, field, capsys):
    rc = main(["ber", *flags, "--snr-grid-db", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert field in err


def test_snr_grid_may_start_negative(tmp_path, capsys):
    out = tmp_path / "ber.csv"
    rc = main(["ber", *COMMON, "--algorithm", "almmse", "--snr-grid-db", "-4,-2",
               "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 3
    # so may any other value, also in exponent form
    rc = main(["activity", *COMMON, *CSPADE, "--snr-db", "-1e0", "--num-blocks", "2",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "bin_lo,bin_hi,count"
    rc = main(["snrop", *COMMON, "--algorithm", "almmse", "--target-ber", "1e-1",
               "--snr-lo-db", "-4e0", "--snr-hi-db", "20", "--out", str(out)])
    assert rc == 0
    assert float(out.read_text().splitlines()[1]) >= -4.0
    rc = main(["ber", *COMMON, "--algorithm", "cspade", "--tau-w", "-1e-3", "--tau-y", "6",
               "--snr-grid-db", "0"])
    assert "thresholds must be nonnegative" in _one_error_line(rc, capsys)
    with pytest.raises(SystemExit) as exited:           # --help takes no value
        main(["ber", "--help", "--seed", "1"])
    assert exited.value.code == 0 and "--snr-grid-db" in capsys.readouterr().out


def test_pareto_grid_may_start_negative(capsys):
    # the grid reaches validation, which rejects delta = -0.5
    rc = main(["pareto", *COMMON, "--algorithm", "eomp", "--delta-grid", "-0.5,0.5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_snrop_unreachable_exit_code(capsys):
    rc = main(["snrop", *COMMON, "--algorithm", "almmse",
               "--snr-lo-db", "-40", "--snr-hi-db", "-30"])
    assert rc == 3
    assert "unreachable" in capsys.readouterr().err


def test_snrop_reports_operating_point(tmp_path):
    out = tmp_path / "op.csv"
    rc = main(["snrop", *COMMON, "--algorithm", "almmse", "--target-ber", "1e-2",
               "--snr-lo-db", "-10", "--snr-hi-db", "25", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "snr_op_db"
    float(lines[1])


def test_pareto_delta_grid(tmp_path):
    out = tmp_path / "pareto.csv"
    rc = main(["pareto", *COMMON, "--algorithm", "eomp", "--target-ber", "1e-2",
               "--snr-lo-db", "-5", "--snr-hi-db", "25",
               "--delta-grid", "1.0,0.5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,alpha,snr_op_db"
    for line in lines[1:]:
        delta, alpha, _ = line.split(",")
        assert float(delta) == float(alpha)


def test_pareto_threshold_grid(tmp_path):
    out = tmp_path / "pareto.csv"
    rc = main(["pareto", *COMMON, "--algorithm", "cspade", "--target-ber", "1e-2",
               "--snr-lo-db", "-5", "--snr-hi-db", "25", "--tau-w-grid", "0,0.02",
               "--tau-y-grid", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau_w,tau_y,alpha,snr_op_db"
    assert len(lines) >= 2


@pytest.mark.parametrize("flags", [
    ["--algorithm", "almmse", "--delta-grid", "1.0,0.5"],
    ["--algorithm", "cspade", "--tau-w", "0.02", "--tau-y", "4", "--delta-grid", "1.0,0.5"],
    ["--algorithm", "eomp", "--delta-grid", "1.0", "--tau-w-grid", "0.02"],
], ids=["almmse-delta", "cspade-delta", "eomp-extra-tau"])
def test_pareto_rejects_grids_the_algorithm_ignores(flags, capsys):
    rc = main(["pareto", *COMMON, "--target-ber", "1e-2", "--snr-lo-db", "-5",
               "--snr-hi-db", "25", *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_pareto_requires_a_grid(capsys):
    rc = main(["pareto", *COMMON, "--algorithm", "eomp"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _one_error_line(rc, capsys):
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    return captured.err


CSPADE = ["--algorithm", "cspade", "--tau-w", "0.05", "--tau-y", "6"]


@pytest.mark.parametrize("flags, value", [
    (["ber", "--snr-grid-db", "inf"], "inf"),
    (["ber", "--snr-grid-db", "0,nan"], "nan"),
    (["snrop", "--snr-hi-db", "inf"], "inf"),
    (["snrop", "--snr-lo-db=-inf"], "-inf"),
    (["snrop", "--snr-lo-db", "nan"], "nan"),
    (["activity", *CSPADE, "--snr-db", "inf"], "inf"),
])
def test_non_finite_snr_fails_cleanly(flags, value, capsys):
    rc = main([flags[0], *COMMON, *flags[1:]])
    assert f"got {value} dB" in _one_error_line(rc, capsys)


@pytest.mark.parametrize("lo, hi", [("20", "0"), ("5", "5")])
def test_snrop_rejects_inverted_range_before_simulating(lo, hi, monkeypatch, capsys):
    def no_block(*args):
        raise AssertionError("a block was simulated")

    monkeypatch.setattr(harness, "_sim_block", no_block)
    rc = main(["snrop", *COMMON, "--snr-lo-db", lo, "--snr-hi-db", hi])
    assert "snr_lo_db" in _one_error_line(rc, capsys)


@pytest.mark.parametrize("target", ["nan", "inf", "0", "1", "-1"])
@pytest.mark.parametrize("command", [["snrop"], ["pareto", "--algorithm", "eomp",
                                                 "--delta-grid", "1.0,0.5"]])
def test_target_ber_outside_unit_interval_fails_cleanly(command, target, monkeypatch,
                                                       capsys):
    def no_block(*args):
        raise AssertionError("a block was simulated")

    monkeypatch.setattr(harness, "_sim_block", no_block)
    rc = main([command[0], *COMMON, *command[1:], "--target-ber", target])
    assert "target BER" in _one_error_line(rc, capsys)


@pytest.mark.parametrize("flags, name", [
    # an empty grid's error names its flag; the case ids name the field it fills
    pytest.param(["ber", "--snr-grid-db", ","], "--snr-grid-db", id="flags0-snr_grid_db"),
    pytest.param(["pareto", "--algorithm", "eomp", "--delta-grid", ","], "--delta-grid",
                 id="flags1-delta_grid"),
    pytest.param(["pareto", *CSPADE, "--tau-w-grid", "0.1", "--tau-y-grid", " , "],
                 "--tau-y-grid", id="flags2-tau_y_grid"),
    (["activity", *CSPADE, "--snr-db", "8", "--num-blocks", "-3"], "num_blocks"),
    (["activity", *CSPADE, "--snr-db", "8", "--num-blocks", "0"], "num_blocks"),
    (["activity", *CSPADE, "--snr-db", "8", "--bins", "0"], "bins"),
    (["ber", "--snr-grid-db", "0", "--workers", "0"], "workers"),
    (["ber", "--snr-grid-db", "0", "--workers", "-3"], "workers"),
    (["ber", "--snr-grid-db", "0", "--min-bits-per-point", "0"], "min_bits_per_point"),
    (["ber", "--snr-grid-db", "0", "--max-bits-per-point", "19999"], "max_bits_per_point"),
    (["ber", "--snr-grid-db", "0", "--max-bits-per-point", "0"], "max_bits_per_point"),
    (["ber", "--snr-grid-db", "0", "--min-errors-per-point", "-5"], "min_errors_per_point"),
    (["ber", "--snr-grid-db", "0", "--arithmetic", "exact"], "arithmetic"),
    (["ber", "--snr-grid-db", "0", "--coherence-len", "0"], "coherence_len"),
    # dB values whose linear powers overflow (or, at 4000 dB, only at some
    # seeds' power-control offsets), and a negative placement budget
    (["ber", "--snr-grid-db", "0", "--los-scatter-db", "1e5"], "los_scatter_db"),
    (["ber", "--snr-grid-db", "0", "--power-ctrl-db", "4000"], "power_ctrl_db"),
    (["ber", "--snr-grid-db", "0", "--power-ctrl-db", "1e308"], "power_ctrl_db"),
    (["ber", "--snr-grid-db", "0", "--decay-db-per-path", "-3000", "--los", "0"],
     "decay_db_per_path"),
    (["ber", "--snr-grid-db", "0", "--max-placement-tries", "-1"], "max_placement_tries"),
    (["ber", "--snr-grid-db", "0", "--seed", "-1"], "seed"),
    (["ber", "--snr-grid-db", "0", "--seed", "-1", "--workers", "2"], "seed"),
    (["activity", *CSPADE, "--snr-db", "8", "--seed", "-1"], "seed"),
    # argparse's own errors, and a command flag's value of the wrong type,
    # name the flag, with no usage text
    (["snrop", "--target-ber", "abc"], "--target-ber"),
    (["ber"], "--snr-grid-db"),
    (["ber", "--snr-grid-db", "0,x"], "--snr-grid-db"),
    (["ber", "--snr-grid-db", "0", "--bogus", "3"], "--bogus"),
    (["activity", *CSPADE, "--snr-db", "x"], "--snr-db"),
    (["activity", *CSPADE, "--snr-db", "8", "--num-blocks", "1e3"], "--num-blocks"),
    (["activity", *CSPADE, "--snr-db", "8", "--bins", "2.5"], "--bins"),
])
def test_empty_grid_or_count_fails_cleanly(flags, name, capsys):
    rc = main([flags[0], *COMMON, *flags[1:]])
    assert name in _one_error_line(rc, capsys)


@pytest.mark.parametrize("flags", [
    ["ber", "--algorithm", "cspade", "--tau-w", "nan", "--tau-y", "10",
     "--snr-grid-db", "10"],
    ["ber", "--algorithm", "spade", "--tau-w", "0.05", "--tau-y", "nan",
     "--snr-grid-db", "10"],
    ["pareto", "--algorithm", "cspade", "--tau-w-grid", "0.1,nan", "--tau-y-grid", "6"],
    ["pareto", "--algorithm", "cspade", "--tau-w-grid", "0.1", "--tau-y-grid", "nan"],
    ["activity", "--algorithm", "cspade", "--tau-w", "nan", "--tau-y", "6",
     "--snr-db", "8"],
], ids=["ber-tau-w", "ber-tau-y", "pareto-tau-w-grid", "pareto-tau-y-grid", "activity"])
def test_nan_threshold_fails_cleanly(flags, monkeypatch, capsys):
    def no_block(*args):
        raise AssertionError("a block was simulated")

    monkeypatch.setattr(harness, "_sim_block", no_block)
    rc = main([flags[0], *COMMON, *flags[1:]])
    assert "thresholds must be nonnegative" in _one_error_line(rc, capsys)


def test_max_bits_may_equal_min_bits(tmp_path):
    out = tmp_path / "ber.csv"
    rc = main(["ber", *COMMON, "--max-bits-per-point", "20000", "--snr-grid-db", "0",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1].split(",")[2] == "20480"


def test_bad_value_names_the_key(tmp_path, capsys):
    rc = main(["ber", *COMMON, "--num-ues", "1.5", "--snr-grid-db", "0"])
    assert _one_error_line(rc, capsys) == "error: --num-ues: bad int for num_ues: '1.5'\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nmin_sep_deg = wide\n")
    rc = main(["ber", "--config", str(cfg), "--snr-grid-db", "0"])
    err = _one_error_line(rc, capsys)
    assert f"{cfg}:2:" in err and "min_sep_deg" in err
    cfg.write_text("seed = 1\nnum_ues 2\n")           # a line without '='
    rc = main(["ber", "--config", str(cfg), "--snr-grid-db", "0"])
    assert f"{cfg}:2: expected key=value" in _one_error_line(rc, capsys)


@pytest.mark.parametrize("raw, value", [
    ("true", True), ("yes", True), ("1", True), ("False", False), ("no", False),
    ("0", False),
])
def test_boolean_values_parse(raw, value):
    cfg = build_sim_config(argparse.Namespace(config=None, los=raw), validate=False)
    assert cfg.scenario.los is value


@pytest.mark.parametrize("flags, key", [
    (["ber", "--coherence-len", "none", "--snr-grid-db", "0"], "coherence_len"),
    (["snrop", "--snr-lo-db", "none"], "snr_lo_db"),
    (["ber", "--num-ues", "None", "--snr-grid-db", "0"], "num_ues"),
    (["ber", "--algorithm", "", "--snr-grid-db", "0"], "algorithm"),
])
def test_none_only_for_optional_keys(flags, key, tmp_path, capsys):
    rc = main([flags[0], *COMMON, *flags[1:]])
    err = _one_error_line(rc, capsys)
    assert err.startswith(f"error: --{key.replace('_', '-')}: ") and key in err
    cfg = tmp_path / "none.cfg"
    cfg.write_text(f"seed = 1\n{key} = none\n")
    rc = main(["ber", "--config", str(cfg), "--snr-grid-db", "0"])
    err = _one_error_line(rc, capsys)
    assert f"{cfg}:2:" in err and key in err
    # a field typed X | None still takes none
    out = tmp_path / "ber.csv"
    assert main(["ber", *COMMON, "--delta", "none", "--max-bits-per-point", "none",
                 "--snr-grid-db", "0", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("flags, n0", [
    (["ber", "--snr-grid-db=-4000"], "inf"),
    (["ber", "--snr-grid-db", "0,4000"], "0.0"),
    (["snrop", "--snr-hi-db", "4000"], "0.0"),
    (["activity", *CSPADE, "--snr-db=-1e6"], "inf"),
])
def test_extreme_snr_fails_cleanly(flags, n0, capsys):
    rc = main([flags[0], *COMMON, *flags[1:]])
    assert f"N0 = {n0}" in _one_error_line(rc, capsys)


@pytest.mark.parametrize("count", ["-2", "0", "2.5"])
def test_gen_channels_count_below_one_fails_cleanly(count, tmp_path, capsys):
    outdir = tmp_path / "chans"
    rc = main(["gen-channels", *COMMON, "--count", count, "--outdir", str(outdir)])
    assert "count" in _one_error_line(rc, capsys)
    assert not outdir.exists()


def test_activity_histogram(tmp_path):
    out = tmp_path / "act.csv"
    rc = main(["activity", *COMMON, "--algorithm", "cspade",
               "--tau-w", "0.05", "--tau-y", "6",
               "--snr-db", "8", "--num-blocks", "20", "--bins", "10",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 11
    assert sum(int(l.split(",")[2]) for l in lines[1:]) == 20


def test_power_report(tmp_path):
    out = tmp_path / "power.csv"
    rc = main(["power", "--alpha", "0.21", "--arch", "at-cspade",
               "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "arch,alpha,mute_fraction,relative_power,savings,throughput_gbps"
    fields = row.split(",")
    assert fields[0] == "at-cspade"
    assert abs(float(fields[3]) - 0.3443) < 1e-12
    assert float(fields[6 - 1]) == 32.0


@pytest.mark.parametrize("flags, name", [
    (["--arch", "mac-cspade", "--num-antennas", "0"], "num_beams"),
    (["--num-antennas", "-4"], "num_beams"),
    (["--num-ues", "0"], "num_ues"),
    (["--clock-hz", "-1"], "clock_hz"),
    (["--clock-hz", "0"], "clock_hz"),
    (["--clock-hz", "nan"], "clock_hz"),
    (["--clock-hz", "inf"], "clock_hz"),
    (["--alpha", "x"], "--alpha"),
    (["--arch", "bogus"], "--arch"),
    (["--mute-fraction", "half"], "--mute-fraction"),
    (["--clock-hz", "1GHz"], "--clock-hz"),
    (["--num-ues", "1.5"], "--num-ues"),
    (["--num-antennas", "x"], "--num-antennas"),
])
def test_power_rejects_degenerate_architecture(flags, name, tmp_path, capsys):
    out = tmp_path / "power.csv"
    rc = main(["power", "--alpha", "0.5", *flags, "--out", str(out)])
    assert name in _one_error_line(rc, capsys)
    assert not out.exists()


def test_power_custom_arch_needs_mute_fraction(tmp_path, capsys):
    out = tmp_path / "power.csv"
    rc = main(["power", "--alpha", "0.2", "--arch", "custom", "--out", str(out)])
    assert "--mute-fraction" in _one_error_line(rc, capsys)
    assert not out.exists()
    rc = main(["power", "--alpha", "0.2", "--arch", "custom", "--mute-fraction", "0.5",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1].startswith("custom,0.2,0.5,")


def test_power_report_all_archs(tmp_path):
    out = tmp_path / "power_all.csv"
    assert main(["power", "--alpha", "0.45", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 6


def test_gen_channels(tmp_path):
    outdir = tmp_path / "chans"
    rc = main(["gen-channels", "--num-antennas", "16", "--num-ues", "2",
               "--seed", "3", "--count", "3", "--outdir", str(outdir)])
    assert rc == 0
    files = sorted(outdir.iterdir())
    assert len(files) == 3
    b, u, re, im = np.loadtxt(files[0], delimiter=",", skiprows=1).T
    assert (b.max() + 1, u.max() + 1, len(b)) == (16, 2, 32)
    assert np.all(np.isfinite(re + 1j * im))


def test_config_keys_cover_every_dataclass_field():
    # optional fields default to None, so their types are spelled out here
    optional = {"delta": float, "tau_w": float, "tau_y": float,
                "max_bits_per_point": int}
    expected = {}
    for obj, is_scen in ((ScenarioConfig(), True), (harness.SimConfig(), False)):
        for f in dataclasses.fields(obj):
            if f.name == "scenario":
                continue
            default = getattr(obj, f.name)
            typ = optional[f.name] if default is None else type(default)
            expected[f.name] = (typ, is_scen)
    assert _CONFIG_KEYS == expected
    cfg = build_sim_config(argparse.Namespace(config=None, max_placement_tries="5",
                                              los="false", delta="0.5"),
                           validate=False)
    assert cfg.scenario.max_placement_tries == 5
    assert cfg.scenario.los is False and cfg.delta == 0.5


def test_paper_configs_build_valid_sim_configs():
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert paths
    for path in paths:
        assert read_config_file(str(path))
        build_sim_config(argparse.Namespace(config=str(path))).validate()
