import csv
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rstokes import cli, harness
from rstokes.cli import main, read_config_file
from rstokes.harness import (
    ErrorReport,
    ExperimentConfig,
    ExperimentError,
    emit_report,
    fitted_rate,
    loglog_slope,
    pair_rates,
    run_experiment,
)


def read_report_csv(path: str) -> list[dict]:
    """Parse an emitted CSV back into typed row dictionaries."""
    out = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            row = dict(rec)
            for k in ("alpha", "h", "tau", "t", "l2_error", "h1_error"):
                row[k] = float(row[k])
            row["rate"] = float(row["rate"]) if row["rate"] else None
            out.append(row)
    return out


def test_pair_rates_halving():
    rates = pair_rates([0.2, 0.1, 0.05], [4.0, 1.0, 0.25])
    assert rates[0] is None
    assert rates[1] == pytest.approx(2.0)
    assert rates[2] == pytest.approx(2.0)


def test_pair_rates_nondyadic_spacing():
    # misaligned meshes: rate uses the actual h ratio, not an assumed halving
    hs = [1 / 9, 1 / 17]
    es = [1.0, (hs[1] / hs[0]) ** 1.5]
    assert pair_rates(hs, es)[1] == pytest.approx(1.5)


def test_fitted_rate_drops_preasymptotic_pair():
    xs = [0.2, 0.1, 0.05, 0.025, 0.0125]
    es = [10.0, 1.0, 0.5, 0.25, 0.125]   # wild first pair, then clean rate 1
    assert fitted_rate(xs, es) == pytest.approx(1.0)


def test_loglog_slope():
    ts = np.array([1e-3, 1e-4, 1e-5])
    es = 2.0 * ts**-0.375
    assert loglog_slope(ts, es) == pytest.approx(-0.375)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(example="z")
    with pytest.raises(ValueError):
        ExperimentConfig(example="a", alphas=())
    with pytest.raises(ValueError):
        ExperimentConfig(example="a", ts=(0.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(example="c", projection="ritz")
    with pytest.raises(ValueError):
        ExperimentConfig(example="a", fmt="json")


def test_repeated_step_count_rejected(capsys):
    argv = ["--example", "a", "--study", "temporal", "--N", "10,10", "--k", "4"]
    assert main(argv) == 1
    assert "N list repeats a value" in capsys.readouterr().err


def test_repeated_mesh_rejected(capsys):
    argv = ["--example", "a", "--study", "spatial", "--k", "3,3"]
    assert main(argv) == 1
    assert "k list repeats a value" in capsys.readouterr().err
    with pytest.raises(ValueError, match="mesh"):
        ExperimentConfig(example="c", study="spatial", ks=(3,), Ks=(8, 9))


def test_zero_step_count_rejected(capsys):
    argv = ["--example", "a", "--study", "temporal", "--N", "0,5", "--k", "4"]
    assert main(argv) == 1
    assert "N list" in capsys.readouterr().err


def test_temporal_report_structure():
    cfg = ExperimentConfig(example="a", scheme="be", study="temporal",
                           alphas=(0.5,), ks=(5,), Ns=(4, 8), ts=(0.1,))
    rep = run_experiment(cfg)
    assert len(rep.rows) == 2
    assert rep.rows[0].rate is None
    assert rep.rows[1].rate is not None
    assert rep.rows[0].normalized
    assert rep.rows[0].tau == pytest.approx(0.1 / 4)
    assert len(rep.families) == 1
    assert rep.families[0].x_name == "tau"


def test_dirac_rows_absolute():
    cfg = ExperimentConfig(example="c", scheme="sbd", study="spatial",
                           alphas=(0.5,), ks=(3, 4), Ns=(50,), ts=(0.1,))
    rep = run_experiment(cfg)
    assert not rep.rows[0].normalized


def test_blowup_requires_second_order_scheme():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(example="a", scheme="be", study="blowup"))


def test_blowup_slope_sign():
    cfg = ExperimentConfig(example="b", scheme="sbd", study="blowup",
                           alphas=(0.5,), ks=(4,), Ns=(64,), ts=(1e-3, 1e-4, 1e-5))
    rep = run_experiment(cfg)
    assert len(rep.rows) == 3
    assert rep.families[0].l2_rate < 0.0          # error grows as t -> 0
    assert rep.rows[0].t > rep.rows[-1].t          # sorted from large to small t


def test_one_time_blowup_slope_is_nan():
    # one observation time has no slope; the fit must not warn or invent one
    cfg = ExperimentConfig(example="b", scheme="sbd", study="blowup",
                           alphas=(0.5,), ks=(3,), Ns=(20,), ts=(1e-3,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_experiment(cfg)
    assert math.isnan(rep.families[0].l2_rate)
    assert math.isnan(rep.families[0].h1_rate)


def test_experiment_error_carries_grid_point():
    cfg = ExperimentConfig(example="d", scheme="sbd", study="spatial",
                           alphas=(0.5,), Ks=(5,), Ns=(4,), ts=(0.1,))
    with pytest.raises(ExperimentError) as err:
        run_experiment(cfg)
    assert err.value.point["K"] == 5


def test_error_failure_names_the_family_points(monkeypatch):
    # the errors of a temporal family are measured by one call for all its
    # step counts, so a failure there names the mesh, the time and every N
    def fail(*args, **kwargs):
        raise FloatingPointError("reference failed")

    monkeypatch.setattr(harness, "error_norms", fail)
    cfg = ExperimentConfig(example="a", scheme="be", study="temporal",
                           alphas=(0.5,), ks=(3,), Ns=(4, 8, 16), ts=(0.1,))
    with pytest.raises(ExperimentError, match="reference failed") as err:
        run_experiment(cfg)
    point = err.value.point
    assert (point["K"], point["t"], point["N"]) == (8, 0.1, (4, 8, 16))


def test_temporal_study_keeps_one_trajectory_alive():
    # fine_tau's study: the harness keeps only the final state of each step
    # count, so its peak is the N = 500 trajectory plus a little; a harness
    # that kept a trajectory alive while it measured errors peaked above 1.25x
    cfg = ExperimentConfig(example="a", scheme="sbd", study="temporal",
                           alphas=(0.5,), ks=(11,), Ns=(250, 500), ts=(0.1,))
    run_experiment(cfg)   # imports and first-call set-up outside the measurement
    tracemalloc.start()
    try:
        run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * (501 * 2047 * 8)


def test_emit_csv_roundtrip(tmp_path):
    cfg = ExperimentConfig(example="a", scheme="sbd", study="temporal",
                           alphas=(0.5,), ks=(4,), Ns=(4, 8, 16), ts=(0.1,))
    rep = run_experiment(cfg)
    path = tmp_path / "out.csv"
    text = emit_report(rep, fmt="csv", path=str(path))
    lines = text.strip().splitlines()
    assert lines[0] == "example,scheme,alpha,h,tau,t,l2_error,h1_error,rate"
    assert sum(1 for ln in lines if ln.startswith("example,")) == 1
    assert lines[1].endswith(",")        # first row of the family: blank rate
    parsed = read_report_csv(str(path))
    for row, rec in zip(rep.rows, parsed):
        assert rec["l2_error"] == row.l2_error        # .17g round-trips exactly
        assert rec["h1_error"] == row.h1_error
        assert rec["rate"] == row.rate


def test_emit_text_contains_fit(tmp_path):
    cfg = ExperimentConfig(example="a", scheme="sbd", study="temporal",
                           alphas=(0.5,), ks=(4,), Ns=(4, 8), ts=(0.1,))
    text = emit_report(run_experiment(cfg), fmt="text")
    assert "fitted: l2 rate" in text
    assert "normalized errors" in text


def test_emit_rejects_bad_format():
    rep = ErrorReport(config=ExperimentConfig(example="a"))
    with pytest.raises(ValueError):
        emit_report(rep, fmt="yaml")


def test_cli_runs_and_writes(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main([
        "--example", "a", "--scheme", "sbd", "--study", "temporal",
        "--alpha", "0.5", "--k", "4", "--N", "4,8", "--t", "0.1",
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    assert out.exists()
    assert len(read_report_csv(str(out))) == 2


def test_cli_warns_when_reference_misses_oracle_tol(tmp_path, capsys):
    # at t_min = 1e-8 and alpha = 0.1 the step reference stops at the 10^4-mode
    # cap with a tail bound of 2.55e-4 against oracle_tol 1e-6
    out = tmp_path / "blowup.csv"
    argv = ["--example", "b", "--scheme", "sbd", "--study", "blowup", "--k", "3", "--N", "20",
            "--out", str(out)]
    assert main([*argv, "--alpha", "0.1", "--t", "1e-8"]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote 1 rows to {out}\n"
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "t_min=1e-08" in lines[0] and "keeps 10000 modes" in lines[0]
    assert "tail bound 0.000255 exceeds oracle_tol 1e-06" in lines[0]
    assert len(read_report_csv(str(out))) == 1

    # a reference that meets the tolerance (26 modes at t_min = 1e-3) says nothing
    assert main([*argv, "--alpha", "0.5", "--t", "1e-3"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_config_file_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# demo config\nexample = a\nscheme = sbd\nstudy = temporal\n"
        "alpha = 0.3\nk = 4\nN = 4 8\nt = 0.1\nformat = csv\n"
    )
    out = tmp_path / "r.csv"
    code = main(["--config", str(cfgfile), "--alpha", "0.5", "--out", str(out)])
    assert code == 0
    rows = read_report_csv(str(out))
    assert all(r["alpha"] == 0.5 for r in rows)    # CLI overrides the file


def test_cli_reports_errors(tmp_path, capsys):
    assert main(["--scheme", "be"]) == 1            # no example anywhere
    err = capsys.readouterr().err
    assert "example" in err

    bad = tmp_path / "bad.cfg"
    bad.write_text("exmaple = a\n")
    assert main(["--config", str(bad)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_cli_key_table_matches_parser_and_config(tmp_path):
    # one table maps each config-file key to its flag's dest, its
    # ExperimentConfig field and the cast of its text
    actions = [a for a in cli.build_parser()._actions if a.dest not in ("help", "config")]
    flags = {opt[2:] for a in actions for opt in a.option_strings if opt.startswith("--")}
    assert set(cli._KEYS) == flags
    cfgfile = tmp_path / "all.cfg"
    cfgfile.write_text("".join(f"{key} = x\n" for key in cli._KEYS))
    assert set(read_config_file(str(cfgfile))) == set(cli._KEYS)
    assert {dest for dest, _, _ in cli._KEYS.values()} == {a.dest for a in actions}
    assert {field for _, field, _ in cli._KEYS.values()} == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_config_file_parser(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("example=b\nt = 0.1 0.01   # times\n\n")
    vals = read_config_file(str(f))
    assert vals == {"example": "b", "t": "0.1 0.01"}
    f.write_text("projection l2\n")
    with pytest.raises(ValueError):
        read_config_file(str(f))


def test_config_file_rejects_repeated_key(tmp_path, capsys):
    # a second value for a key must not silently replace the first
    f = tmp_path / "dup.cfg"
    f.write_text("example = a\nalpha = 0.1\n# comment\nalpha = 0.5\n")
    with pytest.raises(ValueError, match=rf"dup\.cfg:4: repeated key 'alpha'"):
        read_config_file(str(f))
    assert main(["--config", str(f), "--study", "temporal", "--k", "3", "--N", "4", "--t", "0.1"]) == 1
    assert "repeated key 'alpha'" in capsys.readouterr().err


def test_history_origin_flag_plumbs_through():
    base = ExperimentConfig(example="a", scheme="be", study="temporal",
                            alphas=(0.5,), ks=(4,), Ns=(8,), ts=(0.1,))
    keep = ExperimentConfig(example="a", scheme="be", study="temporal",
                            alphas=(0.5,), ks=(4,), Ns=(8,), ts=(0.1,),
                            include_history_origin=True)
    e_omit = run_experiment(base).rows[0].l2_error
    e_keep = run_experiment(keep).rows[0].l2_error
    assert e_keep != pytest.approx(e_omit, rel=1e-6)


@pytest.mark.parametrize("study,flags,name", [
    ("temporal", ["--k", "4,5,6", "--N", "10,20", "--t", "0.1"], "mesh (k and K together) list"),
    ("spatial", ["--k", "3,4", "--N", "100,200"], "N list"),
    ("blowup", ["--k", "4,5", "--N", "100"], "mesh (k and K together) list"),
    ("blowup", ["--k", "4", "--N", "100,200"], "N list"),
])
def test_fixed_axis_list_rejected(capsys, study, flags, name):
    # a study uses one value of each axis it does not sweep; a longer list
    # would otherwise be cut to its first entry without notice
    argv = ["--example", "a", "--study", study, *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{study} study holds" in err and name in err


@pytest.mark.parametrize("flag,value,name", [
    ("--t", "inf", "t"),
    ("--t", "nan", "t"),
    ("--gamma", "nan", "gamma"),
    ("--gamma", "0", "gamma"),
    ("--oracle-tol", "-1", "oracle_tol"),
    ("--oracle-tol", "0", "oracle_tol"),
    ("--oracle-tol", "nan", "oracle_tol"),
])
def test_nonfinite_or_nonpositive_input_rejected(capsys, flag, value, name):
    # before the check these ran to exit 0 on inf/nan rows or a silent mode
    # cap, or failed late inside the solver without naming the input
    argv = ["--example", "b", "--study", "temporal", "--k", "3", "--N", "5", flag, value]
    assert main(argv) == 1
    assert f"{name} must be finite and positive" in capsys.readouterr().err
