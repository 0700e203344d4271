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


_BLOWUP_TIMES = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


@pytest.mark.parametrize("example,study,ks,Ns,ts", [
    ("a", "temporal", (11,), (5, 10, 20, 40, 80), (0.1,)),
    ("a", "spatial", (3, 4, 5, 6, 7), (2000,), (0.1,)),
    ("b", "spatial", (3, 4, 5, 6, 7), (1000,), (0.1,)),
    ("b", "blowup", (6,), (1000,), _BLOWUP_TIMES),
    ("d", "temporal", (6,), (5, 10, 20, 40, 80), (0.1,)),
    ("d", "spatial", (3, 4, 5, 6), (200,), (0.1,)),
    ("d", "blowup", (6,), (1000,), _BLOWUP_TIMES),
])
def test_config_holds_resolved_defaults(example, study, ks, Ns, ts):
    # the config itself fills the grid lists a study omits, so what it holds
    # is what runs; an explicit K list keeps the k list empty (even K, so
    # that the cut of example d lies on a mesh line)
    cfg = ExperimentConfig(example=example, study=study)
    assert (cfg.ks, cfg.Ks, cfg.Ns) == (ks, (), Ns)
    assert cfg.ts == pytest.approx(ts, rel=1e-15)
    assert cfg.meshes == tuple(2**k for k in ks)
    explicit = ExperimentConfig(example=example, study="spatial", Ks=(10, 18))
    assert (explicit.ks, explicit.meshes) == ((), (10, 18))


def test_alpha_outside_unit_interval_rejected_before_any_mesh(capsys, monkeypatch):
    def no_mesh(K):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(harness, "build_interval_mesh", no_mesh)
    assert main(["--example", "a", "--alpha", "0.5,1.5", "--k", "3", "--N", "4"]) == 1
    err = capsys.readouterr().err
    assert "alpha list (0.5, 1.5)" in err and "grid point" not in err
    for alphas in ((0.0,), (1.0,), (math.nan,)):
        with pytest.raises(ValueError, match="alpha list"):
            ExperimentConfig(example="a", alphas=alphas)


@pytest.mark.parametrize("flag,value", [("k", "0"), ("k", "-1"), ("K", "1")])
def test_mesh_size_rejected_before_any_mesh(capsys, monkeypatch, flag, value):
    # a mesh needs K >= 2 cells, so k >= 1 and an explicit K >= 2
    def no_mesh(K):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(harness, "build_interval_mesh", no_mesh)
    assert main(["--example", "a", "--study", "spatial", f"--{flag}", value]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("rstokes: error:") and f"{flag} list ({value},)" in line
    assert ExperimentConfig(example="a", study="spatial", ks=(1,), Ks=(3,)).meshes == (2, 3)


def test_missing_out_directory_rejected_before_any_mesh(tmp_path, capsys, monkeypatch):
    # before the check a study ran every grid point and then failed to write
    def no_mesh(K):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(harness, "build_interval_mesh", no_mesh)
    out = tmp_path / "missing" / "rows.csv"
    assert main(["--example", "a", "--study", "temporal", "--k", "3", "--N", "4", "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("rstokes: error: out: ") and str(out) in line
    assert ExperimentConfig(example="a", out="rows.csv").out == "rows.csv"   # the working directory


@pytest.mark.parametrize("suffix", ["", "/nodir/"], ids=["existing-directory", "trailing-separator"])
def test_directory_out_path_rejected_before_any_mesh(tmp_path, capsys, monkeypatch, suffix):
    # before the check an existing directory ran the whole study and then
    # failed to write, and a trailing separator wrote a file without it
    def no_mesh(K):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(harness, "build_interval_mesh", no_mesh)
    out = f"{tmp_path}{suffix}"
    assert main(["--example", "a", "--study", "temporal", "--k", "3", "--N", "4", "--out", out]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("rstokes: error: out: ") and out in line
    assert not (tmp_path / "nodir").exists()


def test_misaligned_2d_step_mesh_rejected_before_any_mesh(capsys, monkeypatch):
    # the cut x = 1/2 of example d lies on no mesh line of K = 5; before the
    # check the study stepped K = 4 and then failed at K = 5
    def no_mesh(K):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(harness, "build_square_mesh", no_mesh)
    assert main(["--example", "d", "--study", "spatial", "--K", "4,5", "--N", "4", "--t", "0.1"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("rstokes: error:") and "list (4, 5)" in line
    assert ExperimentConfig(example="d", study="spatial", ks=(1,), Ks=(6,)).meshes == (2, 6)


@pytest.mark.parametrize("key,value", [
    ("scheme", "cn"),
    ("study", "x"),
    ("projection", "y"),
    ("format", "json"),
    ("gamma", "fast"),
    ("N", ""),
])
def test_bad_value_reads_the_same_from_flag_and_file(tmp_path, capsys, key, value):
    # the allowed values live in ExperimentConfig alone, so a flag and a
    # config-file key fail with the same line and exit code
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"example = a\n{key} = {value}\n")
    assert main(["--example", "a", f"--{key}", value]) == 1
    from_flag = capsys.readouterr().err
    assert main(["--config", str(cfgfile)]) == 1
    from_file = capsys.readouterr().err
    assert from_flag == from_file
    assert from_flag.startswith("rstokes: error: ") and from_flag.count("\n") == 1
    assert key in from_flag and value in from_flag


@pytest.mark.parametrize("key,value", [("N", "1.5"), ("k", "three"), ("alpha", "half"), ("oracle-tol", "tiny"),
                                       ("N", ""), ("k", ""), ("t", ""), ("K", ""), ("alpha", "")])
def test_failed_cast_names_its_key(capsys, key, value):
    # an empty list is an error, not a request for the study defaults
    assert main(["--example", "a", f"--{key}", value]) == 1
    assert capsys.readouterr().err.startswith(f"rstokes: error: {key}: ")


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
    assert rep.normalized
    assert rep.rows[0].tau == pytest.approx(0.1 / 4)
    assert len(rep.families) == 1
    assert rep.families[0].x_name == "tau"


def test_dirac_rows_absolute():
    cfg = ExperimentConfig(example="c", scheme="sbd", study="spatial",
                           alphas=(0.5,), ks=(3, 4), Ns=(50,), ts=(0.1,))
    rep = run_experiment(cfg)
    assert not rep.normalized


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


def test_experiment_error_carries_grid_point(monkeypatch):
    def fail(space, cfg, v):
        raise FloatingPointError("step failed")

    monkeypatch.setattr(harness, "run_scheme", fail)
    cfg = ExperimentConfig(example="d", scheme="sbd", study="spatial",
                           alphas=(0.5,), Ks=(6,), Ns=(4,), ts=(0.1,))
    with pytest.raises(ExperimentError, match="step failed") as err:
        run_experiment(cfg)
    assert err.value.point["K"] == 6


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


def test_each_pass_is_marched_then_measured(monkeypatch):
    # a pass is one mesh and one time: its marches run and its one error
    # pass measures them before the next pass marches, so a spatial family
    # alternates per mesh and a blowup family per t
    events = []
    run_scheme, error_norms = harness.run_scheme, harness.error_norms

    def march(space, scfg, v):
        events.append(("march", space.mesh.K, scfg.tau))
        return run_scheme(space, scfg, v)

    def measure(space, rows, exact, t):
        events.append(("error", space.mesh.K, t))
        return error_norms(space, rows, exact, t)

    monkeypatch.setattr(harness, "run_scheme", march)
    monkeypatch.setattr(harness, "error_norms", measure)
    run_experiment(ExperimentConfig(example="b", study="spatial", ks=(3, 4, 5), Ns=(20,), ts=(0.1,)))
    assert events == [(kind, K, x) for K in (8, 16, 32) for kind, x in (("march", 0.1 / 20), ("error", 0.1))]
    events.clear()
    run_experiment(ExperimentConfig(example="b", study="blowup", ks=(3,), Ns=(20,), ts=(1e-3, 1e-4)))
    assert events == [(kind, 8, x) for t in (1e-3, 1e-4) for kind, x in (("march", t / 20), ("error", t))]


@pytest.mark.parametrize("study,Ns,ts", [
    ("temporal", (4, 8), (1e300,)),
    ("blowup", (4,), (1e300, 1e299)),
    ("temporal", (4, 8), (1e300, 0.1)),
], ids=["temporal", "blowup", "temporal-two-times"])
def test_vanishing_error_has_nan_rates(capsys, study, Ns, ts):
    # at t = 1e300 the reference and the scheme have both decayed to exact
    # zeros: a rate or a fit over a zero error is nan, and the rows, with
    # any valid family beside them, are still reported
    argv = ["--example", "c", "--study", study, "--k", "3", "--N", ",".join(map(str, Ns)),
            "--t", ",".join(map(str, ts))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
        rep = run_experiment(ExperimentConfig(example="c", study=study, ks=(3,), Ns=Ns, ts=ts))
    assert capsys.readouterr().err == ""
    assert len(rep.rows) == len(Ns) * len(ts)
    for fam in rep.families:
        vanished = fam.rows[0].t > 1.0
        assert all((r.l2_error == 0.0) == (r.h1_error == 0.0) == vanished for r in fam.rows)
        rates = [r.rate for r in fam.rows[1:]] + [fam.l2_rate, fam.h1_rate]
        assert all(math.isnan(rate) == vanished for rate in rates)


def test_nonfinite_error_norm_fails_its_grid_point(capsys, monkeypatch):
    # at t = 1e-300 the reference overflows inside the error pass; the study
    # stops at that grid point rather than print rows of nan
    argv = ["--example", "b", "--study", "temporal", "--k", "3", "--N", "4,8", "--t", "1e-300"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    warning, error = captured.err.splitlines()
    assert warning.startswith("rstokes: warning: reference for alpha=0.5 at t_min=1e-300")
    assert error.startswith("rstokes: error: grid point (example=b, alpha=0.5, K=8, N=(4, 8), t=1e-300) failed:")
    # a non-finite norm that raised no floating-point error fails the same way
    monkeypatch.setattr(harness, "error_norms", lambda space, rows, exact, t: np.full((2, len(rows)), np.inf))
    cfg = ExperimentConfig(example="a", study="temporal", ks=(3,), Ns=(4, 8), ts=(0.1,))
    with pytest.raises(ExperimentError, match="not finite") as err:
        run_experiment(cfg)
    assert err.value.point == {"example": "a", "alpha": 0.5, "K": 8, "N": (4, 8), "t": 0.1}


@pytest.mark.parametrize("Ns", ["80", "40,80,20"])
def test_pass_too_large_for_memory_is_refused_before_its_first_march(capsys, monkeypatch, Ns):
    # the step's L2 projection at K = 2048 has 1,536 nonzero DST-I modes, so
    # its N = 80 march makes 2 * 81 * 1536 * 8 = 1,990,656 bytes resident:
    # above a 1 MiB limit the pass is refused at its largest N, named like a
    # failed one, and nothing is marched
    marches = []
    monkeypatch.setattr(harness, "_MEMORY_BYTES", 1 << 20)
    monkeypatch.setattr(harness, "run_scheme", lambda *args: marches.append(args))
    assert main(["--example", "b", "--scheme", "sbd", "--k", "11", "--N", Ns, "--t", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and marches == []
    (error,) = captured.err.splitlines()
    assert error.startswith("rstokes: error: grid point (example=b, alpha=0.5, K=2048, N=80, t=0.1) failed:")
    assert "1990656 bytes" in error


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
    path = tmp_path / "out.csv"
    cfg = ExperimentConfig(example="a", scheme="sbd", study="temporal",
                           alphas=(0.5,), ks=(4,), Ns=(4, 8, 16), ts=(0.1,), out=str(path), fmt="csv")
    rep = run_experiment(cfg)
    text = emit_report(rep)
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
                           alphas=(0.5,), ks=(4,), Ns=(4, 8), ts=(0.1,), fmt="text")
    text = emit_report(run_experiment(cfg))
    assert "fitted: l2 rate" in text
    assert "normalized errors" in text


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(example="a", study="temporal", alphas=(0.3, 0.7), ks=(4,), Ns=(4, 8, 16), ts=(0.1, 0.05)),
    ExperimentConfig(example="c", study="spatial", ks=(3,), Ks=(9, 17), Ns=(50,)),
    ExperimentConfig(example="b", study="blowup", ks=(3,), Ns=(20,), ts=(1e-3, 1e-4, 1e-5)),
], ids=["temporal", "spatial", "blowup"])
def test_report_is_its_families(cfg):
    # the report's rows are its families' rows in order; each row's x_name
    # field is the x its family was fitted on, and the text writer prints one
    # block per family: header, one line per row, fitted rates
    rep = run_experiment(dataclasses.replace(cfg, fmt="text"))
    assert rep.rows == tuple(r for fam in rep.families for r in fam.rows)
    fit = loglog_slope if cfg.study == "blowup" else fitted_rate
    lines = emit_report(rep).splitlines()
    label = "normalized" if rep.normalized else "absolute"
    for fam in rep.families:
        assert fam.x_name == {"temporal": "tau", "spatial": "h", "blowup": "t"}[cfg.study]
        xs = [getattr(r, fam.x_name) for r in fam.rows]
        l2s, h1s = [r.l2_error for r in fam.rows], [r.h1_error for r in fam.rows]
        assert [r.rate for r in fam.rows] == pair_rates(xs, l2s)
        assert (fam.l2_rate, fam.h1_rate) == (fit(xs, l2s), fit(xs, h1s))
        assert lines.pop(0) == f"# {fam.key}  ({label} errors)"
        assert lines.pop(0).split() == [fam.x_name, "l2_error", "h1_error", "rate"]
        for x in xs:
            assert lines.pop(0).split()[0] == f"{x:.6g}"
        assert lines.pop(0) == f"fitted: l2 rate {fam.l2_rate:.3f}, h1 rate {fam.h1_rate:.3f}"
        assert lines.pop(0) == ""
    assert not lines


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
    # one table maps each config-file key to its ExperimentConfig field,
    # which is also its flag's dest, the cast of its text and its help
    actions = [a for a in cli.build_parser()._actions if a.dest not in ("help", "config")]
    flags = {opt[2:] for a in actions for opt in a.option_strings if opt.startswith("--")}
    assert set(cli._KEYS) == flags
    cfgfile = tmp_path / "all.cfg"
    cfgfile.write_text("".join(f"{key} = x\n" for key in cli._KEYS))
    assert set(read_config_file(str(cfgfile))) == set(cli._KEYS)
    assert {field for field, _, _ in cli._KEYS.values()} == {a.dest for a in actions}


def test_cli_keys_map_one_to_one_onto_config_fields():
    # a setting added to only one of cli._KEYS and ExperimentConfig, or one
    # field read by two keys, fails here
    fields = sorted(field for field, _, _ in cli._KEYS.values())
    assert fields == sorted(f.name for f in dataclasses.fields(ExperimentConfig))


def test_config_file_parser(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("example=b\nt = 0.1 0.01   # times\n\n")
    vals = read_config_file(str(f))
    assert vals == {"example": "b", "t": "0.1 0.01"}
    f.write_text("projection l2\n")
    with pytest.raises(ValueError):
        read_config_file(str(f))


def test_config_file_value_keeps_its_hash(tmp_path, capsys):
    # a '#' starts a comment only at the start of a line or after whitespace,
    # so an output path with a '#' in it is written whole
    out = tmp_path / "res#1.csv"
    f = tmp_path / "c.cfg"
    f.write_text(f"# a study\nexample = a\nk = 3\nN = 4\nt = 0.1\nout = {out}   # the report\n")
    assert read_config_file(str(f))["out"] == str(out)
    assert main(["--config", str(f)]) == 0
    assert capsys.readouterr().out == f"wrote 1 rows to {out}\n"
    assert len(read_report_csv(str(out))) == 1


def test_config_file_rejects_repeated_key(tmp_path, capsys):
    # a second value for a key must not silently replace the first
    f = tmp_path / "dup.cfg"
    f.write_text("example = a\nalpha = 0.1\n# comment\nalpha = 0.5\n")
    with pytest.raises(ValueError, match=rf"dup\.cfg:4: repeated key 'alpha'"):
        read_config_file(str(f))
    assert main(["--config", str(f), "--study", "temporal", "--k", "3", "--N", "4", "--t", "0.1"]) == 1
    assert "repeated key 'alpha'" in capsys.readouterr().err


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
