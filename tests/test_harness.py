import ast
import dataclasses
import inspect
import json
import os
import pathlib
import platform

import numpy as np
import pytest
import scipy

import helmbie
from helmbie import cli, formulations, harness, operators
from helmbie.cli import main
from helmbie.harness import (
    ConfigError,
    StudyConfig,
    run_convergence,
    run_verification,
)
from helmbie.operators import OperatorFamily

FAST_STUDY = """
# small self-convergence study used by the test suite
curve = kite
k_plus = 8.0
k_minus = 8.0        # matched media: all errors at roundoff level
nu = 1.0
formulations = l1
n_ladder = 24,32
n_reference = 64
directions = 36
"""


def test_defaults_build():
    cfg = StudyConfig.from_mapping({})
    assert cfg.curve == "kite"
    assert cfg.n_reference >= 2 * max(cfg.n_ladder)
    prob = cfg.build_problem()
    assert prob.k_minus == 32.0


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        StudyConfig.from_mapping({"wavenumber": 3})
    with pytest.raises(ConfigError, match="threads"):
        StudyConfig.from_mapping({"threads": "2"})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        StudyConfig.from_mapping({"k_plus": "-2"})
    with pytest.raises(ConfigError):
        StudyConfig.from_mapping({"formulations": "l9"})
    with pytest.raises(ConfigError):
        StudyConfig.from_mapping({"n_reference": "100"})  # < 2 x 160
    with pytest.raises(ConfigError):
        StudyConfig.from_mapping({"solver": "cg"})
    with pytest.raises(ConfigError):
        StudyConfig.from_mapping({"n_ladder": "abc"})
    with pytest.raises(ConfigError, match="k_plus"):
        StudyConfig.from_mapping({"k_plus": "nan"})
    with pytest.raises(ConfigError, match="nu"):
        StudyConfig.from_mapping({"nu": "inf"})
    for direction in ("0,0", "1,0,5", "1"):
        with pytest.raises(ConfigError, match="direction"):
            StudyConfig.from_mapping({"direction": direction})
    with pytest.raises(ConfigError, match="kappa"):
        StudyConfig.from_mapping({"kappa": "8,0.5,7"})
    for curve, params in (("circle", "0"), ("circle", "nan"), ("ellipse", "2,0"),
                          ("ellipse", "2,-1")):
        with pytest.raises(ConfigError, match="curve"):
            StudyConfig.from_mapping({"curve": curve, "curve_params": params})
    with pytest.raises(ConfigError, match="boundary"):
        StudyConfig.from_mapping({"incident": "point", "source": "1,0"})
    with pytest.raises(ConfigError, match="inside the curve"):
        StudyConfig.from_mapping({"incident": "point", "source": "0.1,0.2"})
    # the default source lies outside every built-in curve
    for curve in ("circle", "ellipse", "kite", "cavity"):
        StudyConfig.from_mapping({"incident": "point", "curve": curve})
    with pytest.raises(ConfigError, match=">= 8"):
        StudyConfig.from_mapping({"n_ladder": "4", "n_reference": "16"})


@pytest.mark.parametrize("key,value,message", [
    ("kappa", "8", "kappa must be finite with a positive imaginary part"),
    ("kappa", "8,-0.5", "kappa must be finite with a positive imaginary part"),
    ("kappa", "nan,0.5", "kappa must be finite with a positive imaginary part"),
    ("rho", "0", "rho must be a finite nonzero real number"),
    ("rho", "nan", "rho must be a finite nonzero real number"),
    ("gmres_tol", "0", "GMRES tol must be finite and positive"),
    ("gmres_tol", "-1", "GMRES tol must be finite and positive"),
    ("gmres_tol", "nan", "GMRES tol must be finite and positive"),
    ("gmres_tol", "inf", "GMRES tol must be finite and positive"),
])
def test_config_rejects_what_assemble_would(tmp_path, capsys, key, value, message):
    # the config check runs the resolvers of assemble and the check of gmres,
    # so a bad kappa, rho or gmres_tol is a config error (exit 1), not a
    # failed cell (exit 2)
    with pytest.raises(ConfigError, match=message):
        StudyConfig.from_mapping({key: value})
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_STUDY + f"{key} = {value}\nout_dir = {tmp_path / 'out'}\n")
    for command in ("solve", "study"):
        assert main(["--config", str(cfg), command]) == 1
        assert message in capsys.readouterr().err


def test_config_rejects_repeated_cells():
    with pytest.raises(ConfigError, match="formulations repeats"):
        StudyConfig.from_mapping({"formulations": "l1,l2,l1"})
    with pytest.raises(ConfigError, match="n_ladder repeats"):
        StudyConfig.from_mapping({"n_ladder": "96,96"})


def test_every_key_round_trips_with_its_default(tmp_path):
    keys = dataclasses.fields(StudyConfig)
    assert len(keys) == 19
    path = tmp_path / "defaults.cfg"
    path.write_text("".join(f"{key.name} = {key.metadata['default']}  "
                            f"# {key.metadata['doc']}\n" for key in keys))
    assert StudyConfig.from_file(path) == StudyConfig.from_mapping({})
    with pytest.raises(ConfigError, match="source_side"):
        StudyConfig.from_mapping({"source_side": "interior"})


def test_gmres_tol_has_one_default():
    # solve used to default to 1e-12 while gmres and the config key read 1e-10
    key = next(k for k in dataclasses.fields(StudyConfig) if k.name == "gmres_tol")
    defaults = {float(key.metadata["default"]),
                inspect.signature(formulations.solve).parameters["tol"].default,
                inspect.signature(helmbie.linalg.gmres).parameters["tol"].default}
    assert defaults == {1e-10}


def test_config_file_parsing(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(FAST_STUDY)
    cfg = StudyConfig.from_file(path)
    assert cfg.k_minus == 8.0
    assert cfg.formulations == ("l1",)
    assert cfg.n_ladder == (24, 32)
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    with pytest.raises(ConfigError):
        StudyConfig.from_file(bad)


def test_matched_media_study_errors_vanish(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(FAST_STUDY)
    cfg = StudyConfig.from_file(path)
    report = run_convergence(cfg)
    assert len(report.rows) == 2
    for row in report.rows:
        assert not row.failure
        assert row.error_linf <= 1e-12
    csv = report.to_csv()
    assert csv.splitlines()[0] == "formulation,N,error_linf,iters,seconds"
    payload = json.loads(report.to_json())
    assert payload["reference"] == "l1 at N=64"
    assert len(payload["rows"]) == 2


def test_self2x_reference(tmp_path):
    cfg = StudyConfig.from_mapping({
        "k_plus": "2.0",
        "k_minus": "2.0",
        "formulations": "l2",
        "n_ladder": "24",
        "reference_formulation": "self2x",
        "directions": "36",
    })
    report = run_convergence(cfg)
    assert report.reference_label == "self at 2N"
    # matched media: the error is pure discretization noise of the solve
    assert report.rows[0].error_linf <= 1e-6


@pytest.mark.parametrize("solver", ["lu", "gmres"])
def test_study_rows_carry_rcond(monkeypatch, solver):
    solve_cell = harness.solve_cell

    def failing_cell(config, form, N):
        if N == 24:
            raise ValueError("cell failed on purpose")
        return solve_cell(config, form, N)

    monkeypatch.setattr(harness, "solve_cell", failing_cell)
    cfg = StudyConfig.from_mapping({
        "k_minus": "8.0",
        "formulations": "l1",
        "n_ladder": "16,24",
        "n_reference": "48",
        "directions": "18",
        "solver": solver,
    })
    report = run_convergence(cfg)
    ok, failed = report.rows
    assert failed.failure and failed.diagnostics is None
    rcond = ok.diagnostics.rcond
    if solver == "lu":
        assert 0.0 < rcond <= 1.0
    else:
        assert rcond is None
    rows = json.loads(report.to_json())["rows"]
    assert [row["rcond"] for row in rows] == [rcond, None]
    assert report.to_csv().splitlines()[0] == "formulation,N,error_linf,iters,seconds"


def test_every_cell_assembles_its_own_system(monkeypatch):
    # cell (l1, 16) has the key of the reference (l1, 16); its seconds must
    # still include assembly, like every other cell's
    families = []

    def counted_family(*args, **kw):
        families.append(args[2])
        return OperatorFamily(*args, **kw)

    monkeypatch.setattr(formulations, "OperatorFamily", counted_family)
    cfg = StudyConfig.from_mapping({
        "k_plus": "2.0", "k_minus": "3.0", "formulations": "l1",
        "n_ladder": "8,16", "reference_formulation": "self2x",
        "directions": "8",
    })
    report = run_convergence(cfg)
    assert not any(r.failure for r in report.rows)
    # two families (k+, k-) per solve: references at 16 and 32, cells 8 and 16
    assert sorted(families) == [8, 8, 16, 16, 16, 16, 32, 32]


def test_reports_are_deterministic(tmp_path):
    cfg_text = FAST_STUDY
    path = tmp_path / "study.cfg"
    path.write_text(cfg_text)
    first = run_convergence(StudyConfig.from_file(path)).to_csv()
    second = run_convergence(StudyConfig.from_file(path)).to_csv()
    # timing columns differ; everything physical must be bit-identical
    strip = lambda csv: [",".join(r.split(",")[:4]) for r in csv.splitlines()]
    assert strip(first) == strip(second)


def test_failing_shared_reference_solved_once(monkeypatch):
    calls = []

    def solve_cell(config, form, N):
        calls.append((form, N))
        raise ValueError("reference diverged")

    monkeypatch.setattr(harness, "solve_cell", solve_cell)
    cfg = StudyConfig.from_mapping({
        "formulations": "l1,l2", "n_ladder": "24,32", "n_reference": "64",
        "directions": "36",
    })
    report = run_convergence(cfg)
    assert calls == [("l1", 64)]
    assert len(report.rows) == 4
    assert all(r.failure == "reference diverged" for r in report.rows)


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_verification("spectralify")


def test_weights_suite_passes(verification_reports):
    rep = verification_reports["weights"]
    assert rep.passed
    assert any("quadrature oracle" in c.label for c in rep.checks)


def test_extinction_suite_passes(verification_reports):
    rep = verification_reports["extinction"]
    assert rep.passed


def test_rates_suite_fails_when_no_rate_is_binding(monkeypatch):
    # with every error at the roundoff floor no decay factor is checked;
    # the suite must not pass on its separation checks alone
    monkeypatch.setattr(harness, "_h0_errors", lambda curve, k: {
        N: {"plain": 1e-15, "tilde": 1e-15} for N in (32, 48, 64)
    })
    rep = run_verification("rates")
    assert not rep.passed
    assert [c.label for c in rep.checks if not c.ok] == ["binding decay factors"]


# ------------------------------------------------------------------- CLI


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "weights"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] suite weights" in out


def test_cli_study_and_solve(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(FAST_STUDY + f"out_dir = {tmp_path/'out'}\n")
    assert main(["--config", str(cfg), "study"]) == 0
    assert (tmp_path / "out" / "study.csv").exists()
    assert (tmp_path / "out" / "study.json").exists()
    capsys.readouterr()
    assert main(["--config", str(cfg), "solve"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["formulation"] == "l1"
    assert 0.0 < payload["rcond"] <= 1.0
    assert (tmp_path / "out" / "farfield_l1_N32.csv").exists()


def test_cli_solve_and_one_cell_study_write_the_same_far_field(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("k_minus = 16.0\nformulations = l3\nn_ladder = 32\n"
                   "n_reference = 64\ndirections = 36\ndump_farfield = true\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "solve"), "solve"]) == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path / "study"), "study"]) == 0
    csvs = [(tmp_path / run / "farfield_l3_N32.csv").read_bytes()
            for run in ("solve", "study")]
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("solver", ["lu", "gmres"])
def test_solve_json_and_one_cell_study_row_agree(tmp_path, capsys, solver):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(FAST_STUDY.replace("n_ladder = 24,32", "n_ladder = 32")
                   + f"solver = {solver}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "solve"]) == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path), "study"]) == 0
    solved = json.loads((tmp_path / "solve_l1_N32.json").read_text())
    row, = json.loads((tmp_path / "study.json").read_text())["rows"]
    keys = ("formulation", "N", "solver", "iterations", "residual", "rcond", "history")
    assert {key: solved[key] for key in keys} == {key: row[key] for key in keys}
    assert solved["solver"] == solver
    if solver == "lu":
        assert solved["history"] is None and solved["iterations"] == 0
    else:
        assert len(solved["history"]) == solved["iterations"] + 1 > 1
    cell = set(harness.cell_fields("l1", 32, None, 0.0))
    assert set(solved) == cell | {"farfield_csv", "max_farfield_amplitude",
                                  "environment"}
    assert set(row) == cell | {"error_linf", "failure"}


def test_solve_and_study_json_carry_the_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = tmp_path / "one.cfg"
    cfg.write_text(FAST_STUDY.replace("n_ladder = 24,32", "n_ladder = 32"))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "solve"]) == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path), "study"]) == 0
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    for name in ("solve_l1_N32.json", "study.json"):
        env = json.loads((tmp_path / name).read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        assert env["helmbie"] == helmbie.__version__
        assert env["cores"] == len(os.sched_getaffinity(0)) >= 1
        assert set(env["thread_variables"]) == set(threads)
        assert env["thread_variables"]["OPENBLAS_NUM_THREADS"] == "2"
        assert env["thread_variables"]["MKL_NUM_THREADS"] is None


def test_environment_without_an_affinity_call(tmp_path, capsys, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: the machine's count
    # stands in, and the study still writes its JSON
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness.environment()["cores"] == os.cpu_count()
    cfg = tmp_path / "one.cfg"
    cfg.write_text(FAST_STUDY.replace("n_ladder = 24,32", "n_ladder = 24"))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "study"]) == 0
    env = json.loads((tmp_path / "study.json").read_text())["environment"]
    assert env["cores"] == os.cpu_count()


@pytest.mark.parametrize("command", ["solve", "study"])
def test_cli_out_naming_a_file_fails_before_any_cell(tmp_path, capsys, monkeypatch,
                                                     command):
    # the output directory is made before the first cell is solved, and an
    # --out that cannot be one is a config error
    solved, solve_cell = [], harness.solve_cell

    def recorded(config, form, N):
        solved.append((form, N))
        return solve_cell(config, form, N)

    monkeypatch.setattr(harness, "solve_cell", recorded)
    monkeypatch.setattr(cli, "solve_cell", recorded)
    cfg = tmp_path / "study.cfg"
    cfg.write_text(FAST_STUDY)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--config", str(cfg), "--out", str(taken), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(taken) in err
    assert err.count("\n") == 1
    assert solved == []
    assert taken.read_text() == ""


def test_cli_imports_no_private_harness_name():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module in ("harness", "helmbie.harness")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("curve = dodecahedron\n")
    assert main(["--config", str(cfg), "study"]) == 1
    cfg.write_text(FAST_STUDY + "direction = 1,0,5\n" + f"out_dir = {tmp_path/'out'}\n")
    assert main(["--config", str(cfg), "study"]) == 1
    cfg.write_text(FAST_STUDY + "curve = circle\ncurve_params = 0\n"
                   + f"out_dir = {tmp_path/'out'}\n")
    assert main(["--config", str(cfg), "study"]) == 1
    assert main(["--config", str(tmp_path / "missing.cfg"), "study"]) == 1


@pytest.mark.parametrize("argv", [["verify", "bogus"], [], ["solve", "--bogus"]])
def test_cli_usage_error_is_a_config_error(capsys, argv):
    # argparse exits with 2 on a usage error, which is the solver-failure code
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: helmbie")
    assert err.splitlines()[-1].startswith("config error:")


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_cli_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: helmbie")


@pytest.mark.parametrize("content", [None, b"curve = kite\n\xff\xfe\n"],
                         ids=["directory", "not-utf8"])
@pytest.mark.parametrize("command", ["solve", "study"])
def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys, command, content):
    path = tmp_path / "study.cfg"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read the config file {path}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "study"])
def test_cli_point_source_on_boundary_exit_code(tmp_path, capsys, command):
    # the kite passes through (1, 0) at t = 0
    cfg = tmp_path / "boundary.cfg"
    cfg.write_text(FAST_STUDY + "incident = point\nsource = 1,0\n"
                   + f"out_dir = {tmp_path/'out'}\n")
    assert main(["--config", str(cfg), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "boundary" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "study"])
def test_cli_point_source_inside_the_curve_exit_code(tmp_path, capsys, command):
    cfg = tmp_path / "inside.cfg"
    cfg.write_text(FAST_STUDY + "incident = point\nsource = 0.1,0.2\n"
                   + f"out_dir = {tmp_path/'out'}\n")
    assert main(["--config", str(cfg), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "inside the curve" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--config", "missing.cfg", "verify", "weights"],
    ["verify", "weights", "--config", "missing.cfg"],
    ["--out", "out", "verify", "weights"],
    ["verify", "weights", "--out", "out"],
])
def test_cli_verify_rejects_config_and_out(tmp_path, capsys, monkeypatch, argv):
    # the suites read no config and write nothing, so either flag is an error
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # an unreachable gmres tolerance fails the cell and flips the exit code
    cfg = tmp_path / "study.cfg"
    cfg.write_text(FAST_STUDY + "solver = gmres\ngmres_tol = 1e-30\n"
                   + f"out_dir = {tmp_path/'out'}\n")
    assert main(["--config", str(cfg), "study"]) == 2
    capsys.readouterr()
    assert main(["--config", str(cfg), "solve"]) == 2


def test_config_rejects_a_nonfinite_source():
    with pytest.raises(ConfigError, match="finite"):
        StudyConfig.from_mapping({"incident": "point", "source": "nan,0"})


def test_cells_at_one_n_build_their_own_families(monkeypatch):
    # cells (l1, 8) and (l2, 8) share curve, wavenumbers and N; each still
    # builds its two families (k+, k-) and pays for them in its seconds
    families = []

    def counted_family(*args, **kw):
        families.append(args[2])
        return OperatorFamily(*args, **kw)

    monkeypatch.setattr(formulations, "OperatorFamily", counted_family)
    cfg = StudyConfig.from_mapping({
        "k_plus": "2.0", "k_minus": "3.0", "formulations": "l1,l2",
        "n_ladder": "8", "n_reference": "16", "directions": "8",
    })
    report = run_convergence(cfg)
    assert not any(r.failure for r in report.rows)
    assert sorted(families) == [8, 8, 8, 8, 16, 16]


def test_cli_solve_writes_stages(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(FAST_STUDY + f"out_dir = {tmp_path/'out'}\n")
    assert main(["--config", str(cfg), "solve"]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "out" / "solve_l1_N32.json").read_text())
    stages = payload["stages"]
    assert set(stages) == {"assemble", "factor", "solve", "residual"}
    assert stages["factor"] > 0.0  # a fresh system is factored
    assert sum(stages.values()) <= payload["seconds"]


def test_study_rows_carry_stages(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(FAST_STUDY + f"out_dir = {tmp_path/'out'}\n")
    assert main(["--config", str(cfg), "study"]) == 0
    rows = json.loads((tmp_path / "out" / "study.json").read_text())["rows"]
    for row in rows:
        assert set(row["stages"]) == {"assemble", "factor", "solve", "residual"}
        assert sum(row["stages"].values()) <= row["seconds"]


def test_cli_solve_nonfinite_block_exit_code(tmp_path, capsys, monkeypatch):
    # a build that fails a study cell fails a solve with the solver exit code
    ef = operators.ef_matrices

    def poisoned(ctx, N):
        e_mat, f_mat, *expanded = ef(ctx, N)
        f_mat[3, 5] = np.nan
        return (e_mat, f_mat, *expanded)

    monkeypatch.setattr(operators, "ef_matrices", poisoned)
    formulations.empty_slot()  # no kept system may stand in for the build
    cfg = tmp_path / "study.cfg"
    cfg.write_text(FAST_STUDY + f"out_dir = {tmp_path/'out'}\n")
    assert main(["--config", str(cfg), "solve"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and "non-finite entries in block a21" in err
