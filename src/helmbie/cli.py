"""Command-line driver.

    helmbie solve  --config cfg [--out DIR]   single (formulation, N) run
    helmbie study  --config cfg [--out DIR]   convergence ladder -> CSV + JSON
    helmbie verify SUITE [SUITE ...]          verification batteries

``verify`` prints the reports the acceptance criteria of the test suite check.
Exit codes: 0 ok, 1 config error (a usage error included), 2 solver failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .harness import (
    CELL_ERRORS,
    ConfigError,
    StudyConfig,
    VERIFICATION_SUITES,
    cell_fields,
    environment,
    run_convergence,
    run_verification,
    solve_cell,
    write_far_field,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


def _load_config(args) -> StudyConfig:
    if args.config is None:
        cfg = StudyConfig.from_mapping({})
    else:
        cfg = StudyConfig.from_file(args.config)
    if args.out is not None:
        cfg.out_dir = Path(args.out)
    # made before the first cell is solved, so that an output path that
    # cannot be a directory fails the run before any work is done
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory: {exc}") from exc
    return cfg


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    form, n = cfg.formulations[0], max(cfg.n_ladder)
    try:
        result, ff, seconds = solve_cell(cfg, form, n)
    except CELL_ERRORS as exc:  # what fails a study cell fails a solve
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    summary = {
        **cell_fields(form, n, result.diagnostics, seconds),
        "farfield_csv": str(write_far_field(cfg.out_dir, form, n, ff)),
        "max_farfield_amplitude": float(np.max(np.abs(ff.values))),
        "environment": environment(),
    }
    (cfg.out_dir / f"solve_{form}_N{n}.json").write_text(
        json.dumps(summary, indent=2)
    )
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_study(args) -> int:
    cfg = _load_config(args)
    report = run_convergence(cfg)
    (cfg.out_dir / "study.csv").write_text(report.to_csv())
    (cfg.out_dir / "study.json").write_text(report.to_json())
    print(report.to_csv(), end="")
    failures = [r for r in report.rows if r.failure]
    for row in failures:
        print(f"cell ({row.formulation}, {row.N}) failed: {row.failure}",
              file=sys.stderr)
    return EXIT_SOLVER if failures else EXIT_OK


def _cmd_verify(args) -> int:
    # the suites read no config and write no file, so neither flag would act
    if args.config is not None or args.out is not None:
        raise ConfigError("verify takes neither --config nor --out")
    failed = False
    for suite in args.suites:
        report = run_verification(suite)
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] suite {suite}")
        for line in report.lines():
            print(line)
        failed = failed or not report.passed
    return EXIT_VERIFY if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2, the solver-failure code
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_common(parser, suppress: bool):
    # the flags are accepted both before and after the subcommand; the
    # subparser copies use SUPPRESS so an absent flag keeps the outer value
    kw = {"default": argparse.SUPPRESS} if suppress else {"default": None}
    parser.add_argument("--config", help="key = value config file", **kw)
    parser.add_argument("--out", help="output directory", **kw)


def main(argv=None) -> int:
    parser = _Parser(
        prog="helmbie",
        description="Spectral boundary-integral solver for 2D Helmholtz "
        "transmission problems",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="single run at the largest ladder N")
    _add_common(p_solve, suppress=True)
    p_solve.set_defaults(fn=_cmd_solve)
    p_study = sub.add_parser("study", help="convergence ladder")
    _add_common(p_study, suppress=True)
    p_study.set_defaults(fn=_cmd_study)
    p_verify = sub.add_parser("verify", help="verification suites")
    _add_common(p_verify, suppress=True)
    p_verify.add_argument(
        "suites", nargs="+", choices=sorted(VERIFICATION_SUITES),
        help="suite names",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
