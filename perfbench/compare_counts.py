"""Run the traced benchmark twice and check that the exact counts repeat.

Run from the repository root:

    python3 perfbench/compare_counts.py --workload multi-incidence --seed 1

The counts (spans.EXACT_COUNTS) depend only on the work done, so two traced
runs of the same code must report them equal to the last digit.  Exits 1 and
names the differing counts otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS  # noqa: E402


def traced_counts(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT_COUNTS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args(argv)
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    for name in EXACT_COUNTS:
        mark = "same" if first[name] == second[name] else "DIFFERENT"
        print(f"{args.workload:16s} {name:24s} {first[name]!r:>22} {second[name]!r:>22} {mark}")
    return 0 if first == second else 1


if __name__ == "__main__":
    sys.exit(main())
