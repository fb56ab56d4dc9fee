#!/usr/bin/env python3
"""Run perfbench on every workload and seed and write one BENCH_<n>.json.

    python3 tools/bench_snapshot.py BENCH_2.json
    python3 tools/bench_snapshot.py BENCH_1.json --checkout ../provlab-parent

Each workload runs for ``SECONDS`` per seed in ``SEEDS``, once untraced (the
end-to-end metrics) and once traced (the per-layer metrics), one run at a
time, from the checkout given (by default the one holding this script).  The
checkout must be a git commit with no uncommitted change to a tracked file,
so the commit the file names is the code it measured.  The file records
every run's last output line, the median over seeds of each metric and its
minimum and maximum, the commit, the line count of its ``src/provlab``
files, and the Python, ``cryptography`` and machine it ran on.  A perf claim
compares two such files; a metric whose medians differ by less than either
file's spread (maximum minus minimum) is unresolved between them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

WORKLOADS = ("corpus-mix", "large-asset", "online-status")
SEEDS = (1, 2, 3)
SECONDS = 10


def run_perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> tuple[dict, dict]:
    """Per workload and trace setting, the median over seeds of each metric,
    and its ``[minimum, maximum]`` over seeds."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        key = f"{run['workload']}/trace{run['trace']}"
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    medians = {
        key: {name: statistics.median(series) for name, series in metrics.items()}
        for key, metrics in values.items()
    }
    ranges = {
        key: {name: [min(series), max(series)] for name, series in metrics.items()}
        for key, metrics in values.items()
    }
    return medians, ranges


def commit_of(checkout: Path) -> str | None:
    """HEAD, with a ``-dirty`` suffix when tracked files differ from it."""
    done = subprocess.run(
        ["git", "describe", "--always", "--abbrev=40", "--dirty"],
        cwd=checkout, capture_output=True, text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def src_lines(checkout: Path) -> int:
    return sum(
        len(path.read_bytes().splitlines())
        for path in (checkout / "src" / "provlab").glob("*.py")
    )


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", type=Path, help="the BENCH_<n>.json file to write")
    parser.add_argument(
        "--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
        help="provlab checkout to measure (default: this one)",
    )
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    commit = commit_of(checkout)
    if commit is None or commit.endswith("-dirty"):
        parser.error(f"{checkout} is not a clean git checkout; commit the code to measure first")

    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                result = run_perfbench(checkout, workload, seed, trace)
                runs.append({"workload": workload, "seed": seed, "trace": trace, "result": result})
                print(
                    f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                    f"failed {result['failed']} of {result['attempted']}",
                    file=sys.stderr,
                )
    medians, ranges = summarize(runs)
    snapshot = {
        "commit": commit,
        "src_lines": src_lines(checkout),
        "seconds": SECONDS,
        "seeds": list(SEEDS),
        "python": sys.version,
        "cryptography": metadata.version("cryptography"),
        "machine": {
            "platform": platform.platform(),
            "cpu": cpu_model(),
            "cpu_count": os.cpu_count(),
        },
        "medians": medians,
        "ranges": ranges,
        "runs": runs,
    }
    args.output.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return 0 if all(run["result"]["correct"] is True for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
