"""The traced per-layer report, the exact-repeat self-check and the seed spread.

    python3 perfbench/report.py trace [--seed 1] [--seconds 15]
    python3 perfbench/report.py selfcheck [--seed 1]
    python3 perfbench/report.py spread [--seeds 10] [--seconds 15]

``trace`` runs every workload twice in fresh interpreters, untraced and
traced, prints the per-layer table with one column per workload, and
the tracing overhead as traced against untraced ``ops_per_s`` with both
bases.  The end-to-end figures always come from the untraced run.  The
spans of each traced run are in ``.bench_out/spans-<workload>-<seed>.jsonl.gz``.

``selfcheck`` runs every workload twice with ``--seconds 0`` (exactly
``MIN_ROUNDS`` measured rounds) at one seed and fails unless ``messages_per_op``, ``frames_per_op`` and
``wire_bytes_per_op`` come out identical: a difference means work leaked
into or out of the measured phase.

``spread`` runs every workload untraced at seeds ``1..--seeds`` and
prints, per end-to-end metric, the median and the interquartile range as
a share of the median (``statistics.quantiles(values, n=4)``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

TRAFFIC = ("messages_per_op", "frames_per_op", "wire_bytes_per_op")


def run(workload: str, seed: int, *extra: str) -> dict:
    """One run of ``run.py`` in a fresh interpreter; its result line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), *extra]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{' '.join(command)} exited with {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  [{workload}] {line}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} operations failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def trace_report(seed: int, seconds: float) -> None:
    untraced, traced = {}, {}
    for name in WORKLOADS:
        untraced[name] = run(name, seed, "--seconds", str(seconds), "--trace", "0")
        traced[name] = run(name, seed, "--seconds", str(seconds), "--trace", "1")
    names = list(WORKLOADS)
    print(f"\nper-layer metrics, seed {seed}, {seconds:g} s per run")
    print(f"{'metric':42s}" + "".join(f"{n:>20s}" for n in names))
    for metric in traced[names[0]]:
        print(f"{metric:42s}" + "".join(f"{traced[n][metric]:20.4f}" for n in names))
    print("\nend-to-end metrics (untraced runs)")
    for metric in untraced[names[0]]:
        print(f"{metric:42s}" + "".join(f"{untraced[n][metric]:20.4f}" for n in names))
    print("\ntracing overhead on ops_per_s (untraced base -> traced)")
    for n in names:
        base = untraced[n]["ops_per_s"]
        with_spans = traced[n]["trace.ops_per_s"]
        print(f"{n:20s} untraced {base:8.2f} ops/s, traced {with_spans:8.2f} ops/s: "
              f"{100 * (base - with_spans) / base:+.1f}% of the untraced base, "
              f"{100 * (base - with_spans) / with_spans:+.1f}% of the traced base")


def selfcheck(seed: int) -> int:
    bad = 0
    for name in WORKLOADS:
        first, second = (
            run(name, seed, "--seconds", "0", "--trace", "0") for _ in range(2)
        )
        same = all(first[m] == second[m] for m in TRAFFIC)
        bad += not same
        print(f"{name:20s} " + ", ".join(f"{m}={first[m]}/{second[m]}" for m in TRAFFIC)
              + ("  identical" if same else "  DIFFERENT"))
    return 1 if bad else 0


def spread(seeds: int, seconds: float) -> None:
    for name in WORKLOADS:
        runs = [run(name, seed, "--seconds", str(seconds), "--trace", "0")
                for seed in range(1, seeds + 1)]
        print(f"\n{name}, seeds 1-{seeds}, {seconds:g} s per run")
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            median = statistics.median(values)
            low, _, high = statistics.quantiles(values, n=4)
            print(f"  {metric:20s} median {median:12.4f}   iqr/median {(high - low) / median:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("trace", "selfcheck", "spread"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    if args.command == "selfcheck":
        return selfcheck(args.seed)
    if args.command == "spread":
        spread(args.seeds, args.seconds)
    else:
        trace_report(args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
