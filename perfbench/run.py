"""Run one benchmark workload on a 16-node loopback cluster.

    python3 perfbench/run.py --workload topdown-uncached --seed 1 --seconds 15 --trace 0

Builds the program from ``src/`` of the checkout it sits in, sets the
cluster up ``SETUPS`` times (``setup_s`` is the median), runs one
unmeasured round, then runs whole rounds until ``--seconds`` have
passed (and at least ``MIN_ROUNDS``).  Every answer, the unmeasured
round's too, is checked against the benchmark's own oracle.
``peak_rss_mb`` is read after exactly ``MIN_ROUNDS`` measured rounds,
so it does not grow with the number of rounds a faster program fits
into the time.
Diagnostics (seed, CPU affinity, host steal share, per-round traffic)
go to standard output first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(spans then go to ``.bench_out/spans-<workload>-<seed>.jsonl.gz``).

The process pins itself to one CPU before any thread starts: every RPC
crosses four threads under one interpreter lock, and on two vCPUs an
unpinned run migrates those threads between CPUs, which made the same
walk 1.6x slower and far less repeatable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


# At least two measured rounds, so every run has over 100 search samples
# however slow the program gets; peak_rss_mb is read after exactly these.
MIN_ROUNDS = 2


def pin_to_one_cpu() -> set[int]:
    """Pin this process (and every thread it will start) to the highest
    CPU it may use; returns the resulting affinity."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return os.sched_getaffinity(0)


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of the whole host, from /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except OSError:
        return 0, 0
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user time.
    total = sum(fields[:8])
    steal = fields[7] if len(fields) > 7 else 0
    return steal, total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program source at {ROOT / 'src' / 'repro'}")
    affinity = pin_to_one_cpu()
    from perfbench import workloads as wl  # after pinning: importing starts no thread

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    print(f"workload={workload.name} seed={args.seed} cpu_affinity={sorted(affinity)}")

    inputs = wl.make_inputs(workload, args.seed)
    deployment, setup_times = wl.set_up(workload, inputs)
    try:
        oracle = wl.Oracle(inputs.preload)
        warm = wl.run_round(deployment, workload, inputs.round, oracle)
        tracer = None
        if args.trace:
            from perfbench import tracing

            tracer = tracing.Tracer()
            tracing.instrument(tracer, deployment)
            metrics = deployment.cluster.transport.metrics
            counters_before = metrics.counters()
            samples_before = tracing.samples_retained(metrics)
        opened = deployment.counters()["net.connections_opened"]
        steal_before, total_before = cpu_times()
        rounds = []
        started = time.perf_counter()
        while True:
            rounds.append(wl.run_round(deployment, workload, inputs.round, oracle, tracer))
            if len(rounds) == MIN_ROUNDS:
                peak_rss = wl.peak_rss_mb()
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() - started >= args.seconds:
                break
        steal_after, total_after = cpu_times()
        opened = deployment.counters()["net.connections_opened"] - opened
        if tracer is not None:
            counters_after = metrics.counters()
            delta = {
                name: counters_after.get(name, 0) - counters_before.get(name, 0)
                for name in tracing.PROGRAM_COUNTERS
            }
            samples = tracing.samples_retained(metrics) - samples_before
    finally:
        deployment.close()

    ops = sum(r.ops for r in rounds)
    # The unmeasured round is checked like the others: a failure on the
    # pass that first fills the caches must not stay hidden.
    failures = warm.failures + [f for r in rounds for f in r.failures]
    steal = (steal_after - steal_before) / max(1, total_after - total_before)
    print(f"setup_s runs: {', '.join(f'{s:.3f}' for s in setup_times)}")
    print(f"rounds={len(rounds)} ops_per_round={len(inputs.round)} "
          f"connections_opened_in_measured_phase={opened} host_steal_share={steal:.4f}")
    print("ops/s per round: " + " ".join(f"{r.ops / r.busy_s:.2f}" for r in rounds))
    traffic = {r.traffic for r in rounds}
    print(f"traffic per round (messages, frames, bytes): "
          f"{'identical ' + str(rounds[0].traffic) if len(traffic) == 1 else sorted(traffic)}"
          f"; warm-up round {warm.traffic}")
    for failure in sorted(set(failures))[:10]:
        print(f"FAILED: {failure}")

    if tracer is None:
        metrics_out = wl.summarize(rounds, setup_times, peak_rss)
    else:
        out = wl.OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl.gz"
        tracer.write(out)
        print(f"spans: {len(tracer.spans)} written to {out}")
        metrics_out = tracing.per_layer(
            tracer, ops, sum(r.busy_s for r in rounds), delta, samples
        )
    print(json.dumps({
        "correct": not failures,
        "attempted": warm.ops + ops,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics_out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
