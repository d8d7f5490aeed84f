"""Bench net — loopback RPC throughput/latency and codec micro-costs.

Two levels of measurement, one artifact:

* ``codec-frame`` micro rows — per-frame encode/decode CPU cost and
  bytes on the wire for the protocol's representative frame shapes (an
  index put, a scan request, a posting-heavy scan reply, a gossip
  datagram).
* ``raw-rpc`` / ``superset-search`` cluster rows — the end-to-end
  transport cost over real loopback sockets.
"""

import pathlib
import time

from repro.core.config import ServiceConfig
from repro.experiments.harness import ExperimentResult
from repro.net.cluster import LocalCluster
from repro.net.codec import PostingList
from repro.net.wire import Frame, FrameType, decode_frame, encode_frame

from benchmarks.conftest import run_once

BASELINE_JSON = pathlib.Path(__file__).parent.parent / "BENCH_net.json"

CONFIG = ServiceConfig(dimension=6, num_dht_nodes=16, seed=11, cache_capacity=8)
RAW_RPCS = 2_000
QUERIES = 200
MICRO_OPS = 2_000
ROUNDS = 3

# The frame shapes the protocol actually sends, hot-path first.
FRAME_SHAPES = {
    "put": Frame(
        FrameType.REQUEST, "hindex.put", 12, 34, 7,
        {
            "logical": 5,
            "object_id": "paper.pdf",
            "keywords": frozenset({"dht", "search", "p2p"}),
        },
    ),
    "scan-request": Frame(
        FrameType.REQUEST, "hindex.scan", 12, 34, 8,
        {"logical": 5, "keywords": frozenset({"dht"}), "limit": 10},
    ),
    "scan-reply": Frame(
        FrameType.REPLY, "hindex.scan", 34, 12, 8,
        {
            "matches": PostingList(
                (frozenset({f"kw-{i}", "dht"}), (f"object-{i}.pdf",)) for i in range(8)
            ),
            "truncated": False,
        },
    ),
    "gossip": Frame(
        FrameType.GOSSIP, "memb.gossip", 12, 34, 0,
        {"heard": {str(n): (n, 1000 + n) for n in range(8)}, "round": 12},
    ),
}


def codec_micro_rows(micro_ops: int = MICRO_OPS) -> list[dict]:
    """Encode/decode µs per frame and bytes on the wire, per shape."""
    rows = []
    for shape, frame in FRAME_SHAPES.items():
        data = encode_frame(frame)
        started = time.process_time()
        for _ in range(micro_ops):
            encode_frame(frame)
        encode_cpu = time.process_time() - started
        started = time.process_time()
        for _ in range(micro_ops):
            decode_frame(data)
        decode_cpu = time.process_time() - started
        rows.append(
            {
                "load": "codec-frame",
                "shape": shape,
                "bytes": len(data),
                "encode_us": round(encode_cpu / micro_ops * 1e6, 3),
                "decode_us": round(decode_cpu / micro_ops * 1e6, 3),
            }
        )
    return rows


def run_cluster(
    config: ServiceConfig, raw_rpcs: int, queries: int
) -> tuple[list[dict], list[str]]:
    """The two cluster loads; rows carry per-load bytes-on-the-wire
    deltas."""
    rows = []
    with LocalCluster(config) as cluster:
        transport = cluster.transport
        addresses = cluster.addresses()
        src, dst = addresses[0], addresses[-1]

        transport.rpc(src, dst, "chord.get_predecessor", {})  # open the pooled connection
        transport.metrics.reset("net.rpc_latency")
        bytes_before = transport.metrics.counter("net.bytes_sent")
        started = time.monotonic()
        for _ in range(raw_rpcs):
            transport.rpc(src, dst, "chord.get_predecessor", {})
        elapsed = time.monotonic() - started
        latency = transport.metrics.summary("net.rpc_latency")
        rows.append(
            {
                "load": "raw-rpc",
                "operations": raw_rpcs,
                "ops_per_s": round(raw_rpcs / elapsed, 1),
                "bytes_sent": transport.metrics.counter("net.bytes_sent") - bytes_before,
                "latency_ms_p50": round(latency.p50 * transport.time_scale * 1e3, 4),
                "latency_ms_p95": round(latency.p95 * transport.time_scale * 1e3, 4),
                "latency_ms_p99": round(latency.p99 * transport.time_scale * 1e3, 4),
            }
        )

        service = cluster.service
        for number in range(64):
            service.publish(f"object-{number}", {"common", f"rare-{number % 8}"})
        transport.metrics.reset("net.rpc_latency")
        bytes_before = transport.metrics.counter("net.bytes_sent")
        started = time.monotonic()
        for number in range(queries):
            service.superset_search({"common", f"rare-{number % 8}"}, threshold=4)
        elapsed = time.monotonic() - started
        latency = transport.metrics.summary("net.rpc_latency")
        rows.append(
            {
                "load": "superset-search",
                "operations": queries,
                "ops_per_s": round(queries / elapsed, 1),
                "bytes_sent": transport.metrics.counter("net.bytes_sent") - bytes_before,
                "latency_ms_p50": round(latency.p50 * transport.time_scale * 1e3, 4),
                "latency_ms_p95": round(latency.p95 * transport.time_scale * 1e3, 4),
                "latency_ms_p99": round(latency.p99 * transport.time_scale * 1e3, 4),
            }
        )

        counters = transport.metrics.counters()
        notes = [
            f"net.bytes_sent={counters.get('net.bytes_sent', 0)}",
            f"net.frames_sent={counters.get('net.frames_sent', 0)}",
            f"net.connections_opened={counters.get('net.connections_opened', 0)}",
            f"net.protocol_errors={counters.get('net.protocol_errors', 0)}",
        ]
    return rows, notes


def run(
    config: ServiceConfig = CONFIG,
    raw_rpcs: int = RAW_RPCS,
    queries: int = QUERIES,
    rounds: int = ROUNDS,
):
    """Codec micro rows, then the cluster loads best-of-``rounds``
    (loopback throughput on a shared box is noisy; bytes-on-wire are
    deterministic and identical across rounds)."""
    rows = codec_micro_rows()
    best: dict[str, dict] = {}
    notes: list[str] = []
    for _ in range(rounds):
        round_rows, notes = run_cluster(config, raw_rpcs, queries)
        for row in round_rows:
            kept = best.get(row["load"])
            if kept is None or row["ops_per_s"] > kept["ops_per_s"]:
                best[row["load"]] = row
    rows.extend(best[load] for load in ("raw-rpc", "superset-search"))
    return ExperimentResult(
        experiment="net",
        description="loopback TCP transport: RPC throughput, latency, codec costs",
        parameters={
            "num_dht_nodes": config.num_dht_nodes,
            "dimension": config.dimension,
            "seed": config.seed,
            "raw_rpcs": raw_rpcs,
            "queries": queries,
            "micro_ops": MICRO_OPS,
            "rounds": rounds,
        },
        rows=rows,
        notes=notes,
    )


def test_net(benchmark, record_result):
    result = run_once(benchmark, run)
    record_result(result)
    BASELINE_JSON.write_text(result.to_json() + "\n", encoding="utf-8")
    by_load = {row["load"]: row for row in result.rows}
    # Loopback floors, generous enough for slow CI machines.
    assert by_load["raw-rpc"]["ops_per_s"] > 200
    assert by_load["superset-search"]["ops_per_s"] > 5
    assert by_load["raw-rpc"]["latency_ms_p50"] > 0
    counters = dict(note.split("=") for note in result.notes)
    assert int(counters["net.protocol_errors"]) == 0
    assert int(counters["net.frames_sent"]) > 2 * RAW_RPCS
