"""Spans and counts at the layer boundaries, recorded from outside.

The traced run wraps the public entry points of each layer of the
running program (class methods, and a few attributes of the one
cluster's transport) and records a span per call: name, thread, start,
end, the enclosing span on the same thread, and the trace id, which is
the index of the client operation in flight (one client thread runs one
operation at a time).  Counts are taken at the same boundaries.  No
program file is changed; :func:`instrument` patches at run time, in the
benchmark's own process, after set-up and warm-up.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import repro.net.aio as aio
from repro.core.index import IndexShard
from repro.core.search import PrefixSearch, SuperSetSearch
from repro.net.aio import AsyncioTransport
from repro.net.wire import FrameType
from repro.prefix.directory import KeywordDirectory
from repro.sim.resilience import ResilientChannel
from repro.store.file import FileStore

WRITES = ("insert", "delete")


class Tracer:
    """Keeps spans in memory; counts in a locked counter."""

    def __init__(self) -> None:
        # (trace, span id, parent id, name, thread id, start, end)
        self.spans: list[tuple[int, int, int | None, str, int, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.op_kinds: Counter[str] = Counter()
        self.trace_id = -1
        self.op_kind = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- operations (the root spans) ------------------------------------

    def begin_op(self, kind: str) -> None:
        self.trace_id += 1
        self.op_kind = kind
        self.op_kinds[kind] += 1
        self._op = self.begin(f"client.{kind}")

    def end_op(self) -> None:
        self.end(self._op)
        self.op_kind = ""

    # -- spans ----------------------------------------------------------

    def begin(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][0] if stack else None
        span_id = next(self._ids)
        stack.append((self.trace_id, span_id, parent, name, time.perf_counter()))
        return span_id

    def end(self, span_id) -> float:
        """Close the innermost span (which must be ``span_id``); returns
        its duration in seconds."""
        end = time.perf_counter()
        trace, own_id, parent, name, start = self._local.stack.pop()
        assert own_id == span_id
        self.spans.append((trace, span_id, parent, name, threading.get_ident(), start, end))
        return end - start

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, function, after=None):
        """``function`` with a span around every call; ``after(result,
        seconds, args)`` takes counts from the call's outcome."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                self.end(span)
                raise
            seconds = self.end(span)
            if after is not None:
                after(result, seconds, args)
            return result

        return traced

    # -- output ---------------------------------------------------------

    def write(self, path: Path) -> None:
        """Every span as one JSON list per line, gzip-compressed:
        ``[trace, id, parent, name, thread, start_s, end_s]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def instrument(tracer: Tracer, deployment) -> None:
    """Install the spans and counts on every layer of ``deployment``."""
    transport: AsyncioTransport = deployment.cluster.transport
    metrics = transport.metrics

    def writing() -> bool:
        return tracer.op_kind in WRITES

    # repro.net.aio transport: blocked caller time, RPCs that cross a
    # socket, and the frames a batch puts on the wire (both directions).
    def after_rpc(result, seconds, args):
        self, src, dst = args[:3]
        if not (src == dst and self._serves(dst)):
            tracer.count("transport.rpcs")

    def wrap_rpc_many(function):
        traced = tracer.wrap("transport.rpc_many", function)

        @functools.wraps(function)
        def batched(self, calls):
            frames = metrics.counter("net.frames_sent")
            result = traced(self, calls)
            tracer.count("transport.batch_frames", metrics.counter("net.frames_sent") - frames)
            return result

        return batched

    AsyncioTransport.rpc = tracer.wrap("transport.rpc", AsyncioTransport.rpc, after_rpc)
    AsyncioTransport.rpc_many = wrap_rpc_many(AsyncioTransport.rpc_many)

    # Thread handoffs: into the loop, and into (and back out of) the
    # handler executor.
    loop = transport._loop
    call_soon_threadsafe = loop.call_soon_threadsafe

    def counted_call_soon_threadsafe(*args, **kwargs):
        tracer.count("transport.handoffs")
        return call_soon_threadsafe(*args, **kwargs)

    loop.call_soon_threadsafe = counted_call_soon_threadsafe

    # Server dispatch: time from request decoded to handler start, and
    # the handler itself, on the executor thread.
    decoded_at: dict[int, float] = {}
    executor = transport._executor
    submit = executor.submit

    def traced_submit(function, *args, **kwargs):
        tracer.count("transport.handoffs")
        payload = getattr(args[0], "payload", None) if args else None

        def handler(*inner, **inner_kwargs):
            queued = decoded_at.pop(id(payload), None)
            if queued is not None:
                tracer.count("server.executor_wait_s", time.perf_counter() - queued)
            span = tracer.begin("server.handler")
            try:
                return function(*inner, **inner_kwargs)
            finally:
                tracer.end(span)

        return submit(handler, *args, **kwargs)

    executor.submit = traced_submit

    # repro.net.wire / codec: every frame encoded and decoded by the transport.
    encode_frame = aio.encode_frame
    parse_frame_info = aio.parse_frame_info

    def after_encode(data, seconds, args):
        tracer.count("codec.frames")
        tracer.count("codec.bytes", len(data))

    def after_decode(received, seconds, args):
        tracer.count("codec.decoded")
        frame = received[0]
        if frame.type is FrameType.REQUEST:
            decoded_at[id(frame.payload)] = time.perf_counter()

    aio.encode_frame = tracer.wrap("codec.encode", encode_frame, after_encode)
    aio.parse_frame_info = tracer.wrap("codec.decode", parse_frame_info, after_decode)

    # repro.sim.resilience: the channel every protocol RPC goes through.
    ResilientChannel.rpc = tracer.wrap("channel.rpc", ResilientChannel.rpc)
    ResilientChannel.rpc_many = tracer.wrap("channel.rpc_many", ResilientChannel.rpc_many)

    # repro.core.search: the walker and the prefix planner.
    def after_walk(result, seconds, args):
        tracer.count("search.walks")
        tracer.count("search.visits", len(result.visits))
        tracer.count("search.rounds", result.rounds)

    SuperSetSearch.run = tracer.wrap("search.superset", SuperSetSearch.run, after_walk)
    PrefixSearch.run = tracer.wrap("search.prefix", PrefixSearch.run)

    # repro.core.index: shard scans; repro.core.cache: root cache probes.
    def after_scan(outcome, seconds, args):
        shard, key = args[0], args[1]
        matches, truncated = outcome
        order = shard._scan_order.get(key, ())
        examined = len(order)
        if truncated and matches:
            examined = order.index(matches[-1][0]) + 1
        tracer.count("index.scans")
        tracer.count("index.rows_examined", examined)
        tracer.count("index.returned", sum(len(ids) for _, ids in matches))

    def after_cache_get(entry, seconds, args):
        tracer.count("cache.probes")
        tracer.count("cache.probe_hits", entry is not None)

    IndexShard.scan = tracer.wrap("index.scan", IndexShard.scan, after_scan)
    IndexShard.cache_get = tracer.wrap("cache.get", IndexShard.cache_get, after_cache_get)

    # repro.prefix.directory: resolution and the write-path trie updates.
    def after_resolve(resolution, seconds, args):
        tracer.count("directory.resolves")
        tracer.count("directory.fetches", resolution.messages)

    KeywordDirectory.resolve = tracer.wrap("directory.resolve", KeywordDirectory.resolve, after_resolve)
    for name in ("add_keyword", "remove_keyword"):
        update = tracer.wrap("directory.update", getattr(KeywordDirectory, name))
        setattr(KeywordDirectory, name, update)

    # repro.dht: routed lookups (the instance's concrete DHT).
    dolr = deployment.cluster.service.dolr

    def after_lookup(route, seconds, args):
        if writing():
            tracer.count("dht.write_hops", route.hops)
            tracer.count("dht.write_route_s", seconds)

    dolr.lookup = tracer.wrap("dht.lookup", dolr.lookup, after_lookup)

    # repro.store: WAL appends.
    def after_append(result, seconds, args):
        tracer.count("store.records")
        tracer.count("store.wal_bytes", len(args[1]))

    FileStore._append_frame = tracer.wrap("store.append", FileStore._append_frame, after_append)


# Program counters the per-layer metrics read, as deltas over the
# measured phase.
PROGRAM_COUNTERS = ("rpc.retries", "cache.invalidate_rpcs", "net.batch_rpcs", "net.batch_calls")


def samples_retained(metrics) -> int:
    """Samples held by every series of a metrics registry."""
    return sum(len(metrics.samples(name)) for name in metrics.series_names())


def self_times(spans) -> dict[str, float]:
    """Seconds per span name of duration not covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for _, span_id, _, name, _, start, end in spans:
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        totals[name] += (end - start) - covered
    return totals


SPAN_NAMES = (
    "client.search", "client.prefix", "client.insert", "client.delete",
    "search.superset", "search.prefix", "channel.rpc", "channel.rpc_many",
    "transport.rpc", "transport.rpc_many", "server.handler", "codec.encode",
    "codec.decode", "index.scan", "cache.get", "directory.resolve",
    "directory.update", "dht.lookup", "store.append",
)


def per_layer(tracer: Tracer, ops: int, seconds: float, metric_delta: dict[str, int],
              samples: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced measured phase."""
    c = tracer.counts
    writes = sum(tracer.op_kinds[k] for k in WRITES)
    prefixes = tracer.op_kinds["prefix"]
    own = self_times(tracer.spans)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    batches = metric_delta["net.batch_rpcs"]
    rpcs = c["transport.rpcs"] + metric_delta["net.batch_calls"]
    durations: Counter[str] = Counter()
    for _, _, _, name, _, start, end in tracer.spans:
        durations[name] += end - start
    metrics: dict[str, tuple[float, str]] = {
        "trace.ops_per_s": (ops / seconds, "ops/s"),
        "transport.rpcs_per_op": (ratio(rpcs, ops), "count"),
        "transport.blocked_ms_per_op": (
            ratio(1000 * (durations["transport.rpc"] + durations["transport.rpc_many"]), ops), "ms"),
        "transport.handoffs_per_rpc": (ratio(c["transport.handoffs"], rpcs), "count"),
        "server.executor_wait_ms_per_op": (ratio(1000 * c["server.executor_wait_s"], ops), "ms"),
        "server.handler_ms_per_op": (ratio(1000 * durations["server.handler"], ops), "ms"),
        "transport.calls_per_batch": (ratio(metric_delta["net.batch_calls"], batches), "count"),
        "transport.frames_per_batch": (ratio(c["transport.batch_frames"], batches), "count"),
        "codec.frames_per_op": (ratio(c["codec.frames"], ops), "count"),
        "codec.encode_us_per_frame": (
            ratio(1e6 * durations["codec.encode"], c["codec.frames"]), "us"),
        "codec.decode_us_per_frame": (
            ratio(1e6 * durations["codec.decode"], c["codec.decoded"]), "us"),
        "codec.bytes_per_frame": (ratio(c["codec.bytes"], c["codec.frames"]), "bytes"),
        "channel.self_ms_per_op": (ratio(1000 * (own["channel.rpc"] + own["channel.rpc_many"]), ops), "ms"),
        "channel.retries_per_op": (ratio(metric_delta["rpc.retries"], ops), "count"),
        "search.self_ms_per_op": (ratio(1000 * own["search.superset"], ops), "ms"),
        "search.visits_per_search": (ratio(c["search.visits"], c["search.walks"]), "count"),
        "search.rounds_per_search": (ratio(c["search.rounds"], c["search.walks"]), "count"),
        "index.scans_per_op": (ratio(c["index.scans"], ops), "count"),
        "index.scan_us_per_scan": (ratio(1e6 * durations["index.scan"], c["index.scans"]), "us"),
        "index.rows_examined_per_returned": (ratio(c["index.rows_examined"], c["index.returned"]), "count"),
        "cache.hit_ratio": (ratio(c["cache.probe_hits"], c["cache.probes"]), "ratio"),
        "cache.invalidate_rpcs_per_write": (ratio(metric_delta["cache.invalidate_rpcs"], writes), "count"),
        "directory.resolve_ms_per_prefix": (
            ratio(1000 * durations["directory.resolve"], prefixes), "ms"),
        "directory.fetches_per_resolve": (ratio(c["directory.fetches"], c["directory.resolves"]), "count"),
        "directory.update_ms_per_write": (
            ratio(1000 * durations["directory.update"], writes), "ms"),
        "dht.route_hops_per_write": (ratio(c["dht.write_hops"], writes), "count"),
        "dht.route_ms_per_write": (ratio(1000 * c["dht.write_route_s"], writes), "ms"),
        "store.records_per_write": (ratio(c["store.records"], writes), "count"),
        "store.wal_bytes_per_write": (ratio(c["store.wal_bytes"], writes), "bytes"),
        "store.append_us_per_record": (
            ratio(1e6 * durations["store.append"], c["store.records"]), "us"),
        "metrics.samples_retained_per_op": (ratio(samples, ops), "count"),
    }
    for name in SPAN_NAMES:
        metrics[f"{name}.self_ms_per_op"] = (ratio(1000 * own[name], ops), "ms")
    return metrics
