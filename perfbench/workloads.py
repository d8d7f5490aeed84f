"""Workload inputs, the oracle, and the closed-loop driver.

Every input is generated here: the data set from ``DATASET_SEED``, the
operation stream from the run's seed.  The program under test only ever
sees keyword sets, prefixes and object ids through
``repro.client.Client``.  A workload is one *round*: a fixed list of
operations whose writes pair up (every held-out object the round
inserts, it deletes again), so the index holds the same objects at the
start of every round and each round repeats the same work and the same
traffic.  The measured phase runs whole rounds until its time is up.
"""

from __future__ import annotations

import bisect
import math
import random
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import SearchOptions, ServiceConfig
from repro.core.search import TraversalOrder
from repro.load.mix import HarvestPrefixMix
from repro.net.cluster import LocalCluster
from repro.workload.corpus import SyntheticCorpus
from repro.util.zipf import ZipfDistribution
from repro.workload.queries import QueryLogGenerator

DIMENSION = 8
NODES = 16
CORPUS_OBJECTS = 2_000
QUERY_POOL = 200
DATASET_SEED = 0  # the corpus, its query pool and the node placement
SETUPS = 3  # setup_s is the median of this many full set-ups per run

# Spans and temporary data directories, inside the checkout.
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


@dataclass(frozen=True)
class Op:
    """One client operation of a round."""

    kind: str  # "search", "prefix", "insert" or "delete"
    keywords: frozenset[str] = frozenset()
    prefix: str = ""
    object_id: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    order: TraversalOrder
    preload: int  # objects inserted during set-up
    searches: int  # superset searches per round
    prefixes: int  # prefix searches per round
    writes: int  # held-out objects inserted, then deleted, per round
    threshold: int | None = None  # superset-search threshold t
    cache_capacity: int = 0  # per-node query cache entries (0: off)
    durable: bool = False  # FileStore WAL under a temporary data_dir
    prefix_directory: bool = False
    max_expansions: int | None = None

    @property
    def uncached(self) -> bool:
        return self.cache_capacity == 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="topdown-uncached",
            why="per-RPC cost decides it: each TOP_DOWN visit is one RPC on the critical path, cache off",
            order=TraversalOrder.TOP_DOWN,
            preload=1_800,
            searches=90,
            prefixes=0,
            writes=5,
        ),
        Workload(
            name="parallel-uncached",
            why="batch fan-out shows: each SBT level of a PARALLEL walk is one rpc_many batch, cache off",
            order=TraversalOrder.PARALLEL,
            preload=1_800,
            searches=90,
            prefixes=0,
            writes=5,
        ),
        Workload(
            name="harvest-rw",
            why="write path and cache: prefix directory, cached threshold searches, invalidating writes, WAL",
            order=TraversalOrder.TOP_DOWN,
            preload=150,
            searches=112,
            prefixes=48,
            writes=16,
            threshold=10,
            cache_capacity=64,
            durable=True,
            prefix_directory=True,
            max_expansions=2,
        ),
    )
}


# -- inputs -----------------------------------------------------------


@dataclass
class Inputs:
    preload: list[tuple[str, frozenset[str]]]
    round: list[Op]
    warmup: frozenset[str]  # a one-keyword query whose walk reaches every node


def stratified(count: int, rng: random.Random) -> list[float]:
    """``count`` points of [0, 1) by systematic sampling: one seeded
    offset ``u`` and the points ``(u + k) / count``.  Mapped through a
    distribution's inverse CDF, each outcome then appears the floor or
    the ceiling of its expected count, so one round carries the mix of a
    long stream without the spread of independent draws."""
    offset = rng.random()
    return [(offset + k) / count for k in range(count)]


def zipf_ranks(n: int, exponent: float, count: int, rng: random.Random) -> list[int]:
    """``count`` stratified draws of a Zipf rank over ``1..n``."""
    zipf = ZipfDistribution(n, exponent)
    cdf = [zipf.cdf(rank) for rank in range(1, n + 1)]
    return [min(n, bisect.bisect_left(cdf, point) + 1) for point in stratified(count, rng)]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The preload and one round of operations.

    The corpus, its query pool and the cluster's node placement are the
    benchmark's fixed data set (``DATASET_SEED``); ``seed`` draws the
    operation stream from it: which pool queries and prefixes are
    searched, and the order of every operation."""
    rng = random.Random(f"perfbench/{workload.name}/{seed}")
    corpus = SyntheticCorpus.generate(num_objects=CORPUS_OBJECTS, seed=DATASET_SEED)
    loaded = corpus.records[: workload.preload]
    loaded_corpus = SyntheticCorpus(loaded)
    # The held-out objects a round writes are part of the fixed data set:
    # with the query cache on, one write that hits the hottest cached
    # query changes a round's cost more than the seed's other draws do.
    # They are spread evenly over the keyword-count order, since a write
    # costs about one index and directory update per keyword.
    candidates = sorted(
        corpus.records[workload.preload :], key=lambda r: (r.keyword_count, r.object_id)
    )
    held_out = [
        candidates[(2 * k + 1) * len(candidates) // (2 * workload.writes)]
        for k in range(workload.writes)
    ]

    queries = QueryLogGenerator(loaded_corpus, pool_size=QUERY_POOL, seed=DATASET_SEED)
    reads: list[Op] = [
        Op("search", keywords=queries.pool[rank - 1])
        for rank in zipf_ranks(len(queries.pool), queries.zipf_exponent, workload.searches, rng)
    ]
    if workload.prefixes:
        # HarvestPrefixMix's stream: a word by Zipf rank over the
        # harvested vocabulary, cut to a length between min_length and
        # the whole word; both draws stratified.
        mix = HarvestPrefixMix.from_corpus(loaded_corpus, min_length=3)
        cuts = stratified(workload.prefixes, rng)
        rng.shuffle(cuts)
        for rank, cut in zip(
            zipf_ranks(len(mix.vocabulary), 1.0, workload.prefixes, rng), cuts
        ):
            word = mix.vocabulary[rank - 1]
            length = mix.min_length + int(cut * (len(word) - mix.min_length + 1))
            reads.append(Op("prefix", prefix=word[:length]))
    rng.shuffle(reads)

    # Spread the writes evenly: the first half of the write slots insert
    # the held-out objects, the second half delete them in the same order.
    writes = [Op("insert", keywords=r.keywords, object_id=r.object_id) for r in held_out]
    writes += [Op("delete", keywords=r.keywords, object_id=r.object_id) for r in held_out]
    ops: list[Op] = []
    stride = len(reads) // len(writes)
    for slot, write in enumerate(writes):
        ops.extend(reads[slot * stride : (slot + 1) * stride])
        ops.append(write)
    ops.extend(reads[len(writes) * stride :])

    frequencies = loaded_corpus.keyword_frequencies()
    warmup = frozenset({max(frequencies, key=lambda k: (frequencies[k], k))})
    return Inputs([(r.object_id, r.keywords) for r in loaded], ops, warmup)


# -- oracle -----------------------------------------------------------


class Oracle:
    """Brute-force posting lists of the live object set."""

    def __init__(self, objects: list[tuple[str, frozenset[str]]]):
        self.postings: dict[str, set[str]] = {}
        for object_id, keywords in objects:
            self.insert(object_id, keywords)

    def insert(self, object_id: str, keywords: frozenset[str]) -> None:
        for keyword in keywords:
            self.postings.setdefault(keyword, set()).add(object_id)

    def delete(self, object_id: str, keywords: frozenset[str]) -> None:
        for keyword in keywords:
            posting = self.postings[keyword]
            posting.discard(object_id)
            if not posting:
                del self.postings[keyword]

    def superset(self, keywords: frozenset[str]) -> set[str]:
        lists = sorted((self.postings.get(k, set()) for k in keywords), key=len)
        return set(lists[0]).intersection(*lists[1:])

    def keywords_with_prefix(self, prefix: str) -> set[str]:
        return {keyword for keyword in self.postings if keyword.startswith(prefix)}

    def prefix(self, prefix: str) -> set[str]:
        found: set[str] = set()
        for keyword in self.keywords_with_prefix(prefix):
            found |= self.postings[keyword]
        return found


def check_search(op: Op, result, oracle: Oracle, workload: Workload) -> str | None:
    """The reason ``result`` is wrong, or None when it passes every check."""
    got = result.results()
    if len(set(got)) != len(got):
        return "duplicate object ids"
    returned = set(got)
    if op.kind == "prefix":
        # The directory resolution has no degraded flag on the result: a
        # lost trie subtree shows as matched keywords missing here.
        keywords = oracle.keywords_with_prefix(op.prefix)
        matched = set(result.matched_keywords)
        if not matched <= keywords:
            return f"prefix {op.prefix!r}: {len(matched - keywords)} keywords outside the oracle"
        wanted = len(keywords) if workload.max_expansions is None else min(
            workload.max_expansions, len(keywords))
        if len(matched) != wanted:
            return f"prefix {op.prefix!r}: directory matched {len(matched)} of {wanted} keywords"
        expected = oracle.prefix(op.prefix)
        if not returned <= expected:
            return f"prefix {op.prefix!r}: {len(returned - expected)} ids outside the oracle"
        if result.complete and returned != expected:
            return f"prefix {op.prefix!r}: complete but {len(expected - returned)} ids missing"
        return None
    expected = oracle.superset(op.keywords)
    if result.degraded:
        return "degraded answer"
    if workload.threshold is None:
        if returned != expected:
            return f"superset: {len(returned ^ expected)} ids differ from the oracle"
    else:
        if not returned <= expected:
            return "threshold search returned ids outside the oracle"
        if len(returned) != min(workload.threshold, len(expected)):
            return f"threshold search returned {len(returned)} of {len(expected)}"
    if workload.uncached:
        # §3.5: request, reply and the direct result message per visited
        # subcube node, plus a request and reply per DHT hop to the root.
        bound = 3 * len(result.visits) + 2 * result.visits[0].dht_hops
        if result.messages > bound:
            return f"{result.messages} messages over the §3.5 bound {bound}"
        if workload.order is TraversalOrder.PARALLEL and result.complete:
            expected_rounds = DIMENSION - bin(result.root_logical).count("1") + 1
            if result.rounds != expected_rounds:
                return f"{result.rounds} PARALLEL rounds, expected {expected_rounds}"
    return None


# -- the cluster ------------------------------------------------------


class Deployment:
    """One set-up: a loopback cluster, preloaded and warmed."""

    def __init__(self, workload: Workload, inputs: Inputs):
        self.data_dir: Path | None = None
        if workload.durable:
            OUT_DIR.mkdir(exist_ok=True)
            self.data_dir = Path(tempfile.mkdtemp(prefix="data-", dir=OUT_DIR))
        config = ServiceConfig(
            dimension=DIMENSION,
            num_dht_nodes=NODES,
            seed=DATASET_SEED,
            cache_capacity=workload.cache_capacity,
            prefix_directory=workload.prefix_directory,
        )
        try:
            self.cluster = LocalCluster(config, data_dir=self.data_dir)
        except BaseException:
            self._remove_data()
            raise
        self.client = self.cluster.client()
        self.addresses = self.cluster.addresses()
        self.holders: dict[str, int] = {}
        try:
            for position, (object_id, keywords) in enumerate(inputs.preload):
                self.insert(object_id, keywords, position)
            # Warm-up: a one-keyword PARALLEL walk reaches every node, so
            # every pooled connection is open and codec-negotiated.
            self.client.search(
                inputs.warmup, SearchOptions(order=TraversalOrder.PARALLEL, use_cache=False)
            )
        except BaseException:
            self.close()
            raise

    def insert(self, object_id: str, keywords: frozenset[str], position: int) -> None:
        holder = self.addresses[position % len(self.addresses)]
        self.client.insert(object_id, keywords, holder=holder)
        self.holders[object_id] = holder

    def delete(self, object_id: str) -> None:
        self.client.delete(object_id, holder=self.holders.pop(object_id))

    def counters(self) -> dict[str, int]:
        metrics = self.cluster.transport.metrics
        return {
            name: metrics.counter(name)
            for name in ("network.messages", "net.frames_sent", "net.bytes_sent",
                         "net.connections_opened")
        }

    def close(self) -> None:
        self.cluster.close()
        self._remove_data()

    def _remove_data(self) -> None:
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)


def set_up(workload: Workload, inputs: Inputs) -> tuple[Deployment, list[float]]:
    """Build the deployment ``SETUPS`` times, timing each; keep the last."""
    times = []
    deployment = None
    for _ in range(SETUPS):
        if deployment is not None:
            deployment.close()
        started = time.perf_counter()
        deployment = Deployment(workload, inputs)
        times.append(time.perf_counter() - started)
    return deployment, times


# -- the closed loop --------------------------------------------------


@dataclass
class RoundStats:
    search_ms: list[float]
    write_ms: list[float]
    ops: int
    busy_s: float  # wall time spent in client calls and loop overhead
    traffic: tuple[int, int, int]  # messages, frames, bytes
    failures: list[str]


def run_round(deployment: Deployment, workload: Workload, ops: list[Op], oracle: Oracle,
              tracer=None) -> RoundStats:
    """One pass over the round's operations, each checked as it returns."""
    client = deployment.client
    search_options = SearchOptions(
        threshold=workload.threshold, order=workload.order,
        use_cache=not workload.uncached,
    )
    # Prefix searches bypass the query cache: their expansions would share
    # one-keyword entries with the superset stream, and which of the two
    # refills an invalidated entry first (a partial or a complete entry)
    # would change the next reader's hit or miss with the operation order.
    prefix_options = SearchOptions(
        prefix=True, threshold=workload.threshold, order=workload.order,
        use_cache=False, max_expansions=workload.max_expansions,
    )
    search_ms: list[float] = []
    write_ms: list[float] = []
    failures: list[str] = []
    checking = 0.0
    metrics = deployment.cluster.transport.metrics
    before = deployment.counters()
    round_start = time.perf_counter()
    for position, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(op.kind)
        degraded_before = metrics.counter("search.degraded_visits")
        started = time.perf_counter()
        error = None
        result = None
        try:
            if op.kind == "search":
                result = client.search(op.keywords, search_options)
            elif op.kind == "prefix":
                result = client.search([op.prefix], prefix_options)
            elif op.kind == "insert":
                deployment.insert(op.object_id, op.keywords, position)
            else:
                deployment.delete(op.object_id)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            error = f"{op.kind}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.end_op()
        check_started = time.perf_counter()
        if op.kind == "insert":
            oracle.insert(op.object_id, op.keywords)
        elif op.kind == "delete":
            oracle.delete(op.object_id, op.keywords)
        if error is None and result is not None:
            error = check_search(op, result, oracle, workload)
        if error is None and metrics.counter("search.degraded_visits") != degraded_before:
            error = f"{op.kind}: degraded visits"
        if error is None:
            (search_ms if result is not None else write_ms).append(elapsed * 1000.0)
        else:
            failures.append(error)
        checking += time.perf_counter() - check_started
    busy = time.perf_counter() - round_start - checking
    after = deployment.counters()
    traffic = tuple(
        after[name] - before[name]
        for name in ("network.messages", "net.frames_sent", "net.bytes_sent")
    )
    return RoundStats(search_ms, write_ms, len(ops), busy, traffic, failures)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 when every operation failed)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(rounds: list[RoundStats], setup_times: list[float],
              peak_rss: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, by name, with their units."""
    ops = sum(r.ops for r in rounds)
    search_ms = [ms for r in rounds for ms in r.search_ms]
    write_ms = [ms for r in rounds for ms in r.write_ms]
    messages, frames, wire = (sum(r.traffic[i] for r in rounds) for i in range(3))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ops / sum(r.busy_s for r in rounds), "ops/s"),
        "search_p50_ms": (percentile(search_ms, 0.50), "ms"),
        "search_p90_ms": (percentile(search_ms, 0.90), "ms"),
        "write_p50_ms": (percentile(write_ms, 0.50), "ms"),
        "messages_per_op": (messages / ops, "count"),
        "frames_per_op": (frames / ops, "count"),
        "wire_bytes_per_op": (wire / ops, "bytes"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
