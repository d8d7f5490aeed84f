"""Bench store — the write-path cost of durability, and cold recovery.

The durable store's contract: with the default :class:`MemoryStore` the
simulator is untouched (that path is byte-identity-checked by the
experiment tests), and opting a deployment into :class:`FileStore`
(``--data-dir``) must cost under 10% on the write path of a real
workload.  This benchmark publishes the Figure 8 corpus (r=10 hypercube,
4096 objects — the reference shard size for recovery) through the full
stack twice — all-memory, and every node on a WAL-backed FileStore — and
compares insert CPU floors.  It then measures what the durability buys:
cold recovery of the whole 4k-object deployment from the WALs alone and
from snapshots (post-compaction), verifying the recovered stores carry
every record the live run wrote.
"""

import gc
import pathlib
import tempfile
import time

from repro.core.config import ServiceConfig
from repro.core.service import KeywordSearchService
from repro.experiments.harness import ExperimentResult, default_corpus
from repro.store.file import FileStore
from repro.workload.queries import QueryLogGenerator

from benchmarks.conftest import run_once

BASELINE_JSON = pathlib.Path(__file__).parent.parent / "BENCH_store.json"

NUM_OBJECTS = 4096
DIMENSION = 10
NUM_DHT_NODES = 64
ROUNDS = 3
OVERHEAD_BUDGET = 0.10


def run(
    num_objects: int = NUM_OBJECTS,
    dimension: int = DIMENSION,
    num_dht_nodes: int = NUM_DHT_NODES,
    rounds: int = ROUNDS,
    seed: int = 0,
):
    """Best-of-``rounds`` CPU time for the publish phase, memory vs
    durable, plus cold-recovery timings over the durable directories.

    Same measurement discipline as ``bench_obs``: process CPU time (the
    workload is CPU + page-cache writes; wall clock would drown the
    signal in scheduler noise), GC off inside the timed region, and the
    two modes alternating order across rounds so both sample the same
    CPU-frequency epoch.
    """
    corpus = default_corpus(num_objects, seed)
    items = [(record.object_id, record.keywords) for record in corpus.records]
    config = ServiceConfig(dimension=dimension, num_dht_nodes=num_dht_nodes, seed=seed)
    queries = [
        set(query)
        for query in QueryLogGenerator(corpus, seed=seed + 1).popular_sets(2, 4)
    ]

    def build(store_factory=None) -> tuple[KeywordSearchService, float]:
        service = KeywordSearchService.create(config, store_factory=store_factory)
        holder = service.dolr.any_address()
        started = time.process_time()
        for object_id, keywords in items:
            service.index.insert(object_id, keywords, holder)
        return service, time.process_time() - started

    memory_best = float("inf")
    durable_best = float("inf")
    recovery_wal_best = float("inf")
    recovery_snap_best = float("inf")
    recovered_records = 0
    wal_appends = 0
    parity_failures = 0
    gc.collect()
    gc.disable()
    try:
        for round_number in range(rounds):
            with tempfile.TemporaryDirectory() as directory:
                base = pathlib.Path(directory)

                def factory(address: int) -> FileStore:
                    return FileStore(base / f"node-{address}")

                if round_number % 2 == 0:
                    memory_service, memory_cpu = build()
                    durable_service, durable_cpu = build(factory)
                else:
                    durable_service, durable_cpu = build(factory)
                    memory_service, memory_cpu = build()
                memory_best = min(memory_best, memory_cpu)
                durable_best = min(durable_best, durable_cpu)

                # Durability must not perturb results (spot check).
                parity_failures += sum(
                    1
                    for query in queries
                    if durable_service.superset_search(query).results()
                    != memory_service.superset_search(query).results()
                )
                wal_appends = durable_service.network.metrics.counter("store.wal_appends")
                addresses = durable_service.dolr.addresses()
                durable_service.close_stores()

                # Cold recovery from the WALs a crash would leave.
                started = time.process_time()
                recovered_records = sum(
                    FileStore(base / f"node-{address}").recover().records
                    for address in addresses
                )
                recovery_wal_best = min(recovery_wal_best, time.process_time() - started)

                # Fold each WAL into a snapshot, then recover again.
                reopened = []
                for address in addresses:
                    store = FileStore(base / f"node-{address}")
                    state = store.recover()
                    store.bind(tables=lambda s=state: s.tables, refs=lambda s=state: s.refs)
                    store.compact()
                    store.close()
                    reopened.append(store.directory)
                started = time.process_time()
                from_snapshots = sum(
                    FileStore(path).recover().records for path in reopened
                )
                recovery_snap_best = min(
                    recovery_snap_best, time.process_time() - started
                )
                assert from_snapshots <= recovered_records  # compaction only folds
    finally:
        gc.enable()

    overhead = (durable_best - memory_best) / memory_best
    rows = [
        {
            "mode": "memory",
            "objects": num_objects,
            "insert_cpu_ms": round(memory_best * 1e3, 3),
        },
        {
            "mode": "durable",
            "objects": num_objects,
            "insert_cpu_ms": round(durable_best * 1e3, 3),
            "wal_appends": wal_appends,
        },
        {
            "mode": "recover-wal",
            "objects": num_objects,
            "recovery_cpu_ms": round(recovery_wal_best * 1e3, 3),
            "recovered_records": recovered_records,
        },
        {
            "mode": "recover-snapshot",
            "objects": num_objects,
            "recovery_cpu_ms": round(recovery_snap_best * 1e3, 3),
        },
    ]
    return ExperimentResult(
        experiment="store",
        description="durable write-path overhead and cold recovery (Figure 8 corpus)",
        parameters={
            "num_objects": num_objects,
            "dimension": dimension,
            "num_dht_nodes": num_dht_nodes,
            "rounds": rounds,
            "seed": seed,
        },
        rows=rows,
        notes=[
            f"overhead={overhead:+.4f}",
            f"budget={OVERHEAD_BUDGET}",
            f"wal_appends={wal_appends}",
            f"recovered_records={recovered_records}",
            f"parity_failures={parity_failures}",
        ],
    )


def test_store(benchmark, record_result):
    result = run_once(benchmark, run)
    record_result(result)
    BASELINE_JSON.write_text(result.to_json() + "\n", encoding="utf-8")
    notes = dict(note.split("=") for note in result.notes)
    assert int(notes["parity_failures"]) == 0
    assert int(notes["wal_appends"]) > 0
    assert int(notes["recovered_records"]) > 0
    assert float(notes["overhead"]) < OVERHEAD_BUDGET
