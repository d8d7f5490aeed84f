"""``LocalCluster``: N real node daemons on loopback, one process.

The cheapest way to run the paper's whole stack over actual TCP: one
:class:`~repro.net.aio.AsyncioTransport` hosts a listening socket for
*every* DHT node address (N servers on N OS-assigned loopback ports),
and a :class:`~repro.core.service.KeywordSearchService` is built on top
of it.  Protocol code is byte-for-byte the code the simulator runs —
only the medium changed — so every inter-node RPC (routing steps, index
scans, cache probes) now crosses a real socket through the wire codec
of :mod:`repro.net.wire`.

Because the stack is deterministic given ``(config.seed, config)``, a
cluster and a simulator built from the same config place the same
objects on the same nodes and return identical result sets — the
equality the integration tests assert.

>>> from repro.core.config import ServiceConfig
>>> from repro.net.cluster import LocalCluster
>>> with LocalCluster(ServiceConfig(dimension=6, num_dht_nodes=8)) as cluster:
...     _ = cluster.service.publish("paper.pdf", {"dht", "search"})
...     cluster.service.superset_search({"dht"}).results()
('paper.pdf',)
"""

from __future__ import annotations

from pathlib import Path

from repro.core.config import ServiceConfig
from repro.core.service import KeywordSearchService
from repro.membership import MembershipAgent, MembershipApplication, MembershipPolicy
from repro.net.admission import AdmissionPolicy
from repro.net.aio import AsyncioTransport
from repro.obs.stats import StatsServer
from repro.store.file import FileStore

__all__ = ["LocalCluster"]


class LocalCluster:
    """A full keyword-search deployment over loopback TCP sockets."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        host: str = "127.0.0.1",
        rpc_timeout: float = 10.0,
        time_scale: float = 0.001,
        stats_port: int | None = None,
        data_dir: str | Path | None = None,
        admission: AdmissionPolicy | None = None,
        membership: bool | MembershipPolicy = False,
    ):
        """``stats_port`` (0 for OS-assigned) additionally serves the
        cluster's metrics over HTTP (see :mod:`repro.obs.stats`).

        ``data_dir`` makes every node durable: each gets a WAL +
        snapshot store under ``<data_dir>/node-<address>/`` (see
        :mod:`repro.store`), replayed on construction — so a cluster
        rebuilt over the same directory comes back with every shard and
        reference table intact, no re-publish needed.

        ``admission`` bounds each node's inflight requests: excess
        requests are shed with T_BUSY instead of queueing (see
        :mod:`repro.net.admission`).  None (the default) admits
        everything, as before the knob existed.

        ``membership`` (False, True, or a
        :class:`~repro.membership.MembershipPolicy`) runs a
        :class:`~repro.membership.MembershipAgent` for the cluster and
        unlocks :meth:`join_node` / :meth:`leave_node` /
        :meth:`crash_node`.  Off by default — the static cluster stays
        byte-identical."""
        self.config = config
        self.stats: StatsServer | None = None
        self.membership: MembershipAgent | None = None
        self.transport = AsyncioTransport(
            host=host, rpc_timeout=rpc_timeout, time_scale=time_scale,
            admission=admission,
        )
        store_factory = None
        if data_dir is not None:
            base = Path(data_dir)

            def store_factory(address: int) -> FileStore:
                return FileStore(base / f"node-{address}", metrics=self.transport.metrics)

        try:
            self.service = KeywordSearchService.create(
                config, network=self.transport, store_factory=store_factory
            )
            if stats_port is not None:
                self.stats = StatsServer(self.transport.metrics, host=host, port=stats_port)
            if membership:
                policy = membership if isinstance(membership, MembershipPolicy) else None
                agent = MembershipAgent(
                    self.service, self.transport, policy=policy, seed=config.seed
                )
                self.service.dolr.install_everywhere(
                    lambda node: MembershipApplication(agent)
                )
                self.membership = agent.start()
        except BaseException:
            self.close()
            raise

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop every server, drop every connection, join the IO thread
        (flushing and closing every durable store first)."""
        if self.membership is not None:
            self.membership.stop()
            self.membership = None
        if self.stats is not None:
            self.stats.close()
            self.stats = None
        service = getattr(self, "service", None)
        if service is not None:
            service.close_stores()
        self.transport.close()

    # -- dynamic membership -------------------------------------------

    def _agent(self) -> MembershipAgent:
        if self.membership is None:
            raise RuntimeError("cluster was built without membership=True")
        return self.membership

    def join_node(self, address: int) -> int:
        """Bring a brand-new node into the running cluster: bind its
        server, admit it to the ring, and hand over the index tables it
        now owns.  Returns the object references moved to it.  (The new
        node's shard is memory-backed even on a durable cluster — the
        store factories were applied at build time; a rebuild over the
        same ``data_dir`` re-provisions everything.)"""
        return self._agent().join(address)

    def leave_node(self, address: int) -> int:
        """Gracefully retire a node: evacuate its tables to their
        as-if-gone owners, then drop it from the ring and stop its
        server.  Returns the object references evacuated."""
        return self._agent().leave(address)

    def crash_node(self, address: int) -> None:
        """Fail-stop a node *without* telling the membership layer: its
        server stops dead, and the failure detector must notice (gossip
        misses / open breakers), declare it dead, and re-replicate.  Use
        :meth:`declare_crashed` to skip the suspicion window."""
        agent = self._agent()
        with agent._lock:
            self.transport.unregister(address)
            agent.served.discard(address)

    def declare_crashed(self, address: int) -> int:
        """Crash a node and immediately declare it dead (the operator
        knew).  Returns the object references restored from replicas."""
        self.crash_node(address)
        return self._agent().crashed(address)

    def await_membership(self, predicate, *, timeout: float = 10.0) -> bool:
        """Poll until ``predicate(book)`` holds (wall-clock ``timeout``
        seconds).  Convenience for tests and smokes."""
        import time as _time

        deadline = _time.monotonic() + timeout
        agent = self._agent()
        while _time.monotonic() < deadline:
            with agent._lock:
                if predicate(agent.book):
                    return True
            _time.sleep(0.02)
        with agent._lock:
            return bool(predicate(agent.book))

    # -- introspection ------------------------------------------------

    def client(self):
        """This cluster behind the unified :class:`~repro.client.Client`
        API (borrowing: closing the client does not close the cluster).
        For a client with its *own* socket pool — e.g. one per load
        generator process — use ``connect(cluster.config,
        peers=cluster.endpoints)`` instead."""
        from repro.client import ServiceClient

        return ServiceClient(self.service)

    def addresses(self) -> list[int]:
        """The DHT node addresses hosted by this cluster, ascending."""
        return self.service.dolr.addresses()

    @property
    def endpoints(self) -> dict[int, tuple[str, int]]:
        """Address -> (host, port) for every node's listening socket."""
        return dict(self.transport.endpoints)

    @property
    def stats_endpoint(self) -> tuple[str, int] | None:
        """The (host, port) of the stats endpoint, when one is up."""
        return self.stats.endpoint if self.stats is not None else None

    def messages_sent(self) -> int:
        return self.service.messages_sent()
