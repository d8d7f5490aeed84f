"""Admission control: T_BUSY frames, shedding, and busy-aware retries."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SearchOptions, ServiceConfig
from repro.core.service import KeywordSearchService
from repro.net.admission import AdmissionController, AdmissionPolicy
from repro.net.aio import AsyncioTransport
from repro.net.errors import NodeBusyError, PeerUnreachableError
from repro.net.qos import current_qos, qos_scope
from repro.net.transport import RpcCall
from repro.net.wire import Frame, FrameType, decode_frame, encode_frame
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import NetworkError, SimulatedNetwork
from repro.sim.resilience import (
    BreakerPolicy,
    BreakerState,
    ResilientChannel,
    RetryPolicy,
)


class TestBusyWire:
    def test_busy_frame_round_trips(self):
        frame = Frame(
            FrameType.BUSY, "hindex.scan", 7, 3, 41,
            {"queue_depth": 12, "retry_after": 8.0},
        )
        data = encode_frame(frame)
        decoded, consumed = decode_frame(data)
        assert decoded == frame
        assert consumed == len(data)

    # Envelope offset of the ``pr`` varint for kind "k": 4-byte length,
    # version, codec id, frame type, kind (2 bytes), src, dst, id.
    PR_OFFSET = 12

    def test_priority_rides_the_pr_key_and_round_trips(self):
        frame = Frame(FrameType.REQUEST, "k", 1, 2, 3, {"x": 1}, priority=2)
        data = encode_frame(frame)
        assert data[self.PR_OFFSET] == 4  # zigzag(2)
        decoded, _ = decode_frame(data)
        assert decoded.priority == 2

    def test_zero_priority_is_one_zero_byte(self):
        frame = Frame(FrameType.REQUEST, "k", 1, 2, 3, {"x": 1})
        data = encode_frame(frame)
        assert data[self.PR_OFFSET] == 0
        decoded, _ = decode_frame(data)
        assert decoded.priority == 0


class TestAdmissionController:
    def test_policy_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(priority_headroom=-1)
        with pytest.raises(ValueError):
            AdmissionPolicy(retry_after=-1.0)

    def test_bounds_inflight_and_counts_sheds(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(AdmissionPolicy(max_inflight=2), metrics)
        assert controller.try_admit(5)
        assert controller.try_admit(5)
        assert not controller.try_admit(5)
        controller.release(5)
        assert controller.try_admit(5)
        assert metrics.counter("net.shed_requests") == 1
        assert metrics.counter("net.admitted_requests") == 3

    def test_addresses_are_independent(self):
        controller = AdmissionController(AdmissionPolicy(max_inflight=1), MetricsRegistry())
        assert controller.try_admit(1)
        assert controller.try_admit(2)  # node 1 being full does not shed node 2
        assert not controller.try_admit(1)

    def test_priority_headroom_spares_prioritized_traffic(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(
            AdmissionPolicy(max_inflight=1, priority_headroom=1), metrics
        )
        assert controller.try_admit(5, priority=0)
        assert not controller.try_admit(5, priority=0)  # base slots full
        assert controller.try_admit(5, priority=1)  # headroom slot
        assert not controller.try_admit(5, priority=1)  # headroom full too
        assert metrics.counter("net.shed_low_priority") == 1

    def test_unbalanced_release_is_a_bug(self):
        controller = AdmissionController(AdmissionPolicy(), MetricsRegistry())
        with pytest.raises(RuntimeError):
            controller.release(5)


class TestTcpShedding:
    """T_BUSY over real sockets: fast reject, priority, accounting."""

    def _slow_pair(self, admission: AdmissionPolicy):
        """Server transport with a blockable handler + client transport."""
        release = threading.Event()
        server = AsyncioTransport(rpc_timeout=10.0, admission=admission)

        def handler(message):
            if message.payload.get("block"):
                release.wait(timeout=10)
            return "served"

        server.register(1, handler)
        client = AsyncioTransport(
            rpc_timeout=10.0, serve_addresses=frozenset(), peers=dict(server.endpoints)
        )
        client.register(2, lambda message: None)
        return server, client, release

    def _occupy_slot(self, server, client):
        """Park one request inside node 1's handler; return its thread."""
        blocker = threading.Thread(
            target=lambda: client.rpc(2, 1, "work", {"block": True}), daemon=True
        )
        blocker.start()
        for _ in range(500):
            if server.admission.depth(1) >= 1:
                break
            time.sleep(0.01)
        else:
            pytest.fail("blocker never occupied the admission slot")
        return blocker

    def _drain(self, server):
        for _ in range(500):
            if server.admission.depth(1) == 0:
                return
            time.sleep(0.01)
        pytest.fail("admission slot never drained")

    def test_overloaded_node_sheds_with_node_busy_error(self):
        server, client, release = self._slow_pair(AdmissionPolicy(max_inflight=1))
        try:
            blocker = self._occupy_slot(server, client)
            with pytest.raises(NodeBusyError) as caught:
                client.rpc(2, 1, "work", {})
            assert caught.value.queue_depth >= 1
            release.set()
            blocker.join(timeout=5)
            self._drain(server)
            # Slot released: the next request is served again.
            assert client.rpc(2, 1, "work", {}) == "served"
            assert server.metrics.counter("net.shed_requests") == 1
            assert server.metrics.counter("net.admitted_requests") == 2
            assert client.metrics.counter("net.busy_received") == 1
        finally:
            release.set()
            client.close()
            server.close()

    def test_shed_request_accounts_exactly_one_message(self):
        server, client, release = self._slow_pair(AdmissionPolicy(max_inflight=1))
        try:
            blocker = self._occupy_slot(server, client)
            before = client.metrics.counter("network.messages")
            with client.trace() as window:
                with pytest.raises(NodeBusyError):
                    client.rpc(2, 1, "work", {})
            # The busy refusal is not a reply: one message, same as the
            # simulator's inject_busy accounting.
            assert client.metrics.counter("network.messages") - before == 1
            assert window.message_count == 1
            release.set()
            blocker.join(timeout=5)
        finally:
            release.set()
            client.close()
            server.close()

    def test_priority_request_uses_headroom_while_bulk_is_shed(self):
        server, client, release = self._slow_pair(
            AdmissionPolicy(max_inflight=1, priority_headroom=1)
        )
        try:
            blocker = self._occupy_slot(server, client)
            with pytest.raises(NodeBusyError):
                client.rpc(2, 1, "bulk", {})
            with qos_scope(priority=1):
                assert client.rpc(2, 1, "urgent", {}) == "served"
            assert server.metrics.counter("net.shed_low_priority") == 1
            release.set()
            blocker.join(timeout=5)
        finally:
            release.set()
            client.close()
            server.close()

    def test_busy_reply_carries_retry_after_hint(self):
        server, client, release = self._slow_pair(
            AdmissionPolicy(max_inflight=1, retry_after=32.0)
        )
        try:
            blocker = self._occupy_slot(server, client)
            with pytest.raises(NodeBusyError) as caught:
                client.rpc(2, 1, "work", {})
            assert caught.value.retry_after == 32.0
            release.set()
            blocker.join(timeout=5)
        finally:
            release.set()
            client.close()
            server.close()

    def test_rpc_many_reports_busy_per_call(self):
        server, client, release = self._slow_pair(AdmissionPolicy(max_inflight=1))
        try:
            blocker = self._occupy_slot(server, client)
            outcomes = client.rpc_many(
                [RpcCall(2, 1, "work", {}), RpcCall(2, 1, "work", {})]
            )
            busy = [o for o in outcomes if isinstance(o.error, NodeBusyError)]
            assert len(busy) == 2  # slot is occupied: both shed
            release.set()
            blocker.join(timeout=5)
        finally:
            release.set()
            client.close()
            server.close()


class TestSimulatorBusy:
    def test_inject_busy_sheds_then_recovers(self):
        network = SimulatedNetwork()
        network.register(1, lambda message: "served")
        network.register(2, lambda message: None)
        network.inject_busy(1, count=2)
        for _ in range(2):
            with pytest.raises(NodeBusyError):
                network.rpc(2, 1, "work")
        assert network.rpc(2, 1, "work") == "served"
        assert network.metrics.counter("net.shed_requests") == 2

    def test_inject_busy_rejects_unknown_address_and_bad_count(self):
        network = SimulatedNetwork()
        network.register(1, lambda message: None)
        with pytest.raises(NetworkError):
            network.inject_busy(99)
        with pytest.raises(ValueError):
            network.inject_busy(1, count=0)

    @settings(deadline=None, max_examples=30)
    @given(
        shed=st.integers(min_value=0, max_value=5),
        served=st.integers(min_value=0, max_value=5),
    )
    def test_shed_request_is_never_double_counted(self, shed, served):
        """Parity property: a shed request costs exactly 1 message and a
        served RPC exactly 2, in any interleaving — so simulator and TCP
        accounting agree under shedding."""
        network = SimulatedNetwork()
        network.register(1, lambda message: "ok")
        network.register(2, lambda message: None)
        if shed:
            network.inject_busy(1, count=shed)
        with network.trace() as window:
            for _ in range(shed):
                with pytest.raises(NodeBusyError):
                    network.rpc(2, 1, "work")
            for _ in range(served):
                network.rpc(2, 1, "work")
        assert window.message_count == shed + served * 2
        assert window.request_count == shed + served
        assert network.metrics.counter("network.messages") == shed + served * 2

    def test_rpc_many_sheds_per_call_without_reply_accounting(self):
        network = SimulatedNetwork()
        network.register(1, lambda message: "ok")
        network.register(3, lambda message: "ok")
        network.register(2, lambda message: None)
        network.inject_busy(1, count=1)
        with network.trace() as window:
            outcomes = network.rpc_many([RpcCall(2, 1, "work"), RpcCall(2, 3, "work")])
        assert isinstance(outcomes[0].error, NodeBusyError)
        assert outcomes[1].value == "ok"
        assert window.message_count == 3  # shed: 1, served: 2


class TestBusyAwareRetry:
    def _pair(self, **channel_kwargs):
        network = SimulatedNetwork()
        network.register(1, lambda message: "served")
        network.register(2, lambda message: None)
        return network, ResilientChannel(network, **channel_kwargs)

    def test_busy_is_retried_and_counted_apart_from_failures(self):
        network, channel = self._pair(
            policy=RetryPolicy(max_attempts=3, base_delay=2.0, jitter=0.0)
        )
        network.inject_busy(1, count=2)
        assert channel.rpc(2, 1, "work") == "served"
        assert network.metrics.counter("rpc.busy") == 2
        assert network.metrics.counter("rpc.failures") == 0
        assert network.metrics.counter("rpc.retries") == 2

    def test_busy_never_trips_the_breaker(self):
        network, channel = self._pair(
            policy=RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0),
            breaker=BreakerPolicy(failure_threshold=1),
        )
        network.inject_busy(1, count=5)
        with pytest.raises(NodeBusyError):
            channel.rpc(2, 1, "work")
        assert channel.breaker_for(1).state is BreakerState.CLOSED
        assert network.metrics.counter("breaker.open") == 0

    def test_retry_after_hint_raises_the_backoff_floor(self):
        network = SimulatedNetwork()
        network.register(2, lambda message: None)
        attempts: list[int] = []

        def saturated_then_fine(message):
            attempts.append(1)
            if len(attempts) == 1:
                raise NodeBusyError(1, queue_depth=3, retry_after=50.0)
            return "served"

        network.register(1, saturated_then_fine)
        channel = ResilientChannel(
            network, RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0)
        )
        started = network.now()
        assert channel.rpc(2, 1, "work") == "served"
        # The policy would have retried after 1.0; the node's hint wins.
        assert network.now() - started >= 50.0

    def test_rpc_many_busy_outcomes_and_counters(self):
        network, channel = self._pair(
            policy=RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0)
        )
        network.register(3, lambda message: "ok")
        network.inject_busy(1, count=2)  # both attempts shed -> exhausted
        outcomes = channel.rpc_many([RpcCall(2, 1, "a"), RpcCall(2, 3, "b")])
        assert isinstance(outcomes[0].error, NodeBusyError)
        assert outcomes[1].value == "ok"
        assert network.metrics.counter("rpc.busy") == 2
        assert network.metrics.counter("rpc.failures") == 0


class TestSearchOptionsQos:
    CONFIG = ServiceConfig(dimension=4, num_dht_nodes=8, seed=7)

    def test_deadline_and_priority_fields_validate(self):
        options = SearchOptions(deadline=500.0, priority=2)
        assert options.deadline == 500.0 and options.priority == 2
        with pytest.raises(ValueError):
            SearchOptions(deadline=0.0)
        with pytest.raises(ValueError):
            SearchOptions(priority=-1)

    def test_positional_compat_is_preserved(self):
        # The original five fields keep their positions; the QoS fields
        # append after them.
        options = SearchOptions(3, 5, SearchOptions().order, True, False)
        assert options.threshold == 3 and options.origin == 5
        assert options.use_cache is True and options.trace is False
        assert options.deadline is None and options.priority == 0

    def test_search_establishes_the_qos_scope(self):
        service = KeywordSearchService.create(self.CONFIG)
        service.publish("a.pdf", {"dht", "p2p"})
        seen = {}
        searcher_run = service.searcher.run

        def spying_run(*args, **kwargs):
            seen["qos"] = current_qos()
            return searcher_run(*args, **kwargs)

        service.searcher.run = spying_run
        service.search({"dht"}, SearchOptions(deadline=800.0, priority=3))
        assert seen["qos"].priority == 3
        assert seen["qos"].deadline_at is not None
        # Default options: no scope established, ambient QoS is neutral.
        service.search({"dht"})
        assert seen["qos"].priority == 0 and seen["qos"].deadline_at is None

    def test_qos_deadline_bounds_channel_retries(self):
        network = SimulatedNetwork()
        network.register(1, lambda message: "x")
        network.register(2, lambda message: None)
        network.fail(1)
        channel = ResilientChannel(
            network, RetryPolicy(max_attempts=10, base_delay=8.0, jitter=0.0)
        )
        started = network.now()
        with qos_scope(deadline_at=network.now() + 10.0):
            with pytest.raises(PeerUnreachableError):
                channel.rpc(2, 1, "work")
        # The ambient deadline stopped the 10-attempt policy early.
        assert network.now() - started <= 10.0
        assert network.metrics.counter("rpc.deadline_exceeded") == 1
        assert network.metrics.counter("rpc.attempts") < 10


class TestShedSearchCachePoison:
    """A degraded-but-shed search must not poison the root result cache."""

    CONFIG = ServiceConfig(dimension=4, num_dht_nodes=8, seed=11, cache_capacity=16)

    def test_shed_visits_skip_cache_put(self):
        config = self.CONFIG.with_resilience(
            RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0)
        )
        service = KeywordSearchService.create(config)
        for index, extra in enumerate(["p2p", "dht", "index", "chord", "zipf"]):
            service.publish(f"obj-{index}.pdf", {"shared", extra})
        # Discover the walk without touching the cache.
        probe = service.superset_search({"shared"}, options=SearchOptions(use_cache=False))
        baseline = set(probe.results())
        assert baseline == {f"obj-{i}.pdf" for i in range(5)}
        victims = {
            visit.physical
            for visit in probe.visits
            if visit.returned and visit.physical != probe.root_physical
        }
        assert victims, "walk must visit a non-root node that holds objects"
        network = service.network
        for victim in victims:
            network.inject_busy(victim, count=1000)
        degraded = service.superset_search({"shared"})  # cache on by default
        assert degraded.degraded
        assert set(degraded.results()) < baseline  # shed nodes' objects missing
        # Heal the cluster; the incomplete result set must not have been
        # cached at the root, so the next search sees everything again.
        for victim in victims:
            network._busy_budget[victim] = 0
        healed = service.superset_search({"shared"})
        assert set(healed.results()) == baseline
        assert not healed.degraded
