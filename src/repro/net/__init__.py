"""Real networking for the reproduction: transports, wire format, daemons.

The protocol layers (DHT routing, DOLR, hypercube index, superset
search) are written against the :class:`~repro.net.transport.Transport`
interface.  Two implementations exist:

* :class:`~repro.sim.network.SimulatedNetwork` — the deterministic
  in-process medium every experiment runs on, and
* :class:`~repro.net.aio.AsyncioTransport` — per-node asyncio TCP
  servers plus a pooled, request/response-correlated client, speaking
  the length-prefixed frame format of :mod:`repro.net.wire`.

:class:`~repro.net.cluster.LocalCluster` spins N node daemons on
loopback ports inside one process and wires a
:class:`~repro.core.service.KeywordSearchService` over them, so the
paper's protocol runs over actual sockets without forking any protocol
code.  :class:`~repro.net.node.NodeDaemon` hosts a single node for
multi-process deployments (``python -m repro node serve``).

The heavy members (``AsyncioTransport``, ``LocalCluster``,
``NodeDaemon``) are imported lazily: :mod:`repro.sim.network` imports
the light contract modules from here, and eagerly pulling in the stack
on top of it would be circular.
"""

from repro.net.codec import CODEC_BINARY, PostingList
from repro.net.errors import (
    PeerUnreachableError,
    ProtocolError,
    RemoteHandlerError,
    RpcTimeoutError,
    TransportError,
)
from repro.net.transport import Handler, Message, MessageTrace, Transport
from repro.net.wire import (
    PROTOCOL_VERSION,
    Frame,
    FrameDecoder,
    FrameType,
    decode_frame,
    encode_frame,
)

__all__ = [
    "AsyncioTransport",
    "CODEC_BINARY",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "Handler",
    "LocalCluster",
    "Message",
    "MessageTrace",
    "NodeDaemon",
    "PROTOCOL_VERSION",
    "PeerUnreachableError",
    "PostingList",
    "ProtocolError",
    "RemoteHandlerError",
    "RpcTimeoutError",
    "Transport",
    "TransportError",
    "cluster_addresses",
    "decode_frame",
    "encode_frame",
]

_LAZY = {
    "AsyncioTransport": ("repro.net.aio", "AsyncioTransport"),
    "LocalCluster": ("repro.net.cluster", "LocalCluster"),
    "NodeDaemon": ("repro.net.node", "NodeDaemon"),
    "cluster_addresses": ("repro.net.node", "cluster_addresses"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
