"""Mercury: RPC / RDMA transfer model.

Mercury is Mochi's RPC and remote-direct-memory-access (RDMA) layer.  For the
purpose of autotuning, what matters is the *cost* of moving bytes and issuing
RPCs, and how those costs depend on the configuration parameters:

* small payloads travel "eagerly" inside the RPC message (per-message latency
  dominated),
* large payloads use RDMA pull/push (bandwidth dominated, cheaper per byte,
  controlled by the ``UseRDMA`` parameter of the PEP application),
* every RPC pays a progress cost on both sides that depends on the progress
  mode (busy spinning vs. blocking ``epoll``) — that part is modelled by
  :mod:`repro.mochi.margo`.

The per-node :class:`NetworkInterface` serialises transfers through a
capacity-limited resource so that many concurrent senders on one node contend
for injection bandwidth, which is what makes "more processes per node" a
non-trivial choice in the paper's parameter space.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.sim import Environment, Resource

__all__ = ["TransferKind", "NetworkModel", "NetworkInterface"]


class TransferKind(str, Enum):
    """How a payload is moved."""

    #: Payload embedded in the RPC message (small messages).
    EAGER = "eager"
    #: Payload moved by RDMA after an RPC handshake (bulk transfers).
    RDMA = "rdma"


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth model of the interconnect (Cray Aries-like defaults).

    Attributes
    ----------
    latency:
        One-way message latency in seconds.
    bandwidth:
        Point-to-point bandwidth for eager (send/recv) payloads, bytes/s.
    rdma_bandwidth:
        Bandwidth achieved by RDMA bulk transfers, bytes/s.
    rdma_setup:
        Fixed handshake cost for registering/exposing a bulk region, seconds.
    eager_threshold:
        Payloads at or below this size are always sent eagerly, bytes.
    injection_bandwidth:
        Per-node injection bandwidth shared by all processes on the node,
        bytes/s (models NIC contention).
    """

    latency: float = 2.0e-6
    bandwidth: float = 6.0e9
    rdma_bandwidth: float = 10.0e9
    rdma_setup: float = 3.0e-6
    eager_threshold: int = 4 * 1024
    injection_bandwidth: float = 12.0e9

    def __post_init__(self) -> None:
        if min(self.latency, self.bandwidth, self.rdma_bandwidth, self.rdma_setup) < 0:
            raise ValueError("network model constants must be non-negative")
        if self.bandwidth <= 0 or self.rdma_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")

    # ------------------------------------------------------------------ costs
    def transfer_kind(self, size: int, use_rdma: bool) -> TransferKind:
        """Which mechanism a payload of ``size`` bytes uses."""
        if size <= self.eager_threshold or not use_rdma:
            return TransferKind.EAGER
        return TransferKind.RDMA

    def transfer_time(self, size: int, use_rdma: bool = True) -> float:
        """Wire time for moving ``size`` bytes one way.

        Parameters
        ----------
        size:
            Payload size in bytes (>= 0).
        use_rdma:
            Whether RDMA is allowed for large payloads (the paper's
            ``UseRDMA`` parameter).  When False, large payloads pay the
            (slower) eager bandwidth.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        kind = self.transfer_kind(size, use_rdma)
        if kind is TransferKind.RDMA:
            return self.latency + self.rdma_setup + size / self.rdma_bandwidth
        return self.latency + size / self.bandwidth

    def rpc_round_trip(self, request_size: int, response_size: int, use_rdma: bool = True) -> float:
        """Wire time of a full request/response exchange (no progress costs)."""
        return self.transfer_time(request_size, use_rdma) + self.transfer_time(
            response_size, use_rdma
        )


class NetworkInterface:
    """Per-node NIC: serialises concurrent transfers through injection bandwidth.

    Parameters
    ----------
    env:
        Simulation environment.
    model:
        The shared :class:`NetworkModel`.
    node_name:
        Label of the node owning this interface.
    channels:
        Number of transfers that can be injected concurrently at full speed.
        Additional concurrent transfers queue (a coarse model of NIC/HSN
        serialisation).
    """

    def __init__(
        self,
        env: Environment,
        model: NetworkModel,
        node_name: str = "",
        channels: int = 4,
    ):
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.env = env
        self.model = model
        self.node_name = node_name
        self._resource = Resource(env, capacity=channels, name=f"nic:{node_name}")
        self.bytes_sent = 0
        self.transfers = 0

    # ------------------------------------------------------------------ stats
    @property
    def queue_length(self) -> int:
        """Transfers currently waiting for an injection channel."""
        return self._resource.queue_length

    # -------------------------------------------------------------- processes
    def transfer(self, size: int, use_rdma: bool = True):
        """DES process generator: occupy one injection channel for the wire time.

        Yields
        ------
        Events driving the transfer; the generator returns the wire time.
        """
        wire = self.model.transfer_time(size, use_rdma)
        with self._resource.request() as req:
            yield req
            yield self.env.timeout(wire)
        self.bytes_sent += int(size)
        self.transfers += 1
        return wire

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<NetworkInterface {self.node_name!r} transfers={self.transfers}>"
