"""Platform model: nodes, cores and the interconnect.

The paper's experiments run on Theta, a Cray XC40 whose nodes have a 64-core
Intel Xeon Phi 7230 and a Cray Aries dragonfly interconnect.  Each HEP
workflow instance occupies a small number of nodes (4, 8 or 16), split between
HEPnOS servers and the applications using them.

The platform model provides:

* :class:`Platform` — machine-wide constants (cores per node, network model,
  parallel-file-system bandwidth).
* :class:`Node` — one compute node: its network interface plus a simple core
  accounting scheme used to derive an *oversubscription slowdown*.  Busy
  components (busy-spinning progress loops, ``fifo`` pools, worker threads)
  register their demand; when total demand exceeds the physical core count,
  compute-bound service times are inflated proportionally.  This is the
  mechanism through which "32 processes per node with 63 threads each" becomes
  a bad configuration, exactly as on the real machine.
* :class:`NodeAllocation` — the split of a workflow instance's nodes between
  HEPnOS and the applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.sim import Environment
from repro.mochi.mercury import NetworkInterface, NetworkModel

__all__ = ["Platform", "Node", "NodeAllocation", "THETA"]


@dataclass(frozen=True)
class Platform:
    """Machine-wide constants.

    Attributes
    ----------
    name:
        Platform label.
    cores_per_node:
        Physical cores per node (Theta: 64).
    network:
        Interconnect model shared by all nodes.
    pfs_read_bandwidth:
        Aggregate parallel-file-system read bandwidth available to one node,
        bytes/s (used by the data loader when reading HDF5 files).
    pfs_per_process_bandwidth:
        Read bandwidth a single process can sustain on its own, bytes/s.
    """

    name: str = "theta"
    cores_per_node: int = 64
    network: NetworkModel = field(default_factory=NetworkModel)
    pfs_read_bandwidth: float = 2.0e9
    pfs_per_process_bandwidth: float = 0.45e9

    def __post_init__(self) -> None:
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        if self.pfs_read_bandwidth <= 0 or self.pfs_per_process_bandwidth <= 0:
            raise ValueError("file-system bandwidths must be positive")


#: The default platform used throughout the reproduction (Theta-like).
THETA = Platform()


class Node:
    """One compute node: NIC plus core-demand accounting.

    Parameters
    ----------
    env:
        Simulation environment.
    platform:
        The owning :class:`Platform`.
    name:
        Node label (e.g. ``"hepnos-0"`` or ``"app-2"``).
    """

    def __init__(self, env: Environment, platform: Platform, name: str):
        self.env = env
        self.platform = platform
        self.name = name
        self.nic = NetworkInterface(env, platform.network, node_name=name)
        self._pinned_cores = 0.0
        self._worker_threads = 0.0

    # -------------------------------------------------------------- accounting
    def register_pinned(self, cores: float) -> None:
        """Register cores that are permanently occupied (busy loops, spinners)."""
        if cores < 0:
            raise ValueError("cores must be non-negative")
        self._pinned_cores += cores

    def register_workers(self, threads: float) -> None:
        """Register worker threads that are busy while the workload runs."""
        if threads < 0:
            raise ValueError("threads must be non-negative")
        self._worker_threads += threads

    def reset_accounting(self) -> None:
        """Clear all registered demand (used between workflow steps)."""
        self._pinned_cores = 0.0
        self._worker_threads = 0.0

    @property
    def pinned_cores(self) -> float:
        """Currently registered permanently-occupied cores."""
        return self._pinned_cores

    @property
    def worker_threads(self) -> float:
        """Currently registered worker threads."""
        return self._worker_threads

    @property
    def core_demand(self) -> float:
        """Total core demand (pinned + workers)."""
        return self._pinned_cores + self._worker_threads

    def slowdown(self) -> float:
        """Oversubscription factor applied to compute-bound service times.

        1.0 while demand fits in the physical cores; grows linearly with the
        oversubscription ratio beyond that.
        """
        demand = self.core_demand
        cores = float(self.platform.cores_per_node)
        if demand <= cores:
            return 1.0
        return demand / cores

    def available_core_fraction(self) -> float:
        """Fraction of the node's cores not pinned by spinners/progress loops."""
        cores = float(self.platform.cores_per_node)
        return max(0.0, cores - self._pinned_cores) / cores

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Node {self.name!r} demand={self.core_demand:.1f}/"
            f"{self.platform.cores_per_node}>"
        )


@dataclass
class NodeAllocation:
    """Split of one workflow instance's nodes between HEPnOS and applications.

    The paper's setups use a 1:3 split (e.g. 4 nodes = 1 HEPnOS + 3
    application nodes, 16 nodes = 4 + 12).
    """

    hepnos_nodes: List[Node]
    app_nodes: List[Node]

    @classmethod
    def create(
        cls,
        env: Environment,
        platform: Platform,
        num_nodes: int,
        hepnos_fraction: float = 0.25,
    ) -> "NodeAllocation":
        """Create an allocation of ``num_nodes`` nodes.

        ``hepnos_fraction`` of the nodes (at least one) run HEPnOS servers;
        the rest run the data loader / PEP applications.
        """
        if num_nodes < 2:
            raise ValueError("a workflow instance needs at least 2 nodes")
        n_hepnos = max(1, int(round(num_nodes * hepnos_fraction)))
        n_app = num_nodes - n_hepnos
        if n_app < 1:
            raise ValueError("allocation leaves no application nodes")
        hepnos_nodes = [
            Node(env, platform, name=f"hepnos-{i}") for i in range(n_hepnos)
        ]
        app_nodes = [Node(env, platform, name=f"app-{i}") for i in range(n_app)]
        return cls(hepnos_nodes=hepnos_nodes, app_nodes=app_nodes)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes in the allocation."""
        return len(self.hepnos_nodes) + len(self.app_nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<NodeAllocation hepnos={len(self.hepnos_nodes)} "
            f"app={len(self.app_nodes)}>"
        )
