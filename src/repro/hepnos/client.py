"""HEPnOS client API used by the data loader and the PEP application.

The client is bound to the Margo engine of the *calling* application process
and to the :class:`~repro.hepnos.service.HEPnOSService` it talks to.  Its
methods are discrete-event generators that application processes ``yield
from``; each method issues the RPCs a real HEPnOS client would issue, with
the batch structure dictated by the tuning parameters (``WriteBatchSize``,
``InputBatchSize``, ``UsePreloading``, ``UseRDMA``).

Chunking
--------
A single input file holds thousands of events; storing it with a batch size of
1 would mean thousands of RPCs, each a handful of microseconds.  To keep the
simulation tractable the client *coalesces* consecutive same-destination RPCs
into at most ``max_chunks_per_call`` chunk-RPCs whose cost is exactly the sum
of the coalesced RPCs' costs (per-RPC progress latency, handler dispatch and
Yokan time are all charged per logical RPC).  The chunking only coarsens the
interleaving granularity, never the total work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional

from repro.mochi.margo import MargoEngine
from repro.hepnos.service import HEPnOSService

__all__ = ["HEPnOSClient", "StoredBlock", "StoreStats", "LoadStats"]

#: Approximate serialised size of one event descriptor (key + metadata), bytes.
EVENT_ENTRY_BYTES = 64
#: Approximate size of an RPC request/response header, bytes.
RPC_HEADER_BYTES = 256


@dataclass(frozen=True)
class StoredBlock:
    """Summary record describing one stored file's events (the PEP work unit)."""

    file_name: str
    num_events: int
    product_bytes: int
    event_db: int
    product_db: int

    def to_value(self) -> bytes:
        """Serialise to the bytes stored in the event database."""
        return json.dumps(
            {
                "file": self.file_name,
                "events": self.num_events,
                "product_bytes": self.product_bytes,
                "event_db": self.event_db,
                "product_db": self.product_db,
            }
        ).encode("utf-8")

    @classmethod
    def from_value(cls, value: bytes) -> "StoredBlock":
        """Inverse of :meth:`to_value`."""
        data = json.loads(value.decode("utf-8"))
        return cls(
            file_name=data["file"],
            num_events=int(data["events"]),
            product_bytes=int(data["product_bytes"]),
            event_db=int(data["event_db"]),
            product_db=int(data["product_db"]),
        )


@dataclass
class StoreStats:
    """Outcome of storing one file."""

    file_name: str
    num_events: int
    bytes_stored: int
    num_rpcs: int
    elapsed: float


@dataclass
class LoadStats:
    """Outcome of loading the products of one block."""

    num_events: int
    bytes_loaded: int
    num_rpcs: int
    elapsed: float


class HEPnOSClient:
    """Client handle bound to one application process.

    Parameters
    ----------
    engine:
        The Margo engine of the calling process.
    service:
        The HEPnOS service to talk to.
    use_rdma:
        Whether bulk payloads may use RDMA (the paper's ``UseRDMA``).
    max_chunks_per_call:
        Upper bound on the number of chunk-RPCs a single client call issues
        (see module docstring).
    """

    def __init__(
        self,
        engine: MargoEngine,
        service: HEPnOSService,
        use_rdma: bool = True,
        max_chunks_per_call: int = 8,
    ):
        if max_chunks_per_call < 1:
            raise ValueError("max_chunks_per_call must be >= 1")
        self.engine = engine
        self.service = service
        self.use_rdma = bool(use_rdma)
        self.max_chunks = int(max_chunks_per_call)

    # ------------------------------------------------------------------ store
    def store_file(
        self,
        file_name: str,
        num_events: int,
        product_bytes_per_event: int,
        write_batch_size: int,
        dataset: str = "nova",
    ):
        """DES generator: store one file's events and products into HEPnOS.

        Events from one file all land in a single event database and their
        products in a single product database (hash of the file name), as in
        the real HEPnOS data loader.  Returns a :class:`StoreStats`.
        """
        if num_events <= 0:
            return StoreStats(file_name, 0, 0, 0, 0.0)
        if write_batch_size < 1:
            raise ValueError("write_batch_size must be >= 1")
        start = self.engine.env.now

        event_db_idx = self.service.event_db_for_file(file_name)
        product_db_idx = self.service.product_db_for_file(file_name)
        event_server, event_db = self.service.event_db(event_db_idx)
        product_server, product_db = self.service.product_db(product_db_idx)
        event_pool = event_server.pool_for(event_db)
        product_pool = product_server.pool_for(product_db)

        num_batches = math.ceil(num_events / write_batch_size)
        total_product_bytes = num_events * product_bytes_per_event
        total_event_bytes = num_events * EVENT_ENTRY_BYTES

        block = StoredBlock(
            file_name=file_name,
            num_events=num_events,
            product_bytes=total_product_bytes,
            event_db=event_db_idx,
            product_db=product_db_idx,
        )

        # --- products: the bulk of the payload ------------------------------
        num_rpcs = 0
        chunks = _chunk_counts(num_batches, self.max_chunks)
        events_left = num_events
        for i, batches_in_chunk in enumerate(chunks):
            events_in_chunk = min(events_left, batches_in_chunk * write_batch_size)
            events_left -= events_in_chunk
            chunk_product_bytes = events_in_chunk * product_bytes_per_event
            # Extra fixed cost of the coalesced RPCs (all but the one we issue).
            extra = (batches_in_chunk - 1) * self._per_rpc_fixed_cost(product_server.engine)
            if extra > 0:
                yield self.engine.env.timeout(extra)
            handler = product_db.bulk_put_accounted(
                count=events_in_chunk,
                total_bytes=chunk_product_bytes,
                record_key=b"PBLOCK|" + f"{file_name}|{i}".encode(),
                record_value=b"%d" % events_in_chunk,
            )
            yield from self.engine.call(
                product_server.engine,
                product_pool,
                request_size=RPC_HEADER_BYTES + chunk_product_bytes,
                response_size=RPC_HEADER_BYTES,
                handler=handler,
                use_rdma=self.use_rdma,
            )
            num_rpcs += batches_in_chunk

        # --- events: small descriptors + the block summary record -----------
        extra = (num_batches - 1) * self._per_rpc_fixed_cost(event_server.engine)
        if extra > 0:
            yield self.engine.env.timeout(extra)
        handler = event_db.bulk_put_accounted(
            count=num_events,
            total_bytes=total_event_bytes,
            record_key=b"BLOCK|" + file_name.encode(),
            record_value=block.to_value(),
        )
        yield from self.engine.call(
            event_server.engine,
            event_pool,
            request_size=RPC_HEADER_BYTES + total_event_bytes,
            response_size=RPC_HEADER_BYTES,
            handler=handler,
            use_rdma=self.use_rdma,
        )
        num_rpcs += num_batches

        elapsed = self.engine.env.now - start
        return StoreStats(
            file_name=file_name,
            num_events=num_events,
            bytes_stored=total_product_bytes + total_event_bytes,
            num_rpcs=num_rpcs,
            elapsed=elapsed,
        )

    # ------------------------------------------------------------------- list
    def list_event_blocks(self, event_db_index: int):
        """DES generator: list the stored blocks of one event database.

        This is the PEP application's "listing" phase: one process per event
        database enumerates the events it holds.  Returns a list of
        :class:`StoredBlock`.
        """
        server, db = self.service.event_db(event_db_index)
        pool = server.pool_for(db)

        def handler():
            keys = yield from db.list_keys(prefix=b"BLOCK|")
            values = yield from db.get_multi(keys)
            return [StoredBlock.from_value(v) for v in values if v is not None]

        _, blocks = yield from self.engine.call(
            server.engine,
            pool,
            request_size=RPC_HEADER_BYTES,
            response_size=RPC_HEADER_BYTES
            + sum(len(db.value_of(k)) for k in db.keys() if k.startswith(b"BLOCK|")),
            handler=handler(),
            use_rdma=self.use_rdma,
        )
        return blocks

    # ------------------------------------------------------------------- load
    def load_products(
        self,
        block: StoredBlock,
        input_batch_size: int,
        preloading: bool,
        events: Optional[int] = None,
    ):
        """DES generator: load the products of (part of) a stored block.

        Parameters
        ----------
        block:
            The block whose products are read.
        input_batch_size:
            Number of events fetched per logical request (``InputBatchSize``).
        preloading:
            If True, products are prefetched in per-batch bulk requests
            (``UsePreloading``); otherwise every product is a separate RPC.
        events:
            Number of events to load (defaults to the whole block).

        Returns a :class:`LoadStats`.
        """
        if input_batch_size < 1:
            raise ValueError("input_batch_size must be >= 1")
        num_events = block.num_events if events is None else min(events, block.num_events)
        if num_events <= 0:
            return LoadStats(0, 0, 0, 0.0)
        start = self.engine.env.now

        server, db = self.service.product_db(block.product_db)
        pool = server.pool_for(db)
        bytes_per_event = (
            block.product_bytes // block.num_events if block.num_events else 0
        )
        total_bytes = num_events * bytes_per_event

        if preloading:
            num_requests = math.ceil(num_events / input_batch_size)
        else:
            num_requests = num_events

        chunks = _chunk_counts(num_requests, self.max_chunks)
        events_per_request = num_events / num_requests
        num_rpcs = 0
        for requests_in_chunk in chunks:
            events_in_chunk = int(round(requests_in_chunk * events_per_request))
            events_in_chunk = max(1, min(events_in_chunk, num_events))
            chunk_bytes = events_in_chunk * bytes_per_event
            extra = (requests_in_chunk - 1) * self._per_rpc_fixed_cost(server.engine)
            if not preloading:
                # Per-product loads also pay the single-get overhead per event
                # instead of the amortised batched cost.
                extra += events_in_chunk * (
                    db.cost_model.get_overhead - db.cost_model.batch_per_item
                )
            if extra > 0:
                yield self.engine.env.timeout(extra)
            handler = db.bulk_get_accounted(count=events_in_chunk, total_bytes=chunk_bytes)
            yield from self.engine.call(
                server.engine,
                pool,
                request_size=RPC_HEADER_BYTES,
                response_size=RPC_HEADER_BYTES + chunk_bytes,
                handler=handler,
                use_rdma=self.use_rdma,
            )
            num_rpcs += requests_in_chunk

        return LoadStats(
            num_events=num_events,
            bytes_loaded=total_bytes,
            num_rpcs=num_rpcs,
            elapsed=self.engine.env.now - start,
        )

    # -------------------------------------------------------------- internals
    def _per_rpc_fixed_cost(self, server_engine: MargoEngine) -> float:
        """Fixed cost of one coalesced logical RPC (progress + wire latency)."""
        model = self.service.nodes[0].platform.network if self.service.nodes else None
        latency = model.latency if model is not None else 2.0e-6
        return (
            2 * self.engine.progress_latency()
            + 2 * server_engine.progress_latency()
            + 2 * latency
        )


def _chunk_counts(total: int, max_chunks: int) -> List[int]:
    """Split ``total`` logical operations into at most ``max_chunks`` chunks."""
    if total <= 0:
        return []
    n_chunks = min(total, max_chunks)
    base, rem = divmod(total, n_chunks)
    return [base + (1 if i < rem else 0) for i in range(n_chunks)]
