"""Horizontal sharding of a PIM-resident relation.

A :class:`ShardedStoredRelation` splits a relation's records into ``K``
contiguous horizontal shards and stores each shard in its own crossbar
allocation (its own run of 2 MB huge pages) inside one PIM module.  Every
shard is a full :class:`~repro.db.storage.StoredRelation` — same schema, same
vertical partitioning, and crucially the *same* :class:`~repro.db.encoding.RowLayout`
objects — so

* a NOR program compiled once against the shared layout executes verbatim on
  every shard (the :class:`~repro.service.cache.ProgramCache` keys on layout
  identity and therefore hits across shards), and
* the per-shard results merge through the existing partial-aggregate
  machinery with bit-exact global answers.

The shard relations start out as NumPy *views* into the parent relation's
columns, so at load time the parent is the single functional ground truth:
an in-memory UPDATE applied through one shard (see
:meth:`repro.service.QueryService.update`, which runs every DML statement on
each of :attr:`ShardedStoredRelation.shards`) is immediately visible in the
parent relation and vice versa.  DML can grow a shard — a tail INSERT or a
compaction reallocates that shard's columns, decoupling it from the parent —
after which :meth:`ShardedStoredRelation.live_relation` is the authoritative
ground truth and ``self.relation`` is just the load-time snapshot.  Counts
over the whole relation (live rows, free slots, wear) are sums over
``shards``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

from repro.db.relation import Relation, concatenate
from repro.db.storage import StoredRelation
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule


def shard_bounds(num_records: int, shards: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[start, stop)`` record ranges for ``shards``.

    The first ``num_records % shards`` shards receive one extra record, so
    shard sizes differ by at most one and every shard is non-empty.
    """
    if num_records <= 0:
        raise ValueError("num_records must be positive")
    if shards <= 0:
        raise ValueError("shards must be positive")
    if shards > num_records:
        raise ValueError(
            f"cannot split {num_records} records into {shards} non-empty shards"
        )
    base, extra = divmod(num_records, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class ShardedStoredRelation:
    """A relation split into K horizontal shards of PIM memory."""

    def __init__(
        self,
        relation: Relation,
        module: PimModule,
        shards: int = 2,
        label: str | None = None,
        partitions: Sequence[Sequence[str]] | None = None,
        aggregation_width: int | None = None,
        reserve_bulk_aggregation: bool = True,
    ) -> None:
        """Store ``relation`` as ``shards`` horizontal shards in ``module``.

        Args:
            relation: The full relation; it remains the functional ground
                truth shared (by view) with every shard.
            module: PIM module receiving one allocation per shard (per
                vertical partition).
            shards: Number of horizontal shards (``1 <= shards <= records``).
            label: Base label; shard ``k`` is stored as ``"{label}/s{k}"``.
            partitions / aggregation_width / reserve_bulk_aggregation:
                Forwarded to every shard's :class:`StoredRelation`; all
                shards share one layout per vertical partition.
        """
        self.relation = relation
        self.module = module
        self.label = label or relation.schema.name
        self.bounds = shard_bounds(len(relation), shards)
        self.num_shards = len(self.bounds)

        self.shards: list[StoredRelation] = []
        shared_layouts = None
        for index, (start, stop) in enumerate(self.bounds):
            shard_relation = Relation(
                relation.schema,
                {name: relation.columns[name][start:stop]
                 for name in relation.schema.names},
            )
            stored = StoredRelation(
                shard_relation,
                module,
                label=f"{self.label}/s{index}",
                partitions=partitions,
                aggregation_width=aggregation_width,
                reserve_bulk_aggregation=reserve_bulk_aggregation,
                layouts=shared_layouts,
            )
            if shared_layouts is None:
                shared_layouts = stored.layouts
            self.shards.append(stored)

    def state_digest(self) -> str:
        """sha256 over every shard's :meth:`StoredRelation.state_digest`, in order."""
        return hashlib.sha256(
            "".join(shard.state_digest() for shard in self.shards).encode()
        ).hexdigest()

    # ------------------------------------------------------------- executors
    def make_executors(self, config=None) -> list[PimExecutor]:
        """One executor per shard, forked from a shared prototype.

        Scatter execution (queries and per-shard DML alike) gives every
        shard its own executor so per-shard stats never race.
        """
        base = PimExecutor(config if config is not None else self.module.system_config)
        return [base.fork() for _ in self.shards]

    def resolve_executors(
        self, executors: Sequence[PimExecutor] | None, config=None
    ) -> list[PimExecutor]:
        """Validate a caller-supplied executor set, or build a fresh one."""
        if executors is None:
            return self.make_executors(config)
        executors = list(executors)
        if len(executors) != self.num_shards:
            raise ValueError(
                f"need one executor per shard ({self.num_shards}), "
                f"got {len(executors)}"
            )
        return executors

    # ------------------------------------------------------------ functional
    def decode_column(self, attribute: str) -> np.ndarray:
        """Decode an attribute of every slot in use, concatenated across shards."""
        return np.concatenate(
            [shard.decode_column(attribute) for shard in self.shards]
        )

    def live_relation(self) -> Relation:
        """The live ground truth: every shard's live rows, in shard order.

        After DML the parent ``self.relation`` is only the load-time
        snapshot — a shard that grew its columns (tail INSERT or compaction)
        reallocates them and stops aliasing the parent — so this concatenation
        over the shard relations is the authoritative functional reference.
        """
        return concatenate([shard.live_relation() for shard in self.shards])
