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

Each shard holds its own copy of its records, so DML on the shards (see
:meth:`repro.service.QueryService.update`, which runs every DML statement on
each of :attr:`ShardedStoredRelation.shards`) never writes into the caller's
relation; :meth:`ShardedStoredRelation.live_relation` is the ground truth.
Counts over the whole relation (live rows, free slots, wear) are sums over
``shards``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

from repro.db.relation import Relation, concatenate
from repro.db.storage import StoredRelation
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
            relation: The full relation; every shard stores a copy of its
                records, so the caller's relation never changes.
            module: PIM module receiving one allocation per shard (per
                vertical partition).
            shards: Number of horizontal shards (``1 <= shards <= records``).
            label: Base label; shard ``k`` is stored as ``"{label}/s{k}"``.
            partitions / aggregation_width / reserve_bulk_aggregation:
                Forwarded to every shard's :class:`StoredRelation`; all
                shards share one layout per vertical partition.
        """
        self.module = module
        self.label = label or relation.schema.name
        self.bounds = shard_bounds(len(relation), shards)
        self.num_shards = len(self.bounds)

        self.shards: list[StoredRelation] = []
        shared_layouts = None
        for index, (start, stop) in enumerate(self.bounds):
            shard_relation = Relation(
                relation.schema,
                {name: relation.columns[name][start:stop].copy()
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

    # ------------------------------------------------------------ functional
    def decode_column(self, attribute: str) -> np.ndarray:
        """Decode an attribute of every slot in use, concatenated across shards."""
        return np.concatenate(
            [shard.decode_column(attribute) for shard in self.shards]
        )

    def live_relation(self) -> Relation:
        """The live ground truth: every shard's live rows, in shard order."""
        return concatenate([shard.live_relation() for shard in self.shards])
