"""Storing relations in the PIM module.

A :class:`StoredRelation` places every record of a relation in one crossbar
row (the layout of previous bulk-bitwise PIM works and of this paper), or —
when the record does not fit in a single row — across two aligned crossbars
(*vertical partitioning*, Section III).  Records fill crossbars in order, so
record ``i`` lives in crossbar ``i // rows`` at row ``i % rows``; crossbars
are grouped 32 to a 2 MB huge page.

The class offers functional access to the stored bits (used by the host read
path, the aggregation circuit and the tests) while all timing/energy
accounting is performed by the executor and read-path models that operate on
it.
"""

from __future__ import annotations

import hashlib
import heapq
from collections.abc import Sequence

import numpy as np

from repro.db.encoding import RowLayout
from repro.db.query import conj, evaluate_predicate
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.pim.module import PimAllocation, PimModule
from repro.pim.packed import field_dtype

#: :meth:`StoredRelation.group_domain` counts values below this bound (one
#: ``bincount``, ~10x faster than ``np.unique``'s sort on a 15 k-row SSB
#: shard) and sorts above it.  Every SSB GROUP-BY column falls below.
_COUNTED_DOMAIN = 1 << 16


class RelationFullError(RuntimeError):
    """An INSERT found no free slot (no tombstone and no spare capacity)."""


class StoredRelation:
    """A relation resident in bulk-bitwise PIM memory.

    Slot semantics (the DML subsystem, :mod:`repro.db.dml`):

    * ``num_records`` is the number of *slots in use* — the high-water mark of
      rows ever written.  It grows when an INSERT lands in the allocation's
      spare capacity tail and shrinks when compaction rewrites the live rows
      densely.
    * The layout's valid bit distinguishes **live** rows from **tombstones**
      (rows cleared by DELETE, awaiting reuse or compaction).  Every query
      path already ANDs with the valid column, so tombstones never contribute
      to any result.
    * ``self.relation`` stays *slot-aligned*: ground-truth row ``i`` describes
      slot ``i``, including tombstoned slots (whose values are stale but
      masked).  The live contents are :meth:`live_relation`.
    """

    def __init__(
        self,
        relation: Relation,
        module: PimModule,
        label: str | None = None,
        partitions: Sequence[Sequence[str]] | None = None,
        aggregation_width: int | None = None,
        reserve_bulk_aggregation: bool = True,
        layouts: Sequence[RowLayout] | None = None,
    ) -> None:
        self.relation = relation
        self.module = module
        self.label = label or relation.schema.name
        self.num_records = len(relation)
        if self.num_records == 0:
            raise ValueError("cannot store an empty relation")

        if partitions is None:
            partitions = [relation.schema.names]
        self.partition_attributes: list[list[str]] = [list(p) for p in partitions]
        self._validate_partitions()

        xbar = module.config.crossbar
        if layouts is not None and len(layouts) != len(self.partition_attributes):
            raise ValueError(
                f"got {len(layouts)} layouts for "
                f"{len(self.partition_attributes)} vertical partitions"
            )
        self.layouts: list[RowLayout] = []
        self.allocations: list[PimAllocation] = []
        for index, attrs in enumerate(self.partition_attributes):
            if layouts is not None:
                # Horizontal shards of one relation share layout objects so a
                # program compiled against the layout (the program cache keys
                # on layout identity) is reusable verbatim on every shard.
                layout = layouts[index]
                if list(layout.schema.names) != list(attrs):
                    raise ValueError(
                        f"layout {index} covers {list(layout.schema.names)}, "
                        f"partition needs {list(attrs)}"
                    )
            else:
                schema = relation.schema.subset(attrs, f"{self.label}/p{index}")
                layout = RowLayout(
                    schema,
                    columns=xbar.columns,
                    rows=xbar.rows,
                    aggregation_width=self._partition_aggregation_width(
                        schema, aggregation_width
                    ),
                    reserve_bulk_aggregation=reserve_bulk_aggregation,
                    read_width_bits=xbar.read_width_bits,
                )
            allocation = module.allocate_for_records(
                self.num_records, f"{self.label}/p{index}"
            )
            self.layouts.append(layout)
            self.allocations.append(allocation)
        self._attribute_partition: dict[str, int] = {}
        for index, attrs in enumerate(self.partition_attributes):
            for name in attrs:
                self._attribute_partition[name] = index
        # DML bookkeeping: tombstoned slots available for reuse (a min-heap,
        # so reuse fills the lowest slots first) and the live-row counter.
        self._free_slots: list[int] = []
        self.live_count = self.num_records
        self._load()
        # Per-crossbar "this bookkeeping column may hold ones" flags, one lazy
        # map per vertical partition keyed by column index (the filter, group
        # and valid columns in practice).  Pruned execution clears a column only on
        # crossbars that are both skipped and dirty, so a run over a clean
        # relation pays no clear broadcast at all.
        self._column_dirty: list[dict[int, np.ndarray]] = [
            {} for _ in self.allocations
        ]
        self._mark_valid_dirty()
        # Imported lazily: the planner package reaches back into the host
        # read-path model, which imports this module.
        from repro.planner.planner import RelationStatistics

        #: Zone maps + selectivity histograms, maintained under DML.
        self.statistics = RelationStatistics.from_stored(self)

    # ---------------------------------------------------------------- set-up
    def _validate_partitions(self) -> None:
        seen: dict[str, int] = {}
        for index, attrs in enumerate(self.partition_attributes):
            for name in attrs:
                self.relation.schema.attribute(name)  # raises if unknown
                if name in seen:
                    raise ValueError(f"attribute {name!r} assigned to two partitions")
                seen[name] = index
        missing = set(self.relation.schema.names) - set(seen)
        if missing:
            raise ValueError(f"attributes not assigned to any partition: {sorted(missing)}")

    @staticmethod
    def _partition_aggregation_width(
        schema: Schema, aggregation_width: int | None
    ) -> int:
        if aggregation_width is None:
            return max(a.width for a in schema)
        return min(aggregation_width, max(a.width for a in schema))

    def _load(self) -> None:
        for partition, (layout, allocation, attrs) in enumerate(zip(
            self.layouts, self.allocations, self.partition_attributes
        )):
            bank = allocation.bank
            capacity = allocation.record_capacity
            buffers: dict[np.dtype, np.ndarray] = {}
            for name in attrs:
                self.write_dense_field(
                    partition, name, self.relation.column(name), buffers
                )
            valid = np.zeros(capacity, dtype=bool)
            valid[: self.num_records] = True
            bank.write_bool_column(
                layout.valid_column,
                valid.reshape(bank.count, bank.rows),
                count_wear=False,
            )
            bank.reset_wear()

    def write_dense_field(
        self,
        partition: int,
        name: str,
        column: np.ndarray,
        buffers: dict[np.dtype, np.ndarray],
    ) -> None:
        """Encode the dense ground truth of ``name`` into every row.

        The column (in the field's own dtype) is fit-checked against the
        field width, staged into the partition's capacity-long buffer of
        that dtype (``buffers``, one per dtype: every field overwrites the
        same prefix, so the tail stays zero) and written with one
        ``write_field_column``.  Wear is the caller's.
        """
        offset, width = self.layouts[partition].fields[name]
        if width < 64 and column.size and int(column.max()) >> width:
            raise ValueError(
                f"attribute {name!r} has values that do not fit in {width} bits"
            )
        dtype = field_dtype(width)
        staged = buffers.get(dtype)
        if staged is None:
            staged = buffers[dtype] = np.zeros(
                self.allocations[partition].record_capacity, dtype=dtype
            )
        staged[: column.size] = column
        bank = self.allocations[partition].bank
        bank.write_field_column(
            offset, width, staged.reshape(bank.count, bank.rows), count_wear=False
        )

    # ------------------------------------------------------------- geometry
    @property
    def shards(self) -> tuple[StoredRelation]:
        """The stores of this relation: itself (a sharded relation has K)."""
        return (self,)

    @property
    def pages(self) -> int:
        """Huge pages per vertical partition (M in the paper's notation)."""
        return self.allocations[0].pages

    @property
    def partitions(self) -> int:
        """Number of vertical partitions (1 for one-xb, 2 for two-xb)."""
        return len(self.partition_attributes)

    @property
    def records_per_page(self) -> int:
        return self.module.config.records_per_page

    @property
    def rows_per_crossbar(self) -> int:
        return self.allocations[0].rows_per_crossbar

    @property
    def crossbars_per_partition(self) -> int:
        return self.allocations[0].crossbars

    @property
    def record_capacity(self) -> int:
        """Slots the allocations can hold (every partition has the same)."""
        return min(a.record_capacity for a in self.allocations)

    # ------------------------------------------------------- slot accounting
    @property
    def tombstone_count(self) -> int:
        """Slots in use whose valid bit was cleared by a DELETE."""
        return self.num_records - self.live_count

    @property
    def free_slots(self) -> int:
        """Slots an INSERT can claim: tombstones plus the spare capacity tail."""
        return self.record_capacity - self.live_count

    @property
    def fragmentation(self) -> float:
        """Tombstoned fraction of the slots in use (compaction trigger)."""
        if self.num_records == 0:
            return 0.0
        return self.tombstone_count / self.num_records

    def acquire_slot(self) -> tuple[int, bool]:
        """Pick the slot for one INSERT: ``(slot, reused)``.

        Tombstones are reused lowest-first; otherwise the slot after the
        high-water mark is returned (the caller grows ``num_records`` and the
        ground-truth relation together).  Raises :class:`RelationFullError`
        when the allocation is full of live rows.
        """
        if self._free_slots:
            return heapq.heappop(self._free_slots), True
        if self.num_records < self.record_capacity:
            return self.num_records, False
        raise RelationFullError(
            f"{self.label!r} is full: {self.live_count} live records in "
            f"{self.record_capacity} slots"
        )

    def register_tombstones(self, slots: np.ndarray) -> None:
        """Record slots whose valid bit a DELETE just cleared."""
        slots = np.asarray(slots, dtype=np.int64)
        for slot in slots:
            heapq.heappush(self._free_slots, int(slot))
        self.live_count -= len(slots)
        # Count-decrement the zone maps: a tombstoned value may keep a
        # crossbar a candidate (bounds stay wide), never hide a live match.
        # Candidate-cache epochs are deliberately NOT bumped here — the
        # cached per-fragment masks are bounds-only and remain exact.
        self.statistics.note_delete(slots, self.relation)

    def note_insert(self, slots: np.ndarray, columns) -> None:
        """Widen the statistics with a freshly inserted batch.

        ``columns`` maps every attribute to the encoded values written into
        ``slots``.  Also bumps the candidate-cache epochs of the crossbars
        the records landed in, so cached pruning verdicts re-validate just
        those crossbars.
        """
        self.statistics.note_insert(slots, columns)
        # The batch raises the valid bit of its slots.
        crossbars = np.asarray(slots, dtype=np.int64) // self.rows_per_crossbar
        for partition, layout in enumerate(self.layouts):
            self.column_dirty_mask(partition, layout.valid_column)[crossbars] = True

    def note_update(self, attribute: str, encoded: int, mask: np.ndarray) -> None:
        """Widen the statistics with an UPDATE's assignment.

        ``mask`` selects the updated slots; the zone maps of the crossbars
        they live in are widened with the assigned constant, the histogram
        moves the old values to the new bucket, and the candidate-cache
        epochs of exactly those crossbars are bumped.
        """
        slots = np.nonzero(np.asarray(mask, dtype=bool))[0]
        if slots.size == 0:
            return
        crossbars = np.unique(slots // self.rows_per_crossbar)
        old_values = self.relation.columns[attribute][slots]
        self.statistics.note_update(attribute, encoded, crossbars, old_values)

    def reset_slots_after_compaction(self) -> None:
        """All live rows were rewritten densely into the lowest slots (and
        into the dense prefix of the ground truth)."""
        self._free_slots = []
        self.num_records = self.live_count
        # Compaction rewrote every row densely and scrubbed the bookkeeping
        # columns: refresh the statistics from the dense prefix and mark
        # every tracked column clean, except where valid bits were rewritten.
        self.statistics.rebuild(self.relation)
        for dirty in self._column_dirty:
            for mask in dirty.values():
                mask[:] = False
        self._mark_valid_dirty()

    def group_domain(self, attribute: str, conjuncts: tuple) -> tuple[int, ...]:
        """Sorted distinct values of ``attribute`` over the slots in use that
        satisfy every predicate in ``conjuncts`` — over all of them when none
        does.  Catalogue knowledge, read from the ground truth; the engine
        asks for it once per plan, which it memoises per data version."""
        column = values = self.relation.column(attribute)
        if conjuncts:
            values = column[evaluate_predicate(conj(*conjuncts), self.relation)]
        if values.size == 0:
            values = column
        if values.size and int(values.max()) < _COUNTED_DOMAIN:
            return tuple(np.flatnonzero(np.bincount(values.astype(np.intp))).tolist())
        return tuple(np.unique(values).tolist())

    # ------------------------------------------------------- column dirtiness
    def column_dirty_mask(self, partition: int, column: int) -> np.ndarray:
        """Crossbars on which ``column`` may hold ones (per partition).

        Untracked columns start all-clean: bookkeeping columns are zero at
        load time, and every path that can set their bits records it here.
        """
        masks = self._column_dirty[partition]
        mask = masks.get(column)
        if mask is None:
            mask = np.zeros(self.allocations[partition].crossbars, dtype=bool)
            masks[column] = mask
        return mask

    def _mark_valid_dirty(self) -> None:
        """The valid column holds ones on the crossbars of the slots in use
        (after the load and after a compaction, which write it directly)."""
        in_use = -(-self.num_records // self.rows_per_crossbar)
        for partition, layout in enumerate(self.layouts):
            self.mark_column_dirty(
                partition, layout.valid_column,
                np.arange(self.allocations[partition].crossbars) < in_use,
            )

    def mark_column_dirty(
        self, partition: int, column: int, candidates: np.ndarray
    ) -> None:
        """Record which crossbars a program just wrote ``column`` on.

        A candidate run leaves exactly its candidate set dirty (skipped
        crossbars were cleared or already clean).
        """
        np.copyto(self.column_dirty_mask(partition, column), candidates)

    def partition_of(self, attribute: str) -> int:
        """Index of the vertical partition storing an attribute."""
        try:
            return self._attribute_partition[attribute]
        except KeyError:
            raise KeyError(
                f"attribute {attribute!r} is not stored in {self.label!r}"
            ) from None

    def layout_of(self, attribute: str) -> RowLayout:
        return self.layouts[self.partition_of(attribute)]

    # ------------------------------------------------------------ functional
    def _crossbars_in_use(self, slots: int) -> slice:
        """The crossbar prefix holding the first ``slots`` slots."""
        return slice(-(-slots // self.rows_per_crossbar))

    def decode_column(self, attribute: str) -> np.ndarray:
        """Decode an attribute of every slot in use from the crossbar bits.

        The result is *slot-aligned* with the ground-truth relation: one
        value per slot up to the valid-mask high-water mark ``num_records``
        (tombstoned slots included), not a fixed load-time prefix — indices
        from a filter bit-vector index it directly.  Only the crossbars
        holding those slots are unpacked.
        """
        partition = self.partition_of(attribute)
        bank = self.allocations[partition].bank
        offset, width = self.layouts[partition].fields[attribute]
        flat = bank.read_field_all(
            offset, width, self._crossbars_in_use(self.num_records)
        ).reshape(-1)
        return flat[: self.num_records]

    def decode_cells(self, attribute: str, slots: np.ndarray) -> np.ndarray:
        """Decode an attribute of the listed slots: ``decode_column(...)[slots]``.

        One ``read_field_cells`` call (the bank picks gather or bounded
        decode).  Raises ``IndexError`` for a slot outside the slots in use.
        """
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size and (slots.min() < 0 or slots.max() >= self.num_records):
            raise IndexError(f"slot outside the slots in use 0..{self.num_records}")
        partition = self.partition_of(attribute)
        offset, width = self.layouts[partition].fields[attribute]
        rows = self.rows_per_crossbar
        return self.allocations[partition].bank.read_field_cells(
            slots // rows, slots % rows, offset, width
        )

    def column_bit(
        self, partition: int, column: int, limit: int | None = None
    ) -> np.ndarray:
        """Read one bookkeeping bit column of every slot in use (slot-aligned),
        or of the first ``limit`` slots; only their crossbars are unpacked."""
        slots = self.num_records if limit is None else min(limit, self.num_records)
        bank = self.allocations[partition].bank
        flat = bank.read_column(column, self._crossbars_in_use(slots)).reshape(-1)
        return flat[:slots]

    def filter_mask(self, partition: int = 0, limit: int | None = None) -> np.ndarray:
        """The filter bit of every record (of the first ``limit``) in a partition."""
        return self.column_bit(partition, self.layouts[partition].filter_column, limit)

    def valid_mask(self, partition: int = 0) -> np.ndarray:
        """The valid bit of every slot in use (true for live records)."""
        return self.column_bit(partition, self.layouts[partition].valid_column)

    def live_relation(self) -> Relation:
        """The live ground truth: slot-aligned relation minus the tombstones."""
        return self.relation.select(self.valid_mask(0))

    def write_bit_column(
        self, partition: int, column: int, values: np.ndarray, count_wear: bool = True
    ) -> None:
        """Overwrite a bookkeeping bit column (functional host-write helper).

        ``values`` must hold exactly one bit per slot in use
        (``num_records``); a wrong-length array is a caller bug and fails
        loudly instead of being silently truncated or zero-padded.  Slots
        beyond the high-water mark are always cleared.

        The caller is responsible for charging the corresponding write
        traffic; the executor's two-xb filter-transfer path does so.  With
        ``count_wear=False`` the wear counters are left untouched — used by
        the batched pim-gb's known-bits store
        (:func:`repro.core.stages.apply_program_pruned` with ``result_bits``),
        which adds the per-key program's wear from its metadata instead.
        """
        values = np.asarray(values, dtype=bool)
        if values.shape != (self.num_records,):
            raise ValueError(
                f"bit column needs one value per slot in use "
                f"({self.num_records}), got shape {values.shape}"
            )
        bank = self.allocations[partition].bank
        capacity = self.allocations[partition].record_capacity
        padded = np.zeros(capacity, dtype=bool)
        padded[: self.num_records] = values
        shaped = padded.reshape(bank.count, bank.rows)
        bank.write_bool_column(column, shaped, count_wear=count_wear)
        # The whole column was just overwritten, so its dirtiness is known
        # exactly: the crossbars that received at least one set bit.
        self.mark_column_dirty(partition, column, shaped.any(axis=1))

    # ------------------------------------------------------------------ wear
    def wear_snapshot(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-partition snapshots of the wear counters."""
        return [allocation.bank.wear_snapshot() for allocation in self.allocations]

    def max_writes_since(
        self, snapshots: list[tuple[np.ndarray, np.ndarray]]
    ) -> int:
        """Worst per-row write count since the snapshots were taken."""
        return max(
            allocation.bank.max_writes_since(snapshot)
            for allocation, snapshot in zip(self.allocations, snapshots)
        )

    # ---------------------------------------------------------------- digest
    def state_parts(self) -> dict[str, str]:
        """sha256 of each named part of what a later statement could observe.

        ``bank`` is every partition's cells outside the scratch area (programs
        overwrite scratch before reading it), hashed in the backend's own
        cell representation, so equal digests need equal bank backends — the
        packed bank in ``(xbar, column, word)`` order, whatever its memory
        layout; ``wear`` the write counters,
        ``dirty`` the dirty-crossbar masks; ``zonemaps``, ``epochs`` (the
        candidate cache's), ``histograms`` (edges, counts, total),
        ``pair-sketch`` and ``adaptive`` (the feedback accumulators) the
        statistics; ``slots`` the statistics version, slot and live counts
        and the free list; ``ground-truth`` the slot-aligned relation.  The
        plan and candidate memos stay out: they cache hashed state.
        """
        parts = {}

        def part(name: str, *values) -> None:
            digest = hashlib.sha256()
            for array in map(np.ascontiguousarray, values):
                digest.update(f"{array.dtype}{array.shape}".encode() + array.tobytes())
            parts[name] = digest.hexdigest()

        banks = [allocation.bank for allocation in self.allocations]
        # Scratch is the tail of a row, so the cells kept are a slice.
        part("bank", *(
            bank.words[: layout.used_columns].transpose(1, 0, 2)
            if hasattr(bank, "words")
            else bank.bits[:, :, : layout.used_columns]
            for bank, layout in zip(banks, self.layouts)
        ))
        part("wear", *(bank.writes_per_row for bank in banks))
        part("dirty", *(
            value
            for partition, dirty in enumerate(self._column_dirty)
            for column in sorted(dirty)
            if dirty[column].any()          # untracked == tracked and clean
            for value in (np.int64(partition), np.int64(column), dirty[column])
        ))
        statistics = self.statistics
        zonemaps = statistics.zonemaps
        names = self.relation.schema.names
        part("zonemaps", zonemaps.live, *(
            bounds[name] for name in names for bounds in (zonemaps.mins, zonemaps.maxs)
        ))
        part("epochs", statistics.candidates.epochs)
        part("histograms", *(
            value
            for name, histogram in sorted(statistics.selectivity.histograms.items())
            for value in (name, histogram.edges, histogram.counts, np.int64(histogram.total))
        ))
        pair = statistics.pair_map
        part("pair-sketch", *(() if pair is None else (*pair.attributes, pair.sketch)))
        adaptive = statistics.adaptive
        part(
            "adaptive",
            np.array([adaptive.observations, adaptive.rebuilds]),
            *(
                value
                for name, feedback in sorted(adaptive.columns.items())
                for value in (name, np.array(
                    [feedback.observations, feedback.scan_volume]
                ))
            ),
            *(
                value
                for pair_names, volume in sorted(adaptive.pair_volume.items())
                for value in (*pair_names, np.float64(volume))
            ),
        )
        part(
            "slots",
            np.array([statistics._version, self.num_records, self.live_count]),
            np.array(sorted(self._free_slots), dtype=np.int64),
        )
        # Values, not storage: hashed as uint64 whatever dtype holds them.
        part("ground-truth", *(
            self.relation.columns[name].astype(np.uint64, copy=False) for name in names
        ))
        return parts

    def state_digest(self) -> str:
        """sha256 over :meth:`state_parts`: "no stored bit, statistic or wear
        moved" is equality of this value (per bank backend)."""
        return hashlib.sha256(
            "".join(f"{name}={value};" for name, value in self.state_parts().items())
            .encode()
        ).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StoredRelation({self.label!r}, records={self.num_records}, "
            f"partitions={self.partitions}, pages={self.pages})"
        )
