"""Per-crossbar zone-map statistics for crossbar skipping.

A relation stored in bulk-bitwise PIM memory places record ``i`` at row
``i % rows`` of crossbar ``i // rows``.  A filter program is normally
broadcast to *every* page of the relation, so its modelled latency, energy
and wear scale with the total crossbar count even when a selective predicate
can only match rows in a few of them.

:class:`ZoneMaps` keeps the classic lightweight per-partition statistics that
let the controller prove most crossbars irrelevant: for every encoded column
the minimum and maximum value stored in each crossbar, plus the live-row
count per crossbar.  The maps are **conservative, never wrong**:

* built exactly at load time;
* *widened* on INSERT (bounds only ever grow looser, so a skipped crossbar
  can never hide a freshly inserted match);
* count-decremented on DELETE (bounds untouched — tombstoned values may keep
  a crossbar a candidate, never the other way around);
* widened with the assigned constant on UPDATE;
* rebuilt exactly from the dense slot prefix on compaction, when every row
  moves anyway, and re-checked by :meth:`ZoneMaps.assert_tight`.

Consequently ``candidates(...) == False`` for a crossbar *proves* that no
live row in it satisfies the conjunction, which is what makes pruned
execution bit-exact with a run on every crossbar.

The check itself is modelled as host-side work on a two-level summary
(per-page ranges first, per-crossbar ranges only inside surviving pages) and
charged to :class:`~repro.pim.stats.PimStats` as the ``zonemap-check`` phase;
maintenance under DML is charged as ``zonemap-maintain``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.config import HostConfig
from repro.db.query import And, Comparison, Or, Predicate
from repro.db.query import (
    BETWEEN,
    EQ,
    GE,
    GT,
    IN,
    LE,
    LT,
    NE,
    encode_comparison,
)
from repro.db.schema import Schema
from repro.pim.stats import PimStats

#: Host cycles to test one zone-map entry (one crossbar's ``(min, max)``
#: range) against one conjunct — a compare pair on cached, SIMD-friendly
#: metadata (two 64-bit compares per entry, vectorized 4-wide).
CHECK_CYCLES = 2.0

#: Host cycles to update one zone-map entry under DML maintenance.
MAINTAIN_CYCLES = 8.0

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def two_level_entries(surviving: np.ndarray, crossbars_per_page: int) -> int:
    """Zone entries a two-level check consults for one conjunct.

    Every per-page summary is read, and the per-crossbar entries only of the
    pages holding a ``surviving`` crossbar (one that is live, still a
    candidate and may satisfy the conjunct).
    """
    crossbars = surviving.size
    pages = max(1, -(-crossbars // crossbars_per_page))
    padded = np.zeros(pages * crossbars_per_page, dtype=bool)
    padded[:crossbars] = surviving
    hit_pages = int(padded.reshape(pages, crossbars_per_page).any(axis=1).sum())
    return pages + hit_pages * crossbars_per_page


@dataclass
class ZoneCheck:
    """Outcome of matching one conjunction against the zone maps."""

    #: Candidate mask over the crossbars (``True`` = must be scanned).
    candidates: np.ndarray
    #: Top-level conjuncts actually evaluated (early exit may skip some).
    conjuncts_checked: int
    #: Zone-map entries consulted (two-level: pages, then crossbars of
    #: surviving pages) — the unit of the modelled check cost.
    entries_checked: int


class ZoneMaps:
    """Per-crossbar ``(min, max, live)`` statistics of a stored relation."""

    def __init__(self, crossbars: int, rows: int, schema: Schema) -> None:
        self.crossbars = int(crossbars)
        self.rows = int(rows)
        self.schema = schema
        self.live = np.zeros(self.crossbars, dtype=np.int64)
        self.mins: dict[str, np.ndarray] = {
            name: np.full(self.crossbars, _U64_MAX, dtype=np.uint64)
            for name in schema.names
        }
        self.maxs: dict[str, np.ndarray] = {
            name: np.zeros(self.crossbars, dtype=np.uint64)
            for name in schema.names
        }

    # ------------------------------------------------------------------ build
    @classmethod
    def from_stored(cls, stored) -> ZoneMaps:
        """Build exact zone maps for a freshly loaded stored relation."""
        maps = cls(
            stored.allocations[0].crossbars,
            stored.rows_per_crossbar,
            stored.relation.schema,
        )
        maps.rebuild(stored.relation.columns)
        return maps

    def rebuild(self, columns: Mapping[str, np.ndarray]) -> None:
        """Recompute every entry exactly from dense columns.

        ``columns`` maps every attribute to its dense prefix, of any unsigned
        dtype (the ground truth holds each in its field's own dtype, at load
        and after a compaction).  Every slot below the prefix length is live, the
        rest is unused capacity: full crossbars reduce through one
        ``reshape``, the partial last one on its own.
        """
        records = len(columns[self.schema.names[0]])
        full, tail = divmod(records, self.rows)
        self.live = np.zeros(self.crossbars, dtype=np.int64)
        self.live[:full] = self.rows
        if tail:
            self.live[full] = tail
        for name in self.schema.names:
            column = columns[name]
            mins = np.full(self.crossbars, _U64_MAX, dtype=np.uint64)
            maxs = np.zeros(self.crossbars, dtype=np.uint64)
            grid = column[: full * self.rows].reshape(full, self.rows)
            mins[:full] = grid.min(axis=1)
            maxs[:full] = grid.max(axis=1)
            if tail:
                rest = column[full * self.rows:]
                mins[full], maxs[full] = rest.min(), rest.max()
            self.mins[name], self.maxs[name] = mins, maxs

    def assert_tight(self, relation, valid: np.ndarray | None = None) -> None:
        """Assert every bound is *tight* against the slot-aligned ground truth.

        The maintenance hooks only ever widen bounds (INSERT/UPDATE) or
        decrement counts (DELETE) — correctness never requires tight bounds,
        but pruning quality does, and an exact rebuild (compaction) must
        leave no widen-only drift behind.  The expected bounds are computed through ``reduceat``, a
        different reduction path than :meth:`rebuild`, so a rebuild-path bug
        cannot hide itself.  With ``valid=None`` every slot below
        ``len(relation)`` is live (the compaction call): the bounds reduce
        over the unpadded column prefix, one segment per crossbar in use,
        and the empty crossbars expect the identity values.  ``valid`` masks
        the live slots otherwise: the column is padded to capacity and the
        dead slots are replaced by the identity of each reduction.
        """
        records = len(relation)
        if valid is None:
            offsets = np.arange(0, records, self.rows)
            counts = np.zeros(self.crossbars, dtype=np.int64)
            counts[: len(offsets)] = np.diff(offsets, append=records)
        else:
            capacity = self.crossbars * self.rows
            live = np.zeros(capacity, dtype=bool)
            live[:records] = np.asarray(valid, dtype=bool)
            offsets = np.arange(self.crossbars) * self.rows
            counts = np.add.reduceat(live.astype(np.int64), offsets)
        assert np.array_equal(self.live, counts), (
            "zone-map live counts disagree with the ground truth after an "
            "exact rebuild"
        )
        for name in self.schema.names:
            if valid is None:
                column = relation.column(name)
                mins = np.full(self.crossbars, _U64_MAX, dtype=np.uint64)
                maxs = np.zeros(self.crossbars, dtype=np.uint64)
                mins[: len(offsets)] = np.minimum.reduceat(column, offsets)
                maxs[: len(offsets)] = np.maximum.reduceat(column, offsets)
            else:
                padded = np.zeros(capacity, dtype=np.uint64)
                padded[:records] = relation.column(name)
                mins = np.minimum.reduceat(np.where(live, padded, _U64_MAX), offsets)
                maxs = np.maximum.reduceat(np.where(live, padded, np.uint64(0)), offsets)
            assert np.array_equal(self.mins[name], mins) and np.array_equal(
                self.maxs[name], maxs
            ), (
                f"zone-map bounds for {name!r} are not tight after an exact "
                "rebuild (widen-only drift survived)"
            )

    # ------------------------------------------------------------ maintenance
    def note_insert(self, slots: np.ndarray, columns: Mapping[str, np.ndarray]) -> None:
        """Widen the bounds of the crossbars an INSERT batch landed in.

        A crossbar without a live row before the batch has its stale bounds
        reset first, so they come out tight on the batch's own values.
        """
        crossbars = np.asarray(slots, dtype=np.int64) // self.rows
        fresh = crossbars[self.live[crossbars] == 0]
        for name in self.schema.names:
            mins, maxs = self.mins[name], self.maxs[name]
            mins[fresh] = _U64_MAX
            maxs[fresh] = 0
            np.minimum.at(mins, crossbars, columns[name])
            np.maximum.at(maxs, crossbars, columns[name])
        np.add.at(self.live, crossbars, 1)

    def note_delete(self, slots: np.ndarray) -> None:
        """Decrement the live counts (bounds stay conservatively wide).

        The counts are clamped at zero: a negative count would silently
        poison the ``live > 0`` candidate prefilter and ``note_insert``'s
        fresh-crossbar bound reset, so a decrement below zero — an
        overlapping or replayed DELETE — fails loudly instead.
        """
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return
        counts = np.bincount(slots // self.rows, minlength=self.crossbars)
        decremented = self.live - counts.astype(np.int64)
        assert (decremented >= 0).all(), (
            "zone-map live counts driven negative (overlapping or replayed "
            f"DELETE): min {int(decremented.min())} at crossbar "
            f"{int(decremented.argmin())}"
        )
        self.live = np.maximum(decremented, 0)

    def note_update(self, attribute: str, encoded: int, crossbars: np.ndarray) -> None:
        """Widen an attribute's bounds with an UPDATE's assigned constant."""
        crossbars = np.asarray(crossbars, dtype=np.int64)
        if crossbars.size == 0:
            return
        value = np.uint64(encoded)
        mins = self.mins[attribute]
        maxs = self.maxs[attribute]
        mins[crossbars] = np.minimum(mins[crossbars], value)
        maxs[crossbars] = np.maximum(maxs[crossbars], value)

    # -------------------------------------------------------------- candidates
    def check(
        self,
        conjuncts: Sequence[Predicate],
        crossbars_per_page: int,
    ) -> ZoneCheck:
        """Candidate crossbars for a conjunction, with the modelled check cost.

        Conjuncts are evaluated in the given order (the planner orders them
        most-selective first) and the walk exits early once no candidate
        remains.  The entry count models a two-level check: the per-page
        summaries are consulted first and the per-crossbar entries only for
        pages the summary could not rule out.
        """
        candidates = self.live > 0
        entries = 0
        checked = 0
        for conjunct in conjuncts:
            if conjunct is None:
                continue
            if not candidates.any():
                break
            possible = self.possible(conjunct)
            checked += 1
            entries += two_level_entries(possible & candidates, crossbars_per_page)
            candidates = candidates & possible
        return ZoneCheck(
            candidates=candidates,
            conjuncts_checked=checked,
            entries_checked=entries,
        )

    def possible(self, node: Predicate) -> np.ndarray:
        """Per-crossbar "some value in range *may* satisfy ``node``" (conservative).

        Bounds-only: the ``live > 0`` prefilter is *not* applied here — the
        candidate-set cache stores these masks across DELETEs, which change
        the live counts but never the bounds.  Always returns a fresh array.
        """
        if node is None:
            return np.ones(self.crossbars, dtype=bool)
        if isinstance(node, Comparison):
            return self._comparison_possible(node)
        if isinstance(node, And):
            mask = np.ones(self.crossbars, dtype=bool)
            for child in node.children:
                mask &= self.possible(child)
            return mask
        if isinstance(node, Or):
            mask = np.zeros(self.crossbars, dtype=bool)
            for child in node.children:
                mask |= self.possible(child)
            return mask
        # Unknown node: never prune on something we cannot reason about.
        return np.ones(self.crossbars, dtype=bool)

    def _comparison_possible(self, node: Comparison) -> np.ndarray:
        if node.attribute not in self.mins:
            return np.ones(self.crossbars, dtype=bool)
        encoded = encode_comparison(node, self.schema)
        # A folded comparison: every (live) crossbar matches or none does.
        if encoded.folded is not None:
            return np.full(self.crossbars, encoded.folded, dtype=bool)
        lo = self.mins[node.attribute]
        hi = self.maxs[node.attribute]
        op = encoded.op
        if op == IN:
            mask = np.zeros(self.crossbars, dtype=bool)
            for code in encoded.codes:
                v = np.uint64(code)
                mask |= (lo <= v) & (v <= hi)
            return mask
        if op == BETWEEN:
            return (hi >= np.uint64(encoded.low)) & (lo <= np.uint64(encoded.high))
        v = np.uint64(encoded.code)
        if op == EQ:
            return (lo <= v) & (v <= hi)
        if op == NE:
            # Impossible only when every live value in the crossbar equals v.
            return ~((lo == v) & (hi == v))
        if op == LT:
            return lo < v
        if op == LE:
            return lo <= v
        if op == GT:
            return hi > v
        return hi >= v

    # ------------------------------------------------------------ cost model
    @staticmethod
    def charge_check(stats: PimStats, host: HostConfig, entries: float) -> None:
        """Charge the host-side cost of consulting ``entries`` zone entries."""
        if entries <= 0:
            return
        stats.add_time("zonemap-check", entries * CHECK_CYCLES / host.frequency_hz)

    @staticmethod
    def charge_maintenance(stats: PimStats, host: HostConfig, entries: float) -> None:
        """Charge the host-side cost of updating ``entries`` zone entries."""
        if entries <= 0:
            return
        stats.add_time("zonemap-maintain", entries * MAINTAIN_CYCLES / host.frequency_hz)


@dataclass
class PruneDecision:
    """Per-partition candidate crossbars for one query's WHERE clause.

    Produced by :meth:`repro.planner.planner.RelationStatistics.plan` from the
    per-partition conjunctions of the predicate.  ``empty`` means some
    partition's conjunction matches no crossbar at all — the whole filter is
    provably empty and the engine can skip the execution outright (which is
    how the sharded engine skips entire shards).
    """

    #: One candidate mask per vertical partition.
    candidates: list[np.ndarray]
    #: Crossbars across all partitions (the width of a run on every crossbar).
    crossbars_total: int
    #: Candidate crossbars across all partitions (the pruned width).
    crossbars_scanned: int
    #: Zone-map entries consulted, summed over the partitions.
    entries_checked: int
    #: Top-level conjuncts evaluated before the walk exited.
    conjuncts_checked: int

    @property
    def empty(self) -> bool:
        """No crossbar can satisfy the conjunction of some partition."""
        return any(not mask.any() for mask in self.candidates)


#: Buckets per attribute of a pair sketch (8 × 8 grid → one 64-bit word).
PAIR_BUCKETS = 8
_PAIR_ALL = (1 << PAIR_BUCKETS) - 1
_PAIR_SATURATED = np.uint64(0xFFFFFFFFFFFFFFFF)


class PairZoneMap:
    """Per-crossbar presence sketch over the joint domain of a column pair.

    Single-column zone maps cannot see correlation: a crossbar whose
    ``d_year`` range covers 1997 *and* whose ``p_category`` range covers
    ``MFGR#12`` may still hold no row with both.  This sketch keeps, per
    crossbar, one 64-bit word whose bit ``(a_bucket * 8 + b_bucket)`` says
    "some live row here has ``a`` in bucket ``a_bucket`` and ``b`` in bucket
    ``b_bucket``" (buckets are the top 3 bits of the encoded value).  A
    conjunction constraining *both* columns intersects its allowed bucket
    grid with the sketch and prunes the crossbars whose intersection is
    empty.

    Maintenance mirrors the single-column discipline — conservative, never
    wrong: built exactly, bit-set on INSERT, *saturated* for the touched
    crossbars on UPDATE (the old values are unknown here), untouched on
    DELETE, rebuilt exactly on compaction.
    """

    def __init__(self, attributes, schema: Schema, crossbars: int, rows: int) -> None:
        first, second = attributes
        self.attributes = (first, second)
        self.schema = schema
        self.crossbars = int(crossbars)
        self.rows = int(rows)
        self.shifts = {
            name: max(0, schema.attribute(name).width - 3)
            for name in self.attributes
        }
        self.sketch = np.zeros(self.crossbars, dtype=np.uint64)

    def _bits_of(self, a_values: np.ndarray, b_values: np.ndarray) -> np.ndarray:
        first, second = self.attributes
        a_bucket = np.asarray(a_values, dtype=np.uint64) >> np.uint64(self.shifts[first])
        b_bucket = np.asarray(b_values, dtype=np.uint64) >> np.uint64(self.shifts[second])
        return a_bucket * np.uint64(PAIR_BUCKETS) + b_bucket

    # ------------------------------------------------------------ maintenance
    def rebuild(self, relation) -> None:
        """Recompute the sketch exactly from a dense relation (all slots live)."""
        first, second = self.attributes
        words = np.zeros(self.crossbars * self.rows, dtype=np.uint64)
        words[:len(relation)] = np.uint64(1) << self._bits_of(
            relation.column(first), relation.column(second)
        )
        self.sketch = np.bitwise_or.reduce(
            words.reshape(self.crossbars, self.rows), axis=1
        )

    def note_insert(self, slots: np.ndarray, columns: Mapping[str, np.ndarray]) -> None:
        first, second = self.attributes
        bits = self._bits_of(columns[first], columns[second])
        crossbars = np.asarray(slots, dtype=np.int64) // self.rows
        np.bitwise_or.at(self.sketch, crossbars, np.uint64(1) << bits)

    def note_update(self, attribute: str, crossbars: np.ndarray) -> None:
        """Saturate the touched crossbars when either column is reassigned.

        Only the assigned constant is known here, not which joint buckets
        the touched rows vacate or land in, so the sketch falls back to
        "anything possible" for those crossbars until the next exact rebuild.
        """
        if attribute not in self.shifts:
            return
        crossbars = np.asarray(crossbars, dtype=np.int64)
        if crossbars.size:
            self.sketch[crossbars] = _PAIR_SATURATED

    # -------------------------------------------------------------- candidates
    def bucket_mask(self, node: Comparison) -> int | None:
        """8-bit mask of this comparison's possible buckets (None = not ours)."""
        if node.attribute not in self.shifts:
            return None
        encoded = encode_comparison(node, self.schema)
        if encoded.folded is not None:
            return _PAIR_ALL if encoded.folded else 0
        shift = self.shifts[node.attribute]

        def bucket(code: int) -> int:
            return min(code >> shift, PAIR_BUCKETS - 1)

        op = encoded.op
        if op == IN:
            mask = 0
            for code in encoded.codes:
                mask |= 1 << bucket(code)
            return mask
        if op == BETWEEN:
            low_bucket, high_bucket = bucket(encoded.low), bucket(encoded.high)
            return ((1 << (high_bucket + 1)) - 1) & ~((1 << low_bucket) - 1)
        if op == EQ:
            return 1 << bucket(encoded.code)
        if op in (LT, LE):
            return (1 << (bucket(encoded.code) + 1)) - 1
        if op in (GT, GE):
            return _PAIR_ALL & ~((1 << bucket(encoded.code)) - 1)
        # NE constrains no bucket.
        return _PAIR_ALL

    def possible(self, a_mask: int, b_mask: int) -> np.ndarray:
        """Candidate crossbars given the pair's allowed bucket masks."""
        joint = 0
        for a_bit in range(PAIR_BUCKETS):
            if (a_mask >> a_bit) & 1:
                joint |= b_mask << (a_bit * PAIR_BUCKETS)
        return (self.sketch & np.uint64(joint)) != 0
