"""Semantic candidate-set cache: memoized pruning outcomes per predicate fragment.

The :class:`~repro.service.cache.ProgramCache` memoizes *compilation*; this
module memoizes *pruning outcomes*.  It is PartitionCache's core idea — cache
partition identifiers per subquery and intersect the cached sets on reuse —
transplanted to crossbars-as-partitions:

* The cache is keyed by **normalized predicate fragments**, the top-level
  conjuncts :func:`~repro.db.compiler.partition_conjuncts` already splits a
  WHERE clause into.  Normalization (:func:`normalize_fragment`) flattens
  nested AND/OR nests, deduplicates and canonically orders children, and
  sorts IN lists, so syntactic variants of one fragment share an entry.
  The normalizer is a process-wide memo, so the per-shard caches of a
  sharded relation share the normalized keys (the expensive part of a
  lookup) even though each shard caches its own masks.
* Each entry stores the fragment's **candidate-crossbar bitmask** — the
  conservative per-crossbar "some live row may satisfy this" verdict of the
  zone maps, *excluding* the ``live > 0`` prefilter.  A conjunctive query
  intersects the cached masks of its fragments (with the live mask applied
  fresh at assembly time), so a partial hit still skips most of the walk: a
  new conjunct only narrows the cached superset.
* Invalidation is **per-crossbar epoch counters**, not a wholesale clear:
  INSERT and UPDATE bump only the epochs of the crossbars whose bounds they
  widened, and a cached set re-validates by re-checking just the stale
  crossbars.  DELETE never invalidates — bounds only stay conservatively
  wide, and the shrunken live set is intersected fresh by the caller.
  Compaction moves rows between crossbars (and a fresh-crossbar INSERT can
  *narrow* bounds), so both bump every epoch.

The modelled cost follows the zone-map check's units: a cold fragment pays
the two-level walk (pages, then crossbars of surviving pages), a
re-validation pays one entry per stale crossbar, and a clean hit pays
nothing.  Soundness is unchanged from :class:`~repro.planner.zonemap.ZoneMaps`
— a cached mask is bit-identical to the mask a cold walk would produce,
which is what keeps pruned execution bit-exact.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar
from collections.abc import Callable, Hashable

import numpy as np

from repro.db.query import BETWEEN, IN, And, Comparison, Or, Predicate
from repro.obs.metrics import add_stats, sub_stats
from repro.planner.zonemap import ZoneMaps, two_level_entries

#: Cached fragment masks kept per relation (fragments are small — a mask and
#: an epoch vector — so the cache can be generous).
FRAGMENT_CAPACITY = 256


# ---------------------------------------------------------------------------
# fragment normalization
# ---------------------------------------------------------------------------

def _normalize(node: Predicate) -> Hashable:
    if node is None:
        return ("true",)
    if isinstance(node, Comparison):
        if node.op == IN:
            # IN lists are sets: order (and duplicates) must not split keys.
            values = tuple(sorted(set(node.values), key=repr))
            return ("cmp", node.attribute, node.op, values)
        if node.op == BETWEEN:
            return ("cmp", node.attribute, node.op, (node.low, node.high))
        return ("cmp", node.attribute, node.op, (node.value,))
    if isinstance(node, (And, Or)):
        tag = "and" if isinstance(node, And) else "or"
        children = []
        for child in node.children:
            key = _normalize(child)
            if isinstance(key, tuple) and key and key[0] == tag:
                children.extend(key[1])  # flatten And(And(...)) / Or(Or(...))
            else:
                children.append(key)
        return (tag, tuple(sorted(set(children), key=repr)))
    # Unknown node kinds never prune (the zone maps return all-ones), so
    # keying on the node itself is safe — distinct unknowns stay distinct.
    return ("opaque", node)


@lru_cache(maxsize=4096)
def normalize_fragment(fragment: Predicate) -> Hashable:
    """Canonical hashable key of one predicate fragment.

    The memo is process-wide on purpose: the predicate IR is frozen and
    hashable, and every :class:`CandidateSetCache` — in particular the K
    per-shard caches of one sharded relation — shares the normalized keys.
    """
    return _normalize(fragment)


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateCacheStats:
    """Counters of a :class:`CandidateSetCache` (or a sum/delta of several).

    ``entries_checked`` is in zone-map-entry units — the same unit
    :meth:`~repro.planner.zonemap.ZoneMaps.charge_check` charges — so it is
    directly comparable with the cost of uncached walks.
    """

    GAUGES: ClassVar[tuple[str, ...]] = ("entries", "capacity")

    hits: int = 0
    misses: int = 0
    revalidations: int = 0
    stale_crossbars: int = 0
    evictions: int = 0
    entries_checked: int = 0
    #: Occupancy/capacity of the cache the counters came from (summed when
    #: aggregating several caches, preserved across a delta).
    entries: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.revalidations

    @property
    def hit_rate(self) -> float:
        """Clean hits over lookups (re-validations count as lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __add__(self, other: CandidateCacheStats) -> CandidateCacheStats:
        # Occupancy/capacity sum too: adding aggregates *distinct* caches.
        return add_stats(self, other)

    def __sub__(self, other: CandidateCacheStats) -> CandidateCacheStats:
        # Subtracting deltas two snapshots of the *same* cache set, so the
        # later snapshot's occupancy/capacity (``GAUGES``) carry through.
        return sub_stats(self, other)


@dataclass
class _CachedFragment:
    """One cached fragment: its mask and the epochs it was computed under."""

    mask: np.ndarray  # read-only bool, one slot per crossbar
    epochs: np.ndarray  # int64 snapshot of the cache's epoch vector


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

class CandidateSetCache:
    """LRU cache of per-fragment candidate-crossbar masks with epoch re-validation.

    Owned by one :class:`~repro.planner.planner.RelationStatistics` (one per
    shard of a sharded relation).  The cached masks are *bounds-only*: they
    answer "could any value in this crossbar's range satisfy the fragment",
    independent of the live counts — the caller intersects ``live > 0``
    fresh, which is what lets DELETE leave the cache untouched.
    """

    def __init__(self, zonemaps: ZoneMaps) -> None:
        self.zonemaps = zonemaps
        self.capacity = FRAGMENT_CAPACITY
        #: Per-crossbar epoch counters; a bump marks every cached verdict for
        #: that crossbar stale.
        self.epochs = np.zeros(zonemaps.crossbars, dtype=np.int64)
        self._entries: OrderedDict[Hashable, _CachedFragment] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._revalidations = 0
        self._stale_crossbars = 0
        self._evictions = 0
        self._entries_checked = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ---------------------------------------------------------- invalidation
    def bump(self, crossbars) -> None:
        """Mark the given crossbars stale (INSERT/UPDATE widened their bounds).

        One bump per occurrence: a batch INSERT lists a crossbar once per
        record that landed in it.
        """
        np.add.at(self.epochs, np.asarray(crossbars, dtype=np.int64), 1)

    def bump_all(self) -> None:
        """Mark every crossbar stale (compaction rebuilt the maps exactly)."""
        self.epochs += 1

    def clear(self) -> None:
        """Drop every cached fragment (counters are kept)."""
        self._entries.clear()

    # ---------------------------------------------------------------- lookup
    def lookup(
        self, fragment: Predicate, crossbars_per_page: int
    ) -> tuple[np.ndarray, int]:
        """Candidate mask of one fragment plus the entries this call consulted.

        Returns ``(mask, entries)`` where ``mask`` is the read-only
        bounds-only candidate mask and ``entries`` is the modelled zone-map
        work of *this* call: ``0`` on a clean hit, the stale-crossbar count
        on a re-validation, the full two-level walk on a miss.
        """
        key = normalize_fragment(fragment)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            stale = np.nonzero(entry.epochs != self.epochs)[0]
            if stale.size == 0:
                self._hits += 1
                return entry.mask, 0
            # Re-validate just the stale crossbars: bounds of the others are
            # unchanged (every bounds write bumps an epoch), so their cached
            # verdicts still hold.
            possible = self.zonemaps.possible(fragment)
            mask = entry.mask.copy()
            mask[stale] = possible[stale]
            mask.setflags(write=False)
            entry.mask = mask
            entry.epochs = self.epochs.copy()
            consulted = int(stale.size)
            self._revalidations += 1
            self._stale_crossbars += consulted
            self._entries_checked += consulted
            return mask, consulted
        mask = self.zonemaps.possible(fragment)
        # Two-level, like ZoneMaps.check: the live crossbars it cannot rule out.
        consulted = two_level_entries(mask & (self.zonemaps.live > 0), crossbars_per_page)
        return self._store(key, mask, consulted)

    def pair_lookup(
        self, key: Hashable, possible: Callable[[], np.ndarray]
    ) -> tuple[np.ndarray, int]:
        """The pair sketch's candidate mask under ``key`` (the pair and its two
        bucket masks), memoised like a fragment: ``(mask, entries)``.

        The sketch changes only on crossbars whose epoch an INSERT or UPDATE
        bumps (compaction bumps them all), so a verdict cached under the
        current epochs still holds and consults nothing.  Otherwise
        ``possible()`` reads the sketch word of every crossbar again,
        ``zonemaps.crossbars`` entries.
        """
        entry = self._entries.get(key)
        if entry is not None and np.array_equal(entry.epochs, self.epochs):
            self._entries.move_to_end(key)
            self._hits += 1
            return entry.mask, 0
        return self._store(key, possible(), self.zonemaps.crossbars)

    def _store(
        self, key: Hashable, mask: np.ndarray, consulted: int
    ) -> tuple[np.ndarray, int]:
        """Cache a freshly computed mask under the current epochs (a miss)."""
        self._misses += 1
        mask.setflags(write=False)
        self._entries[key] = _CachedFragment(mask, self.epochs.copy())
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1
        self._entries_checked += consulted
        return mask, consulted

    # --------------------------------------------------------------- counters
    def stats(self) -> CandidateCacheStats:
        """Point-in-time snapshot of the counters (plus occupancy/capacity)."""
        return CandidateCacheStats(
            hits=self._hits,
            misses=self._misses,
            revalidations=self._revalidations,
            stale_crossbars=self._stale_crossbars,
            evictions=self._evictions,
            entries_checked=self._entries_checked,
            entries=len(self._entries),
            capacity=self.capacity,
        )
