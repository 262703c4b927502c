"""Selectivity estimation from small per-column histograms.

The planner needs two estimates the zone maps alone cannot give:

* the *fraction of records* a predicate selects (zone maps only bound which
  crossbars may contain a match), which drives the pim-vs-host routing of
  the query service, and
* the relative selectivity of the individual conjuncts, which orders the
  zone-map checks so the most selective conjunct prunes first (the NOR
  program itself evaluates every conjunct regardless of order — bulk-bitwise
  logic has no short circuit — so ordering only matters for the checks).

:class:`ColumnHistogram` is a small equi-depth histogram over the encoded
domain of one attribute, built once when the store loads;
:class:`SelectivityModel` combines them with the textbook independence
assumptions (conjunctions multiply, disjunctions combine by
inclusion–exclusion).  Estimates are *estimates*: the edges stay fixed for
the life of the store and the DML hooks keep the counts exact, but no
correctness property depends on them — pruning soundness rests solely on the
zone maps.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.db.query import And, Comparison, Or, Predicate
from repro.db.query import (
    BETWEEN,
    EQ,
    GT,
    IN,
    LE,
    LT,
    NE,
    encode_comparison,
)
from repro.db.schema import Schema

#: Target bucket count of a column histogram (fewer when quantiles repeat).
BUCKETS = 16


class ColumnHistogram:
    """Equi-depth histogram over the encoded domain of one attribute.

    Bucket ``i`` covers the encoded range ``(edges[i-1], edges[i]]`` (bucket
    0 starts at 0; the last edge is the domain maximum, so every encodable
    value, an out-of-histogram insert included, lands in a bucket).  The
    edges sit at the quantiles of the values the histogram is built from,
    so a skewed column gets narrow buckets where its mass is, and just
    below their minimum; they stay fixed afterwards, while the DML hooks
    keep the counts exact.  Estimates assume a uniform spread *inside* a
    bucket.
    """

    def __init__(self, width: int, edges: np.ndarray, counts: np.ndarray) -> None:
        self.width = int(width)
        self.max_value = (1 << self.width) - 1
        self.edges = edges
        self.counts = counts
        self.total = int(counts.sum())

    @property
    def buckets(self) -> int:
        return len(self.edges)

    @classmethod
    def from_values(cls, values: np.ndarray, width: int) -> ColumnHistogram:
        values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
        ordered = np.sort(values)
        max_value = np.uint64((1 << int(width)) - 1)
        edges = np.array([max_value], dtype=np.uint64)
        if ordered.size:
            target = max(1, min(BUCKETS, ordered.size))
            # Quantile positions: the last value of each of `target` equal slices.
            positions = (np.arange(1, target + 1) * ordered.size) // target - 1
            edges = np.union1d(ordered[positions], edges)
            if ordered[0] > 0:
                # An empty first bucket below the minimum, like the empty last
                # one above the maximum: a range outside the values estimates 0.
                edges = np.union1d(ordered[:1] - np.uint64(1), edges)
            edges = edges.astype(np.uint64)
        # Bucket i holds (edges[i-1], edges[i]]: count on the sorted array.
        counts = np.diff(np.searchsorted(ordered, edges, side="right"), prepend=0)
        return cls(width, edges, counts.astype(np.int64))

    # ---------------------------------------------------------------- updates
    def _bucket_of(self, values: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.edges, values, side="left")
        return np.clip(idx, 0, len(self.edges) - 1)

    def add(self, values: np.ndarray) -> None:
        values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
        if values.size == 0:
            return
        self.counts += np.bincount(self._bucket_of(values), minlength=self.buckets)
        self.total += int(values.size)

    def remove(self, values: np.ndarray) -> None:
        """Take ``values`` out.

        Removing values the histogram never counted (a replayed DELETE)
        raises with the histogram untouched: compaction keeps the maintained
        counts, so a clamped error would persist.
        """
        values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
        if values.size == 0:
            return
        counts = np.bincount(self._bucket_of(values), minlength=self.buckets)
        remaining = self.counts - counts
        assert (remaining >= 0).all(), (
            "histogram counts driven negative: min "
            f"{int(remaining.min())} at bucket {int(remaining.argmin())}"
        )
        self.counts, self.total = remaining, self.total - int(counts.sum())

    # -------------------------------------------------------------- estimates
    def _bucket_low(self, bucket: int) -> int:
        return int(self.edges[bucket - 1]) + 1 if bucket > 0 else 0

    def fraction_eq(self, encoded: int) -> float:
        """Estimated fraction of records equal to ``encoded``."""
        if self.total == 0:
            return 0.0
        # The last edge is the domain maximum: no clip needed.
        bucket = int(np.searchsorted(self.edges, np.uint64(min(encoded, self.max_value))))
        span = int(self.edges[bucket]) - self._bucket_low(bucket) + 1
        return self.counts[bucket] / self.total / span

    def fraction_below(self, encoded: int, inclusive: bool) -> float:
        """Estimated fraction of records ``<`` (or ``<=``) ``encoded``."""
        if self.total == 0:
            return 0.0
        limit = encoded + 1 if inclusive else encoded
        if limit <= 0:
            return 0.0
        # Buckets whose upper edge is below the limit are entirely selected.
        full_buckets = int(
            np.searchsorted(
                self.edges, np.uint64(min(limit - 1, self.max_value)), side="right"
            )
        )
        below = int(self.counts[:full_buckets].sum())
        if full_buckets < len(self.edges):
            low = self._bucket_low(full_buckets)
            span = int(self.edges[full_buckets]) - low + 1
            within = min(max(0, limit - low), span)
            below += self.counts[full_buckets] * within / span
        return min(1.0, below / self.total)

    def fraction_between(self, low: int, high: int) -> float:
        """Estimated fraction of records in ``[low, high]`` (inclusive)."""
        if low > high:
            return 0.0
        return max(
            0.0,
            self.fraction_below(high, inclusive=True)
            - self.fraction_below(low, inclusive=False),
        )


class SelectivityModel:
    """Predicate selectivity estimates over one relation's histograms."""

    def __init__(self, schema: Schema, histograms: dict[str, ColumnHistogram]):
        self.schema = schema
        self.histograms = histograms

    @classmethod
    def from_relation(cls, relation) -> SelectivityModel:
        histograms = {
            attribute.name: ColumnHistogram.from_values(
                relation.column(attribute.name), attribute.width
            )
            for attribute in relation.schema
        }
        return cls(relation.schema, histograms)

    # ---------------------------------------------------------------- updates
    def note_insert(self, columns: Mapping[str, np.ndarray]) -> None:
        for name, histogram in self.histograms.items():
            histogram.add(columns[name])

    def note_remove(self, columns: Mapping[str, np.ndarray]) -> None:
        for name, values in columns.items():
            self.histograms[name].remove(values)

    def note_update(self, attribute: str, old_values: np.ndarray, encoded: int) -> None:
        histogram = self.histograms[attribute]
        histogram.remove(old_values)
        histogram.add(np.full(len(old_values), encoded, dtype=np.uint64))

    # -------------------------------------------------------------- estimates
    def estimate(self, predicate: Predicate) -> float:
        """Estimated selected fraction of the live records, in ``[0, 1]``."""
        if predicate is None:
            return 1.0
        if isinstance(predicate, Comparison):
            return self._estimate_comparison(predicate)
        if isinstance(predicate, And):
            product = 1.0
            for child in predicate.children:
                product *= self.estimate(child)
            return product
        if isinstance(predicate, Or):
            missing = 1.0
            for child in predicate.children:
                missing *= 1.0 - self.estimate(child)
            return 1.0 - missing
        return 1.0

    def _estimate_comparison(self, node: Comparison) -> float:
        histogram = self.histograms.get(node.attribute)
        if histogram is None:
            return 1.0
        encoded = encode_comparison(node, self.schema)
        # Folded comparisons: all or nothing.
        if encoded.folded is not None:
            return 1.0 if encoded.folded else 0.0
        op, code = encoded.op, encoded.code
        if op == IN:
            fraction = 0.0
            for member in encoded.codes:
                fraction += histogram.fraction_eq(member)
            return min(1.0, fraction)
        if op == BETWEEN:
            return histogram.fraction_between(encoded.low, encoded.high)
        if op == EQ:
            return histogram.fraction_eq(code)
        if op == NE:
            return 1.0 - histogram.fraction_eq(code)
        if op == LT:
            return histogram.fraction_below(code, inclusive=False)
        if op == LE:
            return histogram.fraction_below(code, inclusive=True)
        if op == GT:
            return 1.0 - histogram.fraction_below(code, inclusive=True)
        return 1.0 - histogram.fraction_below(code, inclusive=False)

    def order_conjuncts(self, predicate: Predicate) -> list:
        """Top-level conjuncts ordered most-selective first (stable ties).

        Bulk-bitwise programs evaluate every conjunct regardless of order, so
        ordering drives the *zone-map check*: the conjunct expected to prune
        hardest runs first and the check exits as soon as no candidate
        crossbar remains.
        """
        if predicate is None:
            return []
        conjuncts = (
            list(predicate.children) if isinstance(predicate, And) else [predicate]
        )
        indexed = list(enumerate(conjuncts))
        indexed.sort(key=lambda pair: (self.estimate(pair[1]), pair[0]))
        return [conjunct for _, conjunct in indexed]
