"""Feedback-driven statistics: the observe→decide→reorganize accumulator.

Compaction *rewrites* rows and the planner *observes* every execution's
scan volume; :class:`AdaptiveController` is the per-relation accumulator
that connects the two.  A query only feeds it; compaction applies its
decisions:

* **Hot-column tracking** — every execution credits each predicate column
  with its share of the crossbars the execution scanned.
  :meth:`hottest_column` ranks columns by that scan volume;
  threshold-triggered compaction sorts live rows by the hottest column
  before the dense rewrite, which is what turns an unclustered relation
  into a prunable one.
* **Correlated-pair tracking** — executions whose predicate constrains two
  or more columns also credit each unordered column pair.  Once the top
  pair's volume crosses :data:`PAIR_THRESHOLD`, the next compaction
  (:meth:`~repro.planner.planner.RelationStatistics.rebuild`) builds a
  :class:`~repro.planner.zonemap.PairZoneMap` sketch for it.

The histograms take no part: they are built equi-depth once, at load (see
:mod:`repro.planner.selectivity`).  The controller is pure bookkeeping — it
never touches crossbars and holds no numpy state proportional to the
relation — so it is cheap enough to update on every execution.  The
decisions (re-cluster key, sketch build) are applied by compaction, whose
zone-map maintenance charge covers them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.query import Predicate, attributes_referenced
from repro.obs.metrics import add_stats

#: Accumulated pair scan volume (in crossbars) that triggers building a
#: correlated-pair zone-map sketch for the top pair.
PAIR_THRESHOLD = 256.0


@dataclass
class ColumnFeedback:
    """Mutable per-column accumulator state."""

    observations: int = 0
    scan_volume: float = 0.0


@dataclass(frozen=True)
class AdaptiveSnapshot:
    """Point-in-time counters of one controller (or a sum of several).

    ``rebuilds`` counts the pair sketches compaction built for the loop.  The
    hottest column/pair export as metric labels (see
    :func:`~repro.obs.metrics.register_fields`).
    """

    observations: int = 0
    rebuilds: int = 0
    hot_column: str | None = None
    hot_pair: tuple[str, str] | None = None

    def __add__(self, other: AdaptiveSnapshot) -> AdaptiveSnapshot:
        # Numeric counters sum; the hottest column/pair carry no volumes, so
        # first non-None wins (shards of one relation converge to the same
        # column anyway) — exactly the shared-algebra rule.
        return add_stats(self, other)


class AdaptiveController:
    """Per-relation feedback accumulator driving sketches and re-clustering."""

    def __init__(self) -> None:
        self.pair_threshold = PAIR_THRESHOLD
        self.columns: dict[str, ColumnFeedback] = {}
        self.pair_volume: dict[tuple[str, str], float] = {}
        self.observations = 0
        #: Pair sketches compaction built from this feedback.
        self.rebuilds = 0

    # ----------------------------------------------------------------- folds
    def observe(self, predicate: Predicate, crossbars_scanned: int) -> None:
        """Fold one execution's scan volume into the accumulator.

        ``crossbars_scanned`` is the scan volume the execution actually paid
        (a host scan passes the full crossbar count: it streamed
        everything); each predicate column and column pair gets an equal
        share.
        """
        names = sorted(attributes_referenced(predicate))
        if not names:
            return
        self.observations += 1
        share = float(crossbars_scanned) / len(names)
        for name in names:
            feedback = self.columns.setdefault(name, ColumnFeedback())
            feedback.observations += 1
            feedback.scan_volume += share
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self.pair_volume[(a, b)] = self.pair_volume.get((a, b), 0.0) + share

    # ------------------------------------------------------------- decisions
    def hottest_column(self) -> str | None:
        """Predicate column with the largest accumulated scan volume."""
        best = None
        best_volume = 0.0
        for name in sorted(self.columns):
            volume = self.columns[name].scan_volume
            if volume > best_volume:
                best, best_volume = name, volume
        return best

    def hot_pair(self) -> tuple[str, str] | None:
        """Top correlated column pair once its volume crosses the threshold."""
        best = None
        best_volume = self.pair_threshold
        for key in sorted(self.pair_volume):
            volume = self.pair_volume[key]
            if volume >= best_volume:
                best, best_volume = key, volume
        return best

    # --------------------------------------------------------------- counters
    def snapshot(self) -> AdaptiveSnapshot:
        return AdaptiveSnapshot(
            observations=self.observations,
            rebuilds=self.rebuilds,
            hot_column=self.hottest_column(),
            hot_pair=self.hot_pair(),
        )
