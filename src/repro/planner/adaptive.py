"""Feedback-driven statistics: the observe→decide→reorganize accumulator.

The planner *observes* estimation error on every execution
(``QueryExecution.estimated_selectivity`` vs. the actual selected fraction)
and compaction *rewrites* rows, but until this module nothing connected the
two.  :class:`AdaptiveController` is the per-relation accumulator that closes
the loop:

* **Estimation-error accounting** — every execution folds the relative error
  ``|estimated - actual| / max(estimated, actual)`` into a per-column
  accumulator (split evenly over the predicate's columns: with independence
  assumed, any of them may be the culprit).  When a column's accumulated
  error crosses :data:`ERROR_THRESHOLD`,
  :meth:`RelationStatistics.observe_execution
  <repro.planner.planner.RelationStatistics.observe_execution>` rebuilds that
  column's histogram **equi-depth** from the live rows and the accumulator
  resets.  The column stays equi-depth across later compactions, which
  re-derive its quantile edges.
* **Hot-column tracking** — the same fold credits each predicate column with
  the crossbars the execution scanned.  :meth:`hottest_column` ranks columns
  by that scan volume; threshold-triggered compaction sorts live rows by the
  hottest column before the dense rewrite, which is what turns an
  unclustered relation into a prunable one.
* **Correlated-pair tracking** — executions whose predicate constrains two
  or more columns also credit each unordered column pair.  Once the top
  pair's volume crosses :data:`PAIR_THRESHOLD`, the owning
  :class:`~repro.planner.planner.RelationStatistics` builds a
  :class:`~repro.planner.zonemap.PairZoneMap` sketch for it.

The controller is pure bookkeeping — it never touches crossbars and holds no
numpy state proportional to the relation — so it is cheap enough to update on
every execution.  All *decisions* (rebuilds, sketch builds, re-cluster keys)
are applied by the owning ``RelationStatistics``/compaction code, which also
charges the modelled maintenance cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.db.query import Predicate, attributes_referenced
from repro.obs.metrics import add_stats

#: Accumulated relative estimation error (per column) that triggers an
#: equi-depth histogram rebuild of that column.
ERROR_THRESHOLD = 4.0

#: Accumulated pair scan volume (in crossbars) that triggers building a
#: correlated-pair zone-map sketch for the top pair.
PAIR_THRESHOLD = 256.0

#: Floor for the relative-error denominator: below one part per million the
#: estimate and the observation are both "practically zero" and the miss is
#: not actionable.
_ERROR_FLOOR = 1e-6


@dataclass
class ColumnFeedback:
    """Mutable per-column accumulator state."""

    error: float = 0.0
    observations: int = 0
    scan_volume: float = 0.0


@dataclass(frozen=True)
class AdaptiveSnapshot:
    """Point-in-time counters of one controller (or a sum of several).

    The hottest column/pair export as metric labels (see
    :func:`~repro.obs.metrics.register_fields`).
    """

    GAUGES: ClassVar[tuple[str, ...]] = ("accumulated_error",)

    observations: int = 0
    rebuilds: int = 0
    pair_sketches: int = 0
    accumulated_error: float = 0.0
    hot_column: str | None = None
    hot_pair: tuple[str, str] | None = None

    def __add__(self, other: AdaptiveSnapshot) -> AdaptiveSnapshot:
        # Numeric counters sum; the hottest column/pair carry no volumes, so
        # first non-None wins (shards of one relation converge to the same
        # column anyway) — exactly the shared-algebra rule.
        return add_stats(self, other)


class AdaptiveController:
    """Per-relation feedback accumulator driving rebuilds and re-clustering."""

    def __init__(self) -> None:
        self.error_threshold = ERROR_THRESHOLD
        self.pair_threshold = PAIR_THRESHOLD
        self.columns: dict[str, ColumnFeedback] = {}
        self.pair_volume: dict[tuple[str, str], float] = {}
        self.observations = 0
        self.rebuilds = 0
        self.pair_sketches = 0

    # ----------------------------------------------------------------- folds
    def observe(
        self,
        predicate: Predicate,
        estimated: float | None,
        actual: float,
        crossbars_scanned: int,
    ) -> list[str]:
        """Fold one execution's (estimated, actual) pair into the accumulator.

        Returns the columns whose accumulated error crossed the rebuild
        threshold on this observation (their accumulators reset — the caller
        performs the rebuild).  ``crossbars_scanned`` is the scan volume the
        execution actually paid (a host scan passes the full crossbar count:
        it streamed everything).
        """
        names = sorted(attributes_referenced(predicate))
        if not names:
            return []
        self.observations += 1
        volume_share = float(crossbars_scanned) / len(names)
        triggered: list[str] = []
        error = 0.0
        if estimated is not None:
            scale = max(float(estimated), float(actual), _ERROR_FLOOR)
            error = abs(float(estimated) - float(actual)) / scale
        error_share = error / len(names)
        for name in names:
            feedback = self.columns.setdefault(name, ColumnFeedback())
            feedback.observations += 1
            feedback.scan_volume += volume_share
            feedback.error += error_share
            if feedback.error >= self.error_threshold:
                feedback.error = 0.0
                triggered.append(name)
        if len(names) >= 2:
            pair_share = float(crossbars_scanned) / len(names)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    key = (a, b)
                    self.pair_volume[key] = self.pair_volume.get(key, 0.0) + pair_share
        return triggered

    def note_rebuild(self, count: int = 1) -> None:
        """Record that the owner applied ``count`` error-triggered rebuilds."""
        self.rebuilds += int(count)

    def note_pair_sketch(self) -> None:
        """Record that the owner built a correlated-pair sketch."""
        self.pair_sketches += 1

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
            pair_sketches=self.pair_sketches,
            accumulated_error=sum(f.error for f in self.columns.values()),
            hot_column=self.hottest_column(),
            hot_pair=self.hot_pair(),
        )
