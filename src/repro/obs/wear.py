"""The wear/endurance observatory: per-crossbar write-count drill-down.

The paper's Fig. 9 reports a single scalar per query — the worst per-row
write count, converted to a required cell endurance.  A production system
needs the distribution behind that maximum: which crossbar is wearing out,
how skewed the writes are across a partition, and how close the hottest row
is to the device's endurance budget.  :class:`WearReport` snapshots the
banks' ``writes_per_row`` counters (cumulative since allocation) and renders
them as distributions, an ASCII heatmap, and the Fig. 9 endurance figures
via :mod:`repro.memory.endurance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.endurance import (
    RRAM_ENDURANCE_WRITES,
    lifetime_years,
    required_endurance,
)

#: Intensity ramp of the ASCII heatmap, coldest to hottest.
HEAT_CHARS = " .:-=+*#%@"

#: Heatmap cells: row buckets across, crossbar buckets down.
HEATMAP_WIDTH, HEATMAP_HEIGHT = 64, 16

#: Crossbars listed by :meth:`WearReport.hottest`.
HOTTEST_CROSSBARS = 5


@dataclass(frozen=True)
class PartitionWear:
    """Wear counters of one crossbar allocation (one vertical partition)."""

    label: str
    partition: int
    #: ``(crossbars, rows)`` cumulative per-row write counts.
    writes: np.ndarray
    #: Columns per crossbar row (the wear-levelling divisor of Fig. 9).
    row_columns: int

    @property
    def crossbars(self) -> int:
        return int(self.writes.shape[0])

    @property
    def rows(self) -> int:
        return int(self.writes.shape[1])

    @property
    def total_writes(self) -> int:
        return int(self.writes.sum())

    @property
    def max_writes_per_row(self) -> int:
        return int(self.writes.max()) if self.writes.size else 0

    def crossbar_totals(self) -> np.ndarray:
        """Total writes per crossbar."""
        return self.writes.sum(axis=1)

    def distribution(self) -> dict[str, float]:
        """Summary statistics of the per-row write counts."""
        if not self.writes.size:
            return {"min": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0, "mean": 0.0}
        flat = self.writes.reshape(-1)
        return {
            "min": float(flat.min()),
            "p50": float(np.percentile(flat, 50)),
            "p95": float(np.percentile(flat, 95)),
            "max": float(flat.max()),
            "mean": float(flat.mean()),
        }


@dataclass(frozen=True)
class WearReport:
    """Point-in-time wear observatory of one stored (or sharded) relation."""

    label: str
    partitions: list[PartitionWear]

    @classmethod
    def from_stored(cls, stored, label: str | None = None) -> WearReport:
        """Snapshot every partition of every store of a stored relation.

        ``stored`` is a :class:`~repro.db.storage.StoredRelation` (one store,
        labelled ``label``) or a sharded relation (shard ``k`` labelled
        ``"{label}/s{k}"``).
        """
        name = label if label is not None else stored.label
        partitions = [
            PartitionWear(
                label=name if shard is stored else f"{name}/s{index}",
                partition=partition,
                writes=np.array(allocation.bank.writes_per_row, dtype=np.int64),
                row_columns=allocation.bank.columns,
            )
            for index, shard in enumerate(stored.shards)
            for partition, allocation in enumerate(shard.allocations)
        ]
        return cls(label=name, partitions=partitions)

    # ------------------------------------------------------------- roll-ups
    @property
    def max_writes_per_row(self) -> int:
        """The Fig. 9 scalar: worst per-row write count anywhere."""
        return max(
            (p.max_writes_per_row for p in self.partitions), default=0
        )

    @property
    def total_writes(self) -> int:
        return sum(p.total_writes for p in self.partitions)

    def hottest(self) -> list[dict]:
        """The :data:`HOTTEST_CROSSBARS` crossbars with the most writes, hottest first."""
        entries = []
        for p in self.partitions:
            totals = p.crossbar_totals()
            for crossbar in range(p.crossbars):
                entries.append(
                    {
                        "label": p.label,
                        "partition": p.partition,
                        "crossbar": crossbar,
                        "total_writes": int(totals[crossbar]),
                        "max_writes_per_row": int(p.writes[crossbar].max())
                        if p.rows
                        else 0,
                    }
                )
        entries.sort(key=lambda e: (-e["total_writes"], e["label"], e["crossbar"]))
        return entries[:HOTTEST_CROSSBARS]

    # ------------------------------------------------------------- endurance
    def required_endurance(
        self, query_time_s: float, years: float = 10.0
    ) -> float:
        """Fig. 9: endurance needed to sustain the observed worst-row wear.

        ``query_time_s`` is the modelled time over which the snapshot's
        writes accrued (one query for the paper's figure; a whole replay
        when drilled from a batch).
        """
        row_columns = self.partitions[0].row_columns if self.partitions else 1
        return required_endurance(
            self.max_writes_per_row, row_columns, query_time_s, years=years
        )

    def lifetime_years(
        self,
        query_time_s: float,
        endurance_writes: float = RRAM_ENDURANCE_WRITES,
    ) -> float:
        """Years of back-to-back execution the hottest cell survives."""
        row_columns = self.partitions[0].row_columns if self.partitions else 1
        return lifetime_years(
            self.max_writes_per_row, row_columns, query_time_s,
            endurance_writes=endurance_writes,
        )

    # --------------------------------------------------------------- renders
    def heatmap(self) -> str:
        """ASCII heatmap of the first partition: crossbars down, rows across.

        Crossbars and rows are bucketed (mean within each cell) to fit
        :data:`HEATMAP_HEIGHT` x :data:`HEATMAP_WIDTH` cells; intensity is
        normalised to the hottest cell.  An all-zero partition renders as
        blanks.
        """
        target = self.partitions[0]
        writes = target.writes.astype(float)
        if not writes.size:
            return f"{target.label} p{target.partition}: (empty)"

        def bucket(array: np.ndarray, axis: int, count: int) -> np.ndarray:
            size = array.shape[axis]
            count = max(1, min(count, size))
            edges = np.linspace(0, size, count + 1).astype(int)
            pieces = [
                array.take(range(edges[i], edges[i + 1]), axis=axis).mean(axis=axis)
                for i in range(count)
            ]
            return np.stack(pieces, axis=axis)

        grid = bucket(bucket(writes, 0, HEATMAP_HEIGHT), 1, HEATMAP_WIDTH)
        peak = grid.max()
        lines = [
            f"{target.label} p{target.partition}: {target.crossbars} crossbars x "
            f"{target.rows} rows, max {target.max_writes_per_row} writes/row"
        ]
        scale = len(HEAT_CHARS) - 1
        for row_index in range(grid.shape[0]):
            cells = grid[row_index]
            rendered = "".join(
                HEAT_CHARS[int(round(value / peak * scale))] if peak > 0 else HEAT_CHARS[0]
                for value in cells
            )
            lines.append(f"xb[{row_index:>2}] |{rendered}|")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-serialisable export (distributions, not raw matrices)."""
        return {
            "label": self.label,
            "max_writes_per_row": self.max_writes_per_row,
            "total_writes": self.total_writes,
            "partitions": [
                {
                    "label": p.label,
                    "partition": p.partition,
                    "crossbars": p.crossbars,
                    "rows": p.rows,
                    "total_writes": p.total_writes,
                    "max_writes_per_row": p.max_writes_per_row,
                    "distribution": p.distribution(),
                    "crossbar_totals": [int(v) for v in p.crossbar_totals()],
                }
                for p in self.partitions
            ],
            "hottest": self.hottest(),
        }
