"""Host-side aggregation.

Two host responsibilities are modelled here:

* **host-gb** — records that were not assigned to PIM aggregation are read by
  the host and folded into a hash table keyed by the GROUP-BY attributes
  (:func:`host_group_aggregate`).
* **Combining partial aggregates** — after a PIM aggregation, every crossbar
  holds one partial result; the host reads them and combines them into the
  final value (:func:`combine_partial_table`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.config import HostConfig
from repro.db.query import Aggregate
from repro.host.processor import cpu_time
from repro.pim.stats import PimStats

#: Aggregate operations the host can combine and merge.  An AVG never reaches
#: these functions directly — it is decomposed into its SUM and COUNT parts
#: upstream and re-assembled after the merge.
SUPPORTED_MERGE_OPS = ("sum", "count", "min", "max")


def _check_merge_op(operation: str) -> None:
    if operation not in SUPPORTED_MERGE_OPS:
        raise ValueError(
            f"unsupported aggregation {operation!r}; mergeable operations are "
            f"{SUPPORTED_MERGE_OPS} (decompose an avg into sum and count)"
        )


def host_group_aggregate(
    group_columns: Mapping[str, np.ndarray],
    value_columns: Mapping[str, np.ndarray],
    aggregates: Sequence[Aggregate],
    config: HostConfig,
    stats: PimStats | None = None,
    threads: int = 1,
    phase: str = "host-agg",
    workload_scale: float = 1.0,
) -> dict[tuple[int, ...], dict[str, int]]:
    """Hash-aggregate records at the host.

    ``group_columns`` holds one array per GROUP-BY attribute and
    ``value_columns`` one array per aggregated attribute (all of equal
    length).  Returns ``{group_key: {aggregate_name: value}}`` and charges
    the per-record CPU work to ``stats`` (scaled by ``workload_scale`` when
    the timing model extrapolates to a larger relation).
    """
    group_names = list(group_columns)
    arrays = [_unsigned(group_columns[name]) for name in group_names]
    lengths = {len(a) for a in arrays} | {
        len(np.asarray(v)) for v in value_columns.values()
    }
    if len(lengths) > 1:
        raise ValueError("group and value columns have different lengths")
    count = lengths.pop() if lengths else 0
    for aggregate in aggregates:
        _check_merge_op(aggregate.op)
        if aggregate.op != "count" and aggregate.attribute not in value_columns:
            raise ValueError(
                f"aggregate {aggregate.name!r} needs value column "
                f"{aggregate.attribute!r}, which was not supplied"
            )

    results: dict[tuple[int, ...], dict[str, int]] = {}
    if count:
        # Sorted-segment reductions: one stable lexicographic sort of the key
        # columns in their own dtypes (the first column most significant, so
        # the groups come out in key order), then one reduceat per aggregate.
        order = np.lexsort(arrays[::-1]) if arrays else np.arange(count)
        new_group = np.zeros(count, dtype=bool)
        new_group[0] = True
        sorted_keys = [array[order] for array in arrays]
        for column in sorted_keys:
            new_group[1:] |= column[1:] != column[:-1]
        starts = np.flatnonzero(new_group)
        keys = (
            list(zip(*(column[starts].tolist() for column in sorted_keys)))
            if arrays else [()]
        )
        columns: dict[str, np.ndarray] = {}
        for aggregate in aggregates:
            if aggregate.op == "count":
                columns[aggregate.name] = np.diff(np.r_[starts, count])
                continue
            # Widened: a sum may not fit the field's own dtype.
            values = _unsigned(value_columns[aggregate.attribute])[order].astype(
                np.uint64, copy=False
            )
            if aggregate.op == "sum":
                columns[aggregate.name] = np.add.reduceat(values, starts)
            elif aggregate.op == "min":
                columns[aggregate.name] = np.minimum.reduceat(values, starts)
            else:
                columns[aggregate.name] = np.maximum.reduceat(values, starts)
        values_by_name = {name: values.tolist() for name, values in columns.items()}
        for index, key in enumerate(keys):
            results[key] = {
                name: values[index] for name, values in values_by_name.items()
            }

    if stats is not None:
        stats.add_time(
            phase,
            cpu_time(
                config,
                count * workload_scale,
                config.host_agg_cycles_per_record,
                threads,
            ),
        )
    return results


def _unsigned(values) -> np.ndarray:
    """``values`` as an unsigned array: its own dtype when it is one (a
    ground-truth column), else ``uint64``."""
    array = np.asarray(values)
    return array if array.dtype.kind == "u" else np.asarray(values, dtype=np.uint64)


def combine_partials(
    partials: Iterable[np.ndarray],
    operation: str,
    config: HostConfig,
    stats: PimStats | None = None,
) -> int | None:
    """:func:`combine_partial_table` of the concatenated ``partials``, keeping
    every partial (an empty ``min`` / ``max`` is ``None``, an empty sum 0)."""
    # No caller in src/: kept because perf/layers.py names it.
    values = [np.asarray(p, dtype=np.uint64).reshape(-1) for p in partials]
    table = np.concatenate([np.zeros(0, dtype=np.uint64), *values])[None, :]
    stats = stats if stats is not None else PimStats()
    return combine_partial_table(table, operation, config, stats)[0]


def combine_partial_table(
    table: np.ndarray,
    operation: str,
    config: HostConfig,
    stats: PimStats,
    identity: int | None = None,
) -> list[int | None]:
    """Combine each row of a ``(K, crossbars)`` table of per-crossbar
    partial aggregates into one value per row.

    Partials equal to the operation's ``identity`` (crossbars that
    contributed nothing; given for a ``min``) are dropped — they cannot move
    the value, only the number of values combined.  A row left with no
    partial has no ``min`` / ``max``: it combines to ``None`` rather than a
    spurious ``0`` that would poison later min/max merging; its sum or count
    is genuinely ``0``.  One axis reduction for all rows, one counted
    ``host-combine`` charge per distinct number of partials.
    """
    _check_merge_op(operation)
    table = np.asarray(table, dtype=np.uint64)
    if identity is None:
        sizes = [table.shape[1]] * len(table)
    else:
        sizes = (table != identity).sum(axis=1).tolist()
    for size, rows in Counter(sizes).items():
        stats.add_time("host-combine", cpu_time(config, size, 4.0, threads=1), rows)
    if operation in ("sum", "count"):
        return table.sum(axis=1, dtype=np.uint64).tolist()
    if operation == "min":
        values = table.min(axis=1, initial=~np.uint64(0))
    else:
        values = table.max(axis=1, initial=0)
    return [value if size else None for value, size in zip(values.tolist(), sizes)]


def merge_shard_rows(
    shard_rows: Sequence[dict[tuple[int, ...], dict[str, int]]],
    aggregates: Sequence[Aggregate],
    config: HostConfig | None = None,
    stats: PimStats | None = None,
) -> dict[tuple[int, ...], dict[str, int]]:
    """Gather per-shard result rows into the global result (scatter-gather).

    Each element of ``shard_rows`` is the full result dictionary one
    horizontal shard produced for the same query; folding them through
    :func:`merge_group_results` yields exactly the rows the unsharded engine
    computes, because SUM/COUNT distribute over the shards and MIN/MAX
    commute with the shard partition (an AVG is merged through its SUM and
    COUNT parts).  A shard whose selection was empty contributes an empty
    dictionary and drops out of the fold, which preserves the engine's
    "no selected record, no result row" convention.

    When ``config`` and ``stats`` are given, the host CPU work of the merge
    (a hash-table fold over every partial row) is charged to ``stats`` — this
    is the gather term of the sharded latency model.
    """
    merged: dict[tuple[int, ...], dict[str, int]] = {}
    for rows in shard_rows:
        merged = merge_group_results(merged, rows, aggregates)
    if stats is not None and config is not None:
        partial_values = sum(len(rows) for rows in shard_rows) * max(1, len(aggregates))
        stats.add_time("shard-merge", cpu_time(config, partial_values, 4.0, threads=1))
    return merged


def merge_group_results(
    first: dict[tuple[int, ...], dict[str, int]],
    second: dict[tuple[int, ...], dict[str, int]],
    aggregates: Sequence[Aggregate],
) -> dict[tuple[int, ...], dict[str, int]]:
    """Merge two GROUP-BY result dictionaries (e.g. pim-gb and host-gb parts).

    An aggregate that is absent (or ``None``) on one side — a min/max whose
    selection on that side was empty — does not constrain the merge: the other
    side's value is kept as-is instead of being min/max-ed against a
    placeholder.

    Only ``sum``/``count``/``min``/``max`` merge; anything else (a raw
    ``avg``, a typo) raises :class:`ValueError` instead of being silently
    folded as a ``max`` and corrupting the result.
    """
    for aggregate in aggregates:
        _check_merge_op(aggregate.op)
    merged = {key: dict(value) for key, value in first.items()}
    for key, entry in second.items():
        if key not in merged:
            merged[key] = dict(entry)
            continue
        target = merged[key]
        for aggregate in aggregates:
            name = aggregate.name
            if entry.get(name) is None:
                continue
            if target.get(name) is None:
                target[name] = entry[name]
            elif aggregate.op in ("sum", "count"):
                target[name] += entry[name]
            elif aggregate.op == "min":
                target[name] = min(target[name], entry[name])
            else:  # max — the only remaining validated operation
                target[name] = max(target[name], entry[name])
    return merged
