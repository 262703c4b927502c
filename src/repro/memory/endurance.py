"""Cell endurance and system lifetime.

Emerging nonvolatile memories wear out: RRAM cells sustain on the order of
10^12 writes [22 in the paper].  Fig. 9 reports, for every SSB query, the
endurance a cell would need if that query ran back-to-back for ten years,
assuming wear-levelling spreads the writes of a crossbar row uniformly over
the row's cells (Section V-B).  The helpers here convert the worst per-row
write count observed during one query execution into that figure, and into
the complementary "lifetime in years at a given endurance" metric used for
the 3.21x lifetime-improvement headline.
"""

from __future__ import annotations

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0

#: Reported RRAM endurance (writes per cell) used for the lifetime headline.
RRAM_ENDURANCE_WRITES = 1e12


def writes_per_cell(max_writes_per_row: float, row_columns: int) -> float:
    """Per-cell writes of one query execution, assuming row wear-levelling."""
    if row_columns <= 0:
        raise ValueError("row_columns must be positive")
    return float(max_writes_per_row) / float(row_columns)


def required_endurance(
    max_writes_per_row: float,
    row_columns: int,
    query_time_s: float,
    years: float = 10.0,
) -> float:
    """Cell endurance needed to run a query back-to-back for ``years``.

    This is the quantity plotted in Fig. 9: the query runs 100 % of the
    wall-clock time, as in the paper.
    """
    if query_time_s <= 0:
        raise ValueError("query_time_s must be positive")
    executions = years * SECONDS_PER_YEAR / query_time_s
    return writes_per_cell(max_writes_per_row, row_columns) * executions


def lifetime_years(
    max_writes_per_row: float,
    row_columns: int,
    query_time_s: float,
    endurance_writes: float = RRAM_ENDURANCE_WRITES,
) -> float:
    """Years of back-to-back execution a cell of the given endurance survives."""
    per_query = writes_per_cell(max_writes_per_row, row_columns)
    if per_query <= 0:
        return float("inf")
    executions = endurance_writes / per_query
    return executions * query_time_s / SECONDS_PER_YEAR
