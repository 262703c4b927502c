"""Mapping records onto crossbar rows.

A :class:`RowLayout` assigns every attribute of a schema a bit field within
the 512-bit crossbar row (Table I geometry) and reserves the bookkeeping
bits the query engine needs:

* a *valid* bit distinguishing real records from padding rows,
* a *filter* bit receiving the result of the query predicate,
* a *group* bit receiving the result of the per-subgroup predicate used by
  pim-gb,
* an *accumulator* area where aggregation results are written back (and, for
  the pure bulk-bitwise aggregation of the PIMDB baseline, a second
  *operand* area of the same width),
* the remaining columns as gate scratch for the NOR programs.

The layout raises :class:`LayoutError` if everything does not fit, which is
exactly the situation in which the paper's vertical partitioning (the two-xb
configuration, Section III) becomes necessary.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.db.schema import Schema

#: Bookkeeping bits per record (valid/filter/group/remote) — anything charging
#: per-row rewrite costs derives the count from here.
BOOKKEEPING_COLUMNS = 4

#: Fewest gate-scratch columns a layout must leave for the NOR programs.
MIN_SCRATCH = 10


class LayoutError(ValueError):
    """The schema does not fit into a crossbar row with the requested extras."""


class RowLayout:
    """Bit-level layout of one record (or record partition) in a crossbar row."""

    def __init__(
        self,
        schema: Schema,
        columns: int = 512,
        rows: int = 1024,
        aggregation_width: int | None = None,
        reserve_bulk_aggregation: bool = True,
        read_width_bits: int = 16,
    ) -> None:
        self.schema = schema
        self.columns = int(columns)
        self.rows = int(rows)
        self.read_width_bits = int(read_width_bits)

        self.fields: dict[str, tuple[int, int]] = {}
        cursor = 0
        for attribute in schema:
            self.fields[attribute.name] = (cursor, attribute.width)
            cursor += attribute.width
        self.record_width = cursor

        self.valid_column = cursor
        self.filter_column = cursor + 1
        self.group_column = cursor + 2
        # Landing column for bits transferred from another vertical partition
        # through the host (the two-xb intermediate-result path).
        self.remote_column = cursor + 3
        self.bookkeeping_columns = BOOKKEEPING_COLUMNS
        cursor += self.bookkeeping_columns

        if aggregation_width is None:
            aggregation_width = max((a.width for a in schema), default=1)
        self.aggregation_width = int(aggregation_width)
        self.accumulator_width = min(
            64, self.aggregation_width + int(math.ceil(math.log2(max(self.rows, 2))))
        )
        self.accumulator_offset = cursor
        cursor += self.accumulator_width
        if reserve_bulk_aggregation:
            self.operand_offset: int | None = cursor
            cursor += self.accumulator_width
        else:
            self.operand_offset = None

        if cursor + MIN_SCRATCH > self.columns:
            raise LayoutError(
                f"schema {schema.name!r} needs {cursor} columns plus at least "
                f"{MIN_SCRATCH} scratch columns, but the crossbar row has only "
                f"{self.columns}; use vertical partitioning (two-xb)"
            )
        self.scratch_columns: list[int] = list(range(cursor, self.columns))

    # ------------------------------------------------------------- accessors
    def field_offset(self, name: str) -> int:
        return self.fields[name][0]

    def field_width(self, name: str) -> int:
        return self.fields[name][1]

    def field_columns(self, name: str) -> list[int]:
        """Column indices of a field, least-significant bit first."""
        offset, width = self.fields[name]
        return list(range(offset, offset + width))

    def has_field(self, name: str) -> bool:
        return name in self.fields

    def word_indexes(self, name: str) -> list[int]:
        """16-bit read-port word indexes a field spans.

        The host read path uses these to count the distinct cache lines a
        record read touches (one line per (row, word) pair per page).
        """
        offset, width = self.fields[name]
        first = offset // self.read_width_bits
        last = (offset + width - 1) // self.read_width_bits
        return list(range(first, last + 1))

    def words_for_fields(self, names: Sequence[str]) -> list[int]:
        """Distinct word indexes needed to read the given fields."""
        words = set()
        for name in names:
            words.update(self.word_indexes(name))
        return sorted(words)

    @property
    def result_offset(self) -> int:
        """Where aggregation results are written back (the accumulator area)."""
        return self.accumulator_offset

    @property
    def result_word_indexes(self) -> list[int]:
        """Word indexes spanned by the aggregation result."""
        first = self.accumulator_offset // self.read_width_bits
        last = (self.accumulator_offset + self.accumulator_width - 1) // self.read_width_bits
        return list(range(first, last + 1))

    @property
    def used_columns(self) -> int:
        """Columns used by fields, flags and reserved areas (without scratch)."""
        return self.columns - len(self.scratch_columns)

    def describe(self) -> list[tuple[str, int, int]]:
        """Return ``(name, offset, width)`` rows for documentation/debugging."""
        rows = [(name, off, width) for name, (off, width) in self.fields.items()]
        rows.append(("<valid>", self.valid_column, 1))
        rows.append(("<filter>", self.filter_column, 1))
        rows.append(("<group>", self.group_column, 1))
        rows.append(("<remote>", self.remote_column, 1))
        rows.append(("<accumulator>", self.accumulator_offset, self.accumulator_width))
        if self.operand_offset is not None:
            rows.append(("<operand>", self.operand_offset, self.accumulator_width))
        rows.append(("<scratch>", self.scratch_columns[0], len(self.scratch_columns)))
        return rows
