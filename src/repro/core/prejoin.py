"""Pre-joined relations (Section III).

JOIN requires data-dependent movement between crossbars, which bulk-bitwise
PIM does not support, so the paper stores the result of the star-schema
equi-join — every fact record extended with the attributes of the dimension
records it references — and runs whole queries on that single relation.

:func:`build_prejoined_relation` performs the equi-join on the foreign keys
declared in the :class:`~repro.db.catalog.Database`, optionally excludes long
textual attributes (the paper drops NAME and ADDRESS), and materialises
*derived attributes* such as ``lo_extendedprice * lo_discount`` so that every
SSB aggregation is a plain SUM over one stored field.  Because keys are
unique, the pre-joined relation has exactly as many records as the fact
relation, which is why it fits in the crossbar rows the fact relation would
occupy anyway (:func:`storage_overhead` quantifies this argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.db.catalog import Database
from repro.db.encoding import BOOKKEEPING_COLUMNS
from repro.db.relation import Relation
from repro.db.schema import Attribute, Schema
from repro.pim.packed import field_dtype


@dataclass(frozen=True)
class DerivedAttribute:
    """A materialised arithmetic combination of two stored attributes.

    ``op`` is one of ``"mul"``, ``"add"`` or ``"sub"``.  Derived attributes
    can equivalently be produced inside the memory with the NOR
    multiplier/adder of :mod:`repro.pim.arithmetic`; materialising them at
    load time keeps every query aggregation a single-field SUM/MIN/MAX, which
    is what the aggregation circuit supports.
    """

    name: str
    op: str
    left: str
    right: str
    width: int

    def compute(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        left = columns[self.left].astype(np.int64)
        right = columns[self.right].astype(np.int64)
        if self.op == "mul":
            values = left * right
        elif self.op == "add":
            values = left + right
        elif self.op == "sub":
            values = left - right
        else:
            raise ValueError(f"unknown derived-attribute op {self.op!r}")
        if values.size and values.min() < 0:
            raise ValueError(
                f"derived attribute {self.name!r} has negative values; "
                f"bulk-bitwise fields are unsigned"
            )
        if values.size and self.width < 64 and values.max() >= (1 << self.width):
            raise ValueError(
                f"derived attribute {self.name!r} overflows {self.width} bits"
            )
        return values.astype(field_dtype(self.width))


def build_prejoined_relation(
    database: Database,
    name: str = "prejoined",
    derived: Sequence[DerivedAttribute] = (),
) -> Relation:
    """Equi-join the fact relation with every dimension it references.

    The join is on the dimension keys, so each fact record matches exactly
    one record per dimension.  Dimension key columns themselves are not
    duplicated (the fact relation's foreign-key copy is kept).
    """
    fact = database.fact_relation
    attributes: list[Attribute] = list(fact.schema.attributes)
    columns: dict[str, np.ndarray] = dict(fact.columns)

    for foreign_key in database.foreign_keys:
        dimension = database.relation(foreign_key.dimension)
        key_values = dimension.column(foreign_key.dimension_key)
        positions = _key_positions(key_values, fact.column(foreign_key.fact_attribute))
        for attribute in dimension.schema:
            if attribute.name == foreign_key.dimension_key:
                continue
            if attribute.name in columns:
                raise ValueError(
                    f"attribute {attribute.name!r} appears in more than one relation"
                )
            attributes.append(attribute)
            columns[attribute.name] = dimension.column(attribute.name)[positions]

    for spec in derived:
        attributes.append(Attribute(name=spec.name, width=spec.width, kind="int",
                                    source=fact.schema.name))
        columns[spec.name] = spec.compute(columns)

    schema = Schema(name, attributes)
    return Relation(schema, columns)


def _key_positions(dimension_keys: np.ndarray, fact_keys: np.ndarray) -> np.ndarray:
    """Positions of each fact foreign key within the dimension key column."""
    order = np.argsort(dimension_keys, kind="stable")
    sorted_keys = dimension_keys[order]
    located = np.searchsorted(sorted_keys, fact_keys)
    if located.size and (
        located.max(initial=0) >= len(sorted_keys)
        or not np.array_equal(sorted_keys[located], fact_keys)
    ):
        raise ValueError("a fact record references a missing dimension key")
    return order[located]


@dataclass(frozen=True)
class StorageOverheadReport:
    """Storage accounting behind the Section III "no additional memory" claim."""

    fact_records: int
    fact_record_bits: int
    prejoined_record_bits: int
    crossbar_row_bits: int
    fact_pages: int
    prejoined_pages_one_xb: int
    prejoined_pages_two_xb: int
    fits_in_single_row: bool

    @property
    def extra_pages_one_xb(self) -> int:
        """Additional pages versus storing only the fact relation."""
        return self.prejoined_pages_one_xb - self.fact_pages

    @property
    def row_utilisation(self) -> float:
        """Fraction of the crossbar row used by the pre-joined record."""
        return self.prejoined_record_bits / self.crossbar_row_bits


def storage_overhead(
    database: Database,
    prejoined: Relation,
    crossbar_row_bits: int = 512,
    records_per_page: int = 32 * 1024,
) -> StorageOverheadReport:
    """Quantify the PIM storage cost of the pre-joined relation.

    Because the join is on unique dimension keys, the pre-joined relation has
    the same number of records as the fact relation; if its record (plus the
    bookkeeping bits of the row layout) still fits in one crossbar row, the
    pre-join occupies exactly the pages the fact relation needed — the unused
    row bits are simply put to work.
    """
    fact = database.fact_relation
    fact_bits = fact.schema.record_width
    prejoined_bits = prejoined.schema.record_width
    def pages(records: int) -> int:
        return int(np.ceil(records / records_per_page))

    fits = prejoined_bits + BOOKKEEPING_COLUMNS <= crossbar_row_bits
    return StorageOverheadReport(
        fact_records=len(fact),
        fact_record_bits=fact_bits,
        prejoined_record_bits=prejoined_bits,
        crossbar_row_bits=crossbar_row_bits,
        fact_pages=pages(len(fact)),
        prejoined_pages_one_xb=pages(len(prejoined)) * (1 if fits else 2),
        prejoined_pages_two_xb=pages(len(prejoined)) * 2,
        fits_in_single_row=fits,
    )
