"""In-memory relations backed by NumPy columns.

A :class:`Relation` is the functional ("ground truth") representation of a
table: a schema plus one unsigned integer array per attribute, each in its
field's own dtype (:func:`~repro.pim.packed.field_dtype` of the attribute's
width: a 3-bit flag is ``uint8``, a 24-bit price ``uint32``).  It is the
source from which data is loaded into the PIM module, the input of the
columnar baseline engine, and the reference the integration tests compare
query answers against.  Whatever writes a column keeps its dtype, and
arithmetic that could overflow it (a SUM, a product) widens explicitly.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.db.schema import Attribute, Schema
from repro.pim.packed import field_dtype


def field_values(attribute: Attribute, values) -> np.ndarray:
    """``values`` as a column of ``attribute``, in the field's own dtype.

    The range check runs on the incoming values, before anything narrows
    them, so an over-width (or negative) value raises ``ValueError`` instead
    of wrapping.  An array already in the field's dtype is returned as is.
    """
    column = np.asarray(values)
    if column.dtype.kind not in "iu":
        column = np.asarray(values, dtype=np.uint64)
    if column.size and (
        (column.dtype.kind == "i" and column.min() < 0)
        or (attribute.width < 64 and column.max() > attribute.max_value)
    ):
        raise ValueError(
            f"column {attribute.name!r} has values exceeding "
            f"{attribute.width} bits"
        )
    return column.astype(field_dtype(attribute.width), copy=False)


class Relation:
    """A table: a schema and one NumPy column per attribute, each in its
    field's own dtype (:func:`field_values`)."""

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]):
        self.schema = schema
        self.columns: dict[str, np.ndarray] = {}
        lengths = set()
        for attribute in schema:
            if attribute.name not in columns:
                raise ValueError(f"missing column {attribute.name!r}")
            column = field_values(attribute, columns[attribute.name])
            self.columns[attribute.name] = column
            lengths.add(len(column))
        if len(lengths) > 1:
            raise ValueError(f"columns have inconsistent lengths: {sorted(lengths)}")
        self.num_records = lengths.pop() if lengths else 0

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self.num_records

    def column(self, name: str) -> np.ndarray:
        """Return the stored (encoded) column ``name``."""
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"relation {self.schema.name!r} has no column {name!r}"
            ) from None

    # ------------------------------------------------------------- mutation
    def encode_records(
        self, records: Sequence[Mapping[str, object]]
    ) -> dict[str, np.ndarray]:
        """Validate and encode a batch of records, one column per attribute in
        the field's own dtype (the dtype of the relation's column).

        Values may be raw (e.g. a dictionary-encoded string) or already
        encoded integers; either way the encoded code must fit the
        attribute's bit width.  Unknown or missing attributes fail loudly.
        Each attribute takes one array build and one vectorised width check;
        a bad batch raises its first bad record's error (record-major order).
        """
        names = set(self.schema.names)
        columns: dict[str, np.ndarray] = {}
        try:
            for values in records:
                if not names.issuperset(values):
                    raise ValueError(
                        f"record has attributes {sorted(set(values) - names)} "
                        f"not in schema {self.schema.name!r}"
                    )
            for attribute in self.schema:
                name = attribute.name
                try:
                    raws = [values[name] for values in records]
                except KeyError:
                    raise ValueError(f"record is missing attribute {name!r}") from None
                codes = np.asarray(raws)
                if codes.dtype.kind not in "iu":
                    codes = np.array([
                        int(raw) if isinstance(raw, (int, np.integer))
                        else attribute.encode_value(raw)
                        for raw in raws
                    ], dtype=object)
                bad = codes < 0
                if attribute.width < 64:
                    bad |= codes > attribute.max_value
                if bad.any():
                    raise ValueError(
                        f"value {raws[int(np.argmax(bad))]!r} for attribute "
                        f"{name!r} does not fit in {attribute.width} bits"
                    )
                columns[name] = codes.astype(field_dtype(attribute.width))
        except (ValueError, TypeError, KeyError, OverflowError):
            # The pass met the first bad attribute, which need not belong to
            # the first bad record: raise that record's own error.
            for values in records if len(records) > 1 else ():
                self.encode_records([values])
            raise
        return columns

    # ----------------------------------------------------------- operations
    def select(self, mask: np.ndarray) -> Relation:
        """Return a new relation containing only the rows where ``mask``."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_records,):
            raise ValueError("mask length does not match the relation")
        return Relation(
            self.schema, {name: col[mask] for name, col in self.columns.items()}
        )

    def records(self, indices: Iterable[int] | None = None) -> list[dict[str, int]]:
        """Return records as dictionaries of encoded values (for small data)."""
        rows = slice(None) if indices is None else np.asarray(
            indices if isinstance(indices, np.ndarray) else list(indices),
            dtype=np.intp,
        )
        names = self.schema.names
        values = [self.columns[name][rows].tolist() for name in names]
        return [dict(zip(names, record)) for record in zip(*values)]

    @property
    def nbytes(self) -> int:
        """In-memory size of the columns: rows times each field's itemsize."""
        return sum(col.nbytes for col in self.columns.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Relation({self.schema.name!r}, records={self.num_records}, "
            f"attributes={len(self.schema)})"
        )


def concatenate(relations: Sequence[Relation]) -> Relation:
    """Concatenate relations sharing the same schema."""
    if not relations:
        raise ValueError("need at least one relation")
    schema = relations[0].schema
    for rel in relations[1:]:
        if rel.schema.names != schema.names:
            raise ValueError("relations have different schemas")
    columns = {
        name: np.concatenate([rel.columns[name] for rel in relations])
        for name in schema.names
    }
    return Relation(schema, columns)
