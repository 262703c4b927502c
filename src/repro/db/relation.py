"""In-memory relations backed by NumPy columns.

A :class:`Relation` is the functional ("ground truth") representation of a
table: a schema plus one unsigned integer array per attribute.  It is the
source from which data is loaded into the PIM module, the input of the
columnar baseline engine, and the reference the integration tests compare
query answers against.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.db.schema import Schema


class Relation:
    """A table: a schema and one NumPy column per attribute."""

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]):
        self.schema = schema
        self.columns: dict[str, np.ndarray] = {}
        lengths = set()
        for attribute in schema:
            if attribute.name not in columns:
                raise ValueError(f"missing column {attribute.name!r}")
            column = np.asarray(columns[attribute.name], dtype=np.uint64)
            if attribute.width < 64 and column.size and column.max(initial=0) > attribute.max_value:
                raise ValueError(
                    f"column {attribute.name!r} has values exceeding "
                    f"{attribute.width} bits"
                )
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
        """Validate and encode a batch of records, one ``uint64`` column each.

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
                columns[name] = codes.astype(np.uint64)
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
        if indices is None:
            indices = range(self.num_records)
        return [
            {name: int(self.columns[name][i]) for name in self.schema.names}
            for i in indices
        ]

    @property
    def nbytes(self) -> int:
        """Approximate in-memory size of the columns."""
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
