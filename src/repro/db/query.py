"""Query intermediate representation.

Analytical queries in the paper have the ``select-from-where-group by`` form
(Section II-A): a predicate over one or more relations, an optional GROUP-BY
attribute list, and one or more aggregations.  The classes below express that
form independently of the execution engine; the PIM engine compiles the
predicate into NOR programs, while the columnar baseline evaluates it with
vectorised NumPy operations, and both must agree bit for bit (the integration
tests check exactly that).

:func:`evaluate_predicate` is the reference implementation of predicate
semantics used by the columnar engine and by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.db.relation import Relation


# Comparison operators.
EQ = "=="
NE = "!="
LT = "<"
LE = "<="
GT = ">"
GE = ">="
BETWEEN = "between"
IN = "in"

_VALID_OPS = (EQ, NE, LT, LE, GT, GE, BETWEEN, IN)


@dataclass(frozen=True)
class Comparison:
    """A comparison between an attribute and constants.

    ``value`` is used by the scalar operators, ``low``/``high`` by BETWEEN
    (inclusive bounds) and ``values`` by IN.  Constants are given as *raw*
    values (e.g. the string ``"ASIA"`` for a dictionary-encoded attribute);
    each engine translates them to the stored representation.
    """

    attribute: str
    op: str
    value: object = None
    low: object = None
    high: object = None
    values: tuple[object, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in _VALID_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        if self.op == BETWEEN and (self.low is None or self.high is None):
            raise ValueError("BETWEEN needs low and high")
        if self.op == IN and not self.values:
            raise ValueError("IN needs a non-empty value tuple")
        if self.op not in (BETWEEN, IN) and self.value is None:
            raise ValueError(f"{self.op} needs a value")


@dataclass(frozen=True)
class And:
    """Conjunction of child predicates."""

    children: tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("And needs at least one child")


@dataclass(frozen=True)
class Or:
    """Disjunction of child predicates."""

    children: tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("Or needs at least one child")


Predicate = Comparison | And | Or | None


def conj(*children) -> Predicate:
    """Convenience: conjunction of the non-``None`` children."""
    kept = tuple(c for c in children if c is not None)
    if not kept:
        return None
    if len(kept) == 1:
        return kept[0]
    return And(kept)


@dataclass(frozen=True)
class Aggregate:
    """An aggregation over an attribute (SUM, MIN, MAX or COUNT)."""

    op: str
    attribute: str | None = None
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.op not in ("sum", "min", "max", "count"):
            raise ValueError(f"unsupported aggregation {self.op!r}")
        if self.op != "count" and self.attribute is None:
            raise ValueError(f"{self.op} needs an attribute")

    @property
    def name(self) -> str:
        """Output column name of the aggregate."""
        if self.alias:
            return self.alias
        if self.op == "count":
            return "count"
        return f"{self.op}_{self.attribute}"


@dataclass(frozen=True)
class Query:
    """A select-from-where-group by query over a single (pre-joined) relation."""

    name: str
    predicate: Predicate
    aggregates: tuple[Aggregate, ...]
    group_by: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise ValueError("a query needs at least one aggregate")
        for name in self.group_by:
            if self.group_by.count(name) > 1:
                raise ValueError(f"GROUP-BY attribute {name!r} is repeated")

    @property
    def filter_attributes(self) -> list[str]:
        """Attributes referenced by the predicate."""
        return sorted(attributes_referenced(self.predicate))

    @property
    def aggregate_attributes(self) -> list[str]:
        """Attributes referenced by the aggregations."""
        return sorted({a.attribute for a in self.aggregates if a.attribute})

    @property
    def referenced_attributes(self) -> list[str]:
        """All attributes the query touches."""
        names: set[str] = set(self.filter_attributes)
        names.update(self.aggregate_attributes)
        names.update(self.group_by)
        return sorted(names)


def attributes_referenced(predicate: Predicate) -> set[str]:
    """Set of attribute names referenced by a predicate."""
    if predicate is None:
        return set()
    if isinstance(predicate, Comparison):
        return {predicate.attribute}
    if isinstance(predicate, (And, Or)):
        names: set[str] = set()
        for child in predicate.children:
            names |= attributes_referenced(child)
        return names
    raise TypeError(f"unknown predicate node {predicate!r}")


def evaluate_predicate(predicate: Predicate, relation: Relation) -> np.ndarray:
    """Reference evaluation of a predicate over a relation.

    Returns a boolean mask of the records satisfying the predicate, using the
    relation's encoded columns (raw constants are translated through the
    schema's dictionaries; constants missing from a dictionary simply select
    nothing, matching the PIM compiler's behaviour).
    """
    if predicate is None:
        return np.ones(len(relation), dtype=bool)
    if isinstance(predicate, Comparison):
        return _evaluate_comparison(predicate, relation)
    if isinstance(predicate, And):
        mask = np.ones(len(relation), dtype=bool)
        for child in predicate.children:
            mask &= evaluate_predicate(child, relation)
        return mask
    if isinstance(predicate, Or):
        mask = np.zeros(len(relation), dtype=bool)
        for child in predicate.children:
            mask |= evaluate_predicate(child, relation)
        return mask
    raise TypeError(f"unknown predicate node {predicate!r}")


def _encode_constant(relation: Relation, attribute: str, value) -> int | None:
    attr = relation.schema.attribute(attribute)
    try:
        return attr.encode_value(value)
    except KeyError:
        return None


def fold_comparison(op: str, encoded: int | None, max_value: int) -> bool | None:
    """Constant-fold a scalar comparison against the field domain.

    ``encoded`` is the constant's stored code (``None`` when the raw value
    is missing from the attribute's dictionary); ``max_value`` is the
    largest code the field can hold.  Returns ``True``/``False`` when every
    in-domain stored value compares the same way — a value missing from the
    dictionary matches nothing (everything for ``!=``), and an integer
    outside ``[0, max_value]`` puts the whole domain on one side of the
    comparison — and ``None`` when the constant is in-domain and must be
    compared for real.

    This is *the* definition of out-of-domain comparison semantics.  The
    NOR compiler, the reference evaluator, the zone maps and the
    selectivity model all fold through here; the planner's pruning
    soundness depends on them agreeing bit for bit.
    """
    if op not in (EQ, NE, LT, LE, GT, GE):
        raise ValueError(f"unknown operator {op!r}")
    if encoded is None:
        return op == NE
    if 0 <= encoded <= max_value:
        return None
    if op in (EQ, NE):
        return op == NE
    below = encoded > max_value
    return below if op in (LT, LE) else not below


def clamp_between(
    low: int | None, high: int | None, max_value: int
) -> tuple[int, int] | None:
    """Clamp BETWEEN bounds into the field domain (``None`` = empty range).

    The companion of :func:`fold_comparison` for the inclusive range
    operator: a bound missing from the dictionary, a range entirely outside
    the domain, or an inverted range selects nothing; anything else clamps
    to the representable ``[max(low, 0), min(high, max_value)]``.
    """
    if low is None or high is None or high < 0 or low > max_value or low > high:
        return None
    return max(low, 0), min(high, max_value)


def _evaluate_comparison(comparison: Comparison, relation: Relation) -> np.ndarray:
    column = relation.column(comparison.attribute)
    max_value = relation.schema.attribute(comparison.attribute).max_value
    op = comparison.op
    if op == IN:
        mask = np.zeros(len(relation), dtype=bool)
        for value in comparison.values:
            encoded = _encode_constant(relation, comparison.attribute, value)
            if encoded is not None and 0 <= encoded <= max_value:
                mask |= column == np.uint64(encoded)
        return mask
    if op == BETWEEN:
        bounds = clamp_between(
            _encode_constant(relation, comparison.attribute, comparison.low),
            _encode_constant(relation, comparison.attribute, comparison.high),
            max_value,
        )
        if bounds is None:
            return np.zeros(len(relation), dtype=bool)
        low, high = bounds
        return (column >= np.uint64(low)) & (column <= np.uint64(high))
    encoded = _encode_constant(relation, comparison.attribute, comparison.value)
    folded = fold_comparison(op, encoded, max_value)
    if folded is not None:
        return np.full(len(relation), folded, dtype=bool)
    value = np.uint64(encoded)
    if op == EQ:
        return column == value
    if op == NE:
        return column != value
    if op == LT:
        return column < value
    if op == LE:
        return column <= value
    if op == GT:
        return column > value
    if op == GE:
        return column >= value
    raise ValueError(f"unknown operator {op!r}")


def reference_group_aggregate(
    relation: Relation,
    mask: np.ndarray,
    group_by: Sequence[str],
    aggregates: Sequence[Aggregate],
) -> dict[tuple[int, ...], dict[str, int]]:
    """Reference GROUP-BY aggregation used to validate every engine.

    Returns ``{group_key_codes: {aggregate_name: value}}``.  With an empty
    ``group_by`` the single key is the empty tuple.
    """
    mask = np.asarray(mask, dtype=bool)
    selected_indices = np.nonzero(mask)[0]
    results: dict[tuple[int, ...], dict[str, int]] = {}
    if len(group_by) == 0:
        keys = np.zeros((len(selected_indices), 0), dtype=np.uint64)
    else:
        keys = np.stack(
            [relation.column(name)[selected_indices] for name in group_by], axis=1
        )
    if len(selected_indices) == 0:
        return results
    unique_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    for key_index, key in enumerate(unique_keys):
        group_rows = selected_indices[inverse == key_index]
        entry: dict[str, int] = {}
        for aggregate in aggregates:
            if aggregate.op == "count":
                entry[aggregate.name] = int(len(group_rows))
                continue
            values = relation.column(aggregate.attribute)[group_rows]
            if aggregate.op == "sum":
                entry[aggregate.name] = int(values.sum())
            elif aggregate.op == "min":
                entry[aggregate.name] = int(values.min())
            else:
                entry[aggregate.name] = int(values.max())
        results[tuple(int(v) for v in key)] = entry
    return results
