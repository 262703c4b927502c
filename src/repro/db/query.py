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

import numpy as np

from repro.db.relation import Relation
from repro.db.schema import Schema


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


@dataclass(frozen=True)
class EncodedComparison:
    """A comparison with its raw constants translated to stored codes.

    Exactly one reading holds.  ``folded`` is ``True``/``False`` when every
    in-domain stored value compares the same way; otherwise ``op`` is read
    with ``code`` (the scalar operators), ``low``/``high`` (BETWEEN, clamped
    into the domain) or ``codes`` (IN: the in-domain codes in list order,
    duplicates kept).
    """

    op: str
    folded: bool | None = None
    code: int = 0
    low: int = 0
    high: int = 0
    codes: tuple[int, ...] = ()


def encode_comparison(comparison: Comparison, schema: Schema) -> EncodedComparison:
    """Translate a comparison's constants through the schema, once.

    This is *the* definition of constant semantics.  A value missing from
    the attribute's dictionary matches nothing (everything for ``!=``); an
    integer outside ``[0, max_value]`` puts the whole stored domain on one
    side of a scalar comparison and can never equal an IN member; a BETWEEN
    with a missing bound, an inverted range or a range entirely outside the
    domain selects nothing, anything else clamps to the domain.  The NOR
    compiler, the reference evaluator, the zone maps, the pair sketch and
    the selectivity model all read this record; the planner's pruning
    soundness depends on them agreeing bit for bit.  Nothing is memoised:
    a dictionary can grow between two calls.
    """
    op = comparison.op
    attribute = schema.attribute(comparison.attribute)
    max_value = attribute.max_value

    def encode(value) -> int | None:
        try:
            return int(attribute.encode_value(value))
        except KeyError:
            return None

    if op == IN:
        codes = tuple(
            code for code in map(encode, comparison.values)
            if code is not None and 0 <= code <= max_value
        )
        return EncodedComparison(op, folded=None if codes else False, codes=codes)
    if op == BETWEEN:
        low, high = encode(comparison.low), encode(comparison.high)
        if low is None or high is None or high < 0 or low > max_value or low > high:
            return EncodedComparison(op, folded=False)
        return EncodedComparison(op, low=max(low, 0), high=min(high, max_value))
    if op not in (EQ, NE, LT, LE, GT, GE):
        raise ValueError(f"unknown operator {op!r}")
    code = encode(comparison.value)
    if code is not None and 0 <= code <= max_value:
        return EncodedComparison(op, code=code)
    if code is None or op in (EQ, NE):
        return EncodedComparison(op, folded=op == NE)
    return EncodedComparison(op, folded=(code > max_value) == (op in (LT, LE)))


def _evaluate_comparison(comparison: Comparison, relation: Relation) -> np.ndarray:
    column = relation.column(comparison.attribute)
    encoded = encode_comparison(comparison, relation.schema)
    if encoded.folded is not None:
        return np.full(len(relation), encoded.folded, dtype=bool)
    op = encoded.op
    if op == IN:
        mask = np.zeros(len(relation), dtype=bool)
        for code in encoded.codes:
            mask |= column == code
        return mask
    # Python ints, so a narrow column is compared as is, never widened.
    if op == BETWEEN:
        return (column >= encoded.low) & (column <= encoded.high)
    value = encoded.code
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
    return column >= value
