"""Compilation of predicates into bulk-bitwise NOR programs.

The PIM engine evaluates a query's WHERE clause entirely inside the memory
arrays: the predicate is compiled into a NOR program that leaves one result
bit per record in the layout's filter column.  Constants are translated to
the stored representation (dictionary codes) at compile time, so the
generated program contains no data-dependent control flow — it is broadcast
unchanged to every page of the relation.

For vertically partitioned relations (two-xb), the top-level conjunction is
split into per-partition conjunctions with :func:`partition_conjuncts`; the
executor combines the per-partition filter bits through the host, which is
the data movement overhead Section V-A attributes to the two-xb layout.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.db.encoding import RowLayout
from repro.db.query import (
    And,
    BETWEEN,
    Comparison,
    EQ,
    GE,
    GT,
    IN,
    LE,
    LT,
    NE,
    Or,
    Predicate,
    clamp_between,
    fold_comparison,
)
from repro.db.schema import Schema
from repro.pim.logic import Program, ProgramBuilder


class CompilationError(ValueError):
    """A predicate cannot be compiled against the given layout."""


def compile_predicate(
    predicate: Predicate,
    schema: Schema,
    layout: RowLayout,
    result_column: int | None = None,
) -> Program:
    """Compile a predicate into a program leaving its result in one column.

    The result column defaults to the layout's filter column and is ANDed
    with the valid bit so that padding rows never pass a filter.
    """
    if result_column is None:
        result_column = layout.filter_column
    builder = ProgramBuilder(layout.scratch_columns)
    if predicate is None:
        result = builder.copy(layout.valid_column)
    else:
        result = _compile_node(predicate, schema, layout, builder)
        combined = builder.and_(result, layout.valid_column)
        builder.free(result)
        result = combined
    builder.store(result, result_column)
    builder.free(result)
    return builder.build(result_column=result_column)


def compile_group_predicate(
    group_values: dict[str, int],
    layout: RowLayout,
    filter_column: int | None = None,
    result_column: int | None = None,
) -> Program:
    """Compile the per-subgroup filter used by pim-gb.

    ``group_values`` maps GROUP-BY attribute names to their *encoded* values
    for one subgroup.  The generated program computes the conjunction of the
    equalities and of the query's filter bit (already present in
    ``filter_column``), leaving the result in the layout's group column.
    """
    if result_column is None:
        result_column = layout.group_column
    if filter_column is None:
        filter_column = layout.filter_column
    builder = ProgramBuilder(layout.scratch_columns)
    terms = _group_equality_terms(builder, group_values, layout)
    return _conjoin_group_terms(
        builder, terms, layout, False, filter_column, result_column
    )


def _group_equality_terms(
    builder: ProgramBuilder, group_values: dict[str, int], layout: RowLayout
) -> list[int]:
    """Emit one equality comparison per GROUP-BY attribute (sorted by name)."""
    terms: list[int] = []
    for name, value in sorted(group_values.items()):
        if not layout.has_field(name):
            raise CompilationError(f"attribute {name!r} is not in this partition")
        terms.append(builder.eq_const(layout.field_columns(name), int(value)))
    return terms


def _conjoin_group_terms(
    builder: ProgramBuilder,
    terms: list[int],
    layout: RowLayout,
    include_remote: bool,
    filter_column: int,
    result_column: int,
) -> Program:
    """AND the equality terms, the remote bit-vector and the filter bit."""
    if include_remote:
        terms.append(builder.copy(layout.remote_column))
    local = builder.and_reduce(terms, consume=True) if terms else builder.const(True)
    combined = builder.and_(local, filter_column)
    builder.free(local)
    builder.store(combined, result_column)
    builder.free(combined)
    return builder.build(result_column=result_column)


def compile_group_combine(
    group_values: dict[str, int],
    layout: RowLayout,
    include_remote: bool = False,
    result_column: int | None = None,
) -> Program:
    """Compile the primary-partition subgroup mask used by pim-gb.

    The program conjoins the equalities on the primary partition's GROUP-BY
    attributes, optionally the bit-vector shipped from the other vertical
    partition (already landed in the layout's remote column), and the query's
    filter bit, leaving the result in the layout's group column.
    """
    if result_column is None:
        result_column = layout.group_column
    builder = ProgramBuilder(layout.scratch_columns)
    terms = _group_equality_terms(builder, group_values, layout)
    return _conjoin_group_terms(
        builder, terms, layout, include_remote, layout.filter_column, result_column
    )


class GroupMaskTemplate:
    """The pim-gb subgroup mask of one layout with the group key left open.

    :func:`compile_group_predicate` / :func:`compile_group_combine` build one
    constant-specialised program per subgroup; every one of them is the same
    circuit with other key constants.  A template is that circuit with the
    key's equalities left open, for ``attributes`` of ``layout`` (held
    sorted by name, the order the specialised compilers use):

    * ``fields[a]`` are attribute ``a``'s bit columns.  The batched pim-gb
      path evaluates "attribute ``a`` differs from the key's constant" once
      per distinct constant, with the literals of
      :meth:`~repro.pim.logic.ProgramBuilder.eq_const` selected along a
      constant axis (:func:`repro.pim.fused.field_mismatches`), and binds it
      per key to the pseudo-column ``mismatch_columns[a]``;
    * ``program`` is one NOR of the ``mismatch_columns``, the negated remote
      bit-vector (``include_remote``) and the negated ``filter_column`` into
      the group column: no attribute differs, and the remote and filter bits
      are set.  It is lowered like any program; the kernel run binds the
      mismatch columns, and the remote column, per key.

    The pseudo-columns lie past the physical row, and so does the program's
    scratch: a template is functional only, never dispatched op by op, and
    its gates are chosen for the fused kernel, not for the cycle count.
    What a subgroup's specialised program would be charged is its op count,
    :meth:`cycles` of the key.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        layout: RowLayout,
        filter_column: int,
        include_remote: bool = False,
    ) -> None:
        self.attributes: tuple[str, ...] = tuple(sorted(attributes))
        self.result_column = layout.group_column
        builder = ProgramBuilder(layout.scratch_columns)
        zero_key = _conjoin_group_terms(
            builder,
            _group_equality_terms(builder, dict.fromkeys(self.attributes, 0), layout),
            layout, include_remote, filter_column, self.result_column,
        )
        self.fields = tuple(
            tuple(layout.field_columns(name)) for name in self.attributes
        )
        self.widths = tuple(map(len, self.fields))
        self._fixed_cycles = zero_key.cycles - sum(
            ProgramBuilder.eq_const_cycles(width, 0) for width in self.widths
        )

        # Pseudo-columns: one per attribute for its mismatch, then the two
        # scratch columns of the negated remote and filter bits.
        cursor = layout.columns + len(self.fields)
        self.mismatch_columns = tuple(range(layout.columns, cursor))
        remote = (layout.remote_column,) if include_remote else ()
        builder = ProgramBuilder(range(cursor, cursor + 2))
        builder.emit_nor(
            self.result_column,
            self.mismatch_columns
            + tuple(builder.not_(column) for column in (*remote, filter_column)),
        )
        self.program = builder.build(result_column=self.result_column)
        # The compiled kernel, set by the batched path on first use; it lives
        # and dies with the template, like ``Program._kernel``.
        self._kernel = None

    def cycles(self, values: np.ndarray) -> np.ndarray:
        """For every row of a ``(K, attributes)`` key table, the op count of
        the program specialised to that key: the zero-key program's ops that
        are not equalities plus :meth:`ProgramBuilder.eq_const_cycles` of the
        key's values, in one vectorised closed form."""
        values = np.asarray(values, dtype=np.int64)
        widths = np.array(self.widths, dtype=np.int64)
        if np.any((values < 0) | (values >> widths)):
            raise ValueError(f"a group key does not fit in the widths {self.widths}")
        return (
            self._fixed_cycles + int((4 * widths - 3).sum())
            + np.bitwise_count(values).sum(axis=1, dtype=np.int64)
        )


def _compile_node(
    node: Predicate, schema: Schema, layout: RowLayout, builder: ProgramBuilder
) -> int:
    if isinstance(node, Comparison):
        return _compile_comparison(node, schema, layout, builder)
    if isinstance(node, And):
        children = [_compile_node(c, schema, layout, builder) for c in node.children]
        return builder.and_reduce(children, consume=True)
    if isinstance(node, Or):
        children = [_compile_node(c, schema, layout, builder) for c in node.children]
        return builder.or_reduce(children, consume=True)
    raise CompilationError(f"unknown predicate node {node!r}")


def _encode(schema: Schema, attribute: str, value) -> int | None:
    """Translate a constant to the stored code; ``None`` = not in dictionary.

    Integer constants outside the attribute's encoded domain are *not*
    folded to ``None`` here: ``field < 1024`` on a 4-bit field is true for
    every record, so the comparison compilers fold out-of-domain constants
    against the domain boundary instead (matching
    :func:`repro.db.query.evaluate_predicate` exactly).
    """
    attr = schema.attribute(attribute)
    try:
        return int(attr.encode_value(value))
    except KeyError:
        return None


def _compile_comparison(
    node: Comparison, schema: Schema, layout: RowLayout, builder: ProgramBuilder
) -> int:
    if not layout.has_field(node.attribute):
        raise CompilationError(
            f"attribute {node.attribute!r} is not stored in this partition"
        )
    columns = layout.field_columns(node.attribute)
    max_value = schema.attribute(node.attribute).max_value
    op = node.op
    if op == IN:
        encoded_values = [
            encoded
            for encoded in (
                _encode(schema, node.attribute, value) for value in node.values
            )
            # Out-of-domain constants can never equal a stored value.
            if encoded is not None and 0 <= encoded <= max_value
        ]
        if not encoded_values:
            return builder.const(False)
        return builder.isin_const(columns, encoded_values)
    if op == BETWEEN:
        bounds = clamp_between(
            _encode(schema, node.attribute, node.low),
            _encode(schema, node.attribute, node.high),
            max_value,
        )
        if bounds is None:
            return builder.const(False)
        return builder.between_const(columns, *bounds)
    if op not in (EQ, NE, LT, LE, GT, GE):
        raise CompilationError(f"unknown operator {op!r}")
    encoded = _encode(schema, node.attribute, node.value)
    folded = fold_comparison(op, encoded, max_value)
    if folded is not None:
        return builder.const(folded)
    if op == EQ:
        return builder.eq_const(columns, encoded)
    if op == NE:
        return builder.ne_const(columns, encoded)
    if op == LT:
        return builder.lt_const(columns, encoded)
    if op == LE:
        return builder.le_const(columns, encoded)
    if op == GT:
        return builder.gt_const(columns, encoded)
    return builder.ge_const(columns, encoded)


def partition_conjuncts(
    predicate: Predicate, partition_attributes: Sequence[Sequence[str]]
) -> list[Predicate | None]:
    """Split a top-level conjunction across vertical partitions.

    Returns one predicate (or ``None``) per partition.  A conjunct whose
    attributes are not contained in a single partition cannot be evaluated
    without moving data and raises :class:`CompilationError`; the SSB
    predicates are all per-attribute conjuncts, so this never happens there.
    """
    from repro.db.query import attributes_referenced, conj

    partition_sets = [set(attrs) for attrs in partition_attributes]
    buckets: list[list[Predicate]] = [[] for _ in partition_sets]
    if predicate is None:
        return [None for _ in partition_sets]
    conjuncts = list(predicate.children) if isinstance(predicate, And) else [predicate]
    for conjunct in conjuncts:
        referenced = attributes_referenced(conjunct)
        placed = False
        for index, attrs in enumerate(partition_sets):
            if referenced <= attrs:
                buckets[index].append(conjunct)
                placed = True
                break
        if not placed:
            raise CompilationError(
                f"conjunct referencing {sorted(referenced)} spans multiple "
                f"vertical partitions"
            )
    return [conj(*bucket) if bucket else None for bucket in buckets]
