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
    encode_comparison,
)
from repro.db.schema import Schema
from repro.pim.logic import Program, ProgramBuilder


class CompilationError(ValueError):
    """A predicate cannot be compiled against the given layout."""


def compile_predicate(predicate: Predicate, schema: Schema, layout: RowLayout) -> Program:
    """Compile a predicate into a program leaving its result in the filter column.

    The result is ANDed with the valid bit so that padding rows never pass a
    filter.
    """
    builder = ProgramBuilder(layout.scratch_columns)
    if predicate is None:
        result = builder.copy(layout.valid_column)
    else:
        result = _compile_node(predicate, schema, layout, builder)
        combined = builder.and_(result, layout.valid_column)
        builder.free(result)
        result = combined
    builder.store(result, layout.filter_column)
    builder.free(result)
    return builder.build(result_column=layout.filter_column)


def compile_group_predicate(group_values: dict[str, int], layout: RowLayout) -> Program:
    """The remote-partition subgroup mask: :func:`compile_group_mask` over the valid bit."""
    return compile_group_mask(group_values, layout, layout.valid_column, False)


def compile_group_combine(
    group_values: dict[str, int], layout: RowLayout, include_remote: bool
) -> Program:
    """The primary-partition subgroup mask: :func:`compile_group_mask` over the filter bit."""
    return compile_group_mask(group_values, layout, layout.filter_column, include_remote)


def compile_group_mask(
    group_values: dict[str, int],
    layout: RowLayout,
    filter_column: int,
    include_remote: bool,
) -> Program:
    """Compile one pim-gb subgroup mask into the layout's group column.

    ``group_values`` maps GROUP-BY attribute names to their *encoded* values
    for one subgroup.  The program conjoins one equality per attribute (in
    name order), the bit-vector shipped from the other vertical partition
    (already landed in the layout's remote column) when ``include_remote``,
    and the filter bit already present in ``filter_column``.
    """
    builder = ProgramBuilder(layout.scratch_columns)
    terms: list[int] = []
    for name, value in sorted(group_values.items()):
        if not layout.has_field(name):
            raise CompilationError(f"attribute {name!r} is not in this partition")
        terms.append(builder.eq_const(layout.field_columns(name), int(value)))
    if include_remote:
        terms.append(builder.copy(layout.remote_column))
    local = builder.and_reduce(terms, consume=True) if terms else builder.const(True)
    combined = builder.and_(local, filter_column)
    builder.free(local)
    builder.store(combined, layout.group_column)
    builder.free(combined)
    return builder.build(result_column=layout.group_column)


class GroupMaskTemplate:
    """The pim-gb subgroup mask of one layout with the group key left open.

    :func:`compile_group_mask` builds one constant-specialised program per
    subgroup; every one of them is the same circuit with other key
    constants.  A template is what the batched pim-gb needs of that circuit
    for ``attributes`` of ``layout`` (held sorted by name, the order
    :func:`compile_group_mask` uses), without compiling it per key:

    * ``fields[a]`` are attribute ``a``'s bit columns and ``widths[a]``
      their count.  A remote partition's stored bits are the valid bit
      ANDed with "no attribute differs from the key"
      (:func:`repro.pim.fused.field_mismatches`); the primary's come from
      the pim-gb's key lookup.
    * :meth:`cycles` is what each key's specialised program would be
      charged, its op count, for a whole key table at once.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        layout: RowLayout,
        filter_column: int,
        include_remote: bool = False,
    ) -> None:
        self.attributes: tuple[str, ...] = tuple(sorted(attributes))
        zero_key = compile_group_mask(
            dict.fromkeys(self.attributes, 0), layout, filter_column, include_remote
        )
        self.fields = tuple(
            tuple(layout.field_columns(name)) for name in self.attributes
        )
        self.widths = tuple(map(len, self.fields))
        self._fixed_cycles = zero_key.cycles - sum(
            ProgramBuilder.eq_const_cycles(width, 0) for width in self.widths
        )

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


def _compile_comparison(
    node: Comparison, schema: Schema, layout: RowLayout, builder: ProgramBuilder
) -> int:
    if not layout.has_field(node.attribute):
        raise CompilationError(
            f"attribute {node.attribute!r} is not stored in this partition"
        )
    if node.op not in (EQ, NE, LT, LE, GT, GE, BETWEEN, IN):
        raise CompilationError(f"unknown operator {node.op!r}")
    encoded = encode_comparison(node, schema)
    if encoded.folded is not None:
        return builder.const(encoded.folded)
    columns = layout.field_columns(node.attribute)
    op, code = encoded.op, encoded.code
    if op == IN:
        return builder.isin_const(columns, encoded.codes)
    if op == BETWEEN:
        return builder.between_const(columns, encoded.low, encoded.high)
    if op == EQ:
        return builder.eq_const(columns, code)
    if op == NE:
        return builder.ne_const(columns, code)
    if op == LT:
        return builder.lt_const(columns, code)
    if op == LE:
        return builder.le_const(columns, code)
    if op == GT:
        return builder.gt_const(columns, code)
    return builder.ge_const(columns, code)


def partition_conjuncts(
    predicate: Predicate, partition_attributes: Sequence[Sequence[str]]
) -> list[Predicate | None]:
    """Split a top-level conjunction across vertical partitions.

    Returns one predicate (or ``None``) per partition.  A conjunct naming an
    attribute no partition stores, or whose attributes are not contained in
    a single partition (it cannot be evaluated without moving data), raises
    :class:`CompilationError`; the SSB predicates are all per-attribute
    conjuncts, so the latter never happens there.
    """
    from repro.db.query import attributes_referenced, conj

    partition_sets = [set(attrs) for attrs in partition_attributes]
    buckets: list[list[Predicate]] = [[] for _ in partition_sets]
    if predicate is None:
        return [None for _ in partition_sets]
    conjuncts = list(predicate.children) if isinstance(predicate, And) else [predicate]
    for conjunct in conjuncts:
        referenced = attributes_referenced(conjunct)
        unknown = referenced.difference(*partition_sets)
        if unknown:
            raise CompilationError(f"attribute {sorted(unknown)} is not stored in any partition")
        for bucket, attrs in zip(buckets, partition_sets):
            if referenced <= attrs:
                bucket.append(conjunct)
                break
        else:
            raise CompilationError(
                f"conjunct referencing {sorted(referenced)} spans multiple "
                f"vertical partitions"
            )
    return [conj(*bucket) if bucket else None for bucket in buckets]
