"""The pre-joined SSB relation stored in the PIM module.

The relations of the benchmark are stored as a single pre-joined relation:
the result of the equi-join between LINEORDER and the four dimensions on the
dimension keys (Section V-A).  Following the paper, the textual NAME and
ADDRESS attributes are left out (they are never generated here in the first
place) so that the pre-joined record fits in a single 512-bit crossbar row.

Two derived attributes are materialised alongside the join so every SSB
aggregation becomes a plain SUM over one stored field:

* ``lo_revenue_discounted`` = ``lo_extendedprice * lo_discount`` (query
  group 1's revenue definition),
* ``lo_profit`` = ``lo_revenue - lo_supplycost`` (query group 4's profit).

Both can equivalently be produced inside the memory with the NOR
multiplier/subtractor of :mod:`repro.pim.arithmetic` (see the
``derived_attribute_in_memory`` example); materialising them at load time is
the variant the timing results assume.
"""

from __future__ import annotations


from repro.core.prejoin import DerivedAttribute, build_prejoined_relation
from repro.db.catalog import Database
from repro.db.relation import Relation

#: Derived attributes materialised in the pre-joined relation.
DERIVED_ATTRIBUTES: tuple[DerivedAttribute, ...] = (
    DerivedAttribute(
        name="lo_revenue_discounted",
        op="mul",
        left="lo_extendedprice",
        right="lo_discount",
        width=28,
    ),
    DerivedAttribute(
        name="lo_profit",
        op="sub",
        left="lo_revenue",
        right="lo_supplycost",
        width=24,
    ),
)

#: The fact-relation partition of the two-xb (vertically partitioned) layout:
#: every attribute of LINEORDER plus the derived attributes; the second
#: partition holds all dimension attributes.  This is the worst-case split of
#: Section V-A (subgroup identifiers and aggregated attributes end up in
#: different crossbars).
def two_xb_partitions(prejoined: Relation) -> list[list[str]]:
    """Attribute partitioning of the two-xb configuration."""
    fact_names = [
        a.name for a in prejoined.schema
        if a.source == "lineorder" or a.name in {d.name for d in DERIVED_ATTRIBUTES}
    ]
    dimension_names = [a.name for a in prejoined.schema if a.name not in fact_names]
    return [fact_names, dimension_names]


def build_ssb_prejoined(database: Database) -> Relation:
    """Build the pre-joined SSB relation (fact joined with all dimensions)."""
    return build_prejoined_relation(
        database, name="ssb_prejoined", derived=DERIVED_ATTRIBUTES
    )


def max_aggregated_width(prejoined: Relation) -> int:
    """Widest attribute any SSB query aggregates (sizes the result area)."""
    candidates = ("lo_revenue_discounted", "lo_revenue", "lo_profit")
    return max(prejoined.schema.attribute(name).width for name in candidates)
