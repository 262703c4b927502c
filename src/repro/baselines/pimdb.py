"""The PIMDB baseline: bulk-bitwise PIM without the aggregation circuit.

PIMDB [1] is the system this paper builds on.  For the comparison in
Section V the authors extend PIMDB with the pre-joined relation and the
GROUP-BY technique of this paper, so the *only* difference is how PIM
aggregation is carried out: PIMDB performs it purely with bulk-bitwise logic
(the expensive in-crossbar reduction of
:class:`~repro.pim.arithmetic.BulkAggregationPlan`), while one-xb uses the
per-crossbar aggregation circuit.  This module builds a query engine wired up
exactly that way; its GROUP-BY cost model is re-fitted for the slower PIM
aggregation, which is why PIMDB assigns fewer subgroups to pim-gb
(Table II).
"""

from __future__ import annotations


from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.executor import PimQueryEngine
from repro.db.relation import Relation
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule


def build_pimdb_engine(
    relation: Relation,
    config: SystemConfig | None = None,
    aggregation_width: int | None = None,
    timing_scale: float = 1.0,
) -> tuple[PimQueryEngine, StoredRelation]:
    """Store ``relation`` and return a PIMDB-configured query engine.

    The returned configuration disables the aggregation circuit, which makes
    the engine fall back to the pure bulk-bitwise reduction; the row layout
    therefore reserves the in-row operand area the reduction needs.
    """
    base = config if config is not None else DEFAULT_CONFIG
    pimdb_config = base.without_aggregation_circuit()
    module = PimModule(pimdb_config)
    stored = StoredRelation(
        relation,
        module,
        label="pimdb",
        aggregation_width=aggregation_width,
        reserve_bulk_aggregation=True,
    )
    engine = PimQueryEngine(
        stored, config=pimdb_config, label="pimdb", timing_scale=timing_scale,
    )
    return engine, stored
