"""Print the state digests of one checkout as JSON, to compare two checkouts.

Run it on two checkouts of this repository (say, a change and its parent)
and diff the outputs; a change that claims to move no state or modelled
number must print the same JSON as its parent::

    python tools/state_digests.py CHECKOUT > change.json

``CHECKOUT`` is the root of a checkout; its ``src``, ``perf`` and ``tests``
go first on ``sys.path``, so the code measured is that checkout's.  Each
digest is the first 16 hex digits of a sha256.  ``--diff`` compares two
checkouts in one command, each measured in its own subprocess::

    python tools/state_digests.py CHECKOUT --diff OTHER_CHECKOUT

It prints every key whose value differs (``workloads.dml_churn.state: a !=
b``) and exits 1 on any difference, 0 when the two reports are identical.

* ``workloads``: each ``perf`` workload built at seed 7 and run for three
  passes.  ``rows`` hashes every op's answer (each execution's sorted rows
  for a batch, the DML outcome's summed result otherwise), ``state`` is
  ``QueryService.state_digest()`` afterwards, ``model`` hashes each batch
  execution's ``(time_s, energy_j)`` and each DML outcome's total time and
  energy, and ``totals`` hashes ``sorted(stats.totals().items())`` of each
  batch execution and DML outcome, in op order.  ``parts.<part>`` splits
  ``state`` by part: for each part of ``StoredRelation.state_parts()``
  (``bank``, ``histograms``, ``slots``, ...), a sha256 over that part's
  digest of every store of the relation in shard order, so a moved
  ``state`` names the parts that moved.
* ``dml``: a fixed DELETE / UPDATE / INSERT / compact sequence on the toy
  relation, registered as one store (K1) and as four shards (K4), on both
  bank backends.  ``state`` is the final ``state_digest()`` (with its
  ``parts``), ``ops`` hashes each op's count and per-store ``stats.totals()``.
* ``paper``: the evaluation's PIM configurations (``one_xb``, ``two_xb``,
  ``pimdb``; scale factor 0.002, seed 42) after ``run_all_queries``.
  ``records`` hashes the configuration's ``QueryRecord`` rows in query
  order, ``state`` is its store's ``state_digest()`` (with its ``parts``).  They reach an
  unpruned engine's all-crossbar candidate runs, two-xb's remote partition and
  pimdb's batched pim-gb over the bulk-bitwise reduction, which no ``perf``
  workload runs (the per-subgroup loop is only the lockstep tests' oracle).
* ``k1_registrations_differing``: of the 13 SSB queries (planner on), how
  many answer differently through ``register(stored)`` and through
  ``register_sharded(shards=1)``, comparing rows, ``stats.totals()``, label
  and execution type.

It takes a few seconds on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys


def _short(digest) -> str:
    return (digest if isinstance(digest, str) else digest.hexdigest())[:16]


def part_digests(stores) -> dict[str, str]:
    """Per part of ``state_parts()``, one digest over ``stores`` in order."""
    parts = {}
    for stored in stores:
        for name, value in stored.state_parts().items():
            parts.setdefault(name, hashlib.sha256()).update(value.encode())
    return {name: _short(digest) for name, digest in parts.items()}


def workload_digests(workloads, name: str) -> dict[str, str]:
    instance = workloads.WORKLOADS[name].build(7)
    rows, model, totals = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()

    def call(kind, fn, check):
        result = fn()
        if kind == "batch":
            for execution in result:
                rows.update(repr(sorted(execution.rows.items())).encode())
                model.update(repr((execution.time_s, execution.energy_j)).encode())
                totals.update(repr(sorted(execution.stats.totals().items())).encode())
        else:
            stats = result.stats
            rows.update(repr(result.result).encode())
            model.update(repr((stats.total_time_s, stats.total_energy_j)).encode())
            totals.update(repr(sorted(stats.totals().items())).encode())
        return result

    for index in range(3):
        instance.run_pass(index, call)
    digests = {
        "rows": _short(rows),
        "state": _short(instance.service.state_digest()),
        "model": _short(model),
        "totals": _short(totals),
        "parts": part_digests(instance.service.engine().sharded.shards),
    }
    instance.close()
    return digests


def dml_digests(backend: str, shards: int) -> dict[str, str]:
    from conftest import make_toy_relation

    from repro.config import DEFAULT_CONFIG
    from repro.db.query import And, Comparison
    from repro.db.storage import StoredRelation
    from repro.pim.module import PimModule
    from repro.service import QueryService

    config = DEFAULT_CONFIG.with_backend(backend)
    relation = make_toy_relation(4000, 7)
    service = QueryService()
    if shards == 1:
        service.register(
            "toy", StoredRelation(relation, PimModule(config)), config=config
        )
    else:
        service.register_sharded("toy", relation, shards=shards, config=config)
    records = relation.records(range(0, 600, 3))
    ops = hashlib.sha256()

    def feed(op: str, outcome, count: str) -> None:
        ops.update(repr((
            op, getattr(outcome.result, count),
            [sorted(stats.totals().items()) for stats in outcome.shard_stats],
        )).encode())

    feed("delete", service.delete(Comparison("region", "==", "EUROPE")), "records_deleted")
    feed("update", service.update(Comparison("key", "<", 1500), {"quantity": 7}),
         "records_updated")
    feed("update", service.update(Comparison("key", ">=", 1 << 19), {"discount": 1}),
         "records_updated")
    feed("insert", service.insert(records), "records_inserted")
    feed("compact", service.compact(), "slots_reclaimed")
    feed("delete", service.delete(And((
        Comparison("key", "<", 2500), Comparison("year", "==", 1995),
    ))), "records_deleted")
    feed("insert", service.insert(records[:50]), "records_inserted")
    feed("compact", service.compact(force=True), "slots_reclaimed")
    digests = {
        "state": _short(service.state_digest()),
        "ops": _short(ops),
        "parts": part_digests(service.engine().sharded.shards),
    }
    service.close()
    return digests


def paper_digests() -> dict[str, dict[str, str]]:
    from repro.experiments.common import PIM_CONFIGS, build_setup, run_all_queries

    setup = build_setup(scale_factor=0.002, seed=42, configs=PIM_CONFIGS)
    records = run_all_queries(setup)
    return {
        config: {
            "records": _short(hashlib.sha256(repr(
                [record for record in records if record.config == config]
            ).encode())),
            "state": _short(setup.pim_engines[config].stored.state_digest()),
            "parts": part_digests([setup.pim_engines[config].stored]),
        }
        for config in PIM_CONFIGS
    }


def k1_registrations_differing() -> int:
    from repro.config import DEFAULT_CONFIG
    from repro.db.storage import StoredRelation
    from repro.pim.module import PimModule
    from repro.service import QueryService
    from repro.ssb import ALL_QUERIES, QUERY_ORDER, build_ssb_prejoined, generate
    from repro.ssb.prejoined import max_aggregated_width

    relation = build_ssb_prejoined(
        generate(scale_factor=0.002, skew=0.5, seed=42).database
    )
    options = {
        "aggregation_width": max_aggregated_width(relation),
        "reserve_bulk_aggregation": False,
    }
    plain, sharded = QueryService(), QueryService()
    plain.register(
        "ssb", StoredRelation(relation, PimModule(DEFAULT_CONFIG), **options),
        timing_scale=100.0,
    )
    sharded.register_sharded(
        "ssb", relation, shards=1, timing_scale=100.0, **options
    )
    differing = 0
    for name in QUERY_ORDER:
        a = plain.execute(ALL_QUERIES[name])
        b = sharded.execute(ALL_QUERIES[name])
        differing += (type(a), a.label, a.rows, a.stats.totals()) != (
            type(b), b.label, b.rows, b.stats.totals()
        )
    plain.close()
    sharded.close()
    return differing


def report(checkout: str) -> dict:
    sys.path[:0] = [f"{checkout}/src", f"{checkout}/perf", f"{checkout}/tests"]
    import workloads

    return {
        "workloads": {
            name: workload_digests(workloads, name) for name in workloads.WORKLOADS
        },
        "dml": {
            f"{backend} K{shards}": dml_digests(backend, shards)
            for backend in ("packed", "bool")
            for shards in (1, 4)
        },
        "paper": paper_digests(),
        "k1_registrations_differing": k1_registrations_differing(),
    }


def _flatten(tree, prefix: str = "") -> dict[str, object]:
    if not isinstance(tree, dict):
        return {prefix: tree}
    flat = {}
    for key, value in tree.items():
        flat.update(_flatten(value, f"{prefix}.{key}" if prefix else key))
    return flat


def diff(checkout: str, other: str) -> int:
    """Print the keys whose values differ between the two checkouts' reports;
    the exit status: 1 on any difference, 0 otherwise."""
    reports = [
        _flatten(json.loads(subprocess.run(
            [sys.executable, __file__, root],
            check=True, capture_output=True, text=True,
        ).stdout))
        for root in (checkout, other)
    ]
    differing = [
        f"{key}: {reports[0].get(key)} != {reports[1].get(key)}"
        for key in sorted(reports[0].keys() | reports[1].keys())
        if reports[0].get(key) != reports[1].get(key)
    ]
    print("\n".join(differing) if differing else "no differences")
    return 1 if differing else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", help="root of the checkout to measure")
    parser.add_argument(
        "--diff", metavar="OTHER_CHECKOUT",
        help="measure this checkout too and print the keys that differ",
    )
    args = parser.parse_args()
    if args.diff is not None:
        sys.exit(diff(args.checkout, args.diff))
    print(json.dumps(report(args.checkout), indent=2))
