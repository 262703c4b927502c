"""Execution and accounting of PIM operations.

:class:`PimExecutor` is the bridge between the functional crossbar model and
the analytical timing/energy/power model.  Every operation the query engine
performs on PIM-resident data goes through one of its methods, which

1. applies the operation functionally to the :class:`~repro.pim.crossbar.CrossbarBank`
   holding the targeted pages, and
2. charges latency, energy, average-power samples, wear and request counts to
   a :class:`~repro.pim.stats.PimStats` object using the Table I device
   parameters from :class:`~repro.config.SystemConfig`.

Timing model
------------

A PIM operation is broadcast to every page of the targeted relation: the host
issues one PIM request per page (Section II-B), separated by the command-bus
issue gap, and the per-page PIM controllers then sequence the bulk-bitwise
primitives on all crossbars of their page concurrently.  The phase latency is
therefore::

    T_phase = pages * issue_gap + T_request

where ``T_request`` is the duration of the operation on a single page
(program cycles x 30 ns for logic, serial row reads for the aggregation
circuit, ...).  The number of concurrently active pages is bounded by
``T_request / issue_gap``, which is what determines the average power of the
phase and hence the peak chip power reported in Fig. 8.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.config import SystemConfig
from repro.pim.arithmetic import BulkAggregationPlan
from repro.pim.crossbar import CrossbarBank
from repro.pim.logic import Program
from repro.pim.stats import PimStats


class PimExecutor:
    """Executes PIM operations on a crossbar bank and accounts for them."""

    def __init__(self, config: SystemConfig, stats: PimStats | None = None):
        self.config = config
        self.stats = stats if stats is not None else PimStats()
        # Program-execution strategy, resolved once.  ``batched`` runs
        # individual programs as fused kernels and takes all subgroup masks
        # of a GROUP-BY from one value-free template kernel (see
        # :meth:`repro.core.executor.PimQueryEngine._execute_group_by`);
        # otherwise programs run op by op.  Both are bit-exact on program
        # outputs and all costs are charged from program metadata either way.
        self.batched = config.execution == "batched"

    # ------------------------------------------------------------ properties
    @property
    def _xbar(self):
        return self.config.pim.crossbar

    @property
    def _pim(self):
        return self.config.pim

    def _crossbars_per_page(self) -> int:
        return self._pim.crossbars_per_page

    # ------------------------------------------------------------- internals
    def _phase_time(self, pages: int, request_time_s: float) -> float:
        """Total latency of broadcasting one operation to ``pages`` pages."""
        issue = pages * self._pim.request_issue_gap_s
        return issue + request_time_s

    def _concurrency(self, pages: int, request_time_s: float) -> float:
        """Average number of pages concurrently executing the operation."""
        if request_time_s <= 0:
            return 1.0
        gap = self._pim.request_issue_gap_s
        return float(min(pages, max(1.0, request_time_s / gap)))

    def _controller_energy(self, pages: int, duration_s: float) -> float:
        """Static energy of the active per-page PIM controllers."""
        controllers = pages * self._pim.chips
        return controllers * self._pim.pim_controller_power_w * duration_s

    def _record_phase(
        self,
        phase: str,
        pages: int,
        request_time_s: float,
        dynamic_energy_j: float,
        component: str,
        count: int = 1,
    ) -> None:
        """Common bookkeeping for ``count`` identical broadcast phases."""
        duration = self._phase_time(pages, request_time_s)
        controller_energy = self._controller_energy(pages, duration)
        self.stats.add_time(phase, duration, count)
        self.stats.add_energy(component, dynamic_energy_j, count)
        self.stats.add_energy("controller", controller_energy, count)
        # Average power while the operation is in flight: the dynamic energy
        # is spread over the duration of a single request scaled by the number
        # of concurrently active pages.
        concurrency = self._concurrency(pages, request_time_s)
        if request_time_s > 0 and pages > 0:
            per_page_power = dynamic_energy_j / pages / request_time_s
            module_power = per_page_power * concurrency + controller_energy / max(duration, 1e-12)
            chip_power = module_power / self._pim.chips
            self.stats.add_power_sample(phase, duration, chip_power, count)
        self.stats.pim_requests += int(round(pages)) * count

    # ------------------------------------------------------------- programs
    def run_program(
        self,
        bank: CrossbarBank,
        program: Program,
        pages: int,
        phase: str = "filter",
    ) -> None:
        """Execute a NOR program on every crossbar of ``pages`` pages."""
        if self.batched:
            program.run_fused(bank)
        else:
            program.execute(bank)
        self._charge_program(bank, program.cycles, pages, phase)

    def charge_program_cost(
        self,
        bank: CrossbarBank,
        cycles: int,
        pages: int,
        phase: str,
        writes_per_row: int | None = None,
        add_wear: bool = False,
        count: int = 1,
    ) -> None:
        """Charge ``count`` runs of a program without executing it functionally.

        Used by the fast path of the bulk-bitwise aggregation, whose results
        are produced functionally but whose cost is known analytically, and
        by the batched pim-gb path for every subgroup program of one cycle
        count at once.
        """
        self._charge_program(bank, cycles, pages, phase, count)
        if add_wear and writes_per_row:
            bank.writes_per_row += int(writes_per_row) * count

    def _charge_program(
        self, bank: CrossbarBank, cycles: int, pages: int, phase: str, count: int = 1
    ) -> None:
        xbar = self._xbar
        request_time = cycles * xbar.logic_cycle_s
        crossbars = pages * self._crossbars_per_page()
        # One output cell per row per cycle on every active crossbar.
        energy = cycles * xbar.rows * crossbars * xbar.logic_energy_per_bit_j
        self.stats.add_events("logic_ops", cycles * crossbars, count)
        self._record_phase(phase, pages, request_time, energy, "logic", count)

    # ------------------------------------------------------ crossbar skipping
    def _charge_program_at(
        self, bank: CrossbarBank, cycles: int, crossbars: np.ndarray,
        pages: float, phase: str, wear: int = 0,
    ) -> np.ndarray:
        """Charge a ``cycles``-long program on the crossbars set in ``crossbars``.

        That fraction of the ``pages`` broadcast, plus ``wear`` writes per row
        of those crossbars; returns their indices (nothing charged if none).
        """
        idx = np.nonzero(np.asarray(crossbars, dtype=bool))[0]
        if idx.size:
            self._charge_program(bank, cycles, pages * idx.size / bank.count, phase)
            if wear:
                bank.writes_per_row[idx] += int(wear)
        return idx

    def _run_at(self, bank: CrossbarBank, program: Program, idx: np.ndarray) -> None:
        if idx.size and self.batched:
            program.run_fused(bank, idx)
        elif idx.size:
            program.execute_at(bank, idx)

    def run_program_pruned(
        self,
        bank: CrossbarBank,
        program: Program,
        candidates: np.ndarray,
        pages: float,
        phase: str,
        clear_crossbars: np.ndarray | None = None,
    ) -> None:
        """Execute a program on the candidate crossbars only.

        ``candidates`` is a boolean mask over the bank's crossbars (from the
        zone maps); the program's latency, energy, wear and requests are
        charged for exactly that fraction of the broadcast.  ``clear_crossbars``
        marks skipped crossbars whose result column may hold stale ones from
        an earlier broadcast: they receive a single-cycle column clear instead
        of the full program (charged as ``prune-clear``), restoring the
        invariant that a skipped crossbar's result column reads all-zero.
        """
        if program.result_column is None:
            raise ValueError("pruned execution needs a program result column")
        idx = self._charge_program_at(bank, program.cycles, candidates, pages, phase)
        self._run_at(bank, program, idx)
        if clear_crossbars is not None:
            stale = self._charge_program_at(bank, 1, clear_crossbars, pages, "prune-clear")
            if stale.size:
                bank.set_column_at(program.result_column, False, stale)

    def charge_pruned_program_cost(
        self,
        bank: CrossbarBank,
        program: Program,
        candidates: np.ndarray,
        pages: float,
        phase: str,
        clear_crossbars: np.ndarray | None = None,
    ) -> None:
        """What :meth:`run_program_pruned` charges, without running anything.

        For the batched pim-gb's first / last subgroup (:mod:`repro.core.batched`
        through ``apply_program_pruned(result_bits=...)``): the template
        kernel's bits are already in the result column; this charges the
        per-key program's pruned cost from its metadata and adds the per-row
        wear its masked execution would have caused.
        """
        self._charge_program_at(
            bank, program.cycles, candidates, pages, phase, program.writes_per_row
        )
        if clear_crossbars is not None:
            self._charge_program_at(bank, 1, clear_crossbars, pages, "prune-clear", 1)

    def run_program_at(
        self,
        bank: CrossbarBank,
        program: Program,
        candidates: np.ndarray,
        pages: float,
        phase: str,
    ) -> None:
        """Execute a program on candidate crossbars, preserving the rest.

        The preserve-skipped twin of :meth:`run_program_pruned`, for programs
        whose result on a skipped crossbar equals that crossbar's current
        contents (a DELETE's ``valid &= ~doomed`` with no doomed rows, an
        UPDATE mux where no row matches): skipped crossbars are simply left
        alone — no stale clear, no zero-outside invariant.  Unlike the pruned
        path the program needs no result column.
        """
        idx = self._charge_program_at(bank, program.cycles, candidates, pages, phase)
        self._run_at(bank, program, idx)

    def charge_program_cost_at(
        self,
        bank: CrossbarBank,
        program: Program,
        candidates: np.ndarray,
        pages: float,
        phase: str,
    ) -> None:
        """What :meth:`run_program_at` charges, without running anything."""
        # No caller in src/: kept because perf/layers.py (not editable outside
        # a benchmark PR) names it and perf/test_perf.py asserts
        # ``trace.unresolved_targets == 0``.
        self._charge_program_at(
            bank, program.cycles, candidates, pages, phase, program.writes_per_row
        )

    # ---------------------------------------------------- aggregation circuit
    def _circuit_result_width(self, field_width: int, result_width: int | None) -> int:
        """Accumulator width of a circuit pass; refuses a circuit-less config."""
        if not self._pim.aggregation_circuit.enabled:
            raise RuntimeError(
                "aggregation circuit is disabled in this configuration; "
                "use aggregate_bulk_bitwise instead"
            )
        if result_width is None:
            result_width = min(
                64, field_width + int(math.ceil(math.log2(self._xbar.rows)))
            )
        return result_width

    def _charge_circuit_pass(
        self, field_width: int, result_width: int, pages: float, phase: str,
        count: int = 1,
    ) -> None:
        """Charge ``count`` aggregation-circuit invocations on ``pages`` pages.

        The single definition of the circuit's request time, energy and bit
        counts: the functional :meth:`aggregate_with_circuit` and its
        charge-only twin both charge through here, so their modelled
        statistics cannot drift apart.
        """
        xbar = self._xbar
        circuit = self._pim.aggregation_circuit
        reads_per_row = int(math.ceil(field_width / xbar.read_width_bits))
        request_time = (
            xbar.rows * reads_per_row * circuit.cycle_s
            + result_width / xbar.read_width_bits * xbar.write_latency_s
        )
        active_crossbars = pages * self._crossbars_per_page()
        read_bits = xbar.rows * reads_per_row * xbar.read_width_bits * active_crossbars
        write_bits = result_width * active_crossbars
        energy = (
            read_bits * xbar.read_energy_per_bit_j
            + write_bits * xbar.write_energy_per_bit_j
            + circuit.power_w * request_time * active_crossbars
        )
        self.stats.add_events("bits_read", read_bits, count)
        self.stats.add_events("bits_written", write_bits, count)
        self._record_phase(phase, pages, request_time, energy, "agg_circuit", count)

    def aggregate_with_circuit(
        self,
        bank: CrossbarBank,
        field_offset: int,
        field_width: int,
        mask_column: int,
        destination_offset: int,
        pages: int,
        operation: str = "sum",
        phase: str = "pim-agg",
        result_width: int | None = None,
        crossbars: np.ndarray | None = None,
    ) -> np.ndarray:
        """Aggregate a field with the per-crossbar aggregation circuit (Fig. 3).

        The circuit streams the masked attribute of every row through its
        16-bit read port, accumulates it in a CMOS ALU and writes the final
        value back into the crossbar at ``destination_offset``.  Returns the
        per-crossbar aggregates.

        ``crossbars`` restricts the aggregation to a candidate subset (a
        boolean mask over the bank's crossbars, from the zone maps): only
        those crossbars stream their rows, receive the write-back and are
        charged for — the skipped ones hold an all-zero mask column, so their
        partials would be the operation's identity and contribute nothing.
        """
        result_width = self._circuit_result_width(field_width, result_width)
        candidate_idx = None
        if crossbars is not None:
            candidate_idx = np.nonzero(np.asarray(crossbars, dtype=bool))[0]
        from repro.pim.arithmetic import aggregate_reference

        # Only the candidate crossbars are decoded and reduced.
        results = aggregate_reference(
            bank.read_field_all(field_offset, field_width, candidate_idx),
            bank.read_column(mask_column, candidate_idx),
            operation, result_width,
        )
        if candidate_idx is None:
            bank.write_field_row(0, destination_offset, result_width, results)
        else:
            active = int(candidate_idx.size)
            if active == 0:
                return results
            bank.write_field_row(
                0, destination_offset, result_width, results, xbars=candidate_idx
            )
            pages = pages * active / bank.count
        self._charge_circuit_pass(field_width, result_width, pages, phase)
        return results

    def charge_aggregation_circuit(
        self,
        bank: CrossbarBank,
        field_width: int,
        pages: float,
        phase: str = "pim-agg",
        result_width: int | None = None,
        crossbars: np.ndarray | None = None,
        add_wear: bool = True,
        count: int = 1,
    ) -> None:
        """Charge-only twin of :meth:`aggregate_with_circuit`, ``count`` times.

        The batched group-by path computes every subgroup's aggregates from
        one field decode and charges an aggregate's circuit invocations —
        one per subgroup, all of one shape — through here in one call:
        identical time, energy, power samples, request counts and (with
        ``add_wear``) the ``result_width`` write-back wear on row 0 that the
        reference's ``write_field_row`` causes.  Pass ``add_wear=False`` when
        the caller accounts for the write-back wear itself.
        """
        result_width = self._circuit_result_width(field_width, result_width)
        if crossbars is None:
            if add_wear:
                bank.writes_per_row[:, 0] += int(result_width) * count
        else:
            candidate_idx = np.nonzero(np.asarray(crossbars, dtype=bool))[0]
            active = int(candidate_idx.size)
            if active == 0:
                return
            if add_wear:
                bank.writes_per_row[candidate_idx, 0] += int(result_width) * count
            pages = pages * active / bank.count
        self._charge_circuit_pass(field_width, result_width, pages, phase, count)

    # --------------------------------------------------- bulk-bitwise (PIMDB)
    def aggregate_bulk_bitwise(
        self,
        bank: CrossbarBank,
        plan: BulkAggregationPlan,
        pages: int,
        phase: str = "pim-agg",
    ) -> np.ndarray:
        """Aggregate with pure bulk-bitwise logic (the PIMDB baseline).

        The reduction runs functionally (:meth:`BulkAggregationPlan.run_functional`)
        and charges the gate-level plan's cost; the tests check it against
        :meth:`BulkAggregationPlan.run_gate_level` on a twin bank.
        """
        cost = plan.cost()
        results = plan.run_functional(bank)
        bank.writes_per_row += cost.writes_per_row
        xbar = self._xbar
        request_time = cost.total_cycles * xbar.logic_cycle_s
        crossbars = pages * self._crossbars_per_page()
        logic_energy = (
            cost.program_cycles * xbar.rows * crossbars * xbar.logic_energy_per_bit_j
        )
        copy_energy = (
            cost.total_row_copies
            * cost.copied_bits_per_pair
            * crossbars
            * xbar.logic_energy_per_bit_j
        )
        self.stats.add_events("logic_ops", cost.total_cycles * crossbars)
        self._record_phase(phase, pages, request_time, logic_energy + copy_energy, "logic")
        return results

    # ------------------------------------------------------------ host writes
    def host_write_field(
        self,
        bank: CrossbarBank,
        xbar: int,
        row: int,
        offset: int,
        width: int,
        value: int,
        phase: str = "host-write",
    ) -> None:
        """A standard host store into PIM-resident data (no PIM request)."""
        bank.write_field(xbar, row, offset, width, value)
        xcfg = self._xbar
        self.stats.add_time(phase, xcfg.write_latency_s)
        self.stats.add_energy("write", width * xcfg.write_energy_per_bit_j)
        self.stats.add_events("bits_written", width)

    def charge_host_writes(
        self, widths: Sequence[int], count: int, phase: str = "host-write"
    ) -> None:
        """Charge ``count`` repetitions of the stores ``widths`` (bits each).

        The charge-only, batched twin of :meth:`host_write_field`: the same
        charges as one call per store — one counted charge per distinct
        width — ``widths`` being the per-record store pattern of a batch
        written column-wise.
        """
        xcfg = self._xbar
        self.stats.add_time(phase, xcfg.write_latency_s, len(widths) * count)
        for width, stores in Counter(map(int, widths)).items():
            self.stats.add_energy(
                "write", width * xcfg.write_energy_per_bit_j, stores * count
            )
            self.stats.add_events("bits_written", width, stores * count)

    def charge_pim_reads(self, bits: int) -> None:
        """Charge crossbar read energy for bits leaving the PIM arrays."""
        self.stats.add_events("bits_read", bits)
        self.stats.add_energy("read", bits * self._xbar.read_energy_per_bit_j)
