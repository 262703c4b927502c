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
from repro.pim.arithmetic import BulkAggregationPlan, masked_partials
from repro.pim.crossbar import CrossbarBank
from repro.pim.logic import Program
from repro.pim.stats import PimStats


def every_crossbar(bank: CrossbarBank) -> np.ndarray:
    """The candidate mask of a run on every crossbar of ``bank``."""
    return np.ones(bank.count, dtype=bool)


def crossbar_call(
    bank: CrossbarBank, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray | slice | None]:
    """The crossbars a candidate mask sets, and how ``bank`` is called on them.

    Returns their indices and the bank's ``xbars`` argument: ``None`` — the
    whole-bank call — when the mask sets every crossbar, ``slice(lo, hi)``
    when it sets one contiguous run of them (the bank reads a column of
    those crossbars as a view, not a copy), and the indices otherwise (an
    empty index when it sets none).  This is the one place a candidate set
    becomes the bank's ``xbars``; the executor and the batched pim-gb's
    kernels call the bank through it.
    """
    idx = np.flatnonzero(candidates)
    if idx.size == bank.count:
        return idx, None
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return idx, slice(int(idx[0]), int(idx[-1]) + 1)
    return idx, idx


class PimExecutor:
    """Executes PIM operations on a crossbar bank and accounts for them."""

    def __init__(self, config: SystemConfig, stats: PimStats | None = None):
        self.config = config
        self.stats = stats if stats is not None else PimStats()
        # Program-execution strategy, resolved once.  ``batched`` runs
        # individual programs as fused kernels and runs a GROUP-BY's
        # subgroups without a per-subgroup program (see
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
        self._run_at(bank, program, every_crossbar(bank), pages, phase)

    def charge_program_cost(
        self,
        bank: CrossbarBank,
        cycles: int,
        crossbars: np.ndarray,
        pages: float,
        phase: str,
        count: int = 1,
    ) -> None:
        """Charge ``count`` runs of a ``cycles``-long program, without running it.

        The runs are on the crossbars set in ``crossbars``: their share of the
        ``pages`` broadcast, plus the wear of one write per row per cycle.  The
        batched pim-gb charges every subgroup program of one cycle count
        through here at once.
        """
        self._charge_at(bank, cycles, crossbars, pages, phase, cycles, count)

    def _charge_program(
        self, bank: CrossbarBank, cycles: int, pages: float, phase: str, count: int = 1
    ) -> None:
        xbar = self._xbar
        request_time = cycles * xbar.logic_cycle_s
        crossbars = pages * self._crossbars_per_page()
        # One output cell per row per cycle on every active crossbar.
        energy = cycles * xbar.rows * crossbars * xbar.logic_energy_per_bit_j
        self.stats.add_events("logic_ops", cycles * crossbars, count)
        self._record_phase(phase, pages, request_time, energy, "logic", count)

    # ------------------------------------------------------- candidate sets
    @staticmethod
    def _share(bank: CrossbarBank, idx: np.ndarray, pages: float) -> float:
        """The pages a run on the crossbars ``idx`` is charged.

        A run on every crossbar is charged ``pages`` itself: ``pages * n / n``
        differs from it in the last bit for some ``(pages, n)``.
        """
        if idx.size == bank.count:
            return pages
        return pages * idx.size / bank.count

    def _charge_at(
        self, bank: CrossbarBank, cycles: int, crossbars: np.ndarray,
        pages: float, phase: str, wear: int = 0, count: int = 1,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Charge ``count`` runs of a ``cycles``-long program on ``crossbars``.

        Their share of the ``pages`` broadcast, plus ``wear`` writes per row
        of those crossbars per run; nothing if none is set.  Returns
        :func:`crossbar_call` of the set.
        """
        idx, xbars = crossbar_call(bank, crossbars)
        if idx.size:
            self._charge_program(bank, cycles, self._share(bank, idx, pages), phase, count)
            if wear:
                bank.add_wear(int(wear) * count, xbars)
        return idx, xbars

    def _run_at(
        self, bank: CrossbarBank, program: Program, candidates: np.ndarray,
        pages: float, phase: str,
    ) -> None:
        """Run a program on the candidate crossbars and charge it there."""
        idx, xbars = self._charge_at(bank, program.cycles, candidates, pages, phase)
        if idx.size and self.batched:
            program.run_fused(bank, xbars)
        elif idx.size:
            program.execute(bank, xbars)

    def run_program_pruned(
        self,
        bank: CrossbarBank,
        program: Program,
        candidates: np.ndarray,
        pages: float,
        phase: str,
        clear_crossbars: np.ndarray,
    ) -> None:
        """Execute a program on the candidate crossbars only.

        ``candidates`` is a boolean mask over the bank's crossbars (from the
        zone maps, or every crossbar); the program's latency, energy, wear
        and requests are charged for exactly those crossbars.
        ``clear_crossbars`` marks skipped crossbars whose result column may
        hold stale ones from an earlier run: they receive a single-cycle
        column clear instead of the full program (charged as
        ``prune-clear``), restoring the invariant that a skipped crossbar's
        result column reads all-zero.
        """
        if program.result_column is None:
            raise ValueError("pruned execution needs a program result column")
        self._run_at(bank, program, candidates, pages, phase)
        stale, xbars = self._charge_at(bank, 1, clear_crossbars, pages, "prune-clear")
        if stale.size:
            bank.set_column(program.result_column, False, xbars)

    def charge_pruned_program_cost(
        self,
        bank: CrossbarBank,
        program: Program,
        candidates: np.ndarray,
        pages: float,
        phase: str,
        clear_crossbars: np.ndarray,
    ) -> None:
        """What :meth:`run_program_pruned` charges, without running anything.

        For the batched pim-gb's last subgroup (:mod:`repro.core.batched`
        through ``apply_program_pruned(result_bits=...)``): the template
        kernel's bits are already in the result column; this charges the
        per-key program's cost from its metadata and adds the per-row wear
        its masked execution would have caused.
        """
        self._charge_at(
            bank, program.cycles, candidates, pages, phase, program.writes_per_row
        )
        self._charge_at(bank, 1, clear_crossbars, pages, "prune-clear", 1)

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
        self._run_at(bank, program, candidates, pages, phase)

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
        self._charge_at(bank, program.cycles, candidates, pages, phase, program.writes_per_row)

    # ---------------------------------------------------- aggregation circuit
    def _circuit_result_width(
        self, field_width: int, result_width: int | None, operation: str
    ) -> int:
        """Accumulator width of a circuit pass of ``operation``.

        Refuses a circuit-less config, and a ``min`` / ``max`` into a result
        narrower than its field (a ``sum`` wraps instead): every circuit
        pass, run or only charged, checks here before anything is read,
        written or charged.
        """
        if not self._pim.aggregation_circuit.enabled:
            raise RuntimeError(
                "aggregation circuit is disabled in this configuration"
            )
        if result_width is None:
            result_width = min(
                64, field_width + int(math.ceil(math.log2(self._xbar.rows)))
            )
        if operation in ("min", "max") and result_width < field_width:
            raise ValueError(
                f"a {operation} of a {field_width}-bit field does not fit a "
                f"{result_width}-bit result"
            )
        return result_width

    def _charge_circuit_pass(
        self, field_width: int, result_width: int, pages: float, count: int = 1
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
        self._record_phase("pim-agg", pages, request_time, energy, "agg_circuit", count)

    def aggregate_with_circuit(
        self,
        bank: CrossbarBank,
        field_offset: int,
        field_width: int,
        mask_column: int,
        destination_offset: int,
        pages: float,
        crossbars: np.ndarray,
        operation: str = "sum",
        result_width: int | None = None,
    ) -> np.ndarray:
        """Aggregate a field with the per-crossbar aggregation circuit (Fig. 3).

        The circuit streams the masked attribute of every row through its
        16-bit read port, accumulates it in a CMOS ALU and writes the final
        value back into the crossbar at ``destination_offset``.  Returns the
        per-crossbar aggregates of the crossbars set in ``crossbars`` (a
        boolean mask over the bank's crossbars: every crossbar, or the zone
        maps' candidates); ``operation`` is ``sum``, ``min`` or ``max``.
        Only those crossbars stream their rows, receive the write-back and
        are charged for — a skipped one holds an all-zero mask column, so its
        partial would be the operation's identity and contribute nothing.

        The single-pass primitive on a bare bank, as Fig. 4c measures it;
        the engine's passes run through
        :meth:`repro.core.stages.AggregationStage.aggregate_all`, which
        charges them through :meth:`charge_aggregation_circuit`.  The
        partials come from :func:`~repro.pim.arithmetic.masked_partials`:
        the mask column of those crossbars, then only its selected cells of
        the field (the bank picks gather or bounded decode).

        A ``sum`` wraps modulo ``2**result_width``; a ``min`` / ``max`` into
        a ``result_width`` narrower than the field raises ``ValueError``
        before anything is read, written or charged.
        """
        result_width = self._circuit_result_width(field_width, result_width, operation)
        idx, xbars = crossbar_call(bank, crossbars)
        results = masked_partials(
            bank, field_offset, field_width, mask_column, operation,
            result_width, xbars,
        )
        if idx.size:
            bank.write_field_row(
                0, destination_offset, result_width, results, xbars=xbars
            )
            self._charge_circuit_pass(
                field_width, result_width, self._share(bank, idx, pages)
            )
        return results

    def charge_aggregation_circuit(
        self,
        bank: CrossbarBank,
        field_width: int,
        operation: str,
        pages: float,
        crossbars: np.ndarray,
        result_width: int | None = None,
        count: int = 1,
    ) -> None:
        """Charge ``count`` circuit passes of :meth:`aggregate_with_circuit`'s
        shape on the crossbars set in ``crossbars``, without running them.

        The engine's aggregation stage computes a pass's partials itself and
        bills an aggregate's passes — one per mask, all of one shape — here
        in one call: identical time, energy, power samples and request
        counts.  A narrow ``min`` / ``max`` raises as it does there.  The
        caller accounts for the write-back wear.
        """
        result_width = self._circuit_result_width(field_width, result_width, operation)
        idx = np.flatnonzero(crossbars)
        if idx.size:
            self._charge_circuit_pass(
                field_width, result_width, self._share(bank, idx, pages), count
            )

    # --------------------------------------------------- bulk-bitwise (PIMDB)
    def charge_bulk_aggregation(
        self, bank: CrossbarBank, plan: BulkAggregationPlan, pages: float, count: int = 1
    ) -> None:
        """Charge ``count`` runs of a pure bulk-bitwise reduction (the PIMDB
        baseline), without running them: the gate-level plan's time, energy
        and ``logic_ops``, and its writes per row on every row of every
        crossbar.  The aggregation stage computes the partials the reduction
        leaves in row 0; the tests check them against
        :meth:`~repro.pim.arithmetic.BulkAggregationPlan.run_gate_level`."""
        cost = plan.cost()
        bank.add_wear(cost.writes_per_row * count)
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
        self.stats.add_events("logic_ops", cost.total_cycles * crossbars, count)
        self._record_phase(
            "pim-agg", pages, request_time, logic_energy + copy_energy, "logic",
            count,
        )

    # ------------------------------------------------------------ host writes
    def host_write_field(
        self,
        bank: CrossbarBank,
        xbar: int,
        row: int,
        offset: int,
        width: int,
        value: int,
    ) -> None:
        """A standard host store into PIM-resident data (no PIM request)."""
        # No caller in src/: INSERT charges column-wise through charge_host_writes.
        bank.write_field(xbar, row, offset, width, value)
        xcfg = self._xbar
        self.stats.add_time("host-write", xcfg.write_latency_s)
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
