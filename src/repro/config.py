"""System configuration for the bulk-bitwise PIM OLAP simulator.

The dataclasses in this module encode Table I of the paper ("Architecture and
system configuration"): the RRAM PIM module geometry and device parameters,
the host evaluation system, and the MonetDB comparison server.  Every other
module takes its parameters from these objects so that an experiment can
change a single field (for example the crossbar read width or the bulk-bitwise
logic cycle) and have the change propagate through timing, energy, and
endurance accounting consistently.

All times are seconds, energies are joules, and powers are watts unless a
field name says otherwise.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

#: Functional simulation backends for the crossbar banks.  ``"packed"``
#: stores each column as row-packed uint64 words (64 rows per machine word,
#: see :mod:`repro.pim.packed`); ``"bool"`` is the byte-per-bit reference
#: implementation.  Both are bit-exact and report identical modelled stats.
BACKENDS = ("packed", "bool")


def validate_backend(backend: str, source: str = "backend=") -> str:
    """Validate a backend name, naming the ``source`` that supplied it.

    Every backend-accepting entry point (:func:`default_backend`,
    :class:`SystemConfig`, :func:`repro.pim.packed.make_bank`) validates
    through here, so a typo fails immediately with the same clear message
    instead of surfacing later inside allocation.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"{source}{backend!r} is not a backend; choose from {BACKENDS}"
        )
    return backend


def default_backend() -> str:
    """The simulation backend, overridable via ``REPRO_BACKEND``."""
    backend = os.environ.get("REPRO_BACKEND", "packed")
    return validate_backend(backend, source="REPRO_BACKEND=")


#: Program-execution strategies of the functional simulation.  ``"batched"``
#: is the production path: single programs run as fused NOR-DAG kernels (see
#: :mod:`repro.pim.fused`) and the pim-gb takes each row's subgroup from
#: its key and stores the last key's masks without a kernel — no program
#: is compiled or lowered per subgroup (see :mod:`repro.core.batched`).  ``"dispatch"`` is the reference: the
#: op-by-op interpreter and the per-subgroup pim-gb loop, one compiled
#: program per subgroup.  Both are bit-exact on the output columns and
#: charge identical modelled statistics.
EXECUTIONS = ("batched", "dispatch")


def validate_execution(execution: str) -> str:
    """Validate an execution-strategy name."""
    if execution not in EXECUTIONS:
        raise ValueError(
            f"execution={execution!r} is not an execution strategy; "
            f"choose from {EXECUTIONS}"
        )
    return execution


#: ``REPRO_TRACE`` values that keep tracing off.
_TRACE_OFF = ("", "0", "off", "false", "no")


def default_tracing() -> bool:
    """Whether span tracing is on, overridable via ``REPRO_TRACE``.

    Any value other than the off-words enables tracing; a value that looks
    like a path (contains a separator or ends in ``.jsonl``) additionally
    names the JSONL sink (see :func:`default_trace_sink`).
    """
    return os.environ.get("REPRO_TRACE", "").strip().lower() not in _TRACE_OFF


def default_trace_sink() -> str | None:
    """The JSONL sink path carried by ``REPRO_TRACE``, if it names one."""
    value = os.environ.get("REPRO_TRACE", "").strip()
    if value.lower() in _TRACE_OFF:
        return None
    if os.sep in value or value.endswith(".jsonl"):
        return value
    return None


@dataclass(frozen=True)
class CrossbarConfig:
    """Geometry and device parameters of a single memory crossbar array.

    The defaults follow Table I: 1024x512 crossbars, 16-bit fixed-length
    reads, a 30 ns bulk-bitwise logic cycle, 0.84 pJ/bit read energy,
    6.9 pJ/bit write energy and 81.6 fJ/bit for a bulk-bitwise logic
    operation.  A read is timed by the aggregation circuit's cycle
    (:attr:`AggregationCircuitConfig.cycle_s`), a write-back by
    ``write_latency_s``.
    """

    rows: int = 1024
    columns: int = 512
    read_width_bits: int = 16
    logic_cycle_s: float = 30e-9
    write_latency_s: float = 60e-9
    read_energy_per_bit_j: float = 0.84e-12
    write_energy_per_bit_j: float = 6.9e-12
    logic_energy_per_bit_j: float = 81.6e-15

    @property
    def bits(self) -> int:
        """Total number of cells in the crossbar."""
        return self.rows * self.columns


@dataclass(frozen=True)
class AggregationCircuitConfig:
    """Per-crossbar CMOS aggregation circuit (Section IV, Fig. 3).

    The circuit streams 16-bit words read from the crossbar through a small
    64-bit ALU supporting SUM, MIN and MAX, and writes the final value back
    into the crossbar.  Power and the area share are the synthesis results
    reported in the paper (25.4 uW per circuit, 13.9% of the chip area; the
    Fig. 5 breakdown keeps its own copy of the share).
    """

    enabled: bool = True
    power_w: float = 25.4e-6
    cycle_s: float = 30e-9


@dataclass(frozen=True)
class PimModuleConfig:
    """A bulk-bitwise PIM module configured as one memory rank (Table I)."""

    total_capacity_bytes: int = 32 * 1024 ** 3
    huge_page_bytes: int = 2 * 1024 ** 2
    ranks: int = 1
    chips: int = 8
    crossbar: CrossbarConfig = field(default_factory=CrossbarConfig)
    aggregation_circuit: AggregationCircuitConfig = field(
        default_factory=AggregationCircuitConfig
    )
    pim_controller_power_w: float = 126e-6
    chip_area_mm2: float = 346.0
    # Minimum gap between successive PIM requests on the memory command bus.
    # A long-running request on one page overlaps with requests issued to
    # other pages, so this gap bounds how many pages are concurrently active
    # (which is what determines the peak chip power of Fig. 8).
    request_issue_gap_s: float = 20e-9

    @property
    def crossbars_per_page(self) -> int:
        """Number of crossbars making up one huge page."""
        xbar_bytes = self.crossbar.bits // 8
        return self.huge_page_bytes // xbar_bytes

    @property
    def records_per_page(self) -> int:
        """Records stored in one huge page (one record per crossbar row)."""
        return self.crossbars_per_page * self.crossbar.rows

    @property
    def pages_total(self) -> int:
        """Number of huge pages in the module."""
        return self.total_capacity_bytes // self.huge_page_bytes


@dataclass(frozen=True)
class HostConfig:
    """Host processor and memory system of the evaluation platform (Table I)."""

    cores: int = 6
    frequency_hz: float = 3.6e9
    l1_bytes: int = 16 * 1024
    l1_assoc: int = 4
    l2_bytes: int = 2 * 1024 ** 2
    l2_assoc: int = 16
    cache_line_bytes: int = 64
    dram_bytes: int = 32 * 1024 ** 3
    # DDR4-2400, one channel: 19.2 GB/s theoretical peak; we use an achievable
    # fraction for streaming reads.
    dram_peak_bw_bytes_per_s: float = 19.2e9
    dram_efficiency: float = 0.7
    dram_access_latency_s: float = 80e-9
    query_threads: int = 4
    # Memory-level parallelism each worker thread sustains on the dependent,
    # scattered reads of host-gb (checking the filter bit-vector and then
    # loading the matching records).
    pim_random_read_mlp: float = 2.0
    # Host-side CPU work per record folded into a hash-aggregation table
    # (hashing the subgroup identifiers plus updating the aggregate).
    host_agg_cycles_per_record: float = 40.0

    @property
    def dram_bw_bytes_per_s(self) -> float:
        """Achievable DRAM bandwidth used by the timing model."""
        return self.dram_peak_bw_bytes_per_s * self.dram_efficiency


@dataclass(frozen=True)
class ColumnarServerConfig:
    """The MonetDB comparison server (Section V-A).

    Two Xeon sockets, 16 cores each at 2.1 GHz, 256 GB of DDR4-2400 on six
    channels per socket.  The columnar engine's analytical cost model uses
    these figures.
    """

    sockets: int = 2
    cores_per_socket: int = 16
    frequency_hz: float = 2.1e9
    dram_bytes: int = 256 * 1024 ** 3
    # Six DDR4-2400 channels (19.2 GB/s each) per socket, two sockets.
    dram_peak_bw_bytes_per_s: float = 6 * 19.2e9 * 2
    dram_efficiency: float = 0.65
    # Effective scalar work per value touched by the engine (predicate
    # evaluation, hashing, aggregation), expressed in core cycles.
    cycles_per_value: float = 6.0
    cycles_per_hash_probe: float = 24.0
    cycles_per_group_update: float = 12.0
    parallel_efficiency: float = 0.75

    @property
    def total_cores(self) -> int:
        """Total cores across both sockets."""
        return self.sockets * self.cores_per_socket

    @property
    def dram_bw_bytes_per_s(self) -> float:
        """Achievable aggregate DRAM bandwidth."""
        return self.dram_peak_bw_bytes_per_s * self.dram_efficiency


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated system: PIM module + host + comparison server."""

    pim: PimModuleConfig = field(default_factory=PimModuleConfig)
    host: HostConfig = field(default_factory=HostConfig)
    columnar: ColumnarServerConfig = field(default_factory=ColumnarServerConfig)
    #: Functional crossbar-simulation backend used for every bank allocated
    #: under this configuration.  Purely a simulator-speed knob: both
    #: backends are bit-exact and charge identical modelled statistics.
    backend: str = field(default_factory=default_backend)
    #: Program-execution strategy: fused + batched kernels (production) or
    #: op-by-op dispatch (reference).  Like ``backend`` this is purely a
    #: simulator-speed knob — both are bit-exact and charge identical
    #: modelled statistics.
    execution: str = "batched"
    #: Span tracing (see :mod:`repro.obs.trace`): engines and services built
    #: under a tracing configuration record hierarchical spans with exact
    #: ``PimStats`` charge attribution.  Off by default — the disabled path
    #: costs one branch per charge and per stage.
    tracing: bool = field(default_factory=default_tracing)

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        validate_execution(self.execution)

    def replace(self, **kwargs) -> SystemConfig:
        """Return a copy of this configuration with some fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def with_backend(self, backend: str) -> SystemConfig:
        """Return a copy of this configuration using ``backend`` banks."""
        return dataclasses.replace(self, backend=backend)

    def without_aggregation_circuit(self) -> SystemConfig:
        """Return a configuration with the aggregation circuit disabled.

        This is the PIMDB baseline hardware: identical in every respect
        except that PIM aggregation must be carried out with pure
        bulk-bitwise logic.
        """
        agg = dataclasses.replace(self.pim.aggregation_circuit, enabled=False)
        pim = dataclasses.replace(self.pim, aggregation_circuit=agg)
        return dataclasses.replace(self, pim=pim)


DEFAULT_CONFIG = SystemConfig()
"""The Table I configuration used throughout the paper's evaluation."""


def table1_rows() -> list:
    """Return Table I as a list of ``(section, parameter, value)`` rows.

    Used by ``benchmarks/bench_table1_config.py`` to print the configuration
    in the same shape as the paper's Table I.
    """
    cfg = DEFAULT_CONFIG
    xbar = cfg.pim.crossbar
    rows = [
        ("Single RRAM PIM Module", "Total Capacity",
         f"{cfg.pim.total_capacity_bytes // 1024 ** 3}GB"),
        ("Single RRAM PIM Module", "Huge pages size",
         f"{cfg.pim.huge_page_bytes // 1024 ** 2}MB"),
        ("Single RRAM PIM Module", "Memory ranks", str(cfg.pim.ranks)),
        ("Single RRAM PIM Module", "PIM Chips", str(cfg.pim.chips)),
        ("Single RRAM PIM Module", "Crossbar rows", str(xbar.rows)),
        ("Single RRAM PIM Module", "Crossbar columns", str(xbar.columns)),
        ("Single RRAM PIM Module", "Crossbar read",
         f"{xbar.read_width_bits} bit"),
        ("Single RRAM PIM Module", "Bulk-bitwise logic cycle",
         f"{xbar.logic_cycle_s * 1e9:.0f} ns"),
        ("Single RRAM PIM Module", "Crossbar read/write energy",
         f"{xbar.read_energy_per_bit_j * 1e12:.2f}/"
         f"{xbar.write_energy_per_bit_j * 1e12:.1f} pJ/bit"),
        ("Single RRAM PIM Module", "Bulk-bitwise logic energy",
         f"{xbar.logic_energy_per_bit_j * 1e15:.1f} fJ/bit"),
        ("Single RRAM PIM Module", "Single agg. circuit power",
         f"{cfg.pim.aggregation_circuit.power_w * 1e6:.1f} uW"),
        ("Single RRAM PIM Module", "Single PIM controller power",
         f"{cfg.pim.pim_controller_power_w * 1e6:.0f} uW"),
        ("Evaluation System", "Processor cores",
         f"{cfg.host.cores} cores, X86, OoO, "
         f"{cfg.host.frequency_hz / 1e9:.1f}GHz"),
        ("Evaluation System", "Main memory",
         f"{cfg.host.dram_bytes // 1024 ** 3}GB DRAM, DDR4-2400"),
        ("Evaluation System", "L1 cache",
         f"Private, {cfg.host.l1_bytes // 1024}KB, "
         f"{cfg.host.cache_line_bytes}B block, {cfg.host.l1_assoc}-way"),
        ("Evaluation System", "L2 cache",
         f"Shared, {cfg.host.l2_bytes // 1024 ** 2}MB, "
         f"{cfg.host.cache_line_bytes}B block, {cfg.host.l2_assoc}-way"),
        ("Evaluation System", "Coherence protocol", "MESI"),
        ("Evaluation System", "RRAM PIM modules", str(cfg.pim.ranks)),
    ]
    return rows
