"""The host's read path into the PIM rank, with read amplification.

Reads from the PIM module use the normal load path: a 64-byte cache line.
Because a huge page interleaves its 32 crossbars across the line (2 bytes,
i.e. one 16-bit read-port word, per crossbar) and a record occupies one row
of a *single* crossbar, reading one word of one record drags in the same
word of the 31 records stored at the same row of the page's other crossbars
(Section V-B).  The cost of host reads is therefore governed by the number of
**distinct (page, row, word) lines** touched, not by the number of records —
which is exactly why host-gb's latency grows sub-linearly with the selected
record ratio ``r`` (Fig. 4b) and why high-selectivity queries lose the PIM
advantage.

:class:`HostReadModel` provides the three read patterns the executor needs
(filter bit-vector, selected records, per-crossbar aggregation results),
returning functional values while charging latency to the supplied
:class:`~repro.pim.stats.PimStats` and crossbar read energy to the PIM
module.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.config import SystemConfig
from repro.host import dram
from repro.host.dram import CACHE_LINE_BYTES
from repro.db.storage import StoredRelation
from repro.pim.stats import PimStats


class HostReadModel:
    """Models host loads (and stores) targeting PIM-resident data."""

    def __init__(
        self,
        config: SystemConfig,
        stats: PimStats,
        traffic_scale: float = 1.0,
    ) -> None:
        self.config = config
        self.stats = stats
        self.threads = config.host.query_threads
        # Linear extrapolation factor for the charged traffic.  The functional
        # simulation can run on a scaled-down relation while latency, energy
        # and power are reported for a relation ``traffic_scale`` times larger
        # (all host-read costs are linear in the relation size).
        self.traffic_scale = float(traffic_scale)

    # ------------------------------------------------------------ bit-vector
    def read_filter_bitvector(
        self, stored: StoredRelation, partition: int = 0
    ) -> np.ndarray:
        """Read the packed filter-result bit-vector of a partition.

        The PIM controllers gather the per-record result bits into a compact
        region (one bit per record), so the host streams
        ``records / 8`` bytes.  Returns the boolean mask over records.
        """
        mask = stored.column_bit(partition, stored.layouts[partition].filter_column)
        num_bytes = math.ceil(stored.num_records / 8) * self.traffic_scale
        time_s = dram.stream_read_time(self.config.host, num_bytes)
        lines = math.ceil(num_bytes / CACHE_LINE_BYTES)
        self._charge("host-read-bitvector", time_s, lines)
        return mask

    # ---------------------------------------------------------------- records
    def count_record_lines(
        self,
        stored: StoredRelation,
        partition: int,
        record_indices: np.ndarray,
        attributes: Sequence[str],
    ) -> int:
        """Distinct cache lines needed to read ``attributes`` of the records."""
        if len(record_indices) == 0:
            return 0
        layout = stored.layouts[partition]
        words = layout.words_for_fields(attributes)
        rows = stored.rows_per_crossbar
        records_per_page = stored.records_per_page
        record_indices = np.asarray(record_indices, dtype=np.int64)
        pages = record_indices // records_per_page
        row_in_crossbar = record_indices % rows
        # Distinct (page, row) pairs: a mark per pair, no sort.
        seen = np.zeros((int(pages.max()) + 1) * rows, dtype=bool)
        seen[pages * rows + row_in_crossbar] = True
        return int(np.count_nonzero(seen) * len(words))

    def read_records(
        self,
        stored: StoredRelation,
        partition: int,
        record_indices: np.ndarray,
        attributes: Sequence[str],
    ) -> dict[str, np.ndarray]:
        """Read ``attributes`` of the given records through the load path.

        Returns the decoded values (functional) and charges the scattered
        line reads, spread across the worker threads, to the stats object.
        """
        record_indices = np.asarray(record_indices, dtype=np.int64)
        values = {
            name: stored.decode_cells(name, record_indices) for name in attributes
        }
        self.charge_record_reads(stored, partition, record_indices, attributes)
        return values

    def charge_record_reads(
        self,
        stored: StoredRelation,
        partition: int,
        record_indices: np.ndarray,
        attributes: Sequence[str],
        phase: str = "host-read-records",
    ) -> None:
        """Charge one :meth:`read_records` without decoding any value.

        For a caller that already knows the values (compaction rewrites from
        the ground truth): the traffic depends on the lines touched only.
        """
        lines = self.count_record_lines(stored, partition, record_indices, attributes)
        lines = int(round(lines * self.traffic_scale))
        time_s = dram.scattered_read_time(self.config.host, lines, self.threads)
        self._charge(phase, time_s, lines)

    def reads_per_record(
        self, stored: StoredRelation, partition: int, attributes: Sequence[str]
    ) -> int:
        """The paper's ``s``: 16-bit reads needed per record for ``attributes``."""
        return len(stored.layouts[partition].words_for_fields(attributes))

    # ------------------------------------------------------------- streaming
    def charge_stream_lines(self, lines: float, phase: str) -> None:
        """Charge a bandwidth-bound stream of ``lines`` cache lines.

        Used by the planner's host-scan route, which reads whole columns
        sequentially instead of chasing the filter bit-vector.
        """
        lines = int(round(lines * self.traffic_scale))
        time_s = dram.stream_read_time(
            self.config.host, lines * CACHE_LINE_BYTES
        )
        self._charge(phase, time_s, lines)

    # ----------------------------------------------------- aggregation results
    def read_aggregation_results(
        self,
        stored: StoredRelation,
        partition: int,
        pages_fraction: float = 1.0,
        count: int = 1,
    ) -> int:
        """Charge ``count`` reads of the per-crossbar aggregation results.

        The results of all 32 crossbars of a page share cache lines (one line
        per 16-bit result word), so the host reads
        ``pages x result_words`` lines.  ``pages_fraction`` scales the page
        count when a pruned aggregation only wrote results into candidate
        crossbars.  The decoded values themselves are returned by the executor
        that triggered the aggregation; this method only accounts for the
        traffic and returns the line count of one read.
        """
        layout = stored.layouts[partition]
        words = len(layout.result_word_indexes)
        lines = int(round(
            stored.allocations[partition].pages * pages_fraction
            * words * self.traffic_scale
        ))
        time_s = dram.scattered_read_time(self.config.host, lines, self.threads)
        self._charge("host-read-agg", time_s, lines, count)
        return lines

    # ------------------------------------------------------ partition transfer
    def transfer_bit_column(
        self,
        stored: StoredRelation,
        source_partition: int,
        source_column: int,
        target_partition: int,
        target_column: int,
        phase: str = "host-transfer-bits",
    ) -> np.ndarray:
        """Move a bit column between vertical partitions through the host.

        This is the intermediate-result transfer that makes the two-xb
        configuration slower (Section V-A): the host reads the packed bit
        vector from one partition and writes it into the aligned rows of the
        other partition.
        """
        bits = stored.column_bit(source_partition, source_column)
        stored.write_bit_column(target_partition, target_column, bits)
        self.charge_bit_column_transfer(stored, phase)
        return bits

    def charge_bit_column_transfer(
        self, stored: StoredRelation, phase: str = "host-transfer-bits",
        count: int = 1,
    ) -> None:
        """Charge ``count`` :meth:`transfer_bit_column` moves, moving no bits.

        The traffic of a transfer depends on the relation's size only, so a
        caller that knows the moved column will be overwritten before anyone
        reads it (batched pim-gb: every subgroup but the last)
        charges the moves here and accounts for the target bank's wear itself.
        """
        num_bytes = math.ceil(stored.num_records / 8) * self.traffic_scale
        read_time = dram.stream_read_time(self.config.host, num_bytes)
        write_time = dram.write_time(self.config.host, num_bytes, self.threads)
        lines = math.ceil(num_bytes / CACHE_LINE_BYTES)
        self._charge(phase, read_time + write_time, lines, count)
        self.stats.host_lines_written += lines * count
        xbar = self.config.pim.crossbar
        written_bits = int(round(stored.num_records * self.traffic_scale))
        self.stats.add_energy("write", written_bits * xbar.write_energy_per_bit_j, count)
        self.stats.add_events("bits_written", written_bits, count)

    # -------------------------------------------------------------- internals
    def _charge(self, phase: str, time_s: float, lines: int, count: int = 1) -> None:
        self.stats.add_time(phase, time_s, count)
        self.stats.host_lines_read += lines * count
        xbar = self.config.pim.crossbar
        bits = lines * CACHE_LINE_BYTES * 8
        self.stats.add_events("bits_read", bits, count)
        self.stats.add_energy("read", bits * xbar.read_energy_per_bit_j, count)
        if time_s > 0:
            # Reads drain energy from the PIM arrays at a modest rate; they
            # still contribute a power sample so read-dominated phases show
            # up in the peak-power accounting.
            power = bits * xbar.read_energy_per_bit_j / time_s / self.config.pim.chips
            self.stats.add_power_sample(phase, time_s, power, count)
