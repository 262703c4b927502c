"""The PIM module: a memory rank of PIM-enabled chips.

A :class:`PimModule` owns the capacity bookkeeping of the 32 GB RRAM rank of
Table I and hands out :class:`PimAllocation` objects — contiguous runs of
2 MB huge pages whose crossbars are modelled by one
:class:`~repro.pim.crossbar.CrossbarBank`.  A stored relation (or one
vertical partition of it) lives in exactly one allocation, which is also the
unit on which bulk-bitwise operations are broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import PimModuleConfig, SystemConfig
from repro.pim.packed import AnyCrossbarBank, make_bank


@dataclass
class PimAllocation:
    """A contiguous allocation of huge pages inside the PIM module."""

    label: str
    first_page: int
    pages: int
    bank: AnyCrossbarBank
    config: PimModuleConfig

    @property
    def crossbars(self) -> int:
        """Number of crossbars backing the allocation."""
        return self.bank.count

    @property
    def rows_per_crossbar(self) -> int:
        return self.bank.rows

    @property
    def record_capacity(self) -> int:
        """Records the allocation can hold at one record per crossbar row."""
        return self.crossbars * self.rows_per_crossbar

    @property
    def bytes(self) -> int:
        return self.pages * self.config.huge_page_bytes

    def crossbar_of_record(self, record_index: int) -> int:
        """Crossbar index holding a record (records fill crossbars in order)."""
        return record_index // self.rows_per_crossbar

    def row_of_record(self, record_index: int) -> int:
        """Row within its crossbar holding a record."""
        return record_index % self.rows_per_crossbar


class OutOfPimMemoryError(RuntimeError):
    """Raised when an allocation does not fit in the PIM module."""


class PimModule:
    """Capacity manager for a single bulk-bitwise PIM memory rank."""

    def __init__(self, config: SystemConfig | None = None):
        from repro.config import DEFAULT_CONFIG

        self.system_config = config if config is not None else DEFAULT_CONFIG
        self.config = self.system_config.pim
        self._next_page = 0
        self._allocations: dict[str, PimAllocation] = {}

    # ------------------------------------------------------------ allocation
    def allocate_pages(self, pages: int, label: str) -> PimAllocation:
        """Allocate ``pages`` huge pages under ``label``."""
        if pages <= 0:
            raise ValueError("pages must be positive")
        if label in self._allocations:
            raise ValueError(f"allocation label {label!r} already in use")
        if self._next_page + pages > self.config.pages_total:
            raise OutOfPimMemoryError(
                f"allocation of {pages} pages exceeds module capacity "
                f"({self.config.pages_total} pages total, "
                f"{self.pages_free} free)"
            )
        xbar = self.config.crossbar
        bank = make_bank(
            self.system_config.backend,
            count=pages * self.config.crossbars_per_page,
            rows=xbar.rows,
            columns=xbar.columns,
        )
        allocation = PimAllocation(
            label=label,
            first_page=self._next_page,
            pages=pages,
            bank=bank,
            config=self.config,
        )
        self._next_page += pages
        self._allocations[label] = allocation
        return allocation

    def allocate_for_records(self, record_count: int, label: str) -> PimAllocation:
        """Allocate enough pages to store ``record_count`` records."""
        if record_count <= 0:
            raise ValueError("record_count must be positive")
        records_per_page = self.config.records_per_page
        pages = int(math.ceil(record_count / records_per_page))
        return self.allocate_pages(pages, label)

    def free(self, label: str) -> None:
        """Release an allocation (capacity is returned only for the last one)."""
        allocation = self._allocations.pop(label, None)
        if allocation is None:
            raise KeyError(f"no allocation named {label!r}")
        if allocation.first_page + allocation.pages == self._next_page:
            self._next_page = allocation.first_page

    # ------------------------------------------------------------- inspection
    def allocation(self, label: str) -> PimAllocation:
        """Return a previously created allocation."""
        return self._allocations[label]

    @property
    def allocations(self) -> list[PimAllocation]:
        return list(self._allocations.values())

    @property
    def pages_used(self) -> int:
        return self._next_page

    @property
    def pages_free(self) -> int:
        return self.config.pages_total - self._next_page

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PimModule(pages_used={self.pages_used}, "
            f"pages_total={self.config.pages_total})"
        )
