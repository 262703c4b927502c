"""Tests of the area, endurance and energy models."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.memory.area import AreaParameters, ChipAreaModel
from repro.memory.endurance import (
    RRAM_ENDURANCE_WRITES,
    SECONDS_PER_YEAR,
    lifetime_years,
    required_endurance,
    writes_per_cell,
)
from repro.memory.energy import energy_breakdown
from repro.pim.stats import PimStats


def test_chip_area_matches_paper_breakdown():
    model = ChipAreaModel()
    assert model.chip_area_mm2 == pytest.approx(346.0, rel=0.03)
    breakdown = model.breakdown()
    assert sum(breakdown.values()) == pytest.approx(1.0)
    assert breakdown["Aggregation circuits"] == pytest.approx(0.139, abs=0.02)
    assert breakdown["Crossbars"] == pytest.approx(0.1924, abs=0.02)
    assert breakdown["Crossbar peripherals"] == pytest.approx(0.404, abs=0.03)
    assert breakdown["PIM controllers"] == pytest.approx(0.0684, abs=0.02)


def test_chip_area_without_circuit_is_smaller():
    with_circuit = ChipAreaModel()
    without = ChipAreaModel(DEFAULT_CONFIG.without_aggregation_circuit())
    assert without.chip_area_mm2 < with_circuit.chip_area_mm2
    assert with_circuit.aggregation_circuit_overhead() > 0.1
    assert without.breakdown()["Aggregation circuits"] == 0.0


def test_area_scales_with_geometry():
    model = ChipAreaModel(parameters=AreaParameters(cell_area_um2=0.004))
    assert model.breakdown()["Crossbars"] > ChipAreaModel().breakdown()["Crossbars"]


def test_endurance_and_lifetime():
    assert writes_per_cell(512, 512) == 1.0
    with pytest.raises(ValueError):
        writes_per_cell(1, 0)
    with pytest.raises(ValueError):
        required_endurance(100, 512, 0.0)
    # One write per cell per query, one query per second, ten years.
    needed = required_endurance(512, 512, 1.0, years=10)
    assert needed == pytest.approx(10 * SECONDS_PER_YEAR)
    # Lifetime is the inverse relation.
    years = lifetime_years(512, 512, 1.0, endurance_writes=needed)
    assert years == pytest.approx(10.0)
    assert lifetime_years(0, 512, 1.0) == float("inf")
    # Faster queries with the same per-query wear require more endurance.
    assert required_endurance(100, 512, 0.01) > required_endurance(100, 512, 0.1)
    assert RRAM_ENDURANCE_WRITES == pytest.approx(1e12)


def test_energy_breakdown_and_average_power():
    stats = PimStats()
    stats.add_energy("logic", 2e-3)
    stats.add_energy("read", 1e-3)
    stats.add_time("filter", 0.5)
    breakdown = energy_breakdown(stats)
    assert breakdown["logic"] == pytest.approx(2e-3)
    assert breakdown["total"] == pytest.approx(3e-3)
    assert breakdown["write"] == 0.0
