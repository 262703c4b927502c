"""Smoke tests executing the runnable examples.

The examples double as end-to-end documentation; each one performs its own
internal verification (asserting PIM results against NumPy references), so
simply running them to completion is a meaningful integration check.
"""

import runpy
import sys

import pytest


EXAMPLES = [
    "examples/quickstart.py",
    "examples/update_in_place.py",
    "examples/derived_attribute_in_memory.py",
    "examples/service_batch.py",
    "examples/sharded_service.py",
    "examples/trace_query.py",
]


@pytest.mark.parametrize("path", EXAMPLES)
def test_example_runs_to_completion(path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    output = capsys.readouterr().out
    assert "verified" in output.lower()


def test_groupby_planning_example_verifies(monkeypatch, capsys):
    """Run the GROUP-BY planning example on Q3.2 at a very small scale factor."""
    argv = ["examples/groupby_planning.py", "Q3.2", "0.002"]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(argv[0], run_name="__main__")
    output = capsys.readouterr().out
    assert "chosen k = " in output
    assert "verified" in output


def test_ssb_analytics_example_helpers(monkeypatch, capsys):
    """Run the SSB analytics example at a very small scale factor."""
    monkeypatch.setattr(sys, "argv", ["examples/ssb_analytics.py", "0.002"])
    runpy.run_path("examples/ssb_analytics.py", run_name="__main__")
    output = capsys.readouterr().out
    assert "identical result rows" in output
