"""The benchmark's workloads (perfbench/workloads.py) and tracer
(perfbench/spans.py) against this source: the calls the workloads make
into kishnn still take the arguments they pass, and every function the
tracer patches by name still exists, so a signature change, a rename or
a deletion shows here and not only in the benchmark's own tests.  The
leave-one-out and n-sweep phases also run here, short, so that a circuit
the benchmark would refuse (per-query gates, bits or depth that differ
between its queries, or a depth other than the pinned one) shows too."""

import importlib
import pathlib

import pytest

from kishnn import classifier

from test_pinned_bits import DEPTH

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def test_benchmark_workloads_call_this_source(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    pp = workloads.protocol(569, 5, 0)
    assert (pp.n, pp.k, pp.repetitions) == (569, workloads.K, 5)
    assert pp.ring.coord_bound == workloads.GRID
    gd = workloads.load_grid(60)  # GridDataset from four positional args
    assert gd.n == 60 and gd.grid == workloads.GRID
    db = workloads.load_grid().database()
    assert db.n == 569
    bit = classifier.classify_with_majority(gd.points[0], db, pp)
    assert bit in (0, 1)


def test_every_name_the_tracer_patches_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    names = [(module, attr) for table in (spans.OPS, spans.SPANS)
             for module, attrs in table.items() for attr in attrs]
    assert names
    missing = [f"{module.__name__}.{attr}" for module, attr in names
               if not callable(getattr(module, attr, None))]
    assert missing == []


@pytest.mark.parametrize("phase", ["loo_phase", "nsweep_phase"])
def test_the_benchmark_phases_accept_this_circuit(monkeypatch, phase):
    # one short phase of about a second, seed 0, untraced
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    result = getattr(workloads, phase)(0, 1.0, True)
    assert result.problems == []
    assert result.attempted >= 1 and result.failed == 0
    assert result.depth == DEPTH
