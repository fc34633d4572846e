"""The benchmark's workloads (perfbench/workloads.py) against this source:
the calls they make into kishnn still take the arguments they pass, so a
signature change shows here and not only in the benchmark's own tests."""

import importlib
import pathlib

from kishnn import classifier

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
