"""Dataset ingestion, projection, quantization, plaintext oracles and the
evaluation harness.

The tumor-measurement records are standardized, projected onto a 2D plane
(class-discriminant axis plus the leading orthogonal principal component),
snapped to an integer grid, and fed either to an exact plaintext kNN or to
the secure pipeline under leave-one-out cross-validation.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import he_sim, primitives
from .classifier import (LabeledDatabase, classify_with_majority,
                         make_protocol_params)
from .he_sim import EvalMetrics
from .primitives import derive_seed
from .ring import ParameterError, select_ring_params


class DataFormatError(ValueError):
    pass


@dataclass(frozen=True)
class RawDataset:
    ids: tuple
    diagnoses: tuple  # "M" | "B"
    features: np.ndarray  # (n, 30) floats

    def __post_init__(self):
        if len(self.ids) < 2:
            raise DataFormatError("need at least two records")
        present = set(self.diagnoses)
        if present != {"M", "B"}:
            raise DataFormatError("both diagnosis classes must be present")

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def labels(self) -> np.ndarray:
        """Malignant = 1, benign = 0."""
        return np.array([1 if d == "M" else 0 for d in self.diagnoses],
                        dtype=np.int64)


@dataclass(frozen=True)
class GridDataset:
    points: np.ndarray  # (n, 2) integers in [0, g)
    labels: np.ndarray  # (n,) bits, malignant = 1
    grid: int
    quant_meta: tuple  # per-axis (offset, scale): cell = (x - offset) * scale

    def __post_init__(self):
        if ((self.points < 0) | (self.points >= self.grid)).any():
            raise DataFormatError("grid coordinates out of range")
        if len(self.points) != len(self.labels):
            raise DataFormatError("points and labels length mismatch")

    @property
    def n(self) -> int:
        return len(self.labels)

    def database(self) -> LabeledDatabase:
        return LabeledDatabase(self.points, self.labels)


@dataclass(frozen=True)
class EvalReport:
    f1: float
    per_point_predictions: np.ndarray
    metrics: EvalMetrics


def load_wdbc(path) -> RawDataset:
    """Parse the comma-separated diagnostic file: id, M/B, 30 features."""
    ids, diagnoses, rows = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cols = line.split(",")
            if len(cols) != 32:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected 32 columns, got {len(cols)}")
            if cols[1] not in ("M", "B"):
                raise DataFormatError(
                    f"{path}: line {lineno}: diagnosis must be M or B")
            try:
                feats = [float(c) for c in cols[2:]]
                if not all(map(math.isfinite, feats)):
                    raise ValueError("features must be finite")
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}: line {lineno}: bad feature value: {exc}") from exc
            ids.append(cols[0])
            diagnoses.append(cols[1])
            rows.append(feats)
    if not rows:
        raise DataFormatError(f"{path}: no records")
    return RawDataset(tuple(ids), tuple(diagnoses),
                      np.asarray(rows, dtype=np.float64))


def _sign_fix(v: np.ndarray) -> np.ndarray:
    """Deterministic orientation: first nonzero coefficient positive."""
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if len(nz) and v[nz[0]] < 0:
        return -v
    return v


def project_2d(raw: RawDataset) -> np.ndarray:
    """Project standardized features onto a discriminating 2D plane.

    Axis 1 is the Fisher discriminant direction S_w^-1 (m1 - m0); axis 2
    is the leading principal component of the data after removing its
    component along axis 1.  Two classes give only one discriminant, so
    the second axis is the dominant remaining variance direction.
    """
    x = raw.features
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    z = (x - mean) / std
    y = raw.labels
    m0 = z[y == 0].mean(axis=0)
    m1 = z[y == 1].mean(axis=0)
    sw = np.zeros((z.shape[1], z.shape[1]))
    for cls, m in ((0, m0), (1, m1)):
        d = z[y == cls] - m
        sw += d.T @ d
    try:
        w = np.linalg.solve(sw, m1 - m0)
        if not np.isfinite(w).all():
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        eps = 1e-6 * np.trace(sw) / sw.shape[0]
        if eps <= 0:
            eps = 1e-6
        warnings.warn("within-class scatter is singular; "
                      f"ridge-regularizing with eps={eps:.3g}")
        w = np.linalg.solve(sw + eps * np.eye(sw.shape[0]), m1 - m0)
    norm = np.linalg.norm(w)
    if norm < 1e-12:
        warnings.warn("class means coincide; the discriminant direction is "
                      "undefined, falling back to the first feature axis")
        w = np.zeros(z.shape[1])
        w[0] = 1.0
        norm = 1.0
    w = _sign_fix(w / norm)
    resid = z - np.outer(z @ w, w)
    # Leading principal component of the residual, deterministic sign.
    _, _, vt = np.linalg.svd(resid - resid.mean(axis=0), full_matrices=False)
    v = _sign_fix(vt[0])
    return np.column_stack([z @ w, z @ v])


def quantize(points2d: np.ndarray, g: int) -> tuple:
    """Min-max map each axis onto {0, ..., g-1}, round half to even.

    Returns (integer points, quant_meta); quant_meta holds the per-axis
    (offset, scale) so queries can be mapped onto the same grid.
    """
    if g < 2:
        raise ParameterError("grid size must be at least 2")
    points2d = np.asarray(points2d, dtype=np.float64)
    cells = np.empty_like(points2d)
    meta = []
    for axis in range(points2d.shape[1]):
        col = points2d[:, axis]
        lo, hi = col.min(), col.max()
        if hi == lo:
            warnings.warn(f"axis {axis} is degenerate; all points map to 0")
            meta.append((lo, 0.0))
            cells[:, axis] = 0.0
            continue
        scale = (g - 1) / (hi - lo)
        meta.append((lo, scale))
        cells[:, axis] = (col - lo) * scale
    grid_pts = np.rint(cells).astype(np.int64)  # numpy rounds half to even
    return grid_pts, tuple(meta)


def grid_dataset(raw: RawDataset, g: int) -> GridDataset:
    pts, meta = quantize(project_2d(raw), g)
    return GridDataset(points=pts, labels=raw.labels, grid=g, quant_meta=meta)


def plain_knn(db: LabeledDatabase, q, k: int) -> int:
    """Exact L1 k-nearest-neighbor majority vote.

    Distance ties break toward the lower index (stable sort); a class tie
    yields 0, mirroring the strict comparison in the secure circuit.
    """
    if not 1 <= k <= db.n:
        raise ParameterError("need 1 <= k <= the database size")
    dists = np.abs(db.points - np.asarray(q, dtype=np.int64)).sum(axis=1)
    order = np.argsort(dists, kind="stable")
    votes = int(db.labels[order[:k]].sum())
    return 1 if 2 * votes > k else 0


def f1_score(predicted: np.ndarray, truth: np.ndarray) -> float:
    """2|X n Y| / (|X| + |Y|) over the predicted/true positive sets."""
    predicted = np.asarray(predicted, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    denom = int(predicted.sum()) + int(truth.sum())
    if denom == 0:
        return 0.0
    return 2.0 * int((predicted & truth).sum()) / denom


# Held-out points classified per block: their mu and mu_2 coin plans fill
# the plan store, so a block takes no more plan memory.
_LOO_BLOCK = primitives.PLAN_STORE // 2


def leave_one_out_f1(gd: GridDataset, k: int, mode: str = "plain", *,
                     repetitions: int = 5, seed: int = 0) -> EvalReport:
    """Hold out each point, classify it with the rest, score F1.

    Per-point seeds are derived from the base seed.  Every held-out
    database has n - 1 points, so one ring serves them all.  A block's
    databases and coin plans are made at once, before its queries run.
    """
    if mode not in ("plain", "secure"):
        raise ParameterError(f"unknown mode {mode!r}")
    if gd.n < 3:
        raise ParameterError("need at least three points for leave-one-out")
    db = gd.database()
    ring = select_ring_params(gd.grid, dim=2, n=gd.n - 1)
    preds = []
    with he_sim.metering() as total:
        for start in range(0, gd.n, _LOO_BLOCK):
            block = range(start, min(start + _LOO_BLOCK, gd.n))
            rests = db.held_out(block)
            if mode == "plain":
                preds += [plain_knn(rest, db.points[i], k)
                          for i, rest in zip(block, rests)]
                continue
            pps = [make_protocol_params(ring, k=k, n=ring.n,
                                        repetitions=repetitions,
                                        rng_seed=derive_seed(seed, f"loo-{i}"))
                   for i in block]
            primitives.plan_coins([pp.coins for pp in pps], ring.n,
                                  ring.dist_bound)
            preds += [classify_with_majority(db.points[i], rest, pp)
                      for i, rest, pp in zip(block, rests, pps)]
    preds = np.array(preds, dtype=np.int64)
    return EvalReport(f1=f1_score(preds, db.labels),
                      per_point_predictions=preds, metrics=total)


def gaussian_sd_diagnostic(db: LabeledDatabase, q) -> float:
    """Statistical distance between the distance histogram and the
    discretized normal with the same mean and spread.

    Returns the maximum pointwise probability gap; a spread of zero is
    reported as 1.0 with a warning.
    """
    if db.n < 10:
        raise ParameterError("need at least ten points for the diagnostic")
    dists = np.abs(db.points - np.asarray(q, dtype=np.int64)).sum(axis=1)
    mu = float(dists.mean())
    sigma = float(dists.std())
    if sigma == 0:
        warnings.warn("all distances are equal; distribution is degenerate")
        return 1.0
    lo, hi = int(dists.min()), int(dists.max())
    cdf = NormalDist().cdf
    gaps = []
    for u in range(lo, hi + 1):
        emp = float((dists == u).sum()) / db.n
        gauss = cdf((u + 0.5 - mu) / sigma) - cdf((u - 0.5 - mu) / sigma)
        gaps.append(abs(emp - gauss))
    return max(gaps)


def distance_histogram(db: LabeledDatabase, q) -> list:
    """(distance, count) rows for the empirical distance distribution."""
    dists = np.abs(db.points - np.asarray(q, dtype=np.int64)).sum(axis=1)
    values, counts = np.unique(dists, return_counts=True)
    return [(int(v), int(c)) for v, c in zip(values, counts)]


def write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
