"""Synthetic contaminated samples: (1 - xi) * truth + xi * outliers.

Outliers come from an isotropic normal cloud.  Per-point origins are
kept for diagnostics and written alongside the coordinates in the CSV
form, but estimators never see them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .models import Model


@dataclass
class Dataset:
    """Observed points plus per-point origin labels (True = outlier)."""

    points: np.ndarray
    is_outlier: np.ndarray

    @property
    def n(self):
        return self.points.shape[0]

    def to_csv(self, path):
        points = self.points.reshape(self.n, -1)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [f"x_{i + 1}" for i in range(points.shape[1])] + ["outlier"]
            )
            for row, lab in zip(points, self.is_outlier):
                writer.writerow([repr(float(v)) for v in row] + [int(lab)])

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 2:
            raise ValueError(f"{path}: no data rows")
        header, body = rows[0], rows[1:]
        has_label = header[-1] == "outlier"
        dim = len(header) - (1 if has_label else 0)
        pts = np.array([[float(v) for v in r[:dim]] for r in body])
        if not np.isfinite(pts).all():
            raise ValueError(f"{path}: non-finite value in the data")
        if dim == 1:
            pts = pts[:, 0]
        if has_label:
            labels = np.array([bool(int(r[dim])) for r in body])
        else:
            labels = np.zeros(len(body), dtype=bool)
        return cls(points=pts, is_outlier=labels)


@dataclass(frozen=True)
class ContaminationSpec:
    """Recipe for one synthetic dataset.

    ``truth`` is in the unconstrained coordinates of ``model``.  With
    ``fixed_count`` the number of outliers is exactly ``round(xi * n)``
    instead of Bernoulli-distributed per point.
    """

    model: Model
    truth: np.ndarray
    outlier_mean: float | np.ndarray
    outlier_sd: float
    xi: float
    n: int
    fixed_count: bool = False

    def __post_init__(self):
        if not 0.0 <= self.xi < 1.0:
            raise ValueError("contamination ratio must lie in [0, 1)")
        if self.n < 1:
            raise ValueError("need at least one observation")
        if not (np.isfinite(self.outlier_sd) and self.outlier_sd >= 0):
            raise ValueError(
                f"outlier spread must be finite and >= 0, got {self.outlier_sd}"
            )


def contaminated_sample(spec, rng):
    """Draw a dataset from the contaminated distribution.

    Consumes the generator in a fixed order (labels, inliers, outliers)
    so that equal spec and generator state give identical datasets.
    """
    n = spec.n
    if spec.fixed_count:
        k = int(round(spec.xi * n))
        labels = np.zeros(n, dtype=bool)
        labels[rng.permutation(n)[:k]] = True
    else:
        labels = rng.random(n) < spec.xi
    k = int(labels.sum())

    shape = spec.model.point_shape
    inliers = spec.model.sample(spec.truth, rng, n - k)
    mean = np.asarray(spec.outlier_mean, dtype=float)
    outliers = mean + spec.outlier_sd * rng.standard_normal((k, *shape))
    points = np.empty((n, *shape))
    points[~labels] = inliers
    points[labels] = outliers
    return Dataset(points=points, is_outlier=labels)
