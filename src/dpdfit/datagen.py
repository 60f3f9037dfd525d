"""Synthetic contaminated samples: (1 - xi) * truth + xi * outliers.

Outliers come from an isotropic normal cloud.  Per-point origins are
kept for diagnostics and written alongside the coordinates in the CSV
form, but estimators never see them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import MAGNITUDE_MAX, Model

# rows formatted per write in to_csv, so that the text of a large dataset
# never has to exist in memory all at once
_BLOCK_ROWS = 65536


def _first_bad_line(path):
    """File line of the first data row that numpy cannot read as numbers,
    or with another column count than the first data row; None if there
    is none."""
    width = None
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            row = line.rstrip("\r\n")
            if lineno == 1 or not row:
                continue
            width = width or row.count(",") + 1
            try:
                np.loadtxt([row], delimiter=",", comments=None)
            except ValueError:
                return lineno
            if row.count(",") + 1 != width:
                return lineno
    return None


@dataclass
class Dataset:
    """Observed points plus per-point origin labels (True = outlier)."""

    points: np.ndarray
    is_outlier: np.ndarray

    @property
    def n(self):
        return self.points.shape[0]

    def to_csv(self, path):
        """Write ``x_1..x_d,outlier`` rows with ``\\r\\n`` line ends, each
        value as its shortest round-trip ``repr`` and each label as 0/1."""
        points = self.points.reshape(self.n, -1)
        header = [f"x_{i + 1}" for i in range(points.shape[1])] + ["outlier"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, self.n, _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                columns = [map(repr, col) for col in points[block].T.tolist()]
                columns.append(map(str, self.is_outlier[block].astype(int).tolist()))
                fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")

    @classmethod
    def from_csv(cls, path):
        """Read what :meth:`to_csv` writes.  The ``outlier`` column may be
        left out; empty lines are skipped.  A file without data rows, with
        a value that is not a finite number, with a row whose column count
        differs from the header's, or with a label other than 0 or 1
        raises ``ValueError`` naming ``path``, and the file line (the
        header is line 1) of a row that does not parse."""
        try:
            with open(path, newline="") as fh:
                header = fh.readline().rstrip("\r\n").split(",")
                body = fh.tell()
                if not any(line.strip("\r\n") for line in iter(fh.readline, "")):
                    raise ValueError("no data rows")
                fh.seek(body)
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            # numpy ends its messages on a bad row with " at row <k>" and, for a
            # column count, advice on its own ``usecols`` argument; <k> skips
            # the header and empty lines and counts from 0 or 1 by message
            text, at_row, _ = str(exc).rpartition(" at row ")
            line = at_row and _first_bad_line(path)
            where = f"line {line}: " if line else ""
            raise ValueError(f"{path}: {where}{text or exc}") from None
        if values.shape[1] != len(header):
            raise ValueError(f"{path}: {values.shape[1]} columns in the data rows, "
                             f"{len(header)} in the header")
        has_label = header[-1] == "outlier"
        dim = len(header) - (1 if has_label else 0)
        # contiguous, as sums over a strided column can round differently
        pts = np.ascontiguousarray(values[:, 0] if dim == 1 else values[:, :dim])
        if not np.isfinite(pts).all():
            raise ValueError(f"{path}: non-finite value in the data")
        if has_label:
            labels = values[:, dim]
            if not np.isin(labels, (0, 1)).all():
                raise ValueError(f"{path}: outlier labels must be 0 or 1")
            labels = labels == 1
        else:
            labels = np.zeros(len(values), dtype=bool)
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
        if not 0.0 <= self.outlier_sd <= MAGNITUDE_MAX:
            raise ValueError(f"outlier_sd (the outlier spread) must lie in "
                             f"[0, {MAGNITUDE_MAX:g}], got {self.outlier_sd}")
        if not np.all(np.abs(self.outlier_mean) <= MAGNITUDE_MAX):
            raise ValueError(f"outlier_mean (the outlier centre) must lie in [-{MAGNITUDE_MAX:g}, "
                             f"{MAGNITUDE_MAX:g}], got {np.ravel(self.outlier_mean).tolist()}")


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
    inside = spec.model._in_support(inliers)
    if inside is not None and not inside.all():  # numpy's wald gives 0.0 at huge mu/lam
        raise ValueError(f"truth: {(~inside).sum()} of {n - k} {spec.model.name} draws fell "
                         f"outside the support; numpy's sampler fails at these parameters")
    mean = np.asarray(spec.outlier_mean, dtype=float)
    outliers = mean + spec.outlier_sd * rng.standard_normal((k, *shape))
    points = np.empty((n, *shape))
    points[~labels] = inliers
    points[labels] = outliers
    return Dataset(points=points, is_outlier=labels)
