"""Synthetic contaminated samples: (1 - xi) * truth + xi * outliers.

Outliers come from an isotropic normal cloud.  Per-point origins are
kept for diagnostics and written alongside the coordinates in the CSV
form, but estimators never see them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .models import MAGNITUDE_MAX, Model

# Rows per write in to_csv, same bytes at any value: a large dataset's text never exists at
# once, and a write's scratch (in the CLI's forked writer, for a large sample) is 5 MB here.
_BLOCK_ROWS = 16384

# Per binary exponent E in [1e-4, 1e15): q with |x| * 10**q in [1e16, 2e17),
# 10**q (exact: q <= 22), its Dekker split's high half, 10**q * ulp(x) / 2
_E = np.arange(-14, 50)
_Q = 16 - np.floor(_E * np.log10(2)).astype(np.intp)
_P = np.array([float(10 ** int(q)) for q in _Q])
_PH = _P * 134217729.0 - (_P * 134217729.0 - _P)
_H = np.ldexp(_P, _E - 53)
# A CSV cell: sign slot, places 10**15..10**0, ".", 10**-1..10**-20, ","; _KEEP
# [start * _W + end] keeps its columns [start, end) and ","; _QUADS[k]: k's 4 digits
_W, _COLS = 39, np.arange(39)
_KEEP = ((_COLS[:, None, None] <= _COLS) & (_COLS < _COLS[:, None]) | (_COLS == _W - 1)).reshape(-1, _W)
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), -1).view(np.uint32).ravel()


def _shortest(x):
    """``(exact, digits, zeros, q)`` for the doubles ``x``: where ``exact``,
    ``repr(abs(x))`` prints the decimal ``digits * 10**-q``, whose last
    ``zeros`` digits are 0.  Not exact: +-0, inf, nan, powers of two (a
    lopsided rounding interval), ``|x|`` outside [1e-4, 1e15), ties."""
    a = np.abs(x)
    i = (a.view(np.uint64) >> 52).astype(np.intp) - (1023 + _E[0])
    exact = (a >= 1e-4) & (a < 1e15) & (a.view(np.uint64) << 12 != 0)
    a[~exact], i[~exact] = 1.5, -_E[0]  # in range, so the arithmetic stays quiet
    # S = a * 10**q exactly, as an integer N plus f in [0, 1) (Dekker's product)
    power, split, ph = _P[i], a * 134217729.0, _PH[i]
    p, ah = a * power, split - (split - a)
    al, pl = a - ah, power - ph
    e = ((ah * ph - p) + ah * pl + al * ph) + al * pl
    N, f = p.astype(np.int64) + np.floor(e).astype(np.int64), e - np.floor(e)
    # The multiple of 10**k nearest S, for the largest k with a distance
    # below h = ulp(x) / 2 * 10**q, reads back as x and is the one repr
    # prints (Steele & White 1990); distances never fall as k grows.
    digits, zeros, sure = N + (f > 0.5), np.zeros(x.size, np.intp), f != 0.5
    at, h = np.arange(x.size), _H[i]
    for k in range(1, 18):
        rem = N - N // 10**k * 10**k
        below = np.minimum(rem, 32).astype(float) + f  # h < 23: past 31, no need to be exact
        above = np.minimum(10**k - rem, 32).astype(float) - f
        inside = np.flatnonzero(np.minimum(below, above) <= h)
        if not inside.size:
            break
        at, N, f, h, rem, below, above = (v[inside] for v in (at, N, f, h, rem, below, above))
        digits[at], zeros[at] = N - rem + (above < below) * 10**k, k
        sure[at] = (below != above) & (np.minimum(below, above) < h)  # no tie, inside
    return exact & sure, digits, zeros, _Q[i]


def _csv_rows(points, labels):
    """CSV rows of ``points`` (rows, d) and 0/1 ``labels``, as bytes: each
    value as ``repr`` prints it, ``,`` between cells, ``\\r\\n`` after each
    row.  Values that :func:`_shortest` leaves out go through ``repr``."""
    x = np.ascontiguousarray(points, dtype=float).ravel()
    exact, digits, zeros, q = _shortest(x)
    point = 17 + (digits >= 10**17) - q  # |x| = 0.d1d2... * 10**point
    exact &= (point > -4) & (point <= 16)  # repr's positional range
    text = np.full((x.size, 55), ord("0"), np.uint8)  # digits in columns 17..36
    for col in range(33, 16, -4):
        high = digits // 10000
        text[:, col:col + 4].view(np.uint32)[:, 0] = _QUADS[digits - high * 10000]
        digits = high
    places = sliding_window_view(text, 36, axis=1)[np.arange(x.size), 21 - q]
    # a row is its d cells, then label, "\r", "\n"; cells[i, j] is point i's coordinate j
    rows = np.empty((len(labels), x.size // len(labels) * _W + 3), np.uint8)
    cells = rows[:, :-3].reshape(len(labels), -1, _W)
    cell = places.reshape(*cells.shape[:2], 36)
    cells[..., 1:17], cells[..., 17], cells[..., 18:38], cells[..., 38] = (
        cell[..., :16], ord("."), cell[..., 16:], ord(","))
    rows[:, -3:] = [ord("0"), 13, 10]
    rows[:, -3] += labels
    start, end = 17 - np.maximum(point, 1), 18 + np.maximum(q - zeros, 1)
    neg = np.flatnonzero(np.signbit(x) & exact)
    start[neg] -= 1
    cells[(*np.divmod(neg, cells.shape[1]), start[neg])] = ord("-")
    slow = np.flatnonzero(~exact)
    reprs = [repr(v) for v in x[slow].tolist()]
    cells[(*np.divmod(slow, cells.shape[1]), slice(0, 24))] = (
        np.array(reprs, "S24").view(np.uint8).reshape(-1, 24))
    start[slow], end[slow] = 0, list(map(len, reprs))
    keep = np.empty(rows.shape, bool)
    keep[:, -3:] = True
    np.take(_KEEP, (start * _W + end).reshape(cells.shape[:2]), axis=0,
            out=keep[:, :-3].reshape(cells.shape), mode="clip")  # clip: no buffered copy
    return rows[keep].tobytes()


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


def _undecodable(path, encoding):
    """File line (the header is line 1) and file offset of the first byte of
    ``path`` that is not ``encoding`` text; None if there is none."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode(encoding)
    except UnicodeDecodeError as exc:
        line = len(raw[:exc.start + 1].splitlines())  # \n, \r\n and \r end a line
        return (f"line {line}: byte 0x{raw[exc.start]:02x} at file offset {exc.start} "
                f"is not {encoding} text ({exc.reason})")


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
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\r\n").encode())
            for start in range(0, self.n, _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                fh.write(_csv_rows(points[block], self.is_outlier[block]))

    @classmethod
    def from_csv(cls, path):
        """Read what :meth:`to_csv` writes.  The ``outlier`` column may be
        left out; empty lines are skipped.  A file without data rows, with
        a value that is not a finite number, with a row whose column count
        differs from the header's, or with a label other than 0 or 1
        raises ``ValueError`` naming ``path``, and the file line (the
        header is line 1) of a row that does not parse; so does a byte
        that is not text, with its offset from the start of the file."""
        try:
            with open(path, newline="") as fh:
                header = fh.readline().rstrip("\r\n").split(",")
                if not any(line.strip("\r\n") for line in iter(fh.readline, "")):
                    raise ValueError("no data rows")
                fh.seek(0)
                # numpy parses a path in chunks but a handle line by line; it opens a path
                # ending in .gz, .bz2, .xz or .lzma as compressed, and scheme://host/... as a URL
                plain = os.path.splitext(path)[1] not in (".gz", ".bz2", ".xz", ".lzma")
                values = np.loadtxt(os.path.abspath(path) if plain else fh, delimiter=",",
                                    comments=None, ndmin=2, skiprows=1)
        except UnicodeDecodeError as exc:  # its position counts from a decoded chunk
            raise ValueError(f"{path}: {_undecodable(path, exc.encoding) or exc}") from None
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
            outlier = values[:, dim] == 1  # compares the strided column without a copy
            if not (outlier | (values[:, dim] == 0)).all():
                raise ValueError(f"{path}: outlier labels must be 0 or 1")
        else:
            outlier = np.zeros(len(values), dtype=bool)
        return cls(points=pts, is_outlier=outlier)


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
    with np.errstate(over="ignore", invalid="ignore"):  # such draws are rejected below
        inliers = spec.model.sample(spec.truth, rng, n - k)
    bad = ~np.isfinite(inliers)  # Gompertz draws overflow at a huge omega/lam
    inside = spec.model._in_support(inliers)
    if inside is not None:
        bad |= ~inside  # numpy's wald gives 0.0 at huge mu/lam
    if bad.any():
        raise ValueError(f"truth: {bad.sum()} of {n - k} {spec.model.name} draws fell "
                         f"outside the support or overflowed; numpy's sampler fails at these "
                         f"parameters")
    mean = np.asarray(spec.outlier_mean, dtype=float)
    outliers = mean + spec.outlier_sd * rng.standard_normal((k, *shape))
    points = np.empty((n, *shape))
    points[~labels] = inliers
    points[labels] = outliers
    return Dataset(points=points, is_outlier=labels)
