import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpdfit import datagen
from dpdfit.datagen import ContaminationSpec, Dataset, _shortest, contaminated_sample
from dpdfit.models import (
    MAGNITUDE_MAX,
    InverseNormal,
    InverseNormalParams,
    IsoNormal,
    Normal1D,
    NormalParams,
)


def normal_spec(**overrides):
    model = Normal1D()
    base = dict(
        model=model,
        truth=model.from_natural(NormalParams(mu=0.0, sigma=1.0)),
        outlier_mean=10.0,
        outlier_sd=1.0,
        xi=0.1,
        n=1000,
    )
    base.update(overrides)
    return ContaminationSpec(**base)


class TestContaminatedSample:
    def test_no_contamination(self):
        ds = contaminated_sample(normal_spec(xi=0.0), np.random.default_rng(0))
        assert ds.n == 1000
        assert not ds.is_outlier.any()

    def test_inliers_outside_the_support_name_truth(self):
        """At mu = 1e15 numpy's wald draws some exact zeros (27 in 1,000)."""
        model = InverseNormal()
        spec = normal_spec(model=model, n=1000,
                           truth=model.from_natural(InverseNormalParams(mu=1e15, lam=1.0)))
        with pytest.raises(ValueError, match=r"^truth: \d+ of \d+ inverse-normal draws fell "
                                             "outside the support"):
            contaminated_sample(spec, np.random.default_rng(0))

    def test_near_total_contamination(self):
        ds = contaminated_sample(normal_spec(xi=1 - 1e-12, n=100),
                                 np.random.default_rng(1))
        assert ds.is_outlier.all()

    def test_outlier_fraction_concentrates(self):
        ds = contaminated_sample(normal_spec(n=100_000), np.random.default_rng(2))
        assert abs(ds.is_outlier.mean() - 0.1) < 0.005

    def test_outliers_come_from_the_cloud(self):
        ds = contaminated_sample(normal_spec(n=5000), np.random.default_rng(3))
        assert ds.points[ds.is_outlier].min() > 4.0
        assert ds.points[~ds.is_outlier].max() < 6.0

    def test_fixed_count_mode(self):
        spec = normal_spec(n=500, xi=0.01, fixed_count=True)
        for seed in range(5):
            ds = contaminated_sample(spec, np.random.default_rng(seed))
            assert int(ds.is_outlier.sum()) == 5

    def test_seed_determinism(self):
        spec = normal_spec()
        a = contaminated_sample(spec, np.random.default_rng(42))
        b = contaminated_sample(spec, np.random.default_rng(42))
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.is_outlier, b.is_outlier)

    def test_multivariate_points(self):
        model = IsoNormal(3)
        spec = ContaminationSpec(
            model=model,
            truth=np.full(3, 0.5),
            outlier_mean=np.full(3, 100.5),
            outlier_sd=0.1,
            xi=0.01,
            n=500,
            fixed_count=True,
        )
        ds = contaminated_sample(spec, np.random.default_rng(4))
        assert ds.points.shape == (500, 3)
        assert np.allclose(ds.points[ds.is_outlier].mean(axis=0), 100.5, atol=0.3)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            normal_spec(xi=1.0)
        with pytest.raises(ValueError):
            normal_spec(n=0)
        normal_spec(outlier_sd=MAGNITUDE_MAX, outlier_mean=-MAGNITUDE_MAX)
        for sd in (-1.0, np.nan, np.inf, 1e308, MAGNITUDE_MAX * 1.01):
            with pytest.raises(ValueError, match="outlier spread"):
                normal_spec(outlier_sd=sd)
        for mean in (np.nan, -np.inf, 1e300, MAGNITUDE_MAX * 1.01, np.array([0.0, 1e100])):
            with pytest.raises(ValueError, match="outlier centre"):
                normal_spec(outlier_mean=mean)


class TestDatasetCsv:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "input.csv"
        path.write_text(f"x_1,x_2\n1.0,2.0\n3.0,{value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite value")):
            Dataset.from_csv(path)

    def test_blank_lines_and_line_ends(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b"x_1,outlier\r\n0.5,0\r\n\r\n1.5,1\n\n-0.25,0\r\n\r\n")
        ds = Dataset.from_csv(path)
        assert ds.points.tolist() == [0.5, 1.5, -0.25]
        assert ds.is_outlier.tolist() == [False, True, False]

    def test_lone_carriage_return_line_ends(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b"x_1,outlier\r0.5,0\r1.5,1\r\r-2.5,0\r")
        ds = Dataset.from_csv(path)
        assert ds.points.tolist() == [0.5, 1.5, -2.5]
        assert ds.is_outlier.tolist() == [False, True, False]

    def test_byte_order_mark_before_the_header(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b"\xef\xbb\xbfx_1,outlier\r\n0.5,0\r\n1.5,1\r\n")
        ds = Dataset.from_csv(path)
        assert ds.points.tolist() == [0.5, 1.5]
        assert ds.is_outlier.tolist() == [False, True]

    def test_byte_that_is_not_utf8_is_one_line(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b"x_1,outlier\r\n0.5,0\r\n1.5\xff,1\r\n")
        with pytest.raises(ValueError) as err:
            Dataset.from_csv(path)
        assert str(err.value) == (f"{path}: 'utf-8' codec can't decode byte 0xff in "
                                  "position 23: invalid start byte")

    @pytest.mark.parametrize("name", ["data.gz", "data.bz2", "data.xz", "data.lzma",
                                      "http://localhost/data.csv"])
    def test_plain_text_under_any_name(self, tmp_path, monkeypatch, name):
        """numpy would open these names as compressed files or as a URL."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        with open(name, "w") as fh:
            fh.write("x_1,outlier\n0.5,0\n1.5,1\n")
        assert Dataset.from_csv(name).points.tolist() == [0.5, 1.5]

    def test_negative_zero_label_reads_as_zero(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_text("x_1,outlier\n0.5,-0.0\n1.5,1\n2.5,0.0\n")
        assert Dataset.from_csv(path).is_outlier.tolist() == [False, True, False]

    def test_roundtrip_scalar(self, tmp_path):
        ds = contaminated_sample(normal_spec(n=200), np.random.default_rng(5))
        path = tmp_path / "data.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
        np.testing.assert_array_equal(back.points, ds.points)
        np.testing.assert_array_equal(back.is_outlier, ds.is_outlier)

    def test_roundtrip_multivariate(self, tmp_path):
        model = IsoNormal(2)
        spec = ContaminationSpec(
            model=model, truth=np.zeros(2), outlier_mean=np.full(2, 10.0),
            outlier_sd=1.0, xi=0.2, n=50,
        )
        ds = contaminated_sample(spec, np.random.default_rng(6))
        path = tmp_path / "data.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
        np.testing.assert_array_equal(back.points, ds.points)
        np.testing.assert_array_equal(back.is_outlier, ds.is_outlier)


# Finite doubles, with the extremes the shortest round-trip repr must
# reproduce: the smallest subnormal, a larger subnormal, +-max and -0.0.
EXTREMES = [5e-324, -5e-324, 2.5e-310, 1.7976931348623157e308,
            -1.7976931348623157e308, -0.0, 0.0]
DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES)


# Doubles that Dataset.to_csv formats without repr: |x| in [1e-4, 1e15),
# any of them and short decimals (rounded to 1..17 significant digits).
POSITIONAL = st.floats(1e-4, 1e15, exclude_max=True)
SHORT = st.builds(lambda v, k: float(f"{v:.{k}g}"), POSITIONAL, st.integers(1, 17))
SIGNED = st.builds(lambda v, negative: -v if negative else v, POSITIONAL | SHORT, st.booleans())
# the edges of that range and of repr's positional form, a power of two, -0.0
EDGES = [9.999999999999999e-05, 0.0001, 999999999999999.9, 1e15, 9999999999999998.0,
         0.1, 0.3, 2.0**-10, -0.0]


@st.composite
def datasets(draw, doubles=DOUBLES):
    """Datasets of either point shape: ``(n,)`` for d = 1, else ``(n, d)``."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 20))
    values = draw(st.lists(doubles, min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    points = np.array(values, dtype=float).reshape((n,) if d == 1 else (n, d))
    return Dataset(points=points, is_outlier=np.array(labels, dtype=bool))


class TestCsvRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(ds=datasets())
    @example(Dataset(points=np.array(EXTREMES), is_outlier=np.zeros(7, dtype=bool)))
    @example(Dataset(points=np.array(EXTREMES[:6]).reshape(3, 2),
                     is_outlier=np.array([True, False, True])))
    def test_bitwise_round_trip_and_repr_text(self, tmp_path_factory, ds):
        self.check(tmp_path_factory, ds)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ds=datasets(SIGNED))
    @example(Dataset(points=np.array(EDGES), is_outlier=np.zeros(len(EDGES), dtype=bool)))
    @example(Dataset(points=np.array(EDGES[:6]).reshape(2, 3), is_outlier=np.array([True, False])))
    def test_positional_values_round_trip_as_repr_text(self, tmp_path_factory, ds):
        self.check(tmp_path_factory, ds)

    @pytest.mark.parametrize("rows", [1, 3, 16384, 65536])
    def test_same_bytes_at_every_block_size(self, tmp_path, monkeypatch, rows):
        """``_BLOCK_ROWS`` only bounds the text held at once: a sample of two
        blocks and a partial third gives repr's text at any block size."""
        rng = np.random.default_rng(rows)
        n = 2 * rows + 1 + rows // 2  # two full blocks and a partial third (at rows > 1)
        x = np.where(rng.random(n) < 0.5, rng.standard_normal(n),
                     rng.integers(0, 2**64, n, dtype=np.uint64).view(float))
        x[np.isnan(x)] = -0.0  # a finite sample, with values repr alone formats
        labels = rng.random(n) < 0.1
        monkeypatch.setattr(datagen, "_BLOCK_ROWS", rows)
        Dataset(points=x, is_outlier=labels).to_csv(tmp_path / "data.csv")
        expected = "".join(f"{v!r},{int(b)}\r\n" for v, b in zip(x.tolist(), labels.tolist()))
        assert (tmp_path / "data.csv").read_bytes() == f"x_1,outlier\r\n{expected}".encode()

    def test_seeded_batch_is_repr_text(self, tmp_path):
        """150,000 rows over ten blocks: N(0, 1), N(10, 1), random bit
        patterns and random mantissas at every binary exponent of
        [1e-4, 1e15), against repr in one comparison."""
        rng = np.random.default_rng(16)
        exponents = rng.integers(1023 - 14, 1023 + 50, 30_000, dtype=np.uint64) << np.uint64(52)
        normal = np.concatenate([rng.standard_normal(40_000), rng.normal(10.0, 1.0, 40_000)])
        x = np.concatenate([
            normal, rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(float),
            (exponents | rng.integers(0, 2**52, 30_000, dtype=np.uint64)).view(float)])
        rng.shuffle(x)
        labels = rng.random(x.size) < 0.1
        Dataset(points=x, is_outlier=labels).to_csv(tmp_path / "data.csv")
        expected = "".join(f"{v!r},{int(b)}\r\n" for v, b in zip(x.tolist(), labels.tolist()))
        assert (tmp_path / "data.csv").read_bytes() == f"x_1,outlier\r\n{expected}".encode()
        # the digits of nearly all normal draws were made without repr
        assert _shortest(normal)[0].mean() > 0.999

    @staticmethod
    def check(tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
        assert back.points.shape == ds.points.shape
        assert np.array_equal(back.points.view(np.int64), ds.points.view(np.int64))
        assert np.array_equal(back.is_outlier, ds.is_outlier)

        lines = path.read_bytes().decode().split("\r\n")
        d = 1 if ds.points.ndim == 1 else ds.points.shape[1]
        assert lines[0] == ",".join([f"x_{i + 1}" for i in range(d)] + ["outlier"])
        assert lines[-1] == ""  # every row, the last included, ends in \r\n
        rows = ds.points.reshape(ds.n, -1)
        for line, row, label in zip(lines[1:-1], rows, ds.is_outlier, strict=True):
            assert line == ",".join([repr(float(v)) for v in row] + [str(int(label))])
