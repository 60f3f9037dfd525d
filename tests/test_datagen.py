import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpdfit.datagen import ContaminationSpec, Dataset, contaminated_sample
from dpdfit.models import IsoNormal, Normal1D, NormalParams


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
        for sd in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="outlier spread"):
                normal_spec(outlier_sd=sd)


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


@st.composite
def datasets(draw):
    """Datasets of either point shape: ``(n,)`` for d = 1, else ``(n, d)``."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 20))
    values = draw(st.lists(DOUBLES, min_size=n * d, max_size=n * d))
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
