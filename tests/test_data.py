import numpy as np
import pytest

from confae import data


def ks_statistic(samples, lo, hi):
    """Kolmogorov-Smirnov distance of samples against Uniform(lo, hi)."""
    x = np.sort(samples)
    n = len(x)
    cdf = (x - lo) / (hi - lo)
    upper = np.abs(np.arange(1, n + 1) / n - cdf).max()
    lower = np.abs(np.arange(0, n) / n - cdf).max()
    return max(upper, lower)


class TestSwissRoll:
    def test_exact_trig_point_at_start_of_range(self):
        p = data.swiss_roll_point(np.array([1.5 * np.pi, 0.0]))
        want = np.array([0.0, 0.0, -1.5 * np.pi])
        assert np.max(np.abs(p - want)) < 1e-12

    def test_exact_trig_point_at_two_pi(self):
        p = data.swiss_roll_point(np.array([2 * np.pi, 21.0]))
        want = np.array([2 * np.pi, 21.0, 0.0])
        assert np.max(np.abs(p - want)) < 1e-12

    def test_parametrization_gram_via_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = np.array(
                [rng.uniform(*data.XI_RANGE), rng.uniform(*data.ETA_RANGE)]
            )
            step = 1e-6
            cols = []
            for e in np.eye(2):
                cols.append(
                    (data.swiss_roll_point(z + step * e) - data.swiss_roll_point(z - step * e))
                    / (2 * step)
                )
            j = np.stack(cols, axis=1)
            want = np.diag([1.0 + z[0] ** 2, 1.0])
            assert np.max(np.abs(j.T @ j - want)) < 1e-6

    def test_analytic_jacobian_matches_finite_differences(self):
        z = np.array([3.0, 10.0])
        step = 1e-7
        fd = np.stack(
            [
                (data.swiss_roll_point(z + step * e) - data.swiss_roll_point(z - step * e))
                / (2 * step)
                for e in np.eye(2)
            ],
            axis=1,
        )
        assert np.max(np.abs(data.swiss_roll_jacobian(z) - fd)) < 1e-6

    def test_cylindrical_radius_identity(self):
        ds = data.swiss_roll(500, seed=1)
        r2 = ds.samples[:, 0] ** 2 + ds.samples[:, 2] ** 2
        assert np.max(np.abs(r2 - ds.true_params[:, 0] ** 2)) < 1e-10

    def test_params_within_ranges(self):
        ds = data.swiss_roll(1000, seed=2)
        xi, eta = ds.true_params[:, 0], ds.true_params[:, 1]
        assert xi.min() >= data.XI_RANGE[0] and xi.max() <= data.XI_RANGE[1]
        assert eta.min() >= data.ETA_RANGE[0] and eta.max() <= data.ETA_RANGE[1]

    def test_sampling_is_uniform(self):
        ds = data.swiss_roll(5000, seed=3)
        assert ks_statistic(ds.true_params[:, 0], *data.XI_RANGE) < 0.05
        assert ks_statistic(ds.true_params[:, 1], *data.ETA_RANGE) < 0.05

    def test_deterministic_per_seed(self):
        a = data.swiss_roll(50, seed=4)
        b = data.swiss_roll(50, seed=4)
        assert np.array_equal(a.samples, b.samples)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            data.swiss_roll(0, seed=0)


class TestStandardize:
    def test_two_point_example(self):
        ds = data.Dataset(
            samples=np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]),
            true_params=np.zeros((2, 2)),
        )
        out = data.standardize(ds)
        assert np.allclose(out.samples, [[-1, -1, -1], [1, 1, 1]], atol=1e-15)

    def test_moments_after_standardization(self):
        ds = data.standardize(data.swiss_roll(400, seed=5))
        assert np.max(np.abs(ds.samples.mean(axis=0))) < 1e-9
        assert np.max(np.abs(ds.samples.std(axis=0) - 1.0)) < 1e-9

    def test_idempotent(self):
        once = data.standardize(data.swiss_roll(100, seed=6))
        twice = data.standardize(once)
        assert np.max(np.abs(once.samples - twice.samples)) < 1e-12

    def test_round_trip(self):
        ds = data.swiss_roll(100, seed=7)
        out = data.standardize(ds)
        back = out.samples * out.normalization.std + out.normalization.mean
        assert np.max(np.abs(back - ds.samples)) < 1e-12

    def test_zero_variance_feature_named(self):
        ds = data.Dataset(
            samples=np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
            true_params=np.zeros((2, 2)),
        )
        with pytest.raises(ValueError, match="feature 1"):
            data.standardize(ds)


class TestSplit:
    def test_sizes(self):
        ds = data.swiss_roll(10, seed=8)
        train, val = data.split(ds, 0.2, seed=9)
        assert (len(train), len(val)) == (8, 2)

    def test_deterministic(self):
        ds = data.swiss_roll(30, seed=10)
        a = data.split(ds, 0.3, seed=11)
        b = data.split(ds, 0.3, seed=11)
        assert np.array_equal(a[0].indices, b[0].indices)

    def test_partition_is_disjoint_and_exhaustive(self):
        ds = data.swiss_roll(25, seed=12)
        train, val = data.split(ds, 0.2, seed=13)
        merged = np.sort(np.concatenate([train.indices, val.indices]))
        assert np.array_equal(merged, np.arange(25))

    def test_fraction_bounds(self):
        ds = data.swiss_roll(10, seed=14)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                data.split(ds, bad, seed=0)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        ds = data.swiss_roll(20, seed=15)
        path = tmp_path / "roll.csv"
        data.to_csv(ds, path)
        back = data.from_csv(path)
        assert np.array_equal(back.samples, ds.samples)
        assert np.array_equal(back.true_params, ds.true_params)

    def test_bytes_match_per_cell_repr(self, tmp_path):
        ds = data.swiss_roll(50, seed=17)
        edge = np.array([[-0.0, 1e-300, 1e300], [0.1, -2.5, 3.0]])
        ds = data.Dataset(
            np.vstack([ds.samples, edge]), np.vstack([ds.true_params, edge[:, :2]])
        )
        rows = [
            ",".join(repr(float(v)) for v in (*row, xi, eta))
            for row, (xi, eta) in zip(ds.samples, ds.true_params)
        ]
        path = tmp_path / "roll.csv"
        data.to_csv(ds, path)
        assert path.read_text() == "\n".join([data.CSV_HEADER, *rows]) + "\n"

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            data.from_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(data.CSV_HEADER + "\n1,2,3\n")
        with pytest.raises(ValueError, match=":2"):
            data.from_csv(path)

    @pytest.mark.parametrize(
        "rows,lineno",
        [
            (["1,2,3,4,5", "1,2,3", "6,7,8,9,10"], 3),
            (["1,2,3,4,5", "6,7,8,9,10", "1,2,3,4,5,6"], 4),
            (["1,2,3,4,5", "", "6,7,8,9,10"], 3),
        ],
        ids=["short-middle-row", "long-last-row", "blank-middle-line"],
    )
    def test_malformed_row_in_the_body_reports_its_line(self, tmp_path, rows, lineno):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([data.CSV_HEADER, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"bad.csv:{lineno}: expected 5 columns"):
            data.from_csv(path)

    def test_trailing_blank_lines_are_ignored(self, tmp_path):
        ds = data.swiss_roll(7, seed=16)
        path = tmp_path / "roll.csv"
        data.to_csv(ds, path)
        path.write_text(path.read_text() + "\n\n")
        back = data.from_csv(path)
        assert np.array_equal(back.samples, ds.samples)
        assert np.array_equal(back.true_params, ds.true_params)

    @pytest.mark.parametrize("body", ["", "1,2,3,4,x\n"], ids=["no-rows", "non-numeric"])
    def test_unparsable_body_is_a_value_error(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(data.CSV_HEADER + "\n" + body)
        with pytest.raises(ValueError, match="bad.csv"):
            data.from_csv(path)
