import os
import tracemalloc

import numpy as np
import pytest

from confae import data

from oracles import swiss_roll_jacobian, swiss_roll_point


def ks_statistic(samples, lo, hi):
    """Kolmogorov-Smirnov distance of samples against Uniform(lo, hi)."""
    x = np.sort(samples)
    n = len(x)
    cdf = (x - lo) / (hi - lo)
    upper = np.abs(np.arange(1, n + 1) / n - cdf).max()
    lower = np.abs(np.arange(0, n) / n - cdf).max()
    return max(upper, lower)


class _FixedDraws:
    """Stands in for the roll's generator: each ``uniform`` call returns the next draw."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def uniform(self, lo, hi, size):
        return np.full(size, self.draws.pop(0))


def roll_at(monkeypatch, xi, eta):
    """``data.swiss_roll(1, ...)`` with its one latent drawn as (xi, eta)."""
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraws(xi, eta))
    return data.swiss_roll(1, seed=0)


def assert_round_trip(path, roll):
    """``from_csv`` gives back the samples, and the file's table holds them beside their latents."""
    assert np.array_equal(data.from_csv(path), roll[0])
    _, table = data.read_csv(path, data.CSV_HEADER)
    assert np.array_equal(table, np.column_stack(roll))


class TestSwissRoll:
    def test_exact_trig_point_at_start_of_range(self, monkeypatch):
        samples, params = roll_at(monkeypatch, 1.5 * np.pi, 0.0)
        want = np.array([[0.0, 0.0, -1.5 * np.pi]])
        assert np.max(np.abs(samples - want)) < 1e-12
        assert np.max(np.abs(swiss_roll_point(params) - want)) < 1e-12

    def test_exact_trig_point_at_two_pi(self, monkeypatch):
        samples, params = roll_at(monkeypatch, 2 * np.pi, 21.0)
        want = np.array([[2 * np.pi, 21.0, 0.0]])
        assert np.max(np.abs(samples - want)) < 1e-12
        assert np.max(np.abs(swiss_roll_point(params) - want)) < 1e-12

    def test_samples_are_the_parametrization_of_their_latents(self):
        samples, params = data.swiss_roll(500, seed=1)
        assert samples.shape == (500, 3) and params.shape == (500, 2)
        assert np.max(np.abs(samples - swiss_roll_point(params))) < 1e-12

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
                    (swiss_roll_point(z + step * e) - swiss_roll_point(z - step * e))
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
                (swiss_roll_point(z + step * e) - swiss_roll_point(z - step * e))
                / (2 * step)
                for e in np.eye(2)
            ],
            axis=1,
        )
        assert np.max(np.abs(swiss_roll_jacobian(z) - fd)) < 1e-6

    def test_cylindrical_radius_identity(self):
        samples, params = data.swiss_roll(500, seed=1)
        r2 = samples[:, 0] ** 2 + samples[:, 2] ** 2
        assert np.max(np.abs(r2 - params[:, 0] ** 2)) < 1e-10

    def test_params_within_ranges(self):
        xi, eta = data.swiss_roll(1000, seed=2)[1].T
        assert xi.min() >= data.XI_RANGE[0] and xi.max() <= data.XI_RANGE[1]
        assert eta.min() >= data.ETA_RANGE[0] and eta.max() <= data.ETA_RANGE[1]

    def test_sampling_is_uniform(self):
        xi, eta = data.swiss_roll(5000, seed=3)[1].T
        assert ks_statistic(xi, *data.XI_RANGE) < 0.05
        assert ks_statistic(eta, *data.ETA_RANGE) < 0.05

    def test_deterministic_per_seed(self):
        a = data.swiss_roll(50, seed=4)
        b = data.swiss_roll(50, seed=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            data.swiss_roll(0, seed=0)


class TestStandardize:
    def test_two_point_example(self):
        out = data.standardize(np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]))
        assert np.allclose(out, [[-1, -1, -1], [1, 1, 1]], atol=1e-15)

    def test_moments_after_standardization(self):
        samples = data.standardize(data.swiss_roll(400, seed=5)[0])
        assert np.max(np.abs(samples.mean(axis=0))) < 1e-9
        assert np.max(np.abs(samples.std(axis=0) - 1.0)) < 1e-9

    def test_idempotent(self):
        once = data.standardize(data.swiss_roll(100, seed=6)[0])
        twice = data.standardize(once)
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_round_trip(self):
        samples = data.swiss_roll(100, seed=7)[0]
        kept = samples.copy()
        out = data.standardize(samples)
        back = out * samples.std(axis=0) + samples.mean(axis=0)
        assert np.max(np.abs(back - samples)) < 1e-12
        assert np.array_equal(samples, kept)  # the input is left as it was

    def test_zero_variance_feature_named(self):
        with pytest.raises(ValueError, match="feature 1"):
            data.standardize(np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]))


class TestSplit:
    def test_sizes(self):
        train, val = data.split(data.swiss_roll(10, seed=8)[0], 0.2, seed=9)
        assert (len(train), len(val)) == (8, 2)

    def test_deterministic(self):
        # each row is a sample beside its latents
        rows = np.column_stack(data.swiss_roll(30, seed=10))
        a = data.split(rows, 0.3, seed=11)
        b = data.split(rows, 0.3, seed=11)
        for part_a, part_b in zip(a, b):
            assert np.array_equal(part_a, part_b)

    def test_partition_is_disjoint_and_exhaustive(self):
        samples, params = data.swiss_roll(25, seed=12)
        train, val = data.split(np.column_stack([samples, params]), 0.2, seed=13)
        # every source row, sample beside its latents, lands in exactly one part
        rows = np.unique(np.column_stack([samples, params]), axis=0)
        merged = np.concatenate([train, val])
        assert len(rows) == len(merged) == 25
        assert np.array_equal(np.unique(merged, axis=0), rows)
        # the samples alone split by the same rows
        parts = data.split(samples, 0.2, seed=13)
        assert all(np.array_equal(p, q[:, :3]) for p, q in zip(parts, (train, val)))

    def test_fraction_bounds(self):
        samples = data.swiss_roll(10, seed=14)[0]
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                data.split(samples, bad, seed=0)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        roll = data.swiss_roll(20, seed=15)
        path = tmp_path / "roll.csv"
        data.to_csv(roll, path)
        assert_round_trip(path, roll)

    def test_bytes_match_per_cell_repr(self, tmp_path):
        samples, params = data.swiss_roll(50, seed=17)
        edge = np.array([[-0.0, 1e-300, 1e300], [0.1, -2.5, 3.0]])
        samples, params = np.vstack([samples, edge]), np.vstack([params, edge[:, :2]])
        rows = [
            ",".join(repr(float(v)) for v in (*row, xi, eta))
            for row, (xi, eta) in zip(samples, params)
        ]
        path = tmp_path / "roll.csv"
        data.to_csv((samples, params), path)
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
        roll = data.swiss_roll(7, seed=16)
        path = tmp_path / "roll.csv"
        data.to_csv(roll, path)
        path.write_text(path.read_text() + "\n\n")
        assert_round_trip(path, roll)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_its_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"{data.CSV_HEADER}\n1,2,3,4,5\n6,7,{cell},9,10\n")
        with pytest.raises(ValueError, match=f"bad.csv:3: non-finite value {cell} in column 3"):
            data.from_csv(path)

    @pytest.mark.parametrize("body", ["", "1,2,3,4,x\n"], ids=["no-rows", "non-numeric"])
    def test_unparsable_body_is_a_value_error(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(data.CSV_HEADER + "\n" + body)
        with pytest.raises(ValueError, match="bad.csv"):
            data.from_csv(path)

    @pytest.mark.parametrize("n", [data.CSV_BLOCK - 1, data.CSV_BLOCK, data.CSV_BLOCK + 1])
    def test_blocks_render_as_one_string(self, tmp_path, n):
        roll = data.swiss_roll(n, seed=18)
        table = np.column_stack(roll).tolist()
        lines = [data.CSV_HEADER] + [",".join(map(repr, row)) for row in table]
        path = tmp_path / "roll.csv"
        data.to_csv(roll, path)
        assert path.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "expected header 'x,y,z,xi,eta' in {path}"),
            ("a,b,c\n1,2,3\n", "expected header 'x,y,z,xi,eta' in {path}"),
            ("x,y,z,xi,eta\n\n", "{path}: no data rows"),
            ("x,y,z,xi,eta\n1,2,3,4,5\n1,2,3\n", "{path}:3: expected 5 columns, got 3"),
            ("x,y,z,xi,eta\n\n1,2,3,4,5\n", "{path}:2: expected 5 columns, got 1"),
            ("x,y,z,xi,eta\n1,2,3,4,5\n  \n1,2,3,4,5\n", "{path}:3: expected 5 columns, got 1"),
            (
                "x,y,z,xi,eta\n1,2,3,4,5\n1,2,x,4,5\n",
                "{path}:3: could not convert string to float: 'x'",
            ),
            ("x,y,z,xi,eta\n1,2,3,4,5\n1,2,3,nan,5\n", "{path}:3: non-finite value nan in column 4"),
            ("x,y,z,xi,eta\n \t\n1,2,3,4,5\n", "{path}:2: expected 5 columns, got 1"),
            (
                "x,y,z,xi,eta\n1,x,3,4,5\n1,2,3,4,5\n",
                "{path}:2: could not convert string to float: 'x'",
            ),
            (
                "x,y,z,xi,eta\n1,2,3,4,5\n1,2,3,4,5\n1,2,3,4,z\n\n",
                "{path}:4: could not convert string to float: 'z'",
            ),
            ("x,y,z,xi,eta\n1,2,3,4,5\n1,2,3,4", "{path}:3: expected 5 columns, got 4"),
        ],
        ids=[
            "empty",
            "wrong-header",
            "header-only",
            "short-row",
            "blank-after-header",
            "whitespace-line",
            "non-numeric",
            "non-finite",
            "whitespace-first-line",
            "non-numeric-first-line",
            "non-numeric-last-line",
            "short-last-line-without-newline",
        ],
    )
    def test_error_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            data.from_csv(path)
        assert str(exc.value) == message.format(path=path)

    @pytest.mark.parametrize("chunk", [1, 25, data.CSV_READ_CHUNK], ids=lambda c: f"chunk{c}")
    @pytest.mark.parametrize("at", [0, 2, 3, 4, 7], ids=lambda i: f"row{i}")
    @pytest.mark.parametrize(
        "defect", ["", " \t", "\n\n", "1,2,x,4,5"], ids=["blank", "whitespace", "three-blank", "non-numeric"]
    )
    def test_defects_across_read_chunks(self, monkeypatch, tmp_path, chunk, at, defect):
        # Row `at` of eight 10-character rows is replaced by the defect. With
        # chunks of 25 characters the first chunk ends after row 2, or after
        # row 3 when a blank line shortens it; with 1 every row ends one, and
        # a blank line shares a chunk with the line after it. A blank defect
        # in the last row is trailing and ignored.
        monkeypatch.setattr(data, "CSV_READ_CHUNK", chunk)
        rows = [f"{i},2,3,4,5" for i in range(8)]
        rows[at] = defect
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([data.CSV_HEADER, *rows]) + "\n")
        if not defect.strip():
            if at == len(rows) - 1:
                assert np.array_equal(data.from_csv(path)[:, 0], np.arange(7.0))
                return
            message = f"{path}:{at + 2}: expected 5 columns, got 1"
        else:
            message = f"{path}:{at + 2}: could not convert string to float: 'x'"
        with pytest.raises(ValueError) as exc:
            data.from_csv(path)
        assert str(exc.value) == message

    def test_blank_lines_around_the_table_are_ignored(self, tmp_path):
        roll = data.swiss_roll(7, seed=19)
        path = tmp_path / "roll.csv"
        data.to_csv(roll, path)
        path.write_text("\n \n" + path.read_text() + "\n  \n\t\n")
        assert_round_trip(path, roll)

    def test_round_trip_does_not_hold_the_text(self, tmp_path):
        # the text of 20000 rows takes about 2 MB, its list of lines twice that
        roll = data.swiss_roll(20000, seed=20)
        path = tmp_path / "roll.csv"
        tracemalloc.start()
        try:
            data.to_csv(roll, path)
            written = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            data.from_csv(path)
            read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written < 2**20, written
        assert read < 2 * 2**20, read


class TestWriteAtomic:
    def test_pieces_are_written_in_order(self, tmp_path):
        path = tmp_path / "out.txt"
        data.write_atomic(path, iter(["a", "b\n", "", "c\n"]))
        assert path.read_text() == "ab\nc\n"

    def test_failing_pieces_keep_the_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("before\n")

        def pieces():
            yield "partial\n"
            raise RuntimeError("rendering failed")

        with pytest.raises(RuntimeError, match="rendering failed"):
            data.write_atomic(path, pieces())
        assert path.read_text() == "before\n"
        assert os.listdir(tmp_path) == ["out.txt"]
