import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confae import data, geometry, net

from oracles import disc_grid, swiss_roll_jacobian
from test_net import jvp_rows


def linear_dec(w):
    w = np.asarray(w, dtype=float)
    return net.Mlp([net.Layer(w, np.zeros(w.shape[0]), "identity")])


def swiss_tangent_dec(xi=1.0):
    return linear_dec(swiss_roll_jacobian(np.array([xi, 0.0])))


def metric_at(dec, z):
    """Pullback metric at one code, the Gram matrix of its ``net.jvp`` tangent rows."""
    return net.gram(jvp_rows(dec, z))[0]


def factors_at(dec, codes):
    """Conformal factor at each code, through ``geometry.conformal_field`` with
    an identity encoder, so the samples are the codes."""
    enc = linear_dec(np.eye(codes.shape[1]))
    return geometry.conformal_field(enc, dec, codes, lambda stage: None)[1]


def factor_at(dec, z):
    """Conformal factor at one code."""
    return factors_at(dec, np.atleast_2d(z))[0]


def gated_dec():
    """A tanh decoder whose stretch factor is 0.5 at codes (1000, 0), where
    its first unit saturates, 0 at (1000, 1000), where both do, inf at (0, 0),
    where the first unit's 1e200 output weight squares to an overflow, and
    NaN at (nan, 0)."""
    hidden = net.Layer(np.eye(2), np.zeros(2), "tanh")
    out = net.Layer(np.array([[1e200, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.zeros(3), "identity")
    return net.Mlp([hidden, out])


def codes_with(bad, index):
    """Two blocks and a few codes of ``gated_dec``'s (1000, 0), with ``bad``
    at ``index`` and at the code after it."""
    codes = np.tile([1000.0, 0.0], (geometry.JACOBIAN_BLOCK + 3, 1))
    codes[index : index + 2] = bad
    return codes


class TestPullbackMetric:
    def test_identity_decoder(self):
        dec = linear_dec(np.eye(2))
        assert np.array_equal(metric_at(dec, np.zeros(2)), np.eye(2))

    def test_swiss_roll_tangent_map(self):
        got = metric_at(swiss_tangent_dec(1.0), np.zeros(2))
        assert np.max(np.abs(got - np.diag([2.0, 1.0]))) < 1e-10

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gram_is_psd(self, seed):
        dec = net.init([2, 6, 4], ["tanh", "identity"], seed)
        codes = np.random.default_rng(seed).normal(size=(3, 2))
        vals = np.linalg.eigvalsh(net.gram(jvp_rows(dec, codes)))
        assert np.all(vals >= -1e-10)

    def test_batch_matches_pointwise(self):
        dec = net.init([2, 5, 3], ["relu", "identity"], 1)
        codes = np.random.default_rng(2).normal(size=(6, 2))
        stack = net.gram(jvp_rows(dec, codes))
        for i, z in enumerate(codes):
            assert np.max(np.abs(stack[i] - metric_at(dec, z))) < 1e-12


class TestConformalFactor:
    def test_identity_decoder(self):
        assert factor_at(linear_dec(np.eye(2)), np.zeros(2)) == 1.0

    def test_swiss_roll_point(self):
        got = factor_at(swiss_tangent_dec(1.0), np.zeros(2))
        assert got == pytest.approx(1.5, abs=1e-12)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_scaling_is_quadratic(self, alpha):
        base = factor_at(linear_dec(np.eye(2)), np.zeros(2))
        scaled = factor_at(linear_dec(alpha * np.eye(2)), np.zeros(2))
        assert scaled == pytest.approx(alpha**2 * base, rel=1e-10)

    # the first bad code is named by its index among all samples, in the
    # first block and in the second
    def test_field_rejects_collapsed_values(self):
        for index in (1, geometry.JACOBIAN_BLOCK + 1):
            with pytest.raises(
                ValueError, match=f"strictly positive; value 0.000e.00 at index {index}$"
            ):
                factors_at(gated_dec(), codes_with([1000.0, 1000.0], index))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_field_rejects_non_finite_values(self, bad):
        code = [np.nan, 0.0] if np.isnan(bad) else [0.0, 0.0]
        for index in (1, geometry.JACOBIAN_BLOCK + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(
                    ValueError, match=f"finite and strictly positive; value {bad} at index {index}$"
                ):
                    factors_at(gated_dec(), codes_with(code, index))


def dense_weights(g):
    """Scatter a graph's edge list into its dense symmetric weight matrix."""
    w = np.zeros((g.n, g.n))
    w[g.edge_rows, g.edge_cols] = g.edge_weights
    return w


def dense_laplacian(g):
    w = dense_weights(g)
    return np.diag(w.sum(axis=1)) - w


def dense_reference_graph(codes, k):
    """The original O(n^2) construction, kept as an oracle for the edge list.

    Full-row stable argsort for the neighbors, a dense weight matrix
    symmetrized by max, and the edge list read back with ``np.nonzero``.
    """
    codes = np.asarray(codes, dtype=float)
    n = codes.shape[0]
    d2 = ((codes[:, None, :] - codes[None, :, :]) ** 2).sum(axis=2)
    d2[np.arange(n), np.arange(n)] = np.inf
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    nbr_d2 = np.take_along_axis(d2, order, axis=1)
    h = float(np.median(np.sqrt(nbr_d2[:, k - 1])))
    if h <= 0.0:
        h = 1.0
    w = np.zeros((n, n))
    w[np.repeat(np.arange(n), k), order.ravel()] = np.exp(-nbr_d2.ravel() / h**2)
    w = np.maximum(w, w.T)
    er, ec = np.nonzero(w)
    return h, er, ec, w[er, ec]


def integer_grid(side):
    """Unit-spaced grid: every node has many neighbors at equal distances."""
    xx, yy = np.meshgrid(np.arange(side), np.arange(side))
    return np.column_stack([xx.ravel(), yy.ravel()]).astype(float)


def clusters_with_outliers(rng):
    """Two tight clusters and far, lone outliers that stretch the bounding box."""
    return np.vstack(
        [
            rng.normal(scale=0.05, size=(400, 2)),
            rng.normal(scale=0.05, size=(400, 2)) + [3.0, 3.0],
            [[40.0, 0.0], [0.0, -30.0], [25.0, 25.0], [-20.0, 10.0]],
        ]
    )


def sparse_border(rng, n=1500):
    """A dense core and a few codes along the edges and at the corners of its
    bounding box, whose border tiles have few or no codes near them."""
    t = np.linspace(-3.0, 3.0, 7)
    edges = [np.column_stack([t, np.full(7, side)]) for side in (-3.0, 3.0)]
    edges += [np.column_stack([np.full(5, side), t[1:-1]]) for side in (-3.0, 3.0)]
    return np.vstack([rng.normal(scale=0.4, size=(n, 2)), *edges])


class TestBuildGraph:
    def test_three_collinear_points(self):
        d = 0.7
        codes = np.array([[0.0, 0.0], [d, 0.0], [2 * d, 0.0]])
        g = geometry.build_graph(codes, k=2)
        # median 2nd-neighbor distance: (2d, d, 2d) -> h = 2d
        assert g.bandwidth == pytest.approx(2 * d, abs=1e-15)
        near = math.exp(-(d**2) / g.bandwidth**2)
        far = math.exp(-((2 * d) ** 2) / g.bandwidth**2)
        w = dense_weights(g)
        assert w[0, 1] == pytest.approx(near, abs=1e-15)
        assert w[1, 2] == pytest.approx(near, abs=1e-15)
        assert w[0, 2] == pytest.approx(far, abs=1e-15)
        assert np.max(np.abs(dense_laplacian(g).sum(axis=1))) < 1e-10

    def test_laplacian_annihilates_constants(self):
        codes = np.random.default_rng(3).normal(size=(40, 2))
        g = geometry.build_graph(codes, k=5)
        assert np.max(np.abs(dense_laplacian(g) @ np.ones(40))) < 1e-10
        assert np.array_equal(g.apply_laplacian(np.full(40, 2.5)), np.zeros(40))

    def test_quadratic_form_matches_edge_sum(self):
        rng = np.random.default_rng(4)
        codes = rng.normal(size=(30, 2))
        g = geometry.build_graph(codes, k=4)
        lap, w = dense_laplacian(g), dense_weights(g)
        for _ in range(10):
            x = rng.normal(size=30)
            quad = x @ lap @ x
            iu, ju = np.triu_indices(30, k=1)
            edge_sum = (w[iu, ju] * (x[iu] - x[ju]) ** 2).sum()
            assert abs(quad - edge_sum) < 1e-9 * max(edge_sum, 1.0)
            assert quad >= -1e-9

    def test_weights_are_symmetric_in_unit_interval(self):
        codes = np.random.default_rng(5).normal(size=(25, 2))
        g = geometry.build_graph(codes, k=3)
        w = dense_weights(g)
        assert np.array_equal(w, w.T)
        offdiag = w[w > 0]
        assert offdiag.min() > 0.0 and offdiag.max() <= 1.0

    def test_duplicate_codes_allowed(self):
        codes = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        g = geometry.build_graph(codes, k=1)
        assert dense_weights(g)[0, 1] == 1.0  # distance zero saturates the weight

    def test_too_few_codes_rejected(self):
        with pytest.raises(ValueError):
            geometry.build_graph(np.zeros((3, 2)), k=3)

    def test_apply_matches_dense_laplacian(self):
        codes = np.random.default_rng(6).normal(size=(50, 2))
        g = geometry.build_graph(codes, k=6)
        f = np.random.default_rng(7).normal(size=50)
        assert np.max(np.abs(g.apply_laplacian(f) - dense_laplacian(g) @ f)) < 1e-10

    @pytest.mark.parametrize(
        "codes, k",
        [
            (disc_grid(40, 2.0), 10),
            (integer_grid(12), 6),  # ties at the k-th distance
            (np.repeat(np.random.default_rng(8).normal(size=(15, 2)), 3, axis=0), 4),
            (np.random.default_rng(9).normal(size=(11, 2)), 10),  # n = k + 1
            (np.random.default_rng(10).normal(size=(60, 3)), 5),
            # the outlier's edge weights underflow to zero and are dropped
            (np.vstack([np.random.default_rng(13).normal(size=(30, 2)), [[1e3, 0.0]]]), 4),
            (np.random.default_rng(14).normal(size=(2000, 2)), 10),
            # lone outliers have too few codes near their tile and are searched
            # against all codes
            (clusters_with_outliers(np.random.default_rng(15)), 10),
            (np.column_stack([np.random.default_rng(16).normal(size=500), np.full(500, 3.0)]), 8),
            (np.random.default_rng(17).normal(size=(700, 1)), 6),
            (np.random.default_rng(18).normal(size=(900, 4)), 7),
            (np.vstack([np.zeros((300, 2)), np.random.default_rng(19).normal(size=(200, 2))]), 10),
            (sparse_border(np.random.default_rng(24)), 10),
            # a constant first coordinate puts every code in one row of tiles
            (np.column_stack([np.full(600, -1.0), np.random.default_rng(25).normal(size=600)]), 8),
            (np.random.default_rng(26).normal(size=(3 * geometry._TILE, 2)), 10),
            (np.random.default_rng(27).standard_cauchy(size=(4000, 2)), 10),
        ],
        ids=[
            "disc-grid",
            "integer-grid",
            "duplicates",
            "n-equals-k-plus-1",
            "3d",
            "outlier",
            "normal-2000",
            "clusters-with-outliers",
            "constant-axis",
            "1d",
            "4d",
            "coincident-tile",
            "sparse-border-and-corners",
            "one-tile-wide",
            "between-one-and-four-tiles",
            "cauchy-4000",
        ],
    )
    def test_edge_list_matches_dense_oracle(self, codes, k):
        g = geometry.build_graph(codes, k=k)
        h, er, ec, ew = dense_reference_graph(codes, k)
        assert g.bandwidth == h
        assert np.array_equal(g.edge_rows, er)
        assert np.array_equal(g.edge_cols, ec)
        assert np.array_equal(g.edge_weights, ew)

    @pytest.mark.parametrize(
        "tile, margin",
        [(1, 0.0), (1, 0.25), (1, 3.0), (10**9, 0.0), (10**9, 0.25)],
        ids=["one-code-no-margin", "one-code", "one-code-wide-margin", "one-tile-no-margin", "one-tile"],
    )
    @pytest.mark.parametrize(
        "codes, k",
        [
            (np.random.default_rng(28).normal(size=(300, 2)), 10),
            (integer_grid(12), 6),
            (np.repeat(np.random.default_rng(29).normal(size=(40, 2)), 3, axis=0), 4),
            (np.random.default_rng(30).normal(size=(200, 1)), 6),
            (np.random.default_rng(31).normal(size=(200, 3)), 5),
            (sparse_border(np.random.default_rng(32), n=300), 10),
        ],
        ids=["normal", "integer-grid", "duplicates", "1d", "3d", "sparse-border"],
    )
    def test_exact_for_any_tile_size_and_margin(self, monkeypatch, codes, k, tile, margin):
        # The tile size and margin only move work between the tiled search
        # and the rows searched against all codes; the graph stays the same.
        monkeypatch.setattr(geometry, "_TILE", tile)
        monkeypatch.setattr(geometry, "_MARGIN", margin)
        g = geometry.build_graph(codes, k=k)
        h, er, ec, ew = dense_reference_graph(codes, k)
        assert g.bandwidth == h
        assert np.array_equal(g.edge_rows, er)
        assert np.array_equal(g.edge_cols, ec)
        assert np.array_equal(g.edge_weights, ew)

    def test_search_memory_is_bounded(self):
        # 6000 coincident codes share one tile; an uncapped distance block
        # for it alone would take about 290 MB
        codes = np.vstack([np.zeros((6000, 2)), np.random.default_rng(20).normal(size=(100, 2))])
        tracemalloc.start()
        try:
            geometry.build_graph(codes, k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak

    @pytest.mark.parametrize("outlier", [False, True])
    def test_distance_blocks_share_one_scratch(self, monkeypatch, outlier):
        # With blocks capped below n, well-spread codes form no block of a
        # whole row, so the two arrays every block is built in keep the
        # cap's size and do not grow with n. A lone outlier is searched
        # against all codes, and only then do they grow, to one row.
        codes = np.random.default_rng(23).uniform(size=(3000, 2))
        if outlier:
            codes = np.vstack([codes, [[1.5, 1.5]]])
        want = geometry.build_graph(codes, k=10)
        chunk = 2**10
        monkeypatch.setattr(geometry, "_GRAPH_CHUNK", chunk)
        sizes, held = [], []
        real = geometry._sq_dists

        def spy(queries, cand, scratch):
            d2 = real(queries, cand, scratch)
            assert np.shares_memory(d2, scratch)
            sizes.append(d2.size)
            if not held or held[-1] is not scratch:
                held.append(scratch)
            return d2

        monkeypatch.setattr(geometry, "_sq_dists", spy)
        got = geometry.build_graph(codes, k=10)
        if outlier:
            assert [a.shape[1] for a in held] == [chunk, len(codes)]
            assert max(sizes) == len(codes)
        else:
            assert [a.shape[1] for a in held] == [chunk]
            assert max(sizes) <= chunk
        for name in ("edge_rows", "edge_cols", "edge_weights"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_edge_merge_memory_is_bounded(self):
        # the search peaks at about 8 words per directed edge; the merge of
        # both orientations must stay below 10 (it took 13 while it held
        # the doubled keys, their sort order and the doubled weights at once)
        n, k = 4000, 10
        codes = np.random.default_rng(22).normal(size=(n, 2))
        tracemalloc.start()
        try:
            geometry.build_graph(codes, k=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 8 * n * k, peak

    def test_non_finite_codes_rejected(self):
        codes = np.random.default_rng(21).normal(size=(20, 2))
        codes[7, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            geometry.build_graph(codes, k=3)

    def test_memory_is_linear_in_edges(self):
        n, k = 5000, 10
        g = geometry.build_graph(np.random.default_rng(11).normal(size=(n, 2)), k=k)
        sizes = {name: v.size for name, v in vars(g).items() if isinstance(v, np.ndarray)}
        assert sizes and max(sizes.values()) <= 2 * n * k, sizes


class TestScalarCurvature:
    def test_constant_field_is_exactly_zero(self):
        codes = np.random.default_rng(8).normal(size=(60, 2))
        g = geometry.build_graph(codes, k=6)
        curv = geometry.scalar_curvature(codes, np.full(60, 3.7), g)
        assert np.all(curv.raw == 0.0)
        assert np.all(curv.calibration * curv.raw == 0.0)

    def test_sphere_field_recovers_curvature_two(self):
        codes = disc_grid(40, 2.0)
        g = geometry.build_graph(codes, k=10)
        curv = geometry.scalar_curvature(codes, geometry.stereographic_factor(codes), g)
        med = np.median((curv.calibration * curv.raw)[curv.interior])
        assert abs(med - 2.0) < 0.4

    def test_calibration_transfers_to_other_curvatures(self):
        # Calibrated on the unit sphere field, the pipeline must land near
        # 2 / a^2 for the radius-a field on the same nodes.
        codes = disc_grid(40, 2.0)
        g = geometry.build_graph(codes, k=10)
        a = math.sqrt(2.0)
        curv = geometry.scalar_curvature(codes, geometry.stereographic_factor(codes, radius=a), g)
        med = np.median((curv.calibration * curv.raw)[curv.interior])
        assert abs(med - 1.0) < 0.25

    def test_flat_field_sits_well_below_curved_field(self):
        # log c harmonic (c = exp(2x)) has zero curvature. The discrete
        # estimator carries a stencil-asymmetry noise floor, so the honest
        # claim is discrimination: the flat field's interior median must stay
        # far below the sphere target of 2.
        codes = disc_grid(30, 2.0)
        g = geometry.build_graph(codes, k=10)
        curv = geometry.scalar_curvature(codes, np.exp(2.0 * codes[:, 0]), g)
        med = np.median(np.abs((curv.calibration * curv.raw)[curv.interior]))
        assert med < 1.0

    def test_rejects_non_2d_latents(self):
        codes = np.random.default_rng(9).normal(size=(30, 3))
        g = geometry.build_graph(codes, k=4)
        with pytest.raises(ValueError, match="2-D"):
            geometry.scalar_curvature(codes, np.ones(30), g)

    def test_interior_mask_excludes_margin(self):
        codes = np.array([[0.0, 0.0], [10.0, 10.0], [5.0, 5.0]])
        mask = geometry.interior_mask(codes, bandwidth=1.0)
        assert list(mask) == [False, False, True]


class TestConditionNumbers:
    def test_identity_decoder(self):
        assert geometry.condition_numbers(linear_dec(np.eye(2)), np.zeros(2)) == (1.0, 1.0)

    def test_swiss_roll_point(self):
        kjac, kpbm = geometry.condition_numbers(swiss_tangent_dec(1.0), np.zeros(2))
        assert kjac == pytest.approx(math.sqrt(2.0), rel=1e-10)
        assert kpbm == pytest.approx(2.0, rel=1e-10)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pullback_kappa_is_squared_jacobian_kappa(self, seed):
        dec = net.init([2, 6, 3], ["tanh", "identity"], seed)
        z = np.random.default_rng(seed).normal(size=2)
        kjac, kpbm = geometry.condition_numbers(dec, z)
        assert kpbm == pytest.approx(kjac**2, rel=1e-6)

    def test_rank_deficient_gives_sentinels(self):
        dec = linear_dec(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
        kjac, kpbm = geometry.condition_numbers(dec, np.zeros(2))
        assert math.isinf(kjac) and math.isinf(kpbm)

    def test_zero_jacobian_gives_sentinels(self):
        dec = linear_dec(np.zeros((3, 2)))
        kjac, kpbm = geometry.condition_numbers(dec, np.zeros(2))
        assert math.isinf(kjac) and math.isinf(kpbm)

    def test_rank_one_linear_decoder_gives_sentinels_on_both_paths(self):
        # sigma_min is a rounding residue here, far from an absolute floor
        dec = linear_dec(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
        codes = np.random.default_rng(12).normal(size=(4, 2))
        assert geometry.condition_numbers(dec, codes[0]) == (math.inf, math.inf)
        assert np.all(np.isposinf(geometry.kappa_field(jvp_rows(dec, codes))))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @example(599)  # J differs in its last bits at kappa_jac 7.7e3; the kappas by 1.2e-12
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        dec = net.init([2, 7, 5, 3], ["tanh", "leaky_relu", "identity"], seed)
        codes = rng.normal(size=(9, 2))
        rows = jvp_rows(dec, codes)
        kjac = geometry.kappa_field(rows)
        batch = np.column_stack([kjac, kjac**2])
        eps = np.finfo(np.float64).eps
        for i, z in enumerate(codes):
            point = np.array(geometry.condition_numbers(dec, z))
            jac = net.jacobian(dec, z)
            if np.array_equal(rows[i].T, jac):
                assert np.array_equal(batch[i], point)
                continue
            # A one-row block may round J differently (another GEMM kernel).
            # To first order a change E of J moves kappa_jac by a relative
            # (kappa_jac + 1) |E| / |J|, and kappa_pbm = kappa_jac^2 by twice
            # that; the SVD itself adds a relative kappa_jac * eps.
            sigma = np.linalg.svd(jac, compute_uv=False)
            change = np.linalg.norm(rows[i].T - jac, 2) / sigma[0]
            tol = 4 * (point[0] + 1) * (change + eps)
            gap = np.abs(batch[i] - point) / point
            assert gap[0] <= tol and gap[1] <= 2 * tol, (i, gap, tol)


class TestSummarizeKappa:
    def test_constant_samples(self):
        s = geometry.summarize_kappa([2.0] * 10)
        assert (s["kappa_jac_mean"], s["kappa_jac_std"]) == (2.0, 0.0)

    def test_population_std(self):
        s = geometry.summarize_kappa([1.0, 3.0])
        assert s["kappa_jac_mean"] == 2.0 and s["kappa_jac_std"] == 1.0

    def test_sentinels_excluded_and_counted(self):
        s = geometry.summarize_kappa([1.0, math.inf, 3.0])
        assert s["count"] == 2 and s["excluded"] == 1
        assert s["kappa_jac_mean"] == 2.0
        # kappa_pbm = kappa_jac^2 is derived by a reader, not stored
        assert list(s) == ["kappa_jac_mean", "kappa_jac_std", "count", "excluded"]

    def test_all_sentinels_rejected(self):
        with pytest.raises(ValueError):
            geometry.summarize_kappa([math.inf])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometry.summarize_kappa(np.zeros(0))


class TestDiagnosticsCsv:
    def test_round_trip_with_all_columns(self, tmp_path):
        codes = disc_grid(8, 2.0)
        g = geometry.build_graph(codes, k=4)
        c = geometry.stereographic_factor(codes)
        curv = geometry.scalar_curvature(codes, c, g)
        path = tmp_path / "diag.csv"
        geometry.write_diagnostics_csv(path, codes, c, curv, np.ones(len(codes)))
        cols = geometry.read_diagnostics_csv(path)
        assert list(cols) == ["z1", "z2", "c", "s_raw", "s_calibrated", "interior", "kappa_jac"]
        assert np.array_equal(cols["c"], c)
        assert np.array_equal(cols["s_raw"], curv.raw)

    @pytest.mark.parametrize("with_curvature", [True, False], ids=["inf-kappa", "no-curvature"])
    def test_bytes_match_per_cell_repr(self, tmp_path, with_curvature):
        codes = disc_grid(8, 2.0)
        c = geometry.stereographic_factor(codes)
        kappa = 1.0 + np.random.default_rng(11).random(len(codes))
        kappa[3] = math.inf  # rank-deficient sentinel
        columns = {"z1": codes[:, 0], "z2": codes[:, 1], "c": c}
        curv = None
        if with_curvature:
            curv = geometry.scalar_curvature(codes, c, geometry.build_graph(codes, k=4))
            columns["s_raw"] = curv.raw
            columns["s_calibrated"] = curv.calibration * curv.raw
            columns["interior"] = curv.interior
        columns["kappa_jac"] = kappa
        names = [c for c in ("z1", "z2", *geometry.DIAGNOSTIC_COLUMNS) if c in columns]
        rows = [
            ",".join(repr(float(columns[c][i])) for c in names) for i in range(len(codes))
        ]
        path = tmp_path / "diag.csv"
        geometry.write_diagnostics_csv(path, codes, c, curv, kappa)
        assert path.read_text() == "\n".join([",".join(names), *rows]) + "\n"
        assert "inf" in path.read_text().splitlines()[4]

    @pytest.mark.parametrize("text", ["", "z1,z2\n"], ids=["empty", "header-only"])
    def test_file_without_rows_is_rejected(self, tmp_path, text):
        path = tmp_path / "diag.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="empty diagnostics file"):
            geometry.read_diagnostics_csv(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("z1,z2\n1.0\n")
        with pytest.raises(ValueError, match=":2"):
            geometry.read_diagnostics_csv(path)

    @pytest.mark.parametrize(
        "body,want",
        [("1,2\n\n3,4\n", ":3: expected 2 columns"), ("1,2\n3,x\n", ":3: could not convert")],
        ids=["blank-line", "non-numeric"],
    )
    def test_malformed_body_line_reports_its_number(self, tmp_path, body, want):
        path = tmp_path / "diag.csv"
        path.write_text("z1,z2\n" + body)
        with pytest.raises(ValueError, match=want):
            geometry.read_diagnostics_csv(path)

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    def test_blocks_render_as_one_string(self, tmp_path, extra):
        n = data.CSV_BLOCK + extra
        rng = np.random.default_rng(12)
        codes = rng.normal(size=(n, 2))
        c = np.exp(rng.normal(size=n))
        kappa = 1.0 + rng.random(n)
        kappa[n // 2] = math.inf
        curv = geometry.scalar_curvature(codes, c, geometry.build_graph(codes))
        columns = [codes[:, 0], codes[:, 1], c, curv.raw]
        columns += [curv.calibration * curv.raw, curv.interior, kappa]
        table = np.column_stack(columns).tolist()
        header = ",".join(("z1", "z2", *geometry.DIAGNOSTIC_COLUMNS))
        lines = [header] + [",".join(map(repr, r)) for r in table]
        path = tmp_path / "diag.csv"
        geometry.write_diagnostics_csv(path, codes, c, curv, kappa)
        assert path.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "{path}: empty diagnostics file"),
            ("z1,z2\n \n\n", "{path}: empty diagnostics file"),
            ("z1,z2\n1,2\n3\n", "{path}:3: expected 2 columns, got 1"),
            ("z1,z2\n\n1,2\n", "{path}:2: expected 2 columns, got 1"),
            ("z1,z2\n1,2\n3,x\n", "{path}:3: could not convert string to float: 'x'"),
        ],
        ids=["empty", "blank-body", "short-row", "blank-after-header", "non-numeric"],
    )
    def test_error_messages(self, tmp_path, text, message):
        path = tmp_path / "diag.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            geometry.read_diagnostics_csv(path)
        assert str(exc.value) == message.format(path=path)

    def test_blank_lines_around_the_table_are_ignored(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("\n  \nz1 , z2\n1,2\n3,inf\n\n \n")
        cols = geometry.read_diagnostics_csv(path)
        assert list(cols) == ["z1", "z2"]
        assert np.array_equal(cols["z2"], [2.0, math.inf])
