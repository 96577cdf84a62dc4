"""Post-training geometry diagnostics on the latent space.

Pipeline: encode the samples in blocks -> pullback metric of the decoder
at each block's codes -> pointwise stretch factor (trace / latent dim) and
condition numbers -> kNN graph Laplacian over the codes -> discrete scalar
curvature of the stretch field.

The kNN search is exact and tiled: each code is searched among the codes
near its tile of a grid, taken from the neighboring tiles as runs of the
tile-sorted codes, and only rows that check cannot prove exact are
searched against all codes. It returns the neighbors a full distance row
would, ties included, and the graph is an edge list, so memory is O(n k)
plus a distance block of at most ``_GRAPH_CHUNK`` = 2^16 entries (512 KiB)
and one coordinate's terms, two arrays that every block is built in. Each
row is searched on its own, so the block size does not change the graph.

The raw graph Laplacian ``L = D - W`` only approximates the continuous
Laplacian up to a node-dependent negative scale, so curvature comes raw (the
bare array ``-(1/c) L log c``) and calibrated: raw times a single global
constant chosen so that an analytic constant-curvature field evaluated on the
same nodes comes out at its known value.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data, linalg, net

# Samples per block of the decoder sweep: only one block's encoder outputs
# and JVP tape are held at a time.
JACOBIAN_BLOCK = 512
# Entries of the largest squared-distance block the kNN search builds
# (512 KiB of float64).
_GRAPH_CHUNK = 2**16
# Codes per tile of the kNN search's grid, on average over the bounding box.
_TILE = 128
# Tile widths by which the kNN search grows a tile's bounding box.
_MARGIN = 0.25


@dataclass
class LatentGraph:
    """Symmetric kNN graph over latent codes with exponential edge weights.

    Stored as a directed edge list holding both orientations of every edge,
    sorted by (row, col), so memory is O(n k) rather than O(n^2).
    """

    n: int
    bandwidth: float
    edge_rows: np.ndarray  # (E,) int64, nondecreasing
    edge_cols: np.ndarray  # (E,) int64, increasing within a row
    edge_weights: np.ndarray  # (E,) in (0, 1]

    def apply_laplacian(self, f: np.ndarray) -> np.ndarray:
        """(L f)_i = sum_j w_ij (f_i - f_j) for the graph Laplacian L = D - W.

        The difference form is exactly zero on constant inputs and better
        conditioned on smooth ones than a product with an assembled L.
        """
        f = np.asarray(f, dtype=np.float64)
        contrib = self.edge_weights * (f[self.edge_rows] - f[self.edge_cols])
        return np.bincount(self.edge_rows, weights=contrib, minlength=self.n)


@dataclass
class CurvatureField:
    raw: np.ndarray
    interior: np.ndarray  # bool mask, nodes away from the bounding box
    calibration: float  # calibrated curvature is calibration * raw


def conformal_factor(rows: np.ndarray) -> np.ndarray:
    """Stretch factor trace(J^T J) / m at each code, from a (B, m, out) stack
    of tangent rows of ``net.jvp``.

    Row k of block p is ``J_p e_k``, so the block's Gram matrix is the
    pullback metric ``J_p^T J_p``. Each entry depends on its own block only,
    so a stack may be reduced block by block.
    """
    return np.einsum("pkk->p", net.gram(rows)) / rows.shape[1]


def conformal_field(enc: net.Mlp, dec: net.Mlp, samples: np.ndarray, lap):
    """The codes of ``samples``, the decoder's stretch factor c there and the
    condition number kappa_jac of its Jacobian: (n, m), (n,) and (n,) arrays.

    The samples are taken ``JACOBIAN_BLOCK`` at a time: each block is encoded,
    its Jacobians are the tangent rows of one ``net.jvp`` at its codes, and
    they are reduced to its c and kappa before the next block. The encoder
    and the JVP write into one set of block buffers that every block reuses,
    so memory does not grow with the samples beyond each code, its c and its
    kappa. ``lap`` is called after each block's ``encode``, ``jacobians``
    and ``conformal_kappa`` stages. A c that is not finite and strictly
    positive is a ``ValueError`` naming the first such code.
    """
    n = samples.shape[0]
    codes, values, kappa = np.empty((n, dec.in_dim)), np.empty(n), np.empty(n)
    buffers = {}
    for start in range(0, n, JACOBIAN_BLOCK):
        block = slice(start, start + JACOBIAN_BLOCK)
        z = codes[block]
        z[:] = net.forward(enc, samples[block], buffers)
        lap("encode")
        rows = net.jvp(dec, z, buffers).jv
        lap("jacobians")
        c = values[block] = conformal_factor(rows)
        bad = np.flatnonzero(~(np.isfinite(c) & (c > 0.0)))
        if bad.size:
            raise ValueError(
                "conformal factor must be finite and strictly positive; value "
                f"{c[bad[0]]:.3e} at index {start + bad[0]}"
            )
        kappa[block] = kappa_field(rows)
        lap("conformal_kappa")
    return codes, values, kappa


def _sq_dists(queries: np.ndarray, codes: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Squared distances, summed coordinate by coordinate.

    That is the order numpy's ``sum(axis=-1)`` uses for fewer than 8
    coordinates, so the values match a dense ``((a - b) ** 2).sum(-1)``.
    The block is built in place in the leading entries of ``scratch[0]``,
    with ``scratch[1]`` holding one coordinate's terms, and returned as a
    view there.
    """
    shape = (queries.shape[0], codes.shape[0])
    d2, term = (row[: shape[0] * shape[1]].reshape(shape) for row in scratch)
    np.square(np.subtract(queries[:, 0, None], codes[None, :, 0], out=d2), out=d2)
    for col in range(1, codes.shape[1]):
        d2 += np.square(np.subtract(queries[:, col, None], codes[None, :, col], out=term), out=term)
    return d2


def _smallest(d2: np.ndarray, cols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest entries of each row of ``d2``, ties broken by index.

    ``cols`` holds the increasing code indices behind the columns, so column
    order is index order and a stable sort of a row is its (distance, index)
    order. Returns code indices and squared distances, each (rows, k).
    """
    rows = np.arange(d2.shape[0])
    part = np.argpartition(d2, k, axis=1)
    idx = part[:, :k]
    near = np.take_along_axis(d2, idx, axis=1)
    # When the (k+1)-th distance ties the k-th, the partition may have
    # kept a higher index than the stable order would; redo those rows.
    tied = near.max(axis=1) == d2[rows, part[:, k]]
    for r in np.flatnonzero(tied):
        # Only codes within the k-th distance can enter, in index order.
        cand = np.flatnonzero(d2[r] <= near[r].max())
        idx[r] = cand[np.argsort(d2[r, cand], kind="stable")[:k]]
        near[r] = d2[r, idx[r]]
    return cols[idx], near


def _nearest(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and squared distances of the k nearest other codes of each code.

    Exact, with ties broken by index as a stable sort of each full distance
    row would. The codes are bucketed on a grid over their first two
    coordinates, about ``_TILE`` codes per tile, and sorted by tile. A tile's
    codes are searched among the candidates in its bounding box grown by
    ``_MARGIN`` tile widths. Those lie in the tiles that the box's corners
    fall in and the tiles between them (the 3 x 3 tiles around it, unless
    rounding says otherwise): a code's tile is monotone in its coordinates,
    so no code of the box lies outside that range. Each row of that range is
    a contiguous run of the tile-sorted codes, found by ``searchsorted``.

    A row is kept only if its k-th squared distance is below the squared
    distance to the nearest face of the grown box that has codes beyond it:
    rounding is monotone, so every code outside that face then computes to a
    strictly larger distance, and none can be nearer or tie. The other rows
    are searched against all codes. No distance block holds more than
    ``_GRAPH_CHUNK`` entries, or one row when there are more candidates, and
    every block is built in the same two arrays. They hold ``_GRAPH_CHUNK``
    entries (fewer for fewer than 256 codes) and grow only for such a row.
    """
    n, m = codes.shape
    scratch = np.empty((2, min(_GRAPH_CHUNK, n * n)))
    nbr_idx = np.empty((n, k), dtype=np.int64)
    nbr_d2 = np.empty((n, k))
    grid = codes[:, : min(m, 2)]
    lo, hi = grid.min(axis=0), grid.max(axis=0)
    cells = max(1, round((n / _TILE) ** (1 / grid.shape[1])))
    width = (hi - lo) / cells

    def tile(points: np.ndarray) -> np.ndarray:
        """(row, column) tile of each point; a 1-D grid is one row of tiles."""
        cell = np.divide(points - lo, width, out=np.zeros_like(points), where=width > 0)
        cell = np.clip(cell.astype(np.int64), 0, cells - 1)
        return cell if cell.shape[1] == 2 else np.column_stack([np.zeros_like(cell), cell])

    cell = tile(grid)
    key = cell[:, 0] * cells + cell[:, 1]
    order = np.argsort(key, kind="stable")  # index order within each tile
    key = key[order]
    bounds = np.r_[0, np.flatnonzero(np.diff(key)) + 1, n]
    box_lo = np.minimum.reduceat(grid[order], bounds[:-1], axis=0) - _MARGIN * width
    box_hi = np.maximum.reduceat(grid[order], bounds[:-1], axis=0) + _MARGIN * width
    first, last = tile(box_lo), tile(box_hi)

    redo = []
    for t, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        members = order[a:b]
        # One run of the tile-sorted codes per row of tiles that the box spans.
        rows = np.arange(first[t, 0], last[t, 0] + 1) * cells
        starts = np.searchsorted(key, rows + first[t, 1], side="left")
        ends = np.searchsorted(key, rows + last[t, 1], side="right")
        pool = np.concatenate([order[i:j] for i, j in zip(starts, ends)])
        inside = np.all((grid[pool] >= box_lo[t]) & (grid[pool] <= box_hi[t]), axis=1)
        cand = np.sort(pool[inside])
        if cand.size <= k:
            redo.append(members)
            continue
        if cand.size > scratch.shape[1]:
            scratch = np.empty((2, cand.size))
        step = max(1, _GRAPH_CHUNK // cand.size)
        for s in range(0, members.size, step):
            queries = members[s : s + step]
            d2 = _sq_dists(codes[queries], codes[cand], scratch)
            d2[np.arange(queries.size), np.searchsorted(cand, queries)] = np.inf
            idx, near = _smallest(d2, cand, k)
            nbr_idx[queries] = idx
            nbr_d2[queries] = near
            if cand.size < n:
                q = grid[queries]
                gap = np.minimum(
                    np.where(box_lo[t] > lo, q - box_lo[t], np.inf),
                    np.where(box_hi[t] < hi, box_hi[t] - q, np.inf),
                ).min(axis=1)
                redo.append(queries[near.max(axis=1) >= gap**2])

    redo = np.concatenate(redo) if redo else np.empty(0, dtype=np.int64)
    everyone = np.arange(n)
    if redo.size and n > scratch.shape[1]:
        scratch = np.empty((2, n))
    chunk = max(1, _GRAPH_CHUNK // n)
    for s in range(0, redo.size, chunk):
        queries = redo[s : s + chunk]
        d2 = _sq_dists(codes[queries], codes, scratch)
        d2[np.arange(queries.size), queries] = np.inf  # no self loops
        nbr_idx[queries], nbr_d2[queries] = _smallest(d2, everyone, k)
    return nbr_idx, nbr_d2


def build_graph(codes: np.ndarray, k: int = 10) -> LatentGraph:
    """Symmetrized kNN graph with weights exp(-d^2 / h^2): codes i and j are
    linked when either is among the other's k nearest.

    The bandwidth h is the median distance to the k-th neighbor. Neighbor
    ties are broken by index so construction is deterministic.
    """
    codes = np.asarray(codes, dtype=np.float64)
    n = codes.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} codes for k={k}, got {n}")
    if not np.all(np.isfinite(codes)):
        raise ValueError("codes must be finite")

    nbr_idx, nbr_d2 = _nearest(codes, k)
    h = float(np.median(np.sqrt(nbr_d2.max(axis=1))))
    if h <= 0.0:
        h = 1.0  # all duplicate codes; weights saturate at 1 regardless

    # Both orientations of every directed kNN edge as row * n + col keys,
    # merged in key order. An edge found from both ends has bit-equal
    # squared distances, since _sq_dists computes (x_i - x_j)^2 and
    # (x_j - x_i)^2 alike, so the merge keeps the first of each key. Edges
    # whose weight underflows to zero are dropped.
    rows, nk = np.arange(n)[:, None], nbr_idx.size
    keys = np.concatenate([(rows * n + nbr_idx).ravel(), (nbr_idx * n + rows).ravel()])
    del nbr_idx
    order = np.argsort(keys)
    keys = keys[order]
    first = np.r_[True, keys[1:] != keys[:-1]]
    keys = keys[first]
    order = order[first]
    weights = np.exp(-nbr_d2.ravel()[order % nk] / h**2)
    del order, nbr_d2
    keep = weights != 0.0
    keys = keys[keep]
    return LatentGraph(
        n=n,
        bandwidth=h,
        edge_rows=keys // n,
        edge_cols=keys % n,
        edge_weights=weights[keep],
    )


def interior_mask(codes: np.ndarray, bandwidth: float) -> np.ndarray:
    """Nodes at least one bandwidth away from the bounding box of all codes."""
    codes = np.asarray(codes, dtype=np.float64)
    lo = codes.min(axis=0) + bandwidth
    hi = codes.max(axis=0) - bandwidth
    return np.all((codes >= lo) & (codes <= hi), axis=1)


def stereographic_factor(codes: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Stretch field of the radius-a sphere under stereographic coordinates.

    The metric ``c(z) g_eucl(2)`` with c = 4 a^4 / (a^2 + |z|^2)^2 has
    constant scalar curvature 2 / a^2: the analytic calibration target.
    """
    r2 = (np.asarray(codes, dtype=np.float64) ** 2).sum(axis=1)
    return 4.0 * radius**4 / (radius**2 + r2) ** 2


def _raw_curvature(values: np.ndarray, graph: LatentGraph) -> np.ndarray:
    return -graph.apply_laplacian(np.log(values)) / values


def calibration_scale(graph: LatentGraph, codes: np.ndarray, interior: np.ndarray) -> float:
    """Global factor mapping raw curvature estimates to physical units.

    Evaluates the constant-curvature sphere field on the same nodes (affinely
    transported onto them, which rescales its known curvature by the square
    of the map) and matches the median interior estimate to that target.
    """
    codes = np.asarray(codes, dtype=np.float64)
    center = codes.mean(axis=0)
    spread = np.linalg.norm(codes - center, axis=1).max()
    if spread <= 0.0:
        raise ValueError("cannot calibrate on coincident codes")
    scale = 2.0 / spread
    transported = scale * (codes - center)
    target = 2.0 * scale**2
    raw = _raw_curvature(stereographic_factor(transported), graph)
    basis = raw[interior] if interior.any() else raw
    med = float(np.median(basis))
    if med == 0.0:
        raise ValueError("degenerate calibration: median raw curvature is zero")
    return target / med


def scalar_curvature(codes: np.ndarray, c: np.ndarray, graph: LatentGraph) -> CurvatureField:
    """Discrete scalar curvature -(1/c) L log c of the stretch factor ``c``
    at 2-D ``codes``, the nodes of ``graph``."""
    if codes.shape[1] != 2:
        raise ValueError(
            f"curvature is computed for 2-D latent spaces, got dimension {codes.shape[1]}"
        )
    if codes.shape[0] != graph.n:
        raise ValueError("field and graph disagree on the number of nodes")
    raw = _raw_curvature(c, graph)
    interior = interior_mask(codes, graph.bandwidth)
    return CurvatureField(raw, interior, calibration_scale(graph, codes, interior))


def kappa_field(rows: np.ndarray) -> np.ndarray:
    """(n,) condition numbers kappa_jac of the Jacobians.

    Takes a (B, m, out) stack of tangent rows of ``net.jvp``; each block's
    transpose is its (out, m) Jacobian, and one batched SVD gives them all.
    The pullback metric J^T J has the exact condition number kappa_jac^2, so
    readers square it where they need it. Numerically rank-deficient
    Jacobians, the zero Jacobian included, yield infinite sentinels rather
    than errors.
    """
    return linalg.condition_numbers(rows.transpose(0, 2, 1))


def condition_numbers(dec: net.Mlp, z: np.ndarray) -> tuple[float, float]:
    """(kappa of the Jacobian, kappa of the pullback metric) at one code."""
    kjac = float(kappa_field(net.jacobian(dec, z).T[None])[0])
    # x * x, as an array's kjac**2 computes it; a scalar power can round differently
    return kjac, kjac * kjac


def summarize_kappa(kappa) -> dict:
    """Mean and population standard deviation of kappa_jac.

    Returns the ``kappa_jac_mean``, ``kappa_jac_std``, ``count`` and
    ``excluded`` entries of ``kappa_summary.json``; the pullback metric's
    kappa_jac^2 is not stored. Infinite sentinels are excluded and counted; an
    all-sentinel input is an error.
    """
    arr = np.asarray(kappa, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty vector of kappa_jac values")
    finite = np.isfinite(arr)
    kept = arr[finite]
    if kept.size == 0:
        raise ValueError("all condition numbers are infinite sentinels")
    return {
        "kappa_jac_mean": float(kept.mean()),
        "kappa_jac_std": float(kept.std()),
        "count": int(kept.size),
        "excluded": int((~finite).sum()),
    }


# The columns after the latent coordinates z1..zm, in file order.
DIAGNOSTIC_COLUMNS = ("c", "s_raw", "s_calibrated", "interior", "kappa_jac")


def write_diagnostics_csv(
    path: str | Path,
    codes: np.ndarray,
    c: np.ndarray,
    curvature: CurvatureField | None,
    kappa: np.ndarray,
) -> None:
    """One row per code: its m latent coordinates z1..zm, then the
    ``DIAGNOSTIC_COLUMNS``; the curvature columns are omitted when
    ``curvature`` is None."""
    latent = {f"z{i + 1}": codes[:, i] for i in range(codes.shape[1])}
    columns: dict[str, np.ndarray] = {"c": c, "kappa_jac": kappa}
    if curvature is not None:
        columns["s_raw"] = curvature.raw
        columns["s_calibrated"] = curvature.calibration * curvature.raw
        columns["interior"] = curvature.interior.astype(np.float64)
    columns = latent | {name: columns[name] for name in DIAGNOSTIC_COLUMNS if name in columns}
    data.write_csv(path, ",".join(columns), list(columns.values()))


def read_diagnostics_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Columns of a ``write_diagnostics_csv`` file by name; a file without rows is an error."""
    names, table = data.read_csv(path)
    if not len(table):
        raise ValueError(f"{path}: empty diagnostics file")
    return {name: table[:, i] for i, name in enumerate(names)}
