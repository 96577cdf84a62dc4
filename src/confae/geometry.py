"""Post-training geometry diagnostics on the latent space.

Pipeline: pullback metric of the decoder -> pointwise stretch factor
(trace / latent dim) -> kNN graph Laplacian over the codes -> discrete
scalar curvature of the stretch field -> condition-number maps.

The raw graph Laplacian ``L = D - W`` only approximates the continuous
Laplacian up to a node-dependent negative scale, so curvature comes in three
flavors: ``raw`` (the bare array ``-(1/c) L log c``), ``normalized`` (raw
rescaled by its max magnitude, for plots), and ``calibrated`` (raw times a
single global constant chosen so that an analytic constant-curvature field
evaluated on the same nodes comes out at its known value).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg, net

# Entries of the squared-distance block built per chunk of the kNN search.
_GRAPH_CHUNK = 2**20


@dataclass
class ConformalField:
    """Pointwise stretch factor of a decoder over a set of latent codes."""

    codes: np.ndarray  # (n, m)
    values: np.ndarray  # (n,), strictly positive
    normalized: np.ndarray  # min-max rescaled copy

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any(self.values <= 0.0):
            bad = int(np.argmin(self.values))
            raise ValueError(
                f"conformal factor must be strictly positive; value {self.values[bad]:.3e} "
                f"at index {bad}"
            )

    @classmethod
    def from_values(cls, codes: np.ndarray, values: np.ndarray) -> "ConformalField":
        values = np.asarray(values, dtype=np.float64)
        return cls(codes=codes, values=values, normalized=_minmax(values))


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


@dataclass
class LatentGraph:
    """Symmetric kNN graph over latent codes with exponential edge weights.

    Stored as a directed edge list holding both orientations of every edge,
    sorted by (row, col), so memory is O(n k) rather than O(n^2).
    """

    n: int
    k: int
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
    codes: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray  # raw / max |raw|
    interior: np.ndarray  # bool mask, nodes away from the bounding box
    calibrated: np.ndarray | None = None
    calibration: float | None = None


@dataclass
class KappaSummary:
    mean_jac: float
    std_jac: float
    mean_pbm: float
    std_pbm: float
    count: int
    excluded: int

    def to_dict(self) -> dict:
        return {
            "kappa_jac_mean": self.mean_jac,
            "kappa_jac_std": self.std_jac,
            "kappa_pbm_mean": self.mean_pbm,
            "kappa_pbm_std": self.std_pbm,
            "count": self.count,
            "excluded": self.excluded,
        }


def pullback_metric(dec: net.Mlp, z: np.ndarray) -> np.ndarray:
    """Gram matrix J^T J of the decoder Jacobian at one code."""
    j = net.jacobian(dec, z)
    return j.T @ j


def pullback_metrics(jacobians: np.ndarray) -> np.ndarray:
    """(n, m, m) stack of pullback metrics J^T J from a ``net.jacobians`` stack."""
    return net.gram(jacobians.transpose(0, 2, 1))  # row k of block p = J_p e_k


def conformal_factor(dec: net.Mlp, z: np.ndarray) -> float:
    """Mean eigenvalue of the pullback metric: trace over latent dimension."""
    return linalg.trace(pullback_metric(dec, z)) / dec.in_dim


def conformal_field(codes: np.ndarray, jacobians: np.ndarray) -> ConformalField:
    """Stretch factor at every code from the decoder's ``net.jacobians`` stack there."""
    codes = np.asarray(codes, dtype=np.float64)
    values = np.einsum("pkk->p", pullback_metrics(jacobians)) / jacobians.shape[2]
    return ConformalField(codes=codes, values=values, normalized=_minmax(values))


def _nearest(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and squared distances of the k nearest other codes of each code.

    Ties are broken by index, as a stable sort of each distance row would.
    Distances are summed coordinate by coordinate, the order numpy's
    ``sum(axis=-1)`` uses for fewer than 8 coordinates.
    """
    n, m = codes.shape
    nbr_idx = np.empty((n, k), dtype=np.int64)
    nbr_d2 = np.empty((n, k))
    chunk = max(1, _GRAPH_CHUNK // n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = codes[start:stop]
        d2 = (block[:, 0, None] - codes[None, :, 0]) ** 2
        for col in range(1, m):
            d2 += (block[:, col, None] - codes[None, :, col]) ** 2
        rows = np.arange(stop - start)
        d2[rows, np.arange(start, stop)] = np.inf  # no self loops
        part = np.argpartition(d2, k, axis=1)
        idx = part[:, :k]
        near = np.take_along_axis(d2, idx, axis=1)
        # When the (k+1)-th distance ties the k-th, the partition may have
        # kept a higher index than the stable order would; redo those rows.
        tied = near.max(axis=1) == d2[rows, part[:, k]]
        for r in np.flatnonzero(tied):
            # Only codes within the k-th distance can enter; they come in
            # index order, so a stable sort of them is the (distance, index) order.
            cand = np.flatnonzero(d2[r] <= near[r].max())
            idx[r] = cand[np.argsort(d2[r, cand], kind="stable")[:k]]
            near[r] = d2[r, idx[r]]
        nbr_idx[start:stop] = idx
        nbr_d2[start:stop] = near
    return nbr_idx, nbr_d2


def build_graph(codes: np.ndarray, k: int = 10, bandwidth: float | None = None) -> LatentGraph:
    """Mutual-max symmetrized kNN graph with weights exp(-d^2 / h^2).

    ``bandwidth=None`` picks h as the median distance to the k-th neighbor.
    Neighbor ties are broken by index so construction is deterministic.
    """
    codes = np.asarray(codes, dtype=np.float64)
    n = codes.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} codes for k={k}, got {n}")

    nbr_idx, nbr_d2 = _nearest(codes, k)
    if bandwidth is None:
        h = float(np.median(np.sqrt(nbr_d2.max(axis=1))))
        if h <= 0.0:
            h = 1.0  # all duplicate codes; weights saturate at 1 regardless
    else:
        h = float(bandwidth)
        if h <= 0.0:
            raise ValueError("bandwidth must be positive")

    # Both orientations of every directed kNN edge, merged by max in
    # (row, col) order; edges whose weight underflows to zero are dropped.
    w = np.exp(-nbr_d2.ravel() / h**2)
    rows = np.repeat(np.arange(n), k)
    cols = nbr_idx.ravel()
    keys = np.concatenate([rows * n + cols, cols * n + rows])
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    weights = np.maximum.reduceat(np.concatenate([w, w])[order], starts)
    keys = keys[starts]
    keep = weights != 0.0
    keys = keys[keep]
    return LatentGraph(
        n=n,
        k=k,
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


def disc_grid(resolution: int = 40, radius: float = 2.0) -> np.ndarray:
    """Square grid over [-radius, radius]^2 clipped to the disc."""
    axis = np.linspace(-radius, radius, resolution)
    xx, yy = np.meshgrid(axis, axis)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    return pts[(pts**2).sum(axis=1) <= radius**2 + 1e-12]


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


def scalar_curvature(
    field: ConformalField, graph: LatentGraph, *, calibrate: bool = True
) -> CurvatureField:
    """Discrete scalar curvature -(1/c) L log c of a 2-D conformal field."""
    if field.codes.shape[1] != 2:
        raise ValueError(
            f"curvature is computed for 2-D latent spaces, got dimension {field.codes.shape[1]}"
        )
    if field.codes.shape[0] != graph.n:
        raise ValueError("field and graph disagree on the number of nodes")
    raw = _raw_curvature(field.values, graph)
    peak = np.abs(raw).max()
    normalized = raw / peak if peak > 0.0 else np.zeros_like(raw)
    interior = interior_mask(field.codes, graph.bandwidth)
    calibrated = gamma = None
    if calibrate:
        gamma = calibration_scale(graph, field.codes, interior)
        calibrated = gamma * raw
    return CurvatureField(
        codes=field.codes,
        raw=raw,
        normalized=normalized,
        interior=interior,
        calibrated=calibrated,
        calibration=gamma,
    )


def kappa_field(jacobians: np.ndarray) -> np.ndarray:
    """(n, 2) array of (kappa of the Jacobian, kappa of the pullback metric).

    Takes a ``net.jacobians`` stack. kappa_jac comes from one batched SVD and
    kappa_pbm = kappa_jac^2 is the exact condition number of J^T J.
    Numerically rank-deficient Jacobians, the zero Jacobian included, yield
    infinite sentinels rather than errors.
    """
    kjac = linalg.condition_numbers(jacobians)
    return np.column_stack([kjac, kjac**2])


def condition_numbers(dec: net.Mlp, z: np.ndarray) -> tuple[float, float]:
    """(kappa of the Jacobian, kappa of the pullback metric) at one code."""
    kjac, kpbm = kappa_field(net.jacobian(dec, z)[None])[0]
    return float(kjac), float(kpbm)


def summarize_kappa(samples) -> KappaSummary:
    """Mean and population standard deviation per condition number.

    Infinite sentinels are excluded and counted; an all-sentinel input is an
    error.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("expected a nonempty list of (kappa_jac, kappa_pbm) pairs")
    finite = np.all(np.isfinite(arr), axis=1)
    excluded = int((~finite).sum())
    kept = arr[finite]
    if kept.shape[0] == 0:
        raise ValueError("all condition numbers are infinite sentinels")
    return KappaSummary(
        mean_jac=float(kept[:, 0].mean()),
        std_jac=float(kept[:, 0].std()),
        mean_pbm=float(kept[:, 1].mean()),
        std_pbm=float(kept[:, 1].std()),
        count=int(kept.shape[0]),
        excluded=excluded,
    )


DIAGNOSTIC_COLUMNS = (
    "z1",
    "z2",
    "c",
    "c_normalized",
    "s_raw",
    "s_normalized",
    "s_calibrated",
    "interior",
    "kappa_jac",
    "kappa_pbm",
)


def write_diagnostics_csv(
    path: str | Path,
    field: ConformalField,
    curvature: CurvatureField | None = None,
    kappas: np.ndarray | None = None,
) -> None:
    """One row per code; curvature or kappa columns are omitted when absent."""
    columns: dict[str, np.ndarray] = {
        "z1": field.codes[:, 0],
        "z2": field.codes[:, 1],
        "c": field.values,
        "c_normalized": field.normalized,
    }
    if curvature is not None:
        columns["s_raw"] = curvature.raw
        columns["s_normalized"] = curvature.normalized
        if curvature.calibrated is not None:
            columns["s_calibrated"] = curvature.calibrated
        columns["interior"] = curvature.interior.astype(np.float64)
    if kappas is not None:
        kappas = np.asarray(kappas, dtype=np.float64)
        columns["kappa_jac"] = kappas[:, 0]
        columns["kappa_pbm"] = kappas[:, 1]
    names = [c for c in DIAGNOSTIC_COLUMNS if c in columns]
    table = np.column_stack([columns[c] for c in names]).tolist()
    lines = [",".join(names)] + [",".join(map(repr, row)) for row in table]
    Path(path).write_text("\n".join(lines) + "\n")


def read_diagnostics_csv(path: str | Path) -> dict[str, np.ndarray]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty diagnostics file")
    names = [c.strip() for c in lines[0].split(",")]
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(names):
            raise ValueError(
                f"{path}:{lineno}: expected {len(names)} columns, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    data = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(names)))
    return {name: data[:, i] for i, name in enumerate(names)}
