"""Swiss-roll generation, standardization, splits, CSV round trips, atomic writes.

The roll is sampled on the rectangle [3*pi/2, 9*pi/2] x [0, 21] with the
scikit-learn parametrization (xi*cos(xi), eta, xi*sin(xi)), without
observation noise. All randomness is seeded and reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

XI_RANGE = (1.5 * np.pi, 4.5 * np.pi)
ETA_RANGE = (0.0, 21.0)

CSV_HEADER = "x,y,z,xi,eta"


@dataclass
class Normalization:
    mean: np.ndarray
    std: np.ndarray

    def apply(self, samples: np.ndarray) -> np.ndarray:
        return (samples - self.mean) / self.std


@dataclass
class Dataset:
    samples: np.ndarray  # (n, 3)
    true_params: np.ndarray  # (n, 2) ground-truth (xi, eta)
    normalization: Normalization | None = None
    indices: np.ndarray | None = None  # positions in the source dataset, if split

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.true_params = np.asarray(self.true_params, dtype=np.float64)
        if len(self.samples) != len(self.true_params):
            raise ValueError("samples and true_params disagree in length")

    def __len__(self) -> int:
        return len(self.samples)


def swiss_roll(n: int, seed: int) -> Dataset:
    """Sample n points uniformly over the latent rectangle, noise-free."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    xi = rng.uniform(*XI_RANGE, size=n)
    eta = rng.uniform(*ETA_RANGE, size=n)
    samples = np.column_stack([xi * np.cos(xi), eta, xi * np.sin(xi)])
    return Dataset(samples=samples, true_params=np.column_stack([xi, eta]))


def standardize(ds: Dataset) -> Dataset:
    """Per-feature (x - mean) / std with the population (1/N) deviation."""
    if len(ds) < 2:
        raise ValueError("standardization needs at least two samples")
    mean = ds.samples.mean(axis=0)
    std = ds.samples.std(axis=0)
    for i, s in enumerate(std):
        if s <= 0.0:
            raise ValueError(f"feature {i} has zero variance")
    norm = Normalization(mean=mean, std=std)
    return Dataset(
        samples=norm.apply(ds.samples),
        true_params=ds.true_params.copy(),
        normalization=norm,
        indices=None if ds.indices is None else ds.indices.copy(),
    )


def is_standardized(ds: Dataset, tol: float = 1e-6) -> bool:
    mean = np.abs(ds.samples.mean(axis=0)).max()
    std = np.abs(ds.samples.std(axis=0) - 1.0).max()
    return mean < tol and std < tol


def split(ds: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then a disjoint exhaustive train/validation partition."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie strictly between 0 and 1")
    n = len(ds)
    n_val = int(round(n * val_fraction))
    n_val = min(max(n_val, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    def take(idx):
        return Dataset(
            samples=ds.samples[idx],
            true_params=ds.true_params[idx],
            normalization=ds.normalization,
            indices=idx.copy(),
        )

    return take(train_idx), take(val_idx)


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` atomically: a temp file in the target directory, then ``os.replace``.

    Every artifact file is written through here (``metrics.jsonl`` then grows
    by appends). A failed write removes the temp file, leaves an existing file
    at ``path`` as it was and re-raises.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def to_csv(ds: Dataset, path: str | Path) -> None:
    # one row of Python floats at a time: as fast as one whole-table
    # ``tolist()``, without holding every row's list at once
    table = np.column_stack([ds.samples, ds.true_params])
    lines = [CSV_HEADER] + [",".join(map(repr, row.tolist())) for row in table]
    write_atomic(path, "\n".join(lines) + "\n")


def require_columns(path, body: list[str], n: int) -> None:
    """Raise ``ValueError("{path}:{line}: ...")`` at the first body line that is not n numbers.

    ``body`` holds the lines after the header, so its first line is line 2.
    """
    for lineno, line in enumerate(body, start=2):
        cells = line.split(",")
        if len(cells) != n:
            raise ValueError(f"{path}:{lineno}: expected {n} columns, got {len(cells)}")
        for cell in cells:
            try:
                float(cell)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None


def from_csv(path: str | Path) -> Dataset:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ValueError(f"expected header '{CSV_HEADER}' in {path}")
    body = lines[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    try:
        arr = np.loadtxt(body, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        require_columns(path, body, 5)
        raise ValueError(f"{path}: {exc}") from exc
    # loadtxt skips blank lines, so a short table also means a malformed row
    if arr.shape != (len(body), 5):
        require_columns(path, body, 5)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        row, col = bad[0]
        value = float(arr[row, col])
        raise ValueError(f"{path}:{row + 2}: non-finite value {value} in column {col + 1}")
    return Dataset(samples=arr[:, :3], true_params=arr[:, 3:])
