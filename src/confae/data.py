"""Swiss-roll generation, standardization, splits, CSV round trips, atomic writes.

CSV files are streamed both ways: written ``CSV_BLOCK`` rows at a time and
read in chunks of about ``CSV_READ_CHUNK`` characters of whole lines, so
neither direction holds the whole text.

The roll is sampled on the rectangle [3*pi/2, 9*pi/2] x [0, 21] with the
scikit-learn parametrization (xi*cos(xi), eta, xi*sin(xi)), without
observation noise. All randomness is seeded and reproducible.

Samples are plain (n, 3) float arrays. :func:`swiss_roll` returns them with
their (n, 2) latents (xi, eta), which only the CSV file keeps: no consumer of
the samples reads them.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterable
from pathlib import Path

import numpy as np

XI_RANGE = (1.5 * np.pi, 4.5 * np.pi)
ETA_RANGE = (0.0, 21.0)

CSV_HEADER = "x,y,z,xi,eta"
# Rows per block that a CSV writer renders and writes at once.
CSV_BLOCK = 512
# Characters of lines per chunk that a CSV reader takes from the file at once.
CSV_READ_CHUNK = 2**16
# Largest |mean| and |std - 1| of a feature that :func:`is_standardized` accepts.
STANDARDIZED_TOL = 1e-6


def swiss_roll(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(samples, params)``: n points sampled uniformly over the latent
    rectangle, noise-free, as the (n, 3) samples and their (n, 2) latents
    (xi, eta)."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    xi = rng.uniform(*XI_RANGE, size=n)
    eta = rng.uniform(*ETA_RANGE, size=n)
    samples = np.column_stack([xi * np.cos(xi), eta, xi * np.sin(xi)])
    return samples, np.column_stack([xi, eta])


def standardize(samples: np.ndarray) -> np.ndarray:
    """Per-feature (x - mean) / std with the population (1/N) deviation."""
    if len(samples) < 2:
        raise ValueError("standardization needs at least two samples")
    mean = samples.mean(axis=0)
    std = samples.std(axis=0)
    for i, s in enumerate(std):
        if s <= 0.0:
            raise ValueError(f"feature {i} has zero variance")
    return (samples - mean) / std


def is_standardized(samples: np.ndarray) -> bool:
    mean = np.abs(samples.mean(axis=0)).max()
    std = np.abs(samples.std(axis=0) - 1.0).max()
    return mean < STANDARDIZED_TOL and std < STANDARDIZED_TOL


def split(rows: np.ndarray, val_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle of the rows, then a disjoint exhaustive train/validation partition."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie strictly between 0 and 1")
    n = len(rows)
    n_val = int(round(n * val_fraction))
    n_val = min(max(n_val, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    return rows[perm[n_val:]], rows[perm[:n_val]]


def write_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or an iterable of pieces, atomically.

    The pieces go to a temp file in the target directory, then ``os.replace``
    moves it onto ``path``. Every artifact file is written through here
    (``metrics.jsonl`` then grows by appends). A failed write, or an error
    raised while the pieces are produced, removes the temp file, leaves an
    existing file at ``path`` as it was and re-raises.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: str, columns: list[np.ndarray]) -> None:
    """``header``, then one line per row of the side-by-side ``columns``, each float its ``repr``.

    ``columns`` are 1-D or 2-D arrays of equal length, stacked as by
    ``np.column_stack``. Rows are stacked, rendered and written ``CSV_BLOCK``
    at a time, so only one block's table and text are held.
    """

    def blocks():
        yield header + "\n"
        for start in range(0, len(columns[0]), CSV_BLOCK):
            rows = np.column_stack([c[start : start + CSV_BLOCK] for c in columns]).tolist()
            yield "\n".join([",".join(map(repr, row)) for row in rows]) + "\n"

    write_atomic(path, blocks())


def to_csv(roll: tuple[np.ndarray, np.ndarray], path: str | Path) -> None:
    """Write :func:`swiss_roll`'s ``(samples, params)`` pair, one row per sample."""
    write_csv(path, CSV_HEADER, list(roll))


class _Body:
    """The lines of an open CSV file after its header, streamed in chunks.

    Blank lines before the header and after the last row are skipped, as if
    the file's text were stripped; ``header`` is the first other line,
    stripped, and ``count``, once the lines are exhausted, the number of
    body lines yielded.

    Lines come from ``readlines`` chunks of about ``CSV_READ_CHUNK``
    characters, chained, so no Python step runs per line. A chunk is tested
    for whitespace-only lines at C level; only a chunk that holds one is
    scanned line by line, for the blank lines at its end, which are held
    until a later row shows they are inside the body.
    """

    def __init__(self, f):
        self._f = f
        self.header = next((line.strip() for line in f if not line.isspace()), "")
        self.count = 0

    def __iter__(self):
        return itertools.chain.from_iterable(self._chunks())

    def _chunks(self):
        blank, count = [], 0
        while lines := self._f.readlines(CSV_READ_CHUNK):
            count += len(lines)
            end = len(lines)
            if any(map(str.isspace, lines)):
                while end and lines[end - 1].isspace():
                    end -= 1
            if end:
                yield blank
                yield lines[:end]
                blank = []
            blank += lines[end:]
        self.count = count - len(blank)


def _name_bad_line(path: Path, n: int) -> None:
    """Raise ``ValueError("{path}:{line}: ...")`` at the first body line that is not n numbers.

    The header is line 1, as if blank lines before it were not there.
    """
    with open(path) as f:
        for lineno, line in enumerate(_Body(f), start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != n:
                raise ValueError(f"{path}:{lineno}: expected {n} columns, got {len(cells)}")
            for cell in cells:
                try:
                    float(cell)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None


def read_csv(path: str | Path, header: str | None = None) -> tuple[list[str], np.ndarray]:
    """Column names and (rows, columns) float table of a CSV file with one header line.

    ``header``, when given, is the header line the file must have. The body
    streams from the open file into ``np.loadtxt`` in ``readlines`` chunks
    (see :class:`_Body`), with no Python step per line; a malformed line is
    named by a second, line-by-line pass. A file without rows gives a table
    of zero rows and, without a header either, no names.
    """
    path = Path(path)
    with open(path) as f:
        body = _Body(f)
        if header is not None and body.header != header:
            raise ValueError(f"expected header '{header}' in {path}")
        names = [c.strip() for c in body.header.split(",")] if body.header else []
        rows = iter(body)
        first = next(rows, None)
        if first is None:
            return names, np.empty((0, len(names)))
        try:
            table = np.loadtxt(
                itertools.chain([first], rows),
                dtype=np.float64,
                delimiter=",",
                comments=None,
                ndmin=2,
            )
        except ValueError as exc:
            _name_bad_line(path, len(names))
            raise ValueError(f"{path}: {exc}") from exc
    # loadtxt skips empty lines, so a table of another shape has a malformed line
    if table.shape != (body.count, len(names)):
        _name_bad_line(path, len(names))
    return names, table


def from_csv(path: str | Path) -> np.ndarray:
    """The (n, 3) samples of a roll CSV file; its latent columns are checked, not kept."""
    _, arr = read_csv(path, CSV_HEADER)
    if not len(arr):
        raise ValueError(f"{path}: no data rows")
    if not np.isfinite(arr).all():
        row, col = np.argwhere(~np.isfinite(arr))[0]
        value = float(arr[row, col])
        raise ValueError(f"{path}:{row + 2}: non-finite value {value} in column {col + 1}")
    return arr[:, :3]
