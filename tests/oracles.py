"""Analytic references the tests compare the package against."""

import numpy as np


def swiss_roll_point(z: np.ndarray) -> np.ndarray:
    """The roll parametrization at latent (xi, eta); rows of a (n, 2) array map to rows."""
    z = np.asarray(z, dtype=np.float64)
    xi, eta = z[..., 0], z[..., 1]
    return np.stack([xi * np.cos(xi), eta, xi * np.sin(xi)], axis=-1)


def swiss_roll_jacobian(z: np.ndarray) -> np.ndarray:
    """Analytic 3x2 tangent map of the roll parametrization."""
    xi, _ = np.asarray(z, dtype=np.float64)
    return np.array(
        [
            [np.cos(xi) - xi * np.sin(xi), 0.0],
            [0.0, 1.0],
            [np.sin(xi) + xi * np.cos(xi), 0.0],
        ]
    )


def disc_grid(resolution: int = 40, radius: float = 2.0) -> np.ndarray:
    """Square grid over [-radius, radius]^2 clipped to the disc."""
    axis = np.linspace(-radius, radius, resolution)
    xx, yy = np.meshgrid(axis, axis)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    return pts[(pts**2).sum(axis=1) <= radius**2 + 1e-12]
