"""Sine eigenbasis of the Dirichlet Laplacian on an interval (0, L).

Spatial functions are carried as coefficient vectors against the
orthonormal eigenfunctions phi_n(x) = sqrt(2/L) sin(n pi x / L) with
eigenvalues lambda_n = (n pi / L)^2.  Fractional-power norms weight
mode n by lambda_n^gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracops import _count

__all__ = [
    "Domain1D",
    "SpectralField",
    "eval_at",
    "sobolev_norm",
    "project",
    "simpson_weights",
]


@dataclass(frozen=True)
class Domain1D:
    """Interval (0, length) with the first n_modes Dirichlet sine modes."""

    length: float
    n_modes: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError(f"length must be positive, got {self.length}")
        object.__setattr__(self, "n_modes", _count("n_modes", self.n_modes, 1))

    def eigenvalues(self) -> np.ndarray:
        n = np.arange(1, self.n_modes + 1, dtype=float)
        return (n * math.pi / self.length) ** 2

    def eigenfunctions(self, x) -> np.ndarray:
        """Matrix phi_n(x_i) of shape (n_modes, len(x))."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        n = np.arange(1, self.n_modes + 1, dtype=float)[:, None]
        return math.sqrt(2.0 / self.length) * np.sin(n * math.pi * xs[None, :] / self.length)

    def mesh(self, n_points: int) -> np.ndarray:
        return np.linspace(0.0, self.length, n_points)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Spatial function stored by its eigenbasis coefficients (f, phi_n)."""

    domain: Domain1D
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.shape[0] != self.domain.n_modes:
            raise ValueError(
                f"coeffs must be a vector of length {self.domain.n_modes}, "
                f"got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", c)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def eval_at(f: SpectralField, x: float) -> float:
    """Pointwise synthesis sum(coeffs_n phi_n(x)); exact for band-limited f."""
    if not (0.0 <= x <= f.domain.length):
        raise ValueError(f"x must lie in [0, {f.domain.length}], got {x}")
    return float(f.coeffs @ f.domain.eigenfunctions(x)[:, 0])


def eval_on_mesh(f: SpectralField, xs: np.ndarray) -> np.ndarray:
    """Vectorized synthesis on a mesh of points inside [0, L]."""
    return f.coeffs @ f.domain.eigenfunctions(xs)


def sobolev_norm(f: SpectralField, gamma: float) -> float:
    """Norm of the fractional power space: (sum |lambda_n^gamma c_n|^2)^(1/2)."""
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    lam = f.domain.eigenvalues()
    return float(np.linalg.norm(lam**gamma * f.coeffs))


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    """Composite Simpson weights on a uniform mesh of n_points nodes.

    An odd interval count is handled by the 3/8 rule on the last three
    intervals, keeping fourth-order accuracy.
    """
    if n_points < 4:
        raise ValueError(f"need at least 4 mesh points, got {n_points}")
    n_int = n_points - 1
    w = np.zeros(n_points)
    if n_int % 2 == 0:
        m = n_points
    else:
        m = n_points - 3
        w[-4:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    # plain Simpson on the leading even run of intervals
    if m >= 3:
        w[0] += h / 3.0
        w[m - 1] += h / 3.0
        w[1 : m - 1 : 2] += 4.0 * h / 3.0
        w[2 : m - 1 : 2] += 2.0 * h / 3.0
    return w


def project(samples, domain: Domain1D) -> SpectralField:
    """Quadrature analysis of uniform-mesh samples into the sine basis.

    `samples` are values on linspace(0, L, len(samples)) including the
    endpoints.  Simpson quadrature is used; band-limited fields round-trip
    through eval/project to quadrature tolerance.
    """
    vals = np.asarray(samples, dtype=float)
    if vals.ndim != 1:
        raise ValueError("samples must be a 1-D array of mesh values")
    interior = vals.shape[0] - 2
    if interior < 2 * domain.n_modes + 1:
        raise ValueError(
            f"mesh too coarse: {interior} interior points for "
            f"{domain.n_modes} modes (need >= {2 * domain.n_modes + 1})"
        )
    h = domain.length / (vals.shape[0] - 1)
    w = simpson_weights(vals.shape[0], h)
    phi = domain.eigenfunctions(np.linspace(0.0, domain.length, vals.shape[0]))
    return SpectralField(domain, phi @ (w * vals))
