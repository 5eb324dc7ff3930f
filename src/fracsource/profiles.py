"""Built-in spatial and temporal source profiles for experiments."""

from __future__ import annotations

import math

import numpy as np

from .fracops import TimeGrid, TimeSeries, _count
from .spectral import Domain1D, SpectralField, project

__all__ = ["G_PROFILES", "RHO_PROFILES", "make_g", "make_rho"]


def _sample_mesh(domain: Domain1D) -> np.ndarray:
    """The mesh of at least 4N + 1 and 257 points that profiles are sampled on."""
    return domain.mesh(max(4 * domain.n_modes + 1, 257))


def _sampled_field(domain: Domain1D, func) -> SpectralField:
    return project(func(_sample_mesh(domain)), domain)


def _g_mode(domain: Domain1D, k: int = 1, amplitude: float = 1.0) -> SpectralField:
    """Single eigenmode phi_k."""
    _count("mode index k", k, 1, domain.n_modes)
    coeffs = np.zeros(domain.n_modes)
    coeffs[k - 1] = amplitude
    return SpectralField(domain, coeffs)


def _g_sine_bump(domain: Domain1D, amplitude: float = 1.0) -> SpectralField:
    """Positive band-limited bump sin(pi x / L)^3 (modes 1 and 3 only)."""
    L = domain.length
    return _sampled_field(domain, lambda xs: amplitude * np.sin(math.pi * xs / L) ** 3)


def _g_hat(domain: Domain1D, amplitude: float = 1.0) -> SpectralField:
    """Triangular peak at the midpoint, 1 - |2x/L - 1|."""
    L = domain.length
    return _sampled_field(domain, lambda xs: amplitude * (1.0 - np.abs(2.0 * xs / L - 1.0)))


def _g_offset_bump(
    domain: Domain1D,
    center_frac: float = 0.7,
    width_frac: float = 0.4,
    amplitude: float = 1.0,
) -> SpectralField:
    """Smooth compactly supported bump away from the midpoint.

    Supported on (center - width/2, center + width/2); useful for
    observation points or windows disjoint from the source support.
    """
    if not (0.0 < width_frac and 0.0 < center_frac < 1.0):
        raise ValueError("center_frac must lie in (0, 1) and width_frac be positive")
    L = domain.length
    c = center_frac * L
    half = width_frac * L / 2.0

    def func(xs):
        y = (xs - c) / half
        out = np.zeros_like(xs)
        inside = np.abs(y) < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - y[inside] ** 2))
        return out

    return _sampled_field(domain, func)


def _rho_constant(grid: TimeGrid, value: float = 1.0) -> TimeSeries:
    return TimeSeries(grid, np.full(grid.n_steps + 1, float(value)))


def _rho_affine(grid: TimeGrid, intercept: float = 1.0, slope: float = 1.0) -> TimeSeries:
    return TimeSeries(grid, intercept + slope * grid.nodes())


def _rho_sine(grid: TimeGrid, freq: float = 1.0, amplitude: float = 1.0) -> TimeSeries:
    """amplitude * sin(freq * pi * t / T)."""
    t = grid.nodes()
    return TimeSeries(grid, amplitude * np.sin(freq * math.pi * t / grid.total_time))


def _rho_alternating(grid: TimeGrid, lobes: int = 4, offset: float = 0.0) -> TimeSeries:
    """Sign-alternating factor sin(lobes * pi * t / T) + offset (lobes - 1 sign changes)."""
    t = grid.nodes()
    return TimeSeries(grid, np.sin(lobes * math.pi * t / grid.total_time) + offset)


G_PROFILES = {
    "mode_k": _g_mode,
    "sine_bump": _g_sine_bump,
    "hat": _g_hat,
    "offset_bump": _g_offset_bump,
}

RHO_PROFILES = {
    "constant": _rho_constant,
    "affine": _rho_affine,
    "sine": _rho_sine,
    "alternating": _rho_alternating,
}


def make_g(domain: Domain1D, profile: str, **params) -> SpectralField:
    if profile not in G_PROFILES:
        raise ValueError(f"unknown g profile {profile!r}; options: {sorted(G_PROFILES)}")
    return G_PROFILES[profile](domain, **params)


def make_rho(grid: TimeGrid, profile: str, **params) -> TimeSeries:
    if profile not in RHO_PROFILES:
        raise ValueError(f"unknown rho profile {profile!r}; options: {sorted(RHO_PROFILES)}")
    rho = RHO_PROFILES[profile](grid, **params)
    if not np.all(np.isfinite(rho.values)):
        raise ValueError("rho values must be finite")
    return rho
