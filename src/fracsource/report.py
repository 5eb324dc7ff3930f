"""Result container and stopping scan shared by the reconstruction solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .fracops import TimeSeries
from .spectral import SpectralField


def relative_l2(recovered, truth, skip_first: int = 0) -> float:
    """Relative Euclidean error, optionally skipping leading entries.

    Temporal reconstructions skip node 0, where the discrete operators
    carry no information by convention.
    """
    def unwrap(obj):
        if isinstance(obj, TimeSeries):
            return obj.values
        if isinstance(obj, SpectralField):
            return obj.coeffs
        return obj

    a = np.asarray(unwrap(recovered), dtype=float)[skip_first:]
    b = np.asarray(unwrap(truth), dtype=float)[skip_first:]
    denom = float(np.linalg.norm(b))
    if denom == 0.0:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(a - b)) / denom


def third_rises(values: np.ndarray, history: list) -> np.ndarray:
    """Flags of the entries of `values` that are the third rise in a row.

    The tail of `history`, the values of earlier blocks, counts, so a scan
    block by block flags what one scan of the whole sequence would.
    """
    ext = np.concatenate((([math.inf] * 3 + history[-3:])[-3:], values))
    rising = ext[1:] > ext[:-1]
    return rising[2:] & rising[1:-1] & rising[:-2]


def first_index(flags: np.ndarray) -> int:
    """Index of the first set flag, or flags.size when none is set."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else flags.size


@dataclass
class ReconstructionReport:
    """Recovered component plus solver diagnostics.

    recovered: the reconstructed temporal factor or spatial field.
    residual_history: per-iteration data-fidelity residuals (iterative
        solvers) or a single final residual (direct solvers).
    iterations: number of iterations actually performed.
    diagnostics: free-form diagnostics (regularization parameters,
        retained mode counts, bound constants; read-only arrays such as the
        interior solve's singular values and filter factors).
    """

    recovered: Union[TimeSeries, SpectralField]
    residual_history: list = field(default_factory=list)
    iterations: int = 0
    diagnostics: dict = field(default_factory=dict)
