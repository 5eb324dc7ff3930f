"""Result container shared by the reconstruction solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

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


@dataclass
class ReconstructionReport:
    """Recovered component plus solver diagnostics.

    recovered: the reconstructed temporal factor or spatial field.
    residual_history: per-iteration data-fidelity residuals (iterative
        solvers) or a single final residual (direct solvers).
    iterations: number of iterations actually performed.
    rel_l2_error: relative L2 error against ground truth when the caller
        supplied one, else None.
    diagnostics: free-form diagnostics (regularization parameters,
        retained mode counts, bound constants; read-only arrays such as the
        interior solve's singular values and filter factors).
    """

    recovered: Union[TimeSeries, SpectralField]
    residual_history: list = field(default_factory=list)
    iterations: int = 0
    rel_l2_error: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)
