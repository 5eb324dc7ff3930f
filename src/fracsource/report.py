"""Result container, stopping scan and set-up memo shared by the reconstruction solvers.

A set-up (the operator an inverse problem reuses across re-solves with new
data, or the kernel-weight table every solver reads) is identified by the
value of its inputs, not by the objects that hold them: `_by_value`
memoises its builder on that value, one entry deep, and makes the arrays
of what it keeps read-only, since every caller shares them.
"""

from __future__ import annotations

import functools
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


def _value_key(arg):
    """What a set-up input is compared by: sampled data by grid or domain and bytes."""
    if isinstance(arg, TimeSeries):
        return TimeSeries, arg.grid, arg.values.tobytes()
    if isinstance(arg, SpectralField):
        return SpectralField, arg.domain, arg.coeffs.tobytes()
    return arg


def _frozen(value):
    """value, its arrays made read-only: itself, tuple items, attributes, tuple attributes' items."""
    for part in vars(value).values() if hasattr(value, "__dict__") else (value,):
        for item in part if isinstance(part, tuple) else (part,):
            if isinstance(item, np.ndarray):
                item.flags.writeable = False
    return value


def _by_value(build):
    """`build` memoised on the value of its arguments, keeping the last entry.

    Arguments other than sampled data are compared by ==.  Every caller
    shares the kept value, so its arrays are made read-only (`_frozen`)
    before any caller sees them.  The entry is one (key, value) tuple,
    replaced whole, so a concurrent caller sees the old entry, the new one
    or none, never half of one; two callers may both build, with equal
    results.  A miss drops the entry before it builds, so a large stale
    value is not held while its successor is formed.  `cache_clear()`
    drops the entry.
    """
    last = {}

    @functools.wraps(build)
    def memo(*args):
        key, hit = tuple(map(_value_key, args)), last.get("entry")
        if hit is None or hit[0] != key:
            del hit  # with the entry, the last reference to a stale value
            last.clear()
            hit = last["entry"] = (key, _frozen(build(*args)))
        return hit[1]

    memo.cache_clear = last.clear
    return memo


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
