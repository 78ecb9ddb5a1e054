"""Richardson/Neville extrapolation of h-dependent samples to h = 0.

The table T[i][j] holds the value at h=0 of the degree-j polynomial through
samples i-j .. i. The reported value is the entry whose local consistency
(difference against its two parents) is smallest, which automatically
discounts samples that are dominated by roundoff noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ExtrapolationResult", "richardson_zero"]

MAX_ORDER = 4  # Richardson columns at most


@dataclass(frozen=True)
class ExtrapolationResult:
    value: complex
    err_estimate: float
    diverged: bool


def richardson_zero(hs, ys) -> ExtrapolationResult:
    """Extrapolate samples y(h) to h -> 0 by Neville interpolation at 0.

    hs must be positive and strictly decreasing; ys may be complex.
    """
    hs = np.asarray(hs, dtype=float)
    ys = np.asarray(ys, dtype=np.complex128)
    if len(hs) != len(ys) or len(hs) == 0:
        raise ValueError("need matching, nonempty sample arrays")
    if np.any(hs <= 0) or np.any(np.diff(hs) >= 0):
        raise ValueError("h values must be positive and strictly decreasing")
    m = len(hs)
    table = [list(ys)]
    best = ys[-1]
    best_err = abs(ys[-1] - ys[-2]) if m > 1 else np.inf
    for j in range(1, min(MAX_ORDER, m - 1) + 1):
        col = []
        prev = table[j - 1]
        for i in range(m - j):
            # Neville update for value at h=0 through nodes hs[i..i+j]
            num = hs[i] * prev[i + 1] - hs[i + j] * prev[i]
            col.append(num / (hs[i] - hs[i + j]))
        table.append(col)
        for i in range(len(col)):
            err = abs(col[i] - prev[i + 1])
            if i + 1 < len(col):
                err = max(err, abs(col[i] - col[i + 1]))
            if err < best_err:
                best_err = err
                best = col[i]
    # divergence: tail of the first column moving away from the estimate
    diffs = np.abs(ys - best)
    err_floor = max(best_err, 4 * np.spacing(abs(best)))  # an exact fit still rounds
    diverged = bool(m >= 3 and diffs[-1] > diffs[-2] > diffs[-3]
                    and (best_err > 10 * diffs[-3] or diffs[-1] > 10 * err_floor))
    return ExtrapolationResult(value=complex(best), err_estimate=float(best_err),
                               diverged=diverged)
