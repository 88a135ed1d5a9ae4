"""Order statistics used by the report (linear interpolation, as numpy)."""

from __future__ import annotations

import numpy as np


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
