"""The trace format and input contract shared by every FreeBS/FreeRS driver.

The *trace* of a run is the DataFrame of accepted events ``(t, user,
contrib)`` sorted by ``t``; a user's estimate at any time T is the sum
of its contributions with ``t <= T``.
"""
from __future__ import annotations

import numbers

import numpy as np
import pandas as pd


def check_M(M) -> None:
    """Raise ``ValueError`` unless the array size ``M`` is an int ≥ 1."""
    if isinstance(M, bool) or not isinstance(M, numbers.Integral) or M < 1:
        raise ValueError(f"M must be an int >= 1, got {M!r}")


def trace_frame(t: np.ndarray, users: np.ndarray, contrib) -> pd.DataFrame:
    """The trace DataFrame ``(t, user, contrib)`` of the given events."""
    return pd.DataFrame(
        {
            "t": np.asarray(t, dtype=np.int64),
            "user": np.asarray(users, dtype=np.int64),
            "contrib": np.asarray(contrib, dtype=np.float64),
        }
    )


def estimates_from_trace(trace: pd.DataFrame) -> pd.Series:
    """Final per-user estimates (index: user) from a trace."""
    return trace.groupby("user")["contrib"].sum()
