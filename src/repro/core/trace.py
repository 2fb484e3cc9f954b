"""The trace format and input contract shared by every FreeBS/FreeRS driver.

The *trace* of a run is the DataFrame of accepted events ``(t, user,
contrib)`` sorted by ``t``; a user's estimate at any time T is the sum
of its contributions with ``t <= T``.

The Spark drivers feed the kernels ``t``-ordered chunks of pandas rows:
Arrow batches of one sorted partition (batch) or micro-batches
(streaming). :func:`batch_arrays` checks one chunk and
:func:`next_last_t` checks that chunks follow each other in ``t``.
"""
from __future__ import annotations

import numbers
from typing import Callable, Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

TRACE_SCHEMA = StructType(
    [
        StructField("t", LongType()),
        StructField("user", LongType()),
        StructField("contrib", DoubleType()),
    ]
)


def check_M(M) -> None:
    """Raise ``ValueError`` unless the array size ``M`` is an int in ``[1, 2^32)``.

    Array positions must fit 32 bits: the FreeRS kernel packs a register
    id into the high half of a uint64 sort key.
    """
    if (
        isinstance(M, bool)
        or not isinstance(M, numbers.Integral)
        or not 1 <= M < 1 << 32
    ):
        raise ValueError(f"M must be an int >= 1 and < 2**32, got {M!r}")


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


def batch_arrays(pdfs: Iterable[pd.DataFrame]) -> tuple[np.ndarray, ...]:
    """One chunk of rows as ``t``-sorted int64 arrays ``(t, user, item)``.

    Raises ``ValueError`` on a null id or a repeated ``t``: Arrow hands a
    null long to pandas as float NaN, which an int64 cast silently turns
    into -2^63, and rows sharing a ``t`` have no defined arrival order.
    """
    cols = ["t", "user", "item"]
    chunks = [p[cols] for p in pdfs if len(p)]
    if not chunks:
        return tuple(np.empty(0, dtype=np.int64) for _ in cols)
    pdf = pd.concat(chunks)
    if pdf.isna().to_numpy().any():
        raise ValueError("chunk has a null t, user or item")
    pdf = pdf.sort_values("t", kind="stable")
    t = pdf["t"].to_numpy(np.int64)
    if (t[1:] == t[:-1]).any():
        raise ValueError("chunk has a repeated t")
    return t, pdf["user"].to_numpy(np.int64), pdf["item"].to_numpy(np.int64)


def next_last_t(t: np.ndarray, last_t: int | None) -> int | None:
    """The last ``t`` absorbed once the sorted chunk ``t`` is.

    ``last_t`` is the last ``t`` absorbed before it (``None``: nothing
    yet). Raises ``ValueError`` when the chunk does not start after it,
    since then an earlier arrival would be absorbed later.
    """
    if not len(t):
        return last_t
    if last_t is not None and t[0] <= last_t:
        raise ValueError(
            f"chunk starts at t={t[0]}, not after the last absorbed t={last_t}"
        )
    return int(t[-1])


def t_ordered_scan(
    edges: DataFrame,
    fn: Callable[[Iterator[pd.DataFrame]], Iterator[pd.DataFrame]],
) -> DataFrame:
    """The trace ``fn`` yields from all of ``edges``' rows in ``t`` order.

    Spark scans, shuffles and sorts (spilling as needed) in parallel;
    ``fn`` then sees the sorted rows as consecutive Arrow batches of one
    task, so it holds one sketch array plus one batch in memory.
    """
    return (
        edges.select("t", "user", "item")
        .repartition(1)
        .sortWithinPartitions("t")
        .mapInPandas(fn, TRACE_SCHEMA)
    )
