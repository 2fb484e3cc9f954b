"""FreeBS — parameter-free bit sharing (paper §IV-A, Algorithm 1).

One shared bit array ``B[0..M-1]``. Each edge ``e=(s,d)`` hashes to one
bit ``h*(e)``; if that bit flips 0→1 the arriving user's estimate grows
by ``1/q_B`` where ``q_B = m0/M`` is the *pre-update* fraction of zero
bits (Horvitz–Thompson inverse inclusion probability). O(1) per edge.

Exact distributed reformulation (DESIGN.md §2): a bit flips exactly
once — at the earliest arrival hashing to it — and if flip events are
ranked ``k = 1, 2, …`` by arrival time, the k-th flip sees
``m0 = M-(k-1)`` zeros and therefore contributes ``M/(M-k+1)``. All
three implementations below compute exactly this.

The numpy trace and the streaming state absorb arrivals with one
kernel, :func:`freebs_absorb`; the *trace* of a run is the DataFrame of
accepted (bit-flipping) events ``(t, user, contrib)`` sorted by ``t``
(:mod:`repro.core.trace`), which is what makes the anytime-available
evaluation (Fig. 6) a cumulative sum.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql.types import LongType

from repro.core.trace import check_M, trace_frame
from repro.hashing import h_star


def freebs_sequential(
    users: np.ndarray, items: np.ndarray, M: int, seed: int = 0
) -> pd.DataFrame:
    """Algorithm 1 verbatim: one Python-loop pass over the stream.

    Returns the trace ``(t, user, contrib)``. Reference implementation —
    use :func:`freebs_trace` for anything larger than a test.
    """
    check_M(M)
    bits = h_star(users, items, M, seed=seed)
    B = np.zeros(M, dtype=bool)
    m0 = M
    ts, us, cs = [], [], []
    for t in range(len(users)):
        b = bits[t]
        if not B[b]:
            B[b] = True
            ts.append(t)
            us.append(users[t])
            cs.append(M / m0)
            m0 -= 1
    return trace_frame(ts, us, cs)


def freebs_absorb(
    bits: np.ndarray, prior, m0: int, M: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Absorb one ``t``-ordered chunk of arrivals (Algorithm 1's rule).

    ``bits``: the chunk's ``h*(e)``; ``prior``: the bits there before the
    chunk (``B[bits]``, or ``False`` for an empty array); ``m0``: the
    zero count before it. A flip is the earliest arrival at a still-zero
    bit; the k-th flip (k = 0, 1, …) contributes ``M/(m0-k)``. Returns
    the flips' row indices in the chunk, their contributions and ``m0``
    after the chunk.
    """
    first = ~pd.Series(bits).duplicated().to_numpy()
    idx = np.flatnonzero(first & ~np.asarray(prior))
    contrib = M / (m0 - np.arange(len(idx), dtype=np.float64))
    return idx, contrib, m0 - len(idx)


def freebs_trace(
    users: np.ndarray, items: np.ndarray, M: int, seed: int = 0
) -> pd.DataFrame:
    """Exact vectorized FreeBS: trace ``(t, user, contrib)``.

    The whole stream absorbed as one chunk from the empty array
    (:func:`freebs_absorb`). Equivalent to :func:`freebs_sequential`
    bit-for-bit (asserted by tests), at numpy speed.
    """
    check_M(M)
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    idx, contrib, _ = freebs_absorb(h_star(users, items, M, seed=seed), False, M, M)
    return trace_frame(idx, users[idx], contrib)


def freebs_spark_trace(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """FreeBS on Spark: trace DataFrame ``(t, user, contrib)``.

    ``edges`` must have columns ``t`` (unique, monotone arrival index),
    ``user``, ``item``. Dedup-per-bit and the global event rank are
    window functions; the bit hash is the shared numpy hash via a pandas
    UDF so the result is identical to the local implementations. The
    global rank window is single-partition — the exact formulation's
    scalability boundary, fine at reproduction scale (≤ M rows survive
    the dedup).
    """
    check_M(M)

    @F.pandas_udf(LongType())
    def bit_udf(user: pd.Series, item: pd.Series) -> pd.Series:
        return pd.Series(
            h_star(user.to_numpy(), item.to_numpy(), M, seed=seed)
        )

    w_bit = Window.partitionBy("bit").orderBy("t")
    w_all = Window.orderBy("t")
    return (
        edges.withColumn("bit", bit_udf("user", "item"))
        .withColumn("rn", F.row_number().over(w_bit))
        .filter(F.col("rn") == 1)
        .withColumn("k", F.row_number().over(w_all))
        .withColumn("contrib", F.lit(float(M)) / (F.lit(float(M)) - F.col("k") + 1.0))
        .select("t", "user", "contrib")
    )


def freebs_spark(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """FreeBS on Spark: final per-user estimates ``(user, estimate)``."""
    return (
        freebs_spark_trace(edges, M, seed=seed)
        .groupBy("user")
        .agg(F.sum("contrib").alias("estimate"))
    )
