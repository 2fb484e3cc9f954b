"""FreeRS — parameter-free register sharing (paper §IV-B, Algorithm 2).

One shared register array ``R[0..M-1]`` of ``w``-bit registers. Each
edge hashes to register ``h*(e)`` with Geometric(1/2) rank ``ρ*(e)``;
if the register's value increases, the arriving user's estimate grows
by ``1/q_R`` with ``q_R = Σ_j 2^{-R[j]} / M`` evaluated on the
*pre-update* array (the formal definition and the unbiasedness proof;
Algorithm 2's pseudocode updates q first — see DESIGN.md §1 for why we
follow the theory). O(1) per edge via incremental maintenance of the
sum ``S = Σ_j 2^{-R[j]}``.

Exact distributed reformulation (DESIGN.md §2): register-change events
are running-max records within each register's sub-stream (a window
partitioned by register); each record perturbs ``S`` by
``Δ = 2^-ρ − 2^-prev``; a global cumulative sum of Δ in arrival order
recovers the pre-event ``S`` and hence the contribution ``M/S``. The
numpy trace and the streaming state share one kernel, :func:`freers_absorb`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql.types import LongType

from repro.core.trace import check_M, trace_frame
from repro.hashing import h_star, rho_star


def freers_sequential(
    users: np.ndarray,
    items: np.ndarray,
    M: int,
    seed: int = 0,
    w: int = 5,
) -> pd.DataFrame:
    """Algorithm 2 verbatim (pre-update q): trace ``(t, user, contrib)``."""
    check_M(M)
    cap = (1 << w) - 1
    regs = h_star(users, items, M, seed=seed)
    rhos = rho_star(users, items, cap=cap, seed=seed)
    R = np.zeros(M, dtype=np.int64)
    S = float(M)
    ts, us, cs = [], [], []
    for t in range(len(users)):
        j, r = regs[t], rhos[t]
        if r > R[j]:
            cs.append(M / S)  # 1/q_R with q_R = S_pre / M
            ts.append(t)
            us.append(users[t])
            S += 2.0**-r - 2.0 ** -float(R[j])
            R[j] = r
    return trace_frame(ts, us, cs)


def freers_absorb(
    regs: np.ndarray, rhos: np.ndarray, prior, S: float, M: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Absorb one ``t``-ordered chunk of arrivals (Algorithm 2's rule).

    ``regs``/``rhos``: the chunk's ``h*(e)``/``ρ*(e)``; ``prior``: the
    registers there before the chunk (``R[regs]``, or ``0`` for an empty
    array); ``S``: ``Σ_j 2^{-R[j]}`` before it. An event is a running-max
    record over the prior value and the register's earlier arrivals; it
    contributes ``M/S`` and moves ``S`` by ``2^-ρ − 2^-prev``. Returns
    the events' row indices in the chunk, their contributions and ``S``
    after the chunk.

    Running maxima use the segmented-cummax trick: offset each
    register's ranks by ``segment * 64`` (ranks are < 64), take one
    ``maximum.accumulate`` over the register-sorted order, and subtract
    the offset back.
    """
    order = np.argsort(regs, kind="stable")  # by register, arrival order kept
    reg_s, rho_s = regs[order], rhos[order]
    new_seg = np.ones(len(reg_s), dtype=bool)
    new_seg[1:] = reg_s[1:] != reg_s[:-1]
    offset = (np.cumsum(new_seg) - 1) * 64
    cummax = np.maximum.accumulate(offset + rho_s) - offset
    prev = np.zeros(len(reg_s), dtype=np.int64)
    prev[1:] = cummax[:-1]
    prev[new_seg] = 0  # a register's first arrival in the chunk
    prior = np.asarray(prior)
    prev = np.maximum(prev, prior[order] if prior.ndim else prior)
    is_rec = rho_s > prev

    idx, rho_rec, prev_rec = order[is_rec], rho_s[is_rec], prev[is_rec]
    by_t = np.argsort(idx, kind="stable")
    idx, rho_rec, prev_rec = idx[by_t], rho_rec[by_t], prev_rec[by_t]
    delta = 2.0**-rho_rec.astype(np.float64) - 2.0**-prev_rec.astype(np.float64)
    # S before each event, then S after the last one
    s = S + np.concatenate(([0.0], np.cumsum(delta)))
    return idx, M / s[:-1], float(s[-1])


def freers_trace(
    users: np.ndarray,
    items: np.ndarray,
    M: int,
    seed: int = 0,
    w: int = 5,
) -> pd.DataFrame:
    """Exact vectorized FreeRS trace, identical to the sequential run.

    The whole stream absorbed as one chunk from the empty register array
    (:func:`freers_absorb`).
    """
    check_M(M)
    cap = (1 << w) - 1
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    regs = h_star(users, items, M, seed=seed)
    rhos = rho_star(users, items, cap=cap, seed=seed)
    idx, contrib, _ = freers_absorb(regs, rhos, 0, float(M), M)
    return trace_frame(idx, users[idx], contrib)


def freers_spark_trace(
    edges: DataFrame, M: int, seed: int = 0, w: int = 5
) -> DataFrame:
    """FreeRS on Spark: trace DataFrame ``(t, user, contrib)``.

    Same window structure as the vectorized form: per-register previous
    running max (window max over preceding rows), record filter, global
    running sum of Δ for the pre-event S. The global window is single-
    partition — exactness boundary, as for FreeBS.
    """
    check_M(M)
    cap = (1 << w) - 1

    @F.pandas_udf(LongType())
    def reg_udf(user: pd.Series, item: pd.Series) -> pd.Series:
        return pd.Series(h_star(user.to_numpy(), item.to_numpy(), M, seed=seed))

    @F.pandas_udf(LongType())
    def rho_udf(user: pd.Series, item: pd.Series) -> pd.Series:
        return pd.Series(
            rho_star(user.to_numpy(), item.to_numpy(), cap=cap, seed=seed)
        )

    w_reg = (
        Window.partitionBy("reg")
        .orderBy("t")
        .rowsBetween(Window.unboundedPreceding, -1)
    )
    w_all = Window.orderBy("t").rowsBetween(Window.unboundedPreceding, -1)
    return (
        edges.withColumn("reg", reg_udf("user", "item"))
        .withColumn("rho", rho_udf("user", "item"))
        .withColumn("prev", F.coalesce(F.max("rho").over(w_reg), F.lit(0)))
        .filter(F.col("rho") > F.col("prev"))
        .withColumn(
            "delta",
            F.pow(F.lit(2.0), -F.col("rho")) - F.pow(F.lit(2.0), -F.col("prev")),
        )
        .withColumn(
            "s_pre",
            F.lit(float(M)) + F.coalesce(F.sum("delta").over(w_all), F.lit(0.0)),
        )
        .withColumn("contrib", F.lit(float(M)) / F.col("s_pre"))
        .select("t", "user", "contrib")
    )


def freers_spark(edges: DataFrame, M: int, seed: int = 0, w: int = 5) -> DataFrame:
    """FreeRS on Spark: final per-user estimates ``(user, estimate)``."""
    return (
        freers_spark_trace(edges, M, seed=seed, w=w)
        .groupBy("user")
        .agg(F.sum("contrib").alias("estimate"))
    )
