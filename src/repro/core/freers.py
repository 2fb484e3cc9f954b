"""FreeRS — parameter-free register sharing (paper §IV-B, Algorithm 2).

One shared register array ``R[0..M-1]`` of ``w``-bit registers. Each
edge hashes to register ``h*(e)`` with Geometric(1/2) rank ``ρ*(e)``;
if the register's value increases, the arriving user's estimate grows
by ``1/q_R`` with ``q_R = Σ_j 2^{-R[j]} / M`` evaluated on the
*pre-update* array (the formal definition and the unbiasedness proof;
Algorithm 2's pseudocode updates q first — see DESIGN.md §1 for why we
follow the theory). O(1) per edge via incremental maintenance of the
sum ``S = Σ_j 2^{-R[j]}``.

Chunked reformulation (DESIGN.md §2): register-change events are
running-max records within each register's sub-stream; each record
perturbs ``S`` by ``Δ = 2^-ρ − 2^-prev``; a cumulative sum of Δ in
arrival order recovers the pre-event ``S`` and hence the contribution
``M/S``. A ``t``-ordered chunk is thus absorbed given only the
registers at its positions and the O(1) carry ``S``. Every driver but
the loop calls one kernel, :func:`freers_absorb`: the numpy trace once,
the Spark batch and streaming drivers once per chunk of rows through
:func:`freers_absorb_chunk`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.trace import (
    batch_arrays,
    check_M,
    next_last_t,
    t_ordered_scan,
    trace_frame,
)
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

    Preconditions, as each must fit one 32-bit half of the sort key
    below: register ids are below ``2^32`` (``check_M`` bounds ``M``
    so), and the chunk has fewer than ``2^32`` rows (a longer one raises
    ``ValueError``).

    The arrivals are grouped by register with one sort of the packed
    uint64 key ``register << 32 | row``: keys are unique, so the order
    is register-major with arrival order kept, and the register ids and
    row indices come back out of the sorted key with no gather. Running
    maxima use the segmented-cummax trick: offset each rank by its
    register id times 64 (ids ascend in that order and ranks are < 64),
    take one ``maximum.accumulate`` and subtract the offset back.
    """
    n = len(regs)
    if n >= 1 << 32:
        raise ValueError(f"chunk has {n} rows, must be < 2**32")
    rows = np.arange(n, dtype=np.uint64)
    key = np.sort(regs.astype(np.uint64) << np.uint64(32) | rows)
    order = (key & np.uint64(0xFFFFFFFF)).view(np.int64)
    reg_s = (key >> np.uint64(32)).view(np.int64)
    rho_s = rhos[order]
    new_seg = np.ones(n, dtype=bool)
    new_seg[1:] = reg_s[1:] != reg_s[:-1]
    offset = reg_s * 64
    cummax = np.maximum.accumulate(offset + rho_s) - offset
    prev = np.zeros(n, dtype=np.int64)
    prev[1:] = cummax[:-1]
    prev[new_seg] = 0  # a register's first arrival in the chunk
    prior = np.asarray(prior)
    prev = np.maximum(prev, prior[order] if prior.ndim else prior)
    is_rec = rho_s > prev

    idx, rho_rec, prev_rec = order[is_rec], rho_s[is_rec], prev[is_rec]
    by_t = np.argsort(idx)  # unique rows: no stable sort needed
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


def freers_absorb_chunk(
    pdfs,
    R: np.ndarray,
    S: float,
    last_t,
    M: int,
    seed: int = 0,
    w: int = 5,
) -> tuple[pd.DataFrame, float, int | None]:
    """Absorb one chunk of ``(t, user, item)`` rows into the registers.

    The chunk (:func:`repro.core.trace.batch_arrays`) must start after
    ``last_t``, the last ``t`` absorbed before it (``None``: nothing
    yet). Raises the changed registers of ``R`` (uint8) in place and
    returns its trace rows, ``S`` and ``last_t`` after it. The Spark
    batch and streaming drivers call this once per chunk.
    """
    t, users, items = batch_arrays(pdfs)
    last_t = next_last_t(t, last_t)
    regs = h_star(users, items, M, seed=seed)
    rhos = rho_star(users, items, cap=(1 << w) - 1, seed=seed)
    idx, contrib, S = freers_absorb(regs, rhos, R[regs], S, M)
    np.maximum.at(R, regs[idx], rhos[idx].astype(np.uint8))
    return trace_frame(t[idx], users[idx], contrib), S, last_t


def freers_spark_trace(
    edges: DataFrame, M: int, seed: int = 0, w: int = 5
) -> DataFrame:
    """FreeRS on Spark: trace DataFrame ``(t, user, contrib)``.

    One task absorbs the ``t``-sorted rows batch by batch
    (:func:`freers_absorb_chunk`), so the trace equals
    :func:`freers_trace` bit for bit; its Python worker holds the
    registers (``M`` bytes) and one Arrow batch.
    """
    check_M(M)

    def fn(pdfs):
        R, S, last_t = np.zeros(M, dtype=np.uint8), float(M), None
        for pdf in pdfs:
            trace, S, last_t = freers_absorb_chunk([pdf], R, S, last_t, M, seed, w)
            yield trace

    return t_ordered_scan(edges, fn)


def freers_spark(edges: DataFrame, M: int, seed: int = 0, w: int = 5) -> DataFrame:
    """FreeRS on Spark: final per-user estimates ``(user, estimate)``."""
    return (
        freers_spark_trace(edges, M, seed=seed, w=w)
        .groupBy("user")
        .agg(F.sum("contrib").alias("estimate"))
    )
