"""FreeBS — parameter-free bit sharing (paper §IV-A, Algorithm 1).

One shared bit array ``B[0..M-1]``. Each edge ``e=(s,d)`` hashes to one
bit ``h*(e)``; if that bit flips 0→1 the arriving user's estimate grows
by ``1/q_B`` where ``q_B = m0/M`` is the *pre-update* fraction of zero
bits (Horvitz–Thompson inverse inclusion probability). O(1) per edge.

Chunked reformulation (DESIGN.md §2): a bit flips exactly once — at
the earliest arrival hashing to it — and if flip events are ranked
``k = 1, 2, …`` by arrival time, the k-th flip sees ``m0 = M-(k-1)``
zeros and therefore contributes ``M/(M-k+1)``. A ``t``-ordered chunk of
arrivals is thus absorbed given only the bits at its positions and the
O(1) carry ``m0``.

Every driver but the loop absorbs arrivals with one kernel,
:func:`freebs_absorb`: the numpy trace once over the whole stream, the
Spark batch and streaming drivers once per ``t``-ordered chunk of rows
through :func:`freebs_absorb_chunk`. The *trace* of a run is the
DataFrame of accepted (bit-flipping) events ``(t, user, contrib)``
sorted by ``t`` (:mod:`repro.core.trace`), which is what makes the
anytime-available evaluation (Fig. 6) a cumulative sum.
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


def freebs_absorb_chunk(
    pdfs, B: np.ndarray, m0: int, last_t, M: int, seed: int = 0
) -> tuple[pd.DataFrame, int, int | None]:
    """Absorb one chunk of ``(t, user, item)`` rows into the bit array.

    The chunk (:func:`repro.core.trace.batch_arrays`) must start after
    ``last_t``, the last ``t`` absorbed before it (``None``: nothing
    yet). Sets its flipped bits in ``B`` in place and returns its trace
    rows, ``m0`` and ``last_t`` after it. The Spark batch and streaming
    drivers call this once per chunk.
    """
    t, users, items = batch_arrays(pdfs)
    last_t = next_last_t(t, last_t)
    bits = h_star(users, items, M, seed=seed)
    idx, contrib, m0 = freebs_absorb(bits, B[bits], m0, M)
    B[bits[idx]] = True
    return trace_frame(t[idx], users[idx], contrib), m0, last_t


def freebs_spark_trace(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """FreeBS on Spark: trace DataFrame ``(t, user, contrib)``.

    ``edges`` must have columns ``t`` (unique, monotone arrival index),
    ``user``, ``item``. One task absorbs the ``t``-sorted rows batch by
    batch (:func:`freebs_absorb_chunk`), so the trace equals
    :func:`freebs_trace` bit for bit; its Python worker holds the bit
    array (``M`` bytes) and one Arrow batch.
    """
    check_M(M)

    def fn(pdfs):
        B, m0, last_t = np.zeros(M, dtype=bool), M, None
        for pdf in pdfs:
            trace, m0, last_t = freebs_absorb_chunk([pdf], B, m0, last_t, M, seed)
            yield trace

    return t_ordered_scan(edges, fn)


def freebs_spark(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """FreeBS on Spark: final per-user estimates ``(user, estimate)``."""
    return (
        freebs_spark_trace(edges, M, seed=seed)
        .groupBy("user")
        .agg(F.sum("contrib").alias("estimate"))
    )
