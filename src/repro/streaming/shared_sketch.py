"""FreeBS/FreeRS as Structured Streaming stateful aggregations.

The shared array is *global* state — exact semantics need every edge to
see the array left by all earlier edges, so the stream is grouped under
a single constant key and the whole sketch lives in that group's state
(``applyInPandasWithState``): the packed bit/register array plus the
O(1) bookkeeping (``m0`` resp. the harmonic sum ``S``). Each
micro-batch is absorbed with the same vectorized event algebra as the
batch implementation (DESIGN.md §2), so a streaming run is *exactly*
equal to a batch run over the concatenated stream — asserted by tests.

State size is ``M/8`` bytes (FreeBS) or one byte per register (FreeRS):
62.5 MB at the paper's 5e8 bits, 100 MB at 1e8 registers, and the whole
state is rewritten on every trigger. The output is the trace of
accepted events ``(t, user, contrib)`` in append mode; per-user
estimates are its running sums, exactly as in batch.

**One state-store partition.** The single state group needs one
state-store partition, but Spark sizes the stateful operator by
``spark.sql.shuffle.partitions`` and runs (and commits) every partition
on every trigger, empty or not. The returned DataFrame's
``writeStream`` therefore starts its query with that setting at 1:

* the count is fixed in the query's checkpoint at first start: a
  checkpoint written with more partitions keeps them on restart;
* the caller's session setting is changed for the duration of
  ``start()``/``toTable()`` only and restored afterwards (do not start
  other queries on the same session concurrently);
* a transformation applied to the returned DataFrame before
  ``writeStream`` yields a plain DataFrame and drops the policy.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame
from pyspark.sql.streaming import DataStreamWriter
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import (
    BinaryType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.hashing import h_star, rho_star

_TRACE_SCHEMA = StructType(
    [
        StructField("t", LongType()),
        StructField("user", LongType()),
        StructField("contrib", DoubleType()),
    ]
)


_SHUFFLE_PARTITIONS = "spark.sql.shuffle.partitions"


@contextmanager
def _one_shuffle_partition(spark: SparkSession):
    caller = spark.conf.get(_SHUFFLE_PARTITIONS)
    spark.conf.set(_SHUFFLE_PARTITIONS, "1")
    try:
        yield
    finally:
        spark.conf.set(_SHUFFLE_PARTITIONS, caller)


class _OnePartitionWriter(DataStreamWriter):
    """Starts the query with one shuffle partition (module docstring)."""

    def start(self, *args, **kwargs):
        with _one_shuffle_partition(self._spark):
            return super().start(*args, **kwargs)

    def toTable(self, *args, **kwargs):
        with _one_shuffle_partition(self._spark):
            return super().toTable(*args, **kwargs)


class _OnePartitionDataFrame(ClassicDataFrame):
    @property
    def writeStream(self) -> DataStreamWriter:
        return _OnePartitionWriter(self)


def _single_group(edges: DataFrame, fn, state_schema: StructType) -> DataFrame:
    """Run ``fn`` over the whole stream as one state group, on one partition."""
    out = (
        edges.withColumn("g", F.lit(0))
        .groupBy("g")
        .applyInPandasWithState(
            fn, _TRACE_SCHEMA, state_schema, "append", GroupStateTimeout.NoTimeout
        )
    )
    return _OnePartitionDataFrame(out._jdf, out.sparkSession)


def _collect_sorted(pdfs: Iterator[pd.DataFrame]) -> pd.DataFrame:
    chunks = [p for p in pdfs if len(p)]
    if not chunks:
        return pd.DataFrame({"t": [], "user": [], "item": []}).astype(np.int64)
    return pd.concat(chunks).sort_values("t").reset_index(drop=True)


def freebs_stateful(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """Streaming FreeBS: trace of accepted events, append mode.

    The returned DataFrame's ``writeStream`` starts the query on one
    state-store partition whatever the session's
    ``spark.sql.shuffle.partitions``. That count is fixed in the
    checkpoint at first start; the session setting is changed for the
    duration of ``start()`` only; transforming the DataFrame before
    ``writeStream`` drops the policy.
    """

    state_schema = StructType(
        [StructField("packed", BinaryType()), StructField("m0", LongType())]
    )

    def fn(
        key: Tuple, pdfs: Iterator[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        if state.exists:
            packed, m0 = state.get
            B = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=M).astype(
                bool
            )
        else:
            B, m0 = np.zeros(M, dtype=bool), M
        pdf = _collect_sorted(pdfs)
        if len(pdf):
            users = pdf["user"].to_numpy(np.int64)
            bits = h_star(users, pdf["item"].to_numpy(np.int64), M, seed=seed)
            # rows hitting a still-zero bit, earliest arrival per bit
            cold = ~B[bits]
            first = ~pd.Series(bits).duplicated().to_numpy()
            ev = cold & first
            k = np.arange(ev.sum(), dtype=np.float64)
            contrib = M / (m0 - k)
            B[bits[ev]] = True
            m0 -= int(ev.sum())
            yield pd.DataFrame(
                {
                    "t": pdf["t"].to_numpy(np.int64)[ev],
                    "user": users[ev],
                    "contrib": contrib,
                }
            )
        # Spark reads the state after the output iterator is exhausted
        state.update((np.packbits(B).tobytes(), int(m0)))

    return _single_group(edges, fn, state_schema)


def freers_stateful(
    edges: DataFrame, M: int, seed: int = 0, w: int = 5
) -> DataFrame:
    """Streaming FreeRS: trace of accepted events, append mode.

    One state-store partition, with the limits of :func:`freebs_stateful`:
    the count is fixed in the checkpoint at first start, the session
    setting is changed for the duration of ``start()`` only, and
    transforming the DataFrame before ``writeStream`` drops the policy.
    """
    cap = (1 << w) - 1

    state_schema = StructType(
        [StructField("regs", BinaryType()), StructField("hsum", DoubleType())]
    )

    def fn(
        key: Tuple, pdfs: Iterator[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        if state.exists:
            regs_bytes, hsum = state.get
            R = np.frombuffer(regs_bytes, dtype=np.uint8).copy()
        else:
            R, hsum = np.zeros(M, dtype=np.uint8), float(M)
        pdf = _collect_sorted(pdfs)
        if len(pdf):
            users = pdf["user"].to_numpy(np.int64)
            items = pdf["item"].to_numpy(np.int64)
            ts = pdf["t"].to_numpy(np.int64)
            regs = h_star(users, items, M, seed=seed)
            rhos = rho_star(users, items, cap=cap, seed=seed)

            order = np.argsort(regs, kind="stable")
            reg_s, rho_s = regs[order], rhos[order]
            new_seg = np.ones(len(reg_s), dtype=bool)
            new_seg[1:] = reg_s[1:] != reg_s[:-1]
            seg_id = np.cumsum(new_seg) - 1
            offset = seg_id.astype(np.int64) * 64
            cummax = np.maximum.accumulate(offset + rho_s) - offset
            prev_in_batch = np.zeros(len(reg_s), dtype=np.int64)
            prev_in_batch[1:] = cummax[:-1]
            prev_in_batch[new_seg] = 0
            prev = np.maximum(prev_in_batch, R[reg_s].astype(np.int64))
            is_rec = rho_s > prev

            idx = order[is_rec]
            rho_rec, prev_rec = rho_s[is_rec], prev[is_rec]
            by_t = np.argsort(idx, kind="stable")
            idx, rho_rec, prev_rec = idx[by_t], rho_rec[by_t], prev_rec[by_t]
            delta = 2.0**-rho_rec.astype(np.float64) - 2.0**-prev_rec.astype(
                np.float64
            )
            s_pre = hsum + np.concatenate(([0.0], np.cumsum(delta)[:-1]))
            contrib = M / s_pre

            np.maximum.at(R, regs, rhos.astype(np.uint8))
            hsum = float(s_pre[-1] + delta[-1]) if len(delta) else hsum
            yield pd.DataFrame(
                {"t": ts[idx], "user": users[idx], "contrib": contrib}
            )
        state.update((R.tobytes(), hsum))

    return _single_group(edges, fn, state_schema)
