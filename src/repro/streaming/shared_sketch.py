"""FreeBS/FreeRS as Structured Streaming stateful aggregations.

The shared array is *global* state — exact semantics need every edge to
see the array left by all earlier edges, so the stream is grouped under
a single constant key and the whole sketch lives in that group's state
(``applyInPandasWithState``): the packed bit/register array plus the
O(1) bookkeeping (``m0`` resp. the harmonic sum ``S``). Each
micro-batch is checked (:func:`batch_arrays`), hashed, and absorbed by
the same kernel as the numpy trace — :func:`repro.core.freebs.freebs_absorb`
resp. :func:`repro.core.freers.freers_absorb` — with the state's values
at the batch's positions as prior and the bookkeeping as carry
(DESIGN.md §2). A streaming run is therefore *exactly* equal to a batch
run over the concatenated stream — asserted by tests.

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
from typing import Iterable, Iterator, Tuple

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

from repro.core.freebs import freebs_absorb
from repro.core.freers import freers_absorb
from repro.core.trace import check_M, trace_frame
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


def batch_arrays(pdfs: Iterable[pd.DataFrame]) -> tuple[np.ndarray, ...]:
    """One micro-batch as ``t``-sorted int64 arrays ``(t, user, item)``.

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
        raise ValueError("micro-batch has a null t, user or item")
    pdf = pdf.sort_values("t", kind="stable")
    t = pdf["t"].to_numpy(np.int64)
    if (t[1:] == t[:-1]).any():
        raise ValueError("micro-batch has a repeated t")
    return t, pdf["user"].to_numpy(np.int64), pdf["item"].to_numpy(np.int64)


def freebs_stateful(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """Streaming FreeBS: trace of accepted events, append mode.

    Each micro-batch is absorbed by :func:`repro.core.freebs.freebs_absorb`
    with the state's bits as prior and its zero count ``m0`` as carry.
    The returned DataFrame's ``writeStream`` starts the query on one
    state-store partition whatever the session's
    ``spark.sql.shuffle.partitions``. That count is fixed in the
    checkpoint at first start; the session setting is changed for the
    duration of ``start()`` only; transforming the DataFrame before
    ``writeStream`` drops the policy.
    """
    check_M(M)
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
        t, users, items = batch_arrays(pdfs)
        bits = h_star(users, items, M, seed=seed)
        idx, contrib, m0 = freebs_absorb(bits, B[bits], m0, M)
        B[bits[idx]] = True
        yield trace_frame(t[idx], users[idx], contrib)
        # Spark reads the state after the output iterator is exhausted
        state.update((np.packbits(B).tobytes(), int(m0)))

    return _single_group(edges, fn, state_schema)


def freers_stateful(
    edges: DataFrame, M: int, seed: int = 0, w: int = 5
) -> DataFrame:
    """Streaming FreeRS: trace of accepted events, append mode.

    Each micro-batch is absorbed by :func:`repro.core.freers.freers_absorb`
    with the state's registers as prior and its harmonic sum ``S`` as
    carry. One state-store partition, with the limits of
    :func:`freebs_stateful`: the count is fixed in the checkpoint at
    first start, the session setting is changed for the duration of
    ``start()`` only, and transforming the DataFrame before
    ``writeStream`` drops the policy.
    """
    check_M(M)
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
        t, users, items = batch_arrays(pdfs)
        regs = h_star(users, items, M, seed=seed)
        rhos = rho_star(users, items, cap=cap, seed=seed)
        idx, contrib, hsum = freers_absorb(regs, rhos, R[regs], hsum, M)
        np.maximum.at(R, regs[idx], rhos[idx].astype(np.uint8))
        yield trace_frame(t[idx], users[idx], contrib)
        state.update((R.tobytes(), hsum))

    return _single_group(edges, fn, state_schema)
