"""FreeBS/FreeRS as Structured Streaming stateful aggregations.

The shared array is *global* state — exact semantics need every edge to
see the array left by all earlier edges, so the stream is grouped under
a single constant key and the whole sketch lives in that group's state
(``applyInPandasWithState``): the packed bit/register array plus the
O(1) bookkeeping (``m0`` resp. the harmonic sum ``S``) and the last
absorbed ``t``. Each micro-batch is absorbed by the same per-chunk
function as a Spark batch run's Arrow batches —
:func:`repro.core.freebs.freebs_absorb_chunk` resp.
:func:`repro.core.freers.freers_absorb_chunk`: checked (no null id, no
repeated ``t``, every ``t`` after the previous batch's), hashed, and
absorbed by the numpy trace's kernel with the state's values at the
batch's positions as prior and the bookkeeping as carry (DESIGN.md §2).
A streaming run is therefore *exactly* equal to a batch run over the
concatenated stream — asserted by tests.

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

from repro.core.freebs import freebs_absorb_chunk
from repro.core.freers import freers_absorb_chunk
from repro.core.trace import TRACE_SCHEMA, check_M

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
            fn, TRACE_SCHEMA, state_schema, "append", GroupStateTimeout.NoTimeout
        )
    )
    return _OnePartitionDataFrame(out._jdf, out.sparkSession)


def freebs_stateful(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """Streaming FreeBS: trace of accepted events, append mode.

    Each micro-batch is absorbed by
    :func:`repro.core.freebs.freebs_absorb_chunk` into the state's bits,
    zero count ``m0`` and last ``t``. The returned DataFrame's
    ``writeStream`` starts the query on one state-store partition
    whatever the session's ``spark.sql.shuffle.partitions``. That count
    is fixed in the checkpoint at first start; the session setting is
    changed for the duration of ``start()`` only; transforming the
    DataFrame before ``writeStream`` drops the policy.
    """
    check_M(M)
    state_schema = StructType(
        [
            StructField("packed", BinaryType()),
            StructField("m0", LongType()),
            StructField("last_t", LongType()),
        ]
    )

    def fn(
        key: Tuple, pdfs: Iterator[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        if state.exists:
            packed, m0, last_t = state.get
            B = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=M).view(bool)
        else:
            B, m0, last_t = np.zeros(M, dtype=bool), M, None
        trace, m0, last_t = freebs_absorb_chunk(pdfs, B, m0, last_t, M, seed)
        yield trace
        # Spark reads the state after the output iterator is exhausted
        state.update((np.packbits(B).tobytes(), int(m0), last_t))

    return _single_group(edges, fn, state_schema)


def freers_stateful(
    edges: DataFrame, M: int, seed: int = 0, w: int = 5
) -> DataFrame:
    """Streaming FreeRS: trace of accepted events, append mode.

    Each micro-batch is absorbed by
    :func:`repro.core.freers.freers_absorb_chunk` into the state's
    registers, harmonic sum ``S`` and last ``t``. One state-store
    partition, with the limits of :func:`freebs_stateful`: the count is
    fixed in the checkpoint at first start, the session setting is
    changed for the duration of ``start()`` only, and transforming the
    DataFrame before ``writeStream`` drops the policy.
    """
    check_M(M)
    state_schema = StructType(
        [
            StructField("regs", BinaryType()),
            StructField("hsum", DoubleType()),
            StructField("last_t", LongType()),
        ]
    )

    def fn(
        key: Tuple, pdfs: Iterator[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        if state.exists:
            regs_bytes, hsum, last_t = state.get
            R = np.frombuffer(regs_bytes, dtype=np.uint8).copy()
        else:
            R, hsum, last_t = np.zeros(M, dtype=np.uint8), float(M), None
        trace, hsum, last_t = freers_absorb_chunk(pdfs, R, hsum, last_t, M, seed, w)
        yield trace
        state.update((R.tobytes(), hsum, last_t))

    return _single_group(edges, fn, state_schema)
