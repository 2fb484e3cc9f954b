"""The FreeBS/FreeRS input contract is checked in code: a legal M at every
public entry point, and clean, ``t``-ordered chunks of rows in the Spark
batch and streaming drivers."""
import os

import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException, StreamingQueryException

from repro.core import (
    freebs_sequential,
    freebs_spark,
    freebs_spark_trace,
    freebs_trace,
    freers_sequential,
    freers_spark,
    freers_spark_trace,
    freers_trace,
)
from repro.core.trace import batch_arrays, next_last_t
from repro.streaming import freebs_stateful, freers_stateful, read_edge_stream

_NUMPY = [freebs_sequential, freebs_trace, freers_sequential, freers_trace]
_SPARK = [
    freebs_spark_trace,
    freebs_spark,
    freebs_stateful,
    freers_spark_trace,
    freers_spark,
    freers_stateful,
]


@pytest.fixture(scope="module")
def edges(spark):
    n = np.arange(5, dtype=np.int64)
    return spark.createDataFrame(pd.DataFrame({"t": n, "user": n, "item": n}))


@pytest.mark.parametrize("M", [0, -5, 2.5, 2**32])
@pytest.mark.parametrize(
    "entry", [pytest.param(f, id=f.__name__) for f in _NUMPY + _SPARK]
)
def test_illegal_M_raises(request, entry, M):
    if entry in _SPARK:
        args = (request.getfixturevalue("edges"),)
    else:
        args = (np.arange(5), np.arange(5))
    with pytest.raises(ValueError, match="M must be an int >= 1"):
        entry(*args, M)


def _batch():
    return pd.DataFrame(
        {"t": [12, 10, 11], "user": [5, 3, 4], "item": [8, 6, 7], "g": 0}
    )


class TestMicroBatchContract:
    def test_sorted_int64_arrays(self):
        pdf = _batch()
        t, users, items = batch_arrays([pdf.iloc[:1], pdf.iloc[:0], pdf.iloc[1:]])
        assert t.tolist() == [10, 11, 12]
        assert users.tolist() == [3, 4, 5]
        assert items.tolist() == [6, 7, 8]
        assert {a.dtype for a in (t, users, items)} == {np.dtype(np.int64)}

    def test_no_rows(self):
        for arrays in (batch_arrays([]), batch_arrays([_batch().iloc[:0]])):
            assert [len(a) for a in arrays] == [0, 0, 0]

    @pytest.mark.parametrize("col", ["t", "user", "item"])
    def test_null_raises(self, col):
        # Arrow hands a null long to pandas as float NaN
        pdf = _batch()
        pdf[col] = pdf[col].astype(np.float64)
        pdf.loc[1, col] = np.nan
        with pytest.raises(ValueError, match="null"):
            batch_arrays([pdf])

    def test_repeated_t_raises(self):
        pdf = _batch()
        pdf.loc[2, "t"] = 12
        with pytest.raises(ValueError, match="repeated t"):
            batch_arrays([pdf.iloc[:1], pdf.iloc[1:]])

    def test_chunk_must_follow_last_t(self):
        t = np.array([10, 11, 12])
        assert next_last_t(t, None) == 12
        assert next_last_t(t, 9) == 12
        assert next_last_t(t[:0], 9) == 9
        for last_t in (10, 12, 20):
            with pytest.raises(ValueError, match="not after the last absorbed t"):
                next_last_t(t, last_t)


_SPARK_TRACES = pytest.mark.parametrize(
    "spark_trace", [freebs_spark_trace, freers_spark_trace]
)


def _edges(spark, t, user=None):
    n = len(t)
    user = list(range(n)) if user is None else user
    rows = list(zip(t, user, range(n)))
    return spark.createDataFrame(rows, "t long, user long, item long")


class TestSparkBatchContract:
    @_SPARK_TRACES
    def test_null_id_raises(self, spark, spark_trace):
        edges = _edges(spark, [0, 1, 2], user=[0, None, 2])
        with pytest.raises(PythonException, match="ValueError: chunk has a null"):
            spark_trace(edges, 64).collect()

    @_SPARK_TRACES
    def test_repeated_t_in_one_batch_raises(self, spark, spark_trace):
        edges = _edges(spark, [0, 1, 1, 2])
        with pytest.raises(PythonException, match="ValueError: chunk has a repeated t"):
            spark_trace(edges, 64).collect()

    @_SPARK_TRACES
    def test_repeated_t_across_batches_raises(
        self, spark, arrow_batch_rows, spark_trace
    ):
        # batches [0, 1] and [1, 2]: each is clean, only their order is not
        arrow_batch_rows(2)
        edges = _edges(spark, [0, 1, 1, 2])
        with pytest.raises(
            PythonException, match="ValueError: chunk starts at t=1, not after"
        ):
            spark_trace(edges, 64).collect()


@pytest.mark.parametrize("stateful", [freebs_stateful, freers_stateful])
def test_stream_file_preceding_the_last_raises(spark, tmp_path, stateful):
    # files staged by hand (write_stream_batches sorts by t): the second
    # file's t's all precede the first file's
    src = tmp_path / "src"
    src.mkdir()
    for i, t in enumerate(([3, 4, 5], [0, 1, 2])):
        p = src / f"batch-{i}.parquet"
        pd.DataFrame({"t": t, "user": t, "item": t}).to_parquet(p, index=False)
        os.utime(p, (1_000_000_000 + i, 1_000_000_000 + i))
    q = (
        stateful(read_edge_stream(spark, src), 64)
        .writeStream.format("noop")
        .option("checkpointLocation", str(tmp_path / "ck"))
        .trigger(availableNow=True)
        .start()
    )
    with pytest.raises(
        StreamingQueryException,
        match="ValueError: chunk starts at t=0, not after the last absorbed t=5",
    ):
        q.awaitTermination(timeout=300)
