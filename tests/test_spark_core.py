"""Spark batch FreeBS/FreeRS must equal the local reference exactly.

Also ties the estimators to oracle-verified ground truth: the truth the
estimates are compared against is itself checked Spark-vs-DuckDB.
"""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core import (
    estimates_from_trace,
    freebs_spark,
    freebs_spark_trace,
    freebs_trace,
    freers_spark,
    freers_spark_trace,
    freers_trace,
)
from repro.core.trace import TRACE_SCHEMA
from repro.oracle import assert_equivalent


def _stream_pdf(n_users, n_items, n_edges, seed):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "t": np.arange(n_edges, dtype=np.int64),
            "user": rng.integers(0, n_users, n_edges),
            "item": rng.integers(0, n_items, n_edges),
        }
    )


@pytest.fixture(scope="module")
def small(spark):
    pdf = _stream_pdf(40, 800, 6000, 0)
    return pdf, spark.createDataFrame(pdf).repartition(8)


def _assert_trace_exact(small, arrow_batch_rows, spark_trace, local_trace, M):
    # one kernel in every driver, and every FreeRS S exact at these M:
    # bit for bit, also with the array and carry passed across 6 Arrow
    # batches
    arrow_batch_rows(1000)
    pdf, sdf = small
    got = spark_trace(sdf, M).toPandas().sort_values("t").reset_index(drop=True)
    want = local_trace(pdf["user"].to_numpy(), pdf["item"].to_numpy(), M)
    pd.testing.assert_frame_equal(got, want, check_exact=True)


def _assert_empty_trace(spark, spark_trace, local_trace):
    sdf = spark.createDataFrame([], "t long, user long, item long")
    got = spark_trace(sdf, 64)
    assert got.schema == TRACE_SCHEMA
    empty = np.empty(0, dtype=np.int64)
    pd.testing.assert_frame_equal(
        got.toPandas(), local_trace(empty, empty, 64), check_exact=True
    )


class TestFreeBsSpark:
    @pytest.mark.parametrize("M", [256, 4096])
    def test_trace_matches_local(self, small, arrow_batch_rows, M):
        _assert_trace_exact(
            small, arrow_batch_rows, freebs_spark_trace, freebs_trace, M
        )

    def test_empty_input(self, spark):
        _assert_empty_trace(spark, freebs_spark_trace, freebs_trace)

    def test_estimates_match_local(self, small):
        pdf, sdf = small
        got = (
            freebs_spark(sdf, 1024)
            .toPandas()
            .set_index("user")["estimate"]
            .sort_index()
        )
        want = estimates_from_trace(
            freebs_trace(pdf["user"].to_numpy(), pdf["item"].to_numpy(), 1024)
        ).sort_index()
        np.testing.assert_allclose(got.to_numpy(), want.to_numpy(), rtol=1e-9)
        assert got.index.equals(want.index)

    def test_partitioning_invariant(self, spark):
        # shuffling the physical layout must not change the result
        pdf = _stream_pdf(20, 300, 2000, 3)
        a = (
            freebs_spark(spark.createDataFrame(pdf).repartition(13), 512)
            .toPandas()
            .set_index("user")["estimate"]
            .sort_index()
        )
        b = (
            freebs_spark(spark.createDataFrame(pdf).coalesce(1), 512)
            .toPandas()
            .set_index("user")["estimate"]
            .sort_index()
        )
        pd.testing.assert_series_equal(a, b)


class TestFreeRsSpark:
    @pytest.mark.parametrize("M", [128, 2048])
    def test_trace_matches_local(self, small, arrow_batch_rows, M):
        _assert_trace_exact(
            small, arrow_batch_rows, freers_spark_trace, freers_trace, M
        )

    def test_empty_input(self, spark):
        _assert_empty_trace(spark, freers_spark_trace, freers_trace)

    def test_estimates_match_local(self, small):
        pdf, sdf = small
        got = (
            freers_spark(sdf, 512)
            .toPandas()
            .set_index("user")["estimate"]
            .sort_index()
        )
        want = (
            freers_trace(pdf["user"].to_numpy(), pdf["item"].to_numpy(), 512)
            .groupby("user")["contrib"]
            .sum()
            .sort_index()
        )
        np.testing.assert_allclose(got.to_numpy(), want.to_numpy(), rtol=1e-9)


class TestAgainstOracleTruth:
    def test_estimates_near_oracle_verified_truth(self, spark, small):
        pdf, sdf = small
        truth_df = sdf.groupBy("user").agg(
            F.countDistinct("item").alias("cardinality")
        )
        assert_equivalent(
            truth_df,
            "SELECT user, COUNT(DISTINCT item) AS cardinality "
            "FROM edges GROUP BY user",
            edges=pdf,
        )
        truth = truth_df.toPandas().set_index("user")["cardinality"]
        for fn, M in [(freebs_spark, 1 << 16), (freers_spark, 1 << 14)]:
            est = fn(sdf, M).toPandas().set_index("user")["estimate"]
            joined = pd.DataFrame({"n": truth, "e": est}).fillna(0.0)
            rel = (joined["e"] - joined["n"]) / joined["n"]
            # lightly-loaded array: estimates within a few percent
            assert abs(rel.mean()) < 0.05
            assert np.sqrt((rel**2).mean()) < 0.2
