"""Integration: sketches vs oracle-verified truth on TPC-H-lite data.

Uses the provided ``repro.synth_data`` generators as a second, OLAP-
flavoured workload: customers are "users", the parts in their orders
are "items", so a customer's cardinality is its count of distinct
ordered parts. Ground truth is a Spark join+countDistinct checked
row-for-row against DuckDB, then the sketch estimators are held to it.
"""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro import synth_data
from repro.core import freebs_spark, freers_spark
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tpch_edges(spark):
    li = synth_data.lineitem(spark, sf=0.005)
    o = synth_data.orders(spark, sf=0.005)
    edges = (
        li.join(o, li.l_orderkey == o.o_orderkey)
        .select(
            F.col("o_custkey").alias("user"),
            F.col("l_partkey").alias("item"),
        )
    )
    pdf = edges.toPandas()
    pdf.insert(0, "t", np.arange(len(pdf), dtype=np.int64))
    return li.toPandas(), o.toPandas(), pdf


class TestTpchGroundTruth:
    def test_truth_matches_duckdb(self, spark, tpch_edges):
        li, o, pdf = tpch_edges
        sdf = spark.createDataFrame(pdf[["user", "item"]])
        got = sdf.groupBy("user").agg(
            F.countDistinct("item").alias("distinct_parts")
        )
        assert_equivalent(
            got,
            "SELECT o_custkey AS user, COUNT(DISTINCT l_partkey) AS distinct_parts "
            "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
            "GROUP BY o_custkey",
            lineitem=li,
            orders=o,
        )


class TestSketchesOnTpch:
    @pytest.mark.parametrize(
        "fn,M", [(freebs_spark, 1 << 20), (freers_spark, 1 << 17)]
    )
    def test_spark_estimates_near_truth(self, spark, tpch_edges, fn, M):
        _, _, pdf = tpch_edges
        sdf = spark.createDataFrame(pdf)
        est = fn(sdf, M).toPandas().set_index("user")["estimate"]
        truth = pdf.groupby("user")["item"].nunique()
        joined = pd.DataFrame({"n": truth, "e": est}).fillna(0.0)
        rel = (joined["e"] - joined["n"]) / joined["n"]
        assert abs(rel.mean()) < 0.05
        assert float(np.sqrt((rel**2).mean())) < 0.35

    def test_total_cardinality_estimate(self, tpch_edges):
        # sum of FreeBS estimates ~ total distinct (user, item) pairs,
        # itself verified against pandas dedup
        from repro.core import estimates_from_trace, freebs_trace

        _, _, pdf = tpch_edges
        n_total = len(pdf.drop_duplicates(["user", "item"]))
        trace = freebs_trace(
            pdf["user"].to_numpy(), pdf["item"].to_numpy(), 1 << 20
        )
        assert estimates_from_trace(trace).sum() == pytest.approx(
            n_total, rel=0.02
        )
