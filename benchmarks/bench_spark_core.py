"""Benchmarks for the Spark (distributed) implementations.

Times FreeBS/FreeRS end-to-end on Spark over a full catalog dataset
(~0.7M edges — the "SF≈0.1" scale of this reproduction) and the
end-state CSE/vHLL Spark estimators, recording throughput
(EXPERIMENTS.md § Spark throughput). Each method gets one untimed
warm-up call (the first Spark run pays for Python-worker start), then
the median of 3 timed rounds is reported. Correctness of these paths is
covered by tests/; here the assertion is just sanity (row counts).
"""
import pandas as pd
import pytest

from repro.baselines import cse_spark, vhll_spark
from repro.core import freebs_spark, freers_spark
from repro.datasets import CATALOG, generate_stream

from benchmarks._results import save

DATASET = "flickr"

_cache = {}
_times: dict[str, float] = {}


def _edges(spark):
    if "df" not in _cache:
        pdf = generate_stream(CATALOG[DATASET], seed=0)
        _cache["pdf"] = pdf
        _cache["df"] = spark.createDataFrame(pdf).repartition(16).cache()
        _cache["df"].count()
    return _cache["pdf"], _cache["df"]


@pytest.mark.parametrize(
    "name,fn,div",
    [
        ("freebs_spark", freebs_spark, 1),
        ("freers_spark", freers_spark, 5),
        ("cse_spark", lambda df, M: cse_spark(df, M, 1024), 1),
        ("vhll_spark", lambda df, M: vhll_spark(df, M, 1024), 5),
    ],
)
def test_spark_method(benchmark, spark, name, fn, div):
    pdf, df = _edges(spark)
    M = CATALOG[DATASET].M_bits // div

    def run():
        return fn(df, M).count()

    n_users = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert n_users > 0.9 * pdf["user"].nunique()
    _times[name] = benchmark.stats.stats.median

    if len(_times) == 4:
        rows = [
            {
                "method": k,
                "median_s": round(v, 2),
                "edges_per_sec": int(len(pdf) / v),
            }
            for k, v in _times.items()
        ]
        save(
            "spark_throughput",
            f"Spark implementations on {DATASET} "
            f"({len(pdf)} edges, 16 partitions; median of 3 warm rounds)\n"
            + pd.DataFrame(rows).to_string(index=False),
        )
