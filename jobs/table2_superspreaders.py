"""Table II — super-spreader detection FNR/FPR on all datasets.

The paper's protocol (§V-F): Δ = 5e-5, virtual-sketch size m = 1024,
memory M preserving each dataset's paper load factor (DESIGN.md §5),
tracked per-edge counters for FreeBS, FreeRS, CSE, vHLL, HLL++.

With ``--spark-check`` the FreeBS/FreeRS tracked counters are
additionally recomputed with the Spark DataFrame implementations and
asserted equal — the distributed path produces the very numbers the
table reports.

Run: ``spark-submit jobs/table2_superspreaders.py [--datasets a,b]``
"""
import argparse
import sys
import time

import numpy as np
import pandas as pd

from repro.analysis.harness import TABLE2_METHODS, table2_rows
from repro.datasets import CATALOG, generate_stream

DELTA = 5e-5  # the paper's relative threshold
M_VIRTUAL = 1024  # the paper's m for CSE/vHLL


def table2(
    names: list[str],
    seed: int = 0,
    methods=TABLE2_METHODS,
    spark_check: bool = False,
) -> pd.DataFrame:
    out = []
    for name in names:
        spec = CATALOG[name]
        t0 = time.time()
        stream = generate_stream(spec, seed=seed)
        rows = table2_rows(
            stream, spec.M_bits, delta=DELTA, m=M_VIRTUAL,
            methods=methods, seed=seed,
        )
        rows.insert(0, "dataset", name)
        rows["runtime_s"] = round(time.time() - t0, 1)
        out.append(rows)
        if spark_check:
            _check_free_methods_on_spark(stream, spec.M_bits, seed)
    return pd.concat(out, ignore_index=True)


def _check_free_methods_on_spark(stream, M_bits, seed):
    """Assert Spark FreeBS/FreeRS equal the local tracked counters."""
    from pyspark.sql import SparkSession

    from repro.analysis.harness import REGISTER_WIDTH
    from repro.core import (
        estimates_from_trace,
        freebs_spark,
        freebs_trace,
        freers_spark,
        freers_trace,
    )

    spark = SparkSession.builder.appName("table2-check").getOrCreate()
    sdf = spark.createDataFrame(stream).repartition(16)
    users, items = stream["user"].to_numpy(), stream["item"].to_numpy()
    for spark_fn, local_fn, M in [
        (freebs_spark, freebs_trace, M_bits),
        (freers_spark, freers_trace, max(1, M_bits // REGISTER_WIDTH)),
    ]:
        got = (
            spark_fn(sdf, M, seed=seed)
            .toPandas()
            .set_index("user")["estimate"]
            .sort_index()
        )
        want = estimates_from_trace(local_fn(users, items, M, seed=seed)).sort_index()
        np.testing.assert_allclose(got.to_numpy(), want.to_numpy(), rtol=1e-9)
    print("[table2] spark-check passed: distributed == sequential")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--datasets", default=",".join(CATALOG))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spark-check", action="store_true")
    args = ap.parse_args(argv)
    df = table2(
        args.datasets.split(","), seed=args.seed, spark_check=args.spark_check
    )
    print(f"\n=== Table II (Δ={DELTA}, m={M_VIRTUAL}) ===")
    pivot = df.pivot(index="dataset", columns="method", values=["fnr", "fpr"])
    with pd.option_context("display.float_format", "{:.2e}".format):
        print(pivot.to_string())
    return 0


if __name__ == "__main__":
    sys.exit(main())
