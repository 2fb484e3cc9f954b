"""Structured Streaming demo — FreeBS/FreeRS as stateful aggregations.

Replays a catalog dataset as a micro-batched file stream and runs the
``applyInPandasWithState`` implementations, printing each non-empty
trigger's time and state-store instance count and the final top
estimated users, cross-checked against the batch implementation.

Run: ``spark-submit jobs/streaming_demo.py [--dataset flickr] [--edges N]``
"""
import argparse
import sys
import tempfile

import numpy as np
from pyspark.sql import SparkSession

from repro.core import estimates_from_trace, freebs_trace, freers_trace
from repro.datasets import CATALOG, generate_stream
from repro.streaming import (
    freebs_stateful,
    freers_stateful,
    read_edge_stream,
    write_stream_batches,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="flickr")
    ap.add_argument("--edges", type=int, default=50_000)
    ap.add_argument("--batches", type=int, default=10)
    ap.add_argument("--M", type=int, default=1 << 20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    spark = SparkSession.builder.appName("streaming-demo").getOrCreate()
    stream = generate_stream(CATALOG[args.dataset], seed=args.seed).head(
        args.edges
    )
    users, items = stream["user"].to_numpy(), stream["item"].to_numpy()

    for name, stateful, local, M in [
        ("freebs", freebs_stateful, freebs_trace, args.M),
        ("freers", freers_stateful, freers_trace, args.M // 5),
    ]:
        with tempfile.TemporaryDirectory() as d:
            write_stream_batches(stream, d, n_batches=args.batches)
            q = (
                stateful(read_edge_stream(spark, d), M, seed=args.seed)
                .writeStream.format("memory")
                .queryName(f"{name}_demo")
                .outputMode("append")
                .trigger(availableNow=True)
                .start()
            )
            q.awaitTermination()
            got = spark.table(f"{name}_demo").toPandas()
        print(f"\n=== {name}: triggers ===")
        for p in q.recentProgress:
            if p.numInputRows > 0:
                print(
                    f"  batch {p.batchId}: {p.numInputRows} edges, "
                    f"{p.durationMs['triggerExecution']} ms, "
                    f"{p.stateOperators[0].numStateStoreInstances} state-store instance(s)"
                )
        est = estimates_from_trace(got).sort_values(ascending=False)
        want = estimates_from_trace(local(users, items, M, seed=args.seed))
        np.testing.assert_allclose(
            est.sort_index().to_numpy(), want.sort_index().to_numpy(), rtol=1e-9
        )
        truth = stream.groupby("user")["item"].nunique()
        print(f"\n=== {name}: streaming == batch ✓ ; top-5 users ===")
        for u, e in est.head(5).items():
            print(f"  user {u}: estimate {e:10.1f}  truth {truth[u]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
