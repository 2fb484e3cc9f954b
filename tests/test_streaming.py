"""Structured Streaming stateful implementations vs batch (exactness).

A streaming run over N micro-batches must produce exactly the same
trace/estimates as one batch pass — state (the shared array and its q
bookkeeping) carries across triggers, and across a restart from the
query's checkpoint.
"""
import os

import numpy as np
import pandas as pd
import pytest

from repro.baselines import HllPerUser
from repro.core.freebs import freebs_trace
from repro.core.freers import freers_trace
from repro.streaming import (
    freebs_stateful,
    freers_stateful,
    hllpp_stateful,
    read_edge_stream,
    write_stream_batches,
)


def _stream_pdf(n_users, n_items, n_edges, seed):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "t": np.arange(n_edges, dtype=np.int64),
            "user": rng.integers(0, n_users, n_edges),
            "item": rng.integers(0, n_items, n_edges),
        }
    )


def _run_query(result_df, name):
    q = (
        result_df.writeStream.format("memory")
        .queryName(name)
        .outputMode("append" if name.startswith("free") else "update")
        .trigger(availableNow=True)
        .start()
    )
    q.awaitTermination(timeout=300)
    return q


def _state_store_instances(q):
    """``numStateStoreInstances`` of every non-empty trigger of ``q``."""
    return [
        p.stateOperators[0].numStateStoreInstances
        for p in q.recentProgress
        if p.numInputRows > 0
    ]


def _assert_trace(got, want):
    got = got.sort_values("t").reset_index(drop=True)
    assert np.array_equal(got["t"], want["t"])
    assert np.array_equal(got["user"], want["user"])
    # both drivers run one kernel, and at the tests' M every S is exact
    assert np.array_equal(got["contrib"], want["contrib"])


_SKETCHES = pytest.mark.parametrize(
    "stateful, local, name",
    [
        (freebs_stateful, freebs_trace, "freebs_stream"),
        (freers_stateful, freers_trace, "freers_stream"),
    ],
)


@pytest.fixture(scope="module")
def edges_pdf():
    return _stream_pdf(30, 500, 5000, 7)


class TestSharedSketchStreaming:
    @_SKETCHES
    def test_streaming_equals_batch(
        self, spark, tmp_path, edges_pdf, stateful, local, name
    ):
        M = 1024
        partitions = spark.conf.get("spark.sql.shuffle.partitions")
        assert partitions != "1"  # the session's setting is not the query's
        write_stream_batches(edges_pdf, tmp_path / name, n_batches=5)
        stream = read_edge_stream(spark, tmp_path / name)
        q = _run_query(stateful(stream, M), name)
        assert spark.conf.get("spark.sql.shuffle.partitions") == partitions
        assert _state_store_instances(q) == [1] * 5
        want = local(
            edges_pdf["user"].to_numpy(), edges_pdf["item"].to_numpy(), M
        )
        _assert_trace(spark.table(name).toPandas(), want)

    @_SKETCHES
    def test_restart_from_checkpoint(
        self, spark, tmp_path, edges_pdf, stateful, local, name
    ):
        # three files, stop; two more files with later mtimes, restart
        M = 1024
        staged = write_stream_batches(edges_pdf, tmp_path / "staged", n_batches=5)
        src, out, ck = tmp_path / "src", tmp_path / "out", tmp_path / "ck"
        src.mkdir()
        for files in (staged[:3], staged[3:]):
            for f in files:
                os.rename(f, src / f.name)  # keeps the mtime
            q = (
                stateful(read_edge_stream(spark, src), M)
                .writeStream.format("parquet")
                .option("path", str(out))
                .option("checkpointLocation", str(ck))
                .outputMode("append")
                .trigger(availableNow=True)
                .start()
            )
            q.awaitTermination(timeout=300)
            assert q.exception() is None
            assert _state_store_instances(q) == [1] * len(files)
        want = local(
            edges_pdf["user"].to_numpy(), edges_pdf["item"].to_numpy(), M
        )
        _assert_trace(spark.read.parquet(str(out)).toPandas(), want)

    def test_state_persists_across_many_batches(self, spark, tmp_path):
        # 1 batch vs 10 batches must agree: state round-trips exactly
        pdf = _stream_pdf(10, 200, 1200, 1)
        M = 256
        results = {}
        for n_batches in (1, 10):
            name = f"freebs_nb{n_batches}"
            write_stream_batches(pdf, tmp_path / name, n_batches=n_batches)
            _run_query(
                freebs_stateful(read_edge_stream(spark, tmp_path / name), M),
                name,
            )
            results[n_batches] = (
                spark.table(name).toPandas().sort_values("t").reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(results[1], results[10])

        # more batches than edges: np.array_split writes zero-row files
        tiny = _stream_pdf(3, 20, 6, 2)
        write_stream_batches(tiny, tmp_path / "tiny", n_batches=10)
        _run_query(
            freebs_stateful(read_edge_stream(spark, tmp_path / "tiny"), M),
            "freebs_tiny",
        )
        want = freebs_trace(tiny["user"].to_numpy(), tiny["item"].to_numpy(), M)
        _assert_trace(spark.table("freebs_tiny").toPandas(), want)


class TestPerUserStreaming:
    def test_hllpp_streaming_matches_sequential(self, spark, tmp_path, edges_pdf):
        m = 32
        write_stream_batches(edges_pdf, tmp_path / "hllpp", n_batches=4)
        stream = read_edge_stream(spark, tmp_path / "hllpp")
        _run_query(hllpp_stateful(stream, m=m), "hllpp_stream")
        # memory sink in update mode appends rows per batch; keep the
        # last emitted estimate per user (estimates only grow)
        got = (
            spark.table("hllpp_stream")
            .toPandas()
            .groupby("user")["estimate"]
            .max()
            .sort_index()
        )
        h = HllPerUser(m=m)
        h.run(edges_pdf["user"].to_numpy(), edges_pdf["item"].to_numpy())
        want = h.final_estimates().sort_index()
        np.testing.assert_allclose(got.to_numpy(), want.to_numpy(), rtol=1e-9)
        assert set(got.index) == set(want.index)
