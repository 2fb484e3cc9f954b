"""The three workloads and the traced layer sweep.

Every workload follows the same protocol: set up (repeated, median
reported), compute the reference outputs, make one untimed warm-up call
per method, then time rounds of every method until ``--seconds`` have
passed. Each timed call is checked against a reference; see
``Recorder.op``.

* ``local`` — numpy FreeBS/FreeRS traces on twitter plus estimates at 10
  checkpoints, and the Fig. 3 sequential loops on a sanjose prefix.
* ``spark-batch`` — the Spark batch FreeBS/FreeRS on a flickr prefix (CSE
  and vHLL on Spark are checked and timed in the layer sweep).
* ``stream`` — the Structured Streaming FreeBS/FreeRS on a flickr prefix,
  one file per trigger, closed loop.

With ``--trace 1`` the run does one traced round and then
:func:`layer_sweep`, which measures every per-layer metric of
``PER_LAYER`` on the workload's own input.
"""
from __future__ import annotations

import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd

import sparkenv
from timing import Recorder, Tracer

# The program under test, imported through its public modules only.
from repro.analysis.harness import (
    ALL_METHODS,
    DEFAULT_M_VIRTUAL,
    REGISTER_WIDTH,
    measure_update_ns,
)
from repro.analysis.metrics import estimates_at_checkpoints
from repro.baselines import CseSketch, VhllSketch, cse_spark, vhll_spark
from repro.baselines.estimators import pow2_neg_table
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
from repro.datasets import CATALOG, generate_stream
from repro.hashing import f_user, h_item, h_star, rho_item, rho_star
from repro.streaming import (
    freebs_stateful,
    freers_stateful,
    read_edge_stream,
    write_stream_batches,
)

SKETCHES = ("freebs", "freers")
SPARK_METHODS = ("freebs", "freers", "cse", "vhll")
N_CHECKPOINTS = 10
RHO_CAP = (1 << REGISTER_WIDTH) - 1
FIG3_M_BITS = 1 << 23  # measure_update_ns's default M
# Tolerances of tests/test_spark_core.py: t and user exact, contrib rtol.
TRACE_RTOL = {"freebs": 1e-12, "freers": 1e-9}
ESTIMATE_RTOL = 1e-9
N_SAMPLE_USERS = 32  # users whose CSE/vHLL estimates are re-derived
LOCAL_REPEATS = 3  # numpy pipeline calls per sketch in one local round

END_TO_END = ("setup_s", "freebs_s", "freers_s")
# Which recorded metric feeds each generic end-to-end metric, per workload.
E2E_SOURCE = {
    "local": {"freebs_s": "freebs_local_s", "freers_s": "freers_local_s"},
    "spark-batch": {"freebs_s": "freebs_spark_s", "freers_s": "freers_spark_s"},
    "stream": {"freebs_s": "freebs_stream_trigger_s", "freers_s": "freers_stream_trigger_s"},
}

PER_LAYER: list[tuple[str, str]] = [
    ("datasets.generate_s", "s"),
    ("spark.session_start_s", "s"),
    ("spark.cache_s", "s"),
    ("streaming.source_write_s", "s"),
    ("hashing.h_star_s", "s"),
    ("hashing.rho_star_s", "s"),
    ("spark.scan_s", "s"),
    ("hashing.spark_udf_s", "s"),
    *[(f"core.{s}_trace_s", "s") for s in SKETCHES],
    *[(f"core.spark_window_s.{s}", "s") for s in SKETCHES],
    *[(f"core.spark_aggregate_s.{s}", "s") for s in SKETCHES],
    *[(f"core.events.{s}", "count") for s in SKETCHES],
    *[(f"core.events_per_edge.{s}", "events/edge") for s in SKETCHES],
    *[(f"spark.slowdown_vs_numpy.{s}", "x") for s in SKETCHES],
    *[(f"analysis.checkpoints_s.{s}", "s") for s in SKETCHES],
    *[(f"analysis.update_ns_per_edge.{m}", "ns/edge") for m in ALL_METHODS],
    *[(f"baselines.spark_s.{m}", "s") for m in ("cse", "vhll")],
    *[
        (f"spark.{k}.{m}", "count")
        for m in SPARK_METHODS
        for k in ("jobs", "stages", "tasks", "failed_tasks", "single_task_stages")
    ],
    *[
        (f"streaming.{k}.{s}", u)
        for s in SKETCHES
        for k, u in (
            ("trigger_ms", "ms"),
            ("add_batch_ms", "ms"),
            ("commit_ms", "ms"),
            ("wal_ms", "ms"),
            ("state_bytes", "bytes"),
            ("state_store_instances", "count"),
            ("events_per_edge", "events/edge"),
        )
    ],
    ("trace.freebs_s", "s"),
    ("trace.freers_s", "s"),
    ("trace.spans", "count"),
    ("trace.span_cost_s", "s"),
]


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repeat counts of a run."""

    batch_edges: int = 170_000  # flickr prefix of spark-batch; cap of Spark probes
    stream_file_edges: int = 20_000  # edges per micro-batch file
    stream_files: int = 1  # files (= non-empty triggers) per timed query
    fig3_edges: int = 20_000  # sanjose prefix of the Fig. 3 loops
    local_edges: int | None = None  # twitter prefix of local (None: all)
    setup_repeats: int = 5
    one_round: bool = False  # stop after one timed round


FULL = Sizes()
SMOKE = Sizes(
    batch_edges=3_000,
    stream_file_edges=1_000,
    fig3_edges=300,
    local_edges=20_000,
    stream_files=2,
    setup_repeats=1,
    one_round=True,
)


@dataclass
class Input:
    """One workload's generated edges and its shared-array size."""

    dataset: str
    edges: pd.DataFrame
    M: int  # bits; FreeRS/vHLL use M // REGISTER_WIDTH registers
    fig3: pd.DataFrame

    @property
    def M_regs(self) -> int:
        return self.M // REGISTER_WIDTH


@dataclass
class Ctx:
    """State of one run, created by ``run.py`` and passed everywhere."""

    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    tmp: Path
    src: Path
    trace: bool
    rec: Recorder = None
    tracer: Tracer = None
    spark: object = None  # SparkSession, shared by the workloads of one process
    spark_start_s: float = None
    inp: Input = None
    df: object = None  # cached Spark edges (spark-batch, or the sweep)
    spark_refs: dict = None  # numpy/sketch references of ``df``
    layers: dict = field(default_factory=dict)
    groups: dict = field(default_factory=dict)  # op name -> Spark job group
    stream_runs: dict = field(default_factory=dict)  # sketch -> progress reports
    manifest: dict = field(default_factory=dict)
    _n: int = 0

    def __post_init__(self):
        self.tracer = Tracer(self.trace)
        self.rec = Recorder(self.tracer)

    def fresh(self, prefix: str) -> str:
        """A name unique in the process (workloads of one run share a session)."""
        self._n += 1
        return f"{prefix}_{self.workload.replace('-', '_')}_{self._n}"


# ---------------------------------------------------------------- inputs


def _arrays(edges: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.ascontiguousarray(edges["user"].to_numpy(np.int64)),
        np.ascontiguousarray(edges["item"].to_numpy(np.int64)),
    )


def _make_input(ctx: Ctx) -> Input:
    sz = ctx.sizes
    t0 = time.perf_counter()
    with ctx.tracer.span("datasets.generate"):
        if ctx.workload == "local":
            edges = _head(generate_stream(CATALOG["twitter"], seed=ctx.seed), sz.local_edges)
            fig3 = _head(generate_stream(CATALOG["sanjose"], seed=ctx.seed), sz.fig3_edges)
            inp = Input("twitter", edges, CATALOG["twitter"].M_bits, fig3)
        else:
            n = sz.batch_edges if ctx.workload == "spark-batch" else sz.stream_files * sz.stream_file_edges
            edges = _head(generate_stream(CATALOG["flickr"], seed=ctx.seed), n)
            inp = Input("flickr", edges, CATALOG["flickr"].M_bits, edges.iloc[: sz.fig3_edges])
    ctx.rec.add("datasets.generate_s", time.perf_counter() - t0, "s")
    return inp


def _head(edges: pd.DataFrame, n: int | None) -> pd.DataFrame:
    return edges if n is None else edges.iloc[:n].reset_index(drop=True)


def _repeat_setup(ctx: Ctx, prepare) -> None:
    """Generate the input and prepare it ``setup_repeats`` times; median is ``setup_s``."""
    for _ in range(ctx.sizes.setup_repeats):
        t0 = time.perf_counter()
        with ctx.tracer.span("setup"):
            ctx.inp = _make_input(ctx)
            prepare()
        ctx.rec.add("setup_s", time.perf_counter() - t0, "s")


# ---------------------------------------------------------------- checks


def _check_trace(got: pd.DataFrame, want: pd.DataFrame, rtol: float) -> None:
    got = got.sort_values("t").reset_index(drop=True)
    if len(got) != len(want):
        raise AssertionError(f"{len(got)} events, expected {len(want)}")
    if not np.array_equal(got["t"].to_numpy(), want["t"].to_numpy()):
        raise AssertionError("event times differ")
    if not np.array_equal(got["user"].to_numpy(), want["user"].to_numpy()):
        raise AssertionError("event users differ")
    np.testing.assert_allclose(got["contrib"].to_numpy(), want["contrib"].to_numpy(), rtol=rtol)


def _check_series(got: pd.Series, want: pd.Series, rtol: float = ESTIMATE_RTOL) -> None:
    if not got.index.is_unique:
        raise AssertionError("duplicate users")
    got, want = got.sort_index(), want.sort_index()
    if not got.index.equals(want.index):
        raise AssertionError(f"{len(got)} users, expected {len(want)}")
    np.testing.assert_allclose(got.to_numpy(), want.to_numpy(), rtol=rtol)


def _estimates(pdf: pd.DataFrame) -> pd.Series:
    return pdf.set_index("user")["estimate"]


def _checkpoints(n: int) -> list[int]:
    return [int(n * (k + 1) / N_CHECKPOINTS) for k in range(N_CHECKPOINTS)]


def _checkpoint_reference(trace: pd.DataFrame, cps: list[int]) -> dict[int, pd.Series]:
    """Per-user prefix sums at each checkpoint, by bincount (independent of pandas groupby)."""
    t = trace["t"].to_numpy()
    codes, users = pd.factorize(trace["user"])
    contrib = trace["contrib"].to_numpy()
    out = {}
    for cp in cps:
        k = int(np.searchsorted(t, cp))
        sums = np.bincount(codes[:k], weights=contrib[:k], minlength=len(users))
        seen = np.bincount(codes[:k], minlength=len(users)) > 0
        out[cp] = pd.Series(sums[seen], index=users[seen])
    return out


def _check_local(want_trace, want_cps, rtol):
    def check(out):
        trace, snaps = out
        _check_trace(trace, want_trace, rtol)
        if sorted(snaps) != sorted(want_cps):
            raise AssertionError("checkpoints differ")
        for cp, want in want_cps.items():
            _check_series(snaps[cp], want)

    return check


def _check_positive(ns: float) -> None:
    if not (math.isfinite(ns) and ns > 0):
        raise AssertionError(f"bad ns/edge {ns}")


def _baseline_references(edges: pd.DataFrame, M: int, rng: np.random.Generator) -> dict:
    """CSE/vHLL estimates of a seeded user sample, from sketches holding the end state of ``edges``.

    The end state is order-independent, so it is set in one vectorized
    pass with the sketches' own hash functions; the per-user estimates of
    the sample then come from ``end_state_estimates``.
    """
    users, items = _arrays(edges)
    m, M_regs = DEFAULT_M_VIRTUAL, M // REGISTER_WIDTH
    cse = CseSketch(M=M, m=m)
    cse.A[f_user(users, h_item(items, m), M)] = True
    cse.U = int(M - cse.A.sum())
    vhll = VhllSketch(M=M_regs, m=m, w=REGISTER_WIDTH)
    vpos = f_user(users, h_item(items, m), M_regs)
    np.maximum.at(vhll.R, vpos, rho_item(items, cap=RHO_CAP).astype(np.uint8))
    vhll.global_hsum = float(pow2_neg_table(RHO_CAP)[vhll.R].sum())
    vhll.global_zeros = int((vhll.R == 0).sum())
    distinct = np.unique(users)
    sample = rng.choice(distinct, size=min(N_SAMPLE_USERS, len(distinct)), replace=False)
    return {
        "users": distinct,
        "cse": cse.end_state_estimates(sample),
        "vhll": vhll.end_state_estimates(sample),
    }


def _check_baseline(ref, method):
    def check(pdf: pd.DataFrame):
        est = _estimates(pdf)
        if not est.index.is_unique or len(est) != len(ref["users"]):
            raise AssertionError(f"{len(est)} rows for {len(ref['users'])} users")
        if not np.array_equal(np.sort(est.index.to_numpy()), ref["users"]):
            raise AssertionError("user sets differ")
        vals = est.to_numpy()
        if not (np.isfinite(vals).all() and (vals >= 0).all()):
            raise AssertionError("non-finite or negative estimate")
        want = ref[method]
        _check_series(est.loc[want.index], want)

    return check


# ---------------------------------------------------------------- rounds


def _rounds(ctx: Ctx, make_ops) -> None:
    """Time rounds of ``make_ops()`` (name, fn, check, metric) until ``seconds`` pass.

    A traced run times one round.
    """
    t_end = time.perf_counter() + ctx.seconds
    while True:
        for name, fn, check, metric in make_ops():
            ctx.rec.op(name, fn, check, metric)
        if ctx.trace or ctx.sizes.one_round or time.perf_counter() >= t_end:
            return


def _warm(ctx: Ctx, ops: list) -> None:
    for name, fn, check, _ in ops:
        ctx.rec.op(f"warmup.{name}", fn, check)


# ---------------------------------------------------------------- local


def _local_ops(ctx: Ctx, refs) -> list:
    inp = ctx.inp
    users, items = _arrays(inp.edges)
    cps = _checkpoints(len(users))
    fu, fi = _arrays(inp.fig3)
    tr = ctx.tracer

    def freebs_local():
        with tr.span("core.freebs_trace"):
            trace = freebs_trace(users, items, inp.M)
        with tr.span("analysis.checkpoints.freebs"):
            return trace, estimates_at_checkpoints(trace, cps)

    def freers_local():
        with tr.span("core.freers_trace"):
            trace = freers_trace(users, items, inp.M_regs, w=REGISTER_WIDTH)
        with tr.span("analysis.checkpoints.freers"):
            return trace, estimates_at_checkpoints(trace, cps)

    # the numpy pipelines take ~0.3 s, the loops ~3 s: repeat the former
    ops = [
        ("freebs_local", freebs_local, _check_local(*refs["freebs"], TRACE_RTOL["freebs"]), "freebs_local_s"),
        ("freers_local", freers_local, _check_local(*refs["freers"], TRACE_RTOL["freers"]), "freers_local_s"),
    ] * LOCAL_REPEATS
    for method in ALL_METHODS:

        def fig3(method=method):
            return measure_update_ns(method, fu, fi, m=DEFAULT_M_VIRTUAL)

        ops.append((f"seq.{method}", fig3, _check_positive, (f"{method}_seq_ns_per_edge", "ns/edge")))
    return ops


def run_local(ctx: Ctx) -> None:
    _repeat_setup(ctx, lambda: _arrays(ctx.inp.edges))
    inp = ctx.inp
    users, items = _arrays(inp.edges)
    cps = _checkpoints(len(users))
    with ctx.tracer.span("reference"):
        # Algorithm 1/2 loops are the reference of the numpy traces
        seq = {
            "freebs": freebs_sequential(users, items, inp.M),
            "freers": freers_sequential(users, items, inp.M_regs, w=REGISTER_WIDTH),
        }
        refs = {s: (seq[s], _checkpoint_reference(seq[s], cps)) for s in SKETCHES}
    # the Fig. 3 loops of FreeBS/FreeRS must give the numpy traces
    fu, fi = _arrays(inp.fig3)
    fig3_regs = max(DEFAULT_M_VIRTUAL + 1, FIG3_M_BITS // REGISTER_WIDTH)
    for s, seq_fn, trace_fn, M in (
        ("freebs", freebs_sequential, freebs_trace, FIG3_M_BITS),
        ("freers", freers_sequential, freers_trace, fig3_regs),
    ):
        want = trace_fn(fu, fi, M)
        ctx.rec.op(
            f"check.seq_equals_trace.{s}",
            lambda: seq_fn(fu, fi, M),
            lambda got, want=want, s=s: _check_trace(got, want, TRACE_RTOL[s]),
        )
    ops = _local_ops(ctx, refs)
    _warm(ctx, list({op[0]: op for op in ops}.values()))  # each operation once
    _rounds(ctx, lambda: ops)


# ---------------------------------------------------------------- spark


def _spark(ctx: Ctx):
    if ctx.spark is None:
        t0 = time.perf_counter()
        with ctx.tracer.span("spark.session_start"):
            ctx.spark = sparkenv.start(ctx.tmp, ctx.src)
        ctx.spark_start_s = time.perf_counter() - t0
    ctx.layers["spark.session_start_s"] = ctx.spark_start_s
    ctx.manifest["spark_config"] = sparkenv.config(ctx.spark)
    return ctx.spark


def _cache(ctx: Ctx, edges: pd.DataFrame):
    spark = _spark(ctx)
    if ctx.df is not None:
        ctx.df.unpersist(blocking=True)
    t0 = time.perf_counter()
    with ctx.tracer.span("spark.cache"):
        ctx.df = spark.createDataFrame(edges).repartition(16).cache()
        ctx.df.count()
    ctx.rec.add("spark.cache_s", time.perf_counter() - t0, "s")
    return ctx.df


def _in_group(ctx: Ctx, name: str, fn):
    """Run ``fn`` under a fresh Spark job group remembered as ``name``."""

    def run():
        group = ctx.fresh(name)
        ctx.groups[name] = group
        sc = ctx.spark.sparkContext
        sc.setJobGroup(group, name)
        try:
            return fn()
        finally:
            sc.setJobGroup("perfbench-idle", "idle")

    return run


def _spark_ops(ctx: Ctx, df, inp: Input, refs) -> list:
    m = DEFAULT_M_VIRTUAL
    calls = {
        "freebs": lambda: freebs_spark(df, inp.M).toPandas(),
        "freers": lambda: freers_spark(df, inp.M_regs, w=REGISTER_WIDTH).toPandas(),
        "cse": lambda: cse_spark(df, inp.M, m).toPandas(),
        "vhll": lambda: vhll_spark(df, inp.M_regs, m, w=REGISTER_WIDTH).toPandas(),
    }
    checks = {
        "freebs": lambda pdf: _check_series(_estimates(pdf), refs["freebs_est"]),
        "freers": lambda pdf: _check_series(_estimates(pdf), refs["freers_est"]),
        "cse": _check_baseline(refs, "cse"),
        "vhll": _check_baseline(refs, "vhll"),
    }
    return [
        (f"{k}_spark", _in_group(ctx, f"{k}_spark", calls[k]), checks[k], f"{k}_spark_s")
        for k in SPARK_METHODS
    ]


def _spark_refs(ctx: Ctx, inp: Input, edges: pd.DataFrame) -> dict:
    users, items = _arrays(edges)
    refs = _baseline_references(edges, inp.M, np.random.default_rng(ctx.seed))
    refs["freebs"] = freebs_trace(users, items, inp.M)
    refs["freers"] = freers_trace(users, items, inp.M_regs, w=REGISTER_WIDTH)
    for s in SKETCHES:
        refs[f"{s}_est"] = refs[s].groupby("user")["contrib"].sum()
    return refs


def _spark_trace_checks(df, inp: Input, refs) -> list:
    """Untimed trace collections checked against numpy; they also warm up the plans."""
    return [
        (
            "freebs_spark_trace",
            lambda: freebs_spark_trace(df, inp.M).toPandas(),
            lambda got: _check_trace(got, refs["freebs"], TRACE_RTOL["freebs"]),
            None,
        ),
        (
            "freers_spark_trace",
            lambda: freers_spark_trace(df, inp.M_regs, w=REGISTER_WIDTH).toPandas(),
            lambda got: _check_trace(got, refs["freers"], TRACE_RTOL["freers"]),
            None,
        ),
    ]


def run_spark_batch(ctx: Ctx) -> None:
    _spark(ctx)
    _repeat_setup(ctx, lambda: _cache(ctx, ctx.inp.edges))
    inp = ctx.inp
    with ctx.tracer.span("reference"):
        ctx.spark_refs = _spark_refs(ctx, inp, inp.edges)
    ops = _spark_ops(ctx, ctx.df, inp, ctx.spark_refs)[:2]
    # The rounds time FreeBS/FreeRS; CSE/vHLL are timed in the layer sweep.
    # Warm-up: the checked trace collections, then one checked round, as
    # the JIT keeps speeding up the first few calls.
    _warm(ctx, _spark_trace_checks(ctx.df, inp, ctx.spark_refs) + ops)
    _rounds(ctx, lambda: ops)


# ---------------------------------------------------------------- stream


_STATEFUL = {"freebs": freebs_stateful, "freers": freers_stateful}


def _write_stream(ctx: Ctx, edges: pd.DataFrame, files: int) -> dict:
    """Write the warm-up file and ``files`` timed files into fresh directories."""
    root = ctx.tmp / ctx.fresh("stream")
    t0 = time.perf_counter()
    with ctx.tracer.span("streaming.source_write"):
        warm = edges.iloc[: ctx.sizes.stream_file_edges]
        write_stream_batches(warm, root / "warmup", n_batches=1)
        write_stream_batches(edges, root / "timed", n_batches=files)
    ctx.rec.add("streaming.source_write_s", time.perf_counter() - t0, "s")
    return {"root": root, "files": files, "warmup": warm, "timed": edges}


def _stream_op(ctx: Ctx, sketch: str, source: dict, part: str, want: pd.DataFrame):
    """One closed-loop query over ``source[part]``: every file is one trigger.

    The output is kept in a memory sink and checked. For the timed part,
    each non-empty trigger's ``triggerExecution`` is a sample.
    """
    name = ctx.fresh(sketch)
    spark = _spark(ctx)
    files = source["root"] / part
    M = ctx.inp.M if sketch == "freebs" else ctx.inp.M_regs

    def run():
        result = _STATEFUL[sketch](read_edge_stream(spark, files), M)
        q = (
            result.writeStream.format("memory")
            .queryName(name)
            .outputMode("append")
            .option("checkpointLocation", str(source["root"] / f"ck-{name}"))
            .trigger(availableNow=True)
            .start()
        )
        q.awaitTermination()
        if q.exception() is not None:
            raise RuntimeError(str(q.exception()))
        return q

    def check(q):
        _check_trace(spark.table(name).toPandas(), want, TRACE_RTOL[sketch])
        if part != "timed":
            return
        reports = sparkenv.progress(q)
        if len(reports) != source["files"]:
            raise AssertionError(f"{len(reports)} non-empty triggers for {source['files']} files")
        ctx.stream_runs[sketch] = reports
        for r in reports:
            ms = r["durationMs"]["triggerExecution"]
            ctx.rec.add(f"{sketch}_stream_trigger_ms", ms, "ms")
            ctx.rec.add(f"{sketch}_stream_trigger_s", ms / 1e3, "s")

    return run, check


def _stream_refs(ctx: Ctx, source: dict) -> dict:
    inp = ctx.inp
    refs = {}
    for part in ("warmup", "timed"):
        u, i = _arrays(source[part])
        refs[("freebs", part)] = freebs_trace(u, i, inp.M)
        refs[("freers", part)] = freers_trace(u, i, inp.M_regs, w=REGISTER_WIDTH)
    return refs


def _stream_round(ctx: Ctx, source: dict, refs: dict) -> list:
    """A fresh query (and checkpoint) per sketch."""
    ops = []
    for s in SKETCHES:
        run, check = _stream_op(ctx, s, source, "timed", refs[(s, "timed")])
        ops.append((f"{s}_stream", run, check, None))
    return ops


def run_stream(ctx: Ctx) -> None:
    _spark(ctx)
    holder = {}

    def prepare():
        if "source" in holder:
            shutil.rmtree(holder["source"]["root"])
        holder["source"] = _write_stream(ctx, ctx.inp.edges, ctx.sizes.stream_files)

    _repeat_setup(ctx, prepare)
    source = holder["source"]
    with ctx.tracer.span("reference"):
        refs = _stream_refs(ctx, source)
    # one warm-up query: the first trigger in a JVM is about twice as slow
    run, check = _stream_op(ctx, "freebs", source, "warmup", refs[("freebs", "warmup")])
    ctx.rec.op("warmup.freebs_stream", run, check)
    _rounds(ctx, lambda: _stream_round(ctx, source, refs))


RUNNERS = {"local": run_local, "spark-batch": run_spark_batch, "stream": run_stream}


# ---------------------------------------------------------------- layer sweep


def _timings(fn, repeats: int) -> tuple[list[float], object]:
    """Wall times of ``repeats`` calls of ``fn``, and its last output."""
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def _median_time(fn, repeats: int = 3) -> tuple[float, object]:
    times, out = _timings(fn, repeats)
    return statistics.median(times), out


def _noop(df) -> None:
    df.write.format("noop").mode("overwrite").save()


def _hash_prefix(df, M: int, M_regs: int, sketch: str):
    """The edges plus the sketch's pandas-UDF hash columns, as in ``*_spark_trace``."""
    from pyspark.sql import functions as F
    from pyspark.sql.types import LongType

    @F.pandas_udf(LongType())
    def h_udf(user: pd.Series, item: pd.Series) -> pd.Series:
        return pd.Series(h_star(user.to_numpy(), item.to_numpy(), M if sketch == "freebs" else M_regs))

    @F.pandas_udf(LongType())
    def rho_udf(user: pd.Series, item: pd.Series) -> pd.Series:
        return pd.Series(rho_star(user.to_numpy(), item.to_numpy(), cap=RHO_CAP))

    out = df.withColumn("h", h_udf("user", "item"))
    return out.withColumn("rho", rho_udf("user", "item")) if sketch == "freers" else out


def _sweep_numpy(ctx: Ctx, inp: Input) -> None:
    L = ctx.layers
    users, items = _arrays(inp.edges)
    cps = _checkpoints(len(users))
    with ctx.tracer.span("sweep.numpy"):
        L["hashing.h_star_s"], _ = _median_time(lambda: h_star(users, items, inp.M))
        L["hashing.rho_star_s"], _ = _median_time(lambda: rho_star(users, items, cap=RHO_CAP))
        for s, fn, M in (("freebs", freebs_trace, inp.M), ("freers", freers_trace, inp.M_regs)):
            L[f"core.{s}_trace_s"], trace = _median_time(lambda: fn(users, items, M))
            L[f"analysis.checkpoints_s.{s}"], _ = _median_time(
                lambda: estimates_at_checkpoints(trace, cps)
            )
            L[f"core.events.{s}"] = len(trace)
            L[f"core.events_per_edge.{s}"] = len(trace) / len(users)


def _sweep_fig3(ctx: Ctx, inp: Input) -> None:
    fu, fi = _arrays(inp.fig3)
    with ctx.tracer.span("sweep.fig3"):
        for method in ALL_METHODS:
            got = ctx.rec.samples.get(f"{method}_seq_ns_per_edge")
            ns = statistics.median(got) if got else measure_update_ns(method, fu, fi, m=DEFAULT_M_VIRTUAL)
            ctx.layers[f"analysis.update_ns_per_edge.{method}"] = ns


def _sweep_spark(ctx: Ctx, inp: Input) -> None:
    L = ctx.layers
    edges = inp.edges.iloc[: ctx.sizes.batch_edges]
    spark = _spark(ctx)
    own = ctx.workload == "spark-batch"
    df = ctx.df if own else _cache(ctx, edges)
    if not own:
        ctx.spark_refs = _spark_refs(ctx, inp, edges)
        # one checked call warms the shared plans
        _warm(ctx, _spark_trace_checks(df, inp, ctx.spark_refs)[:1])
    baselines = _spark_ops(ctx, df, inp, ctx.spark_refs)[2:]
    if own:
        _warm(ctx, baselines)
    for name, fn, check, metric in baselines:
        ctx.rec.op(name, fn, check, metric)
    for m in ("cse", "vhll"):
        L[f"baselines.spark_s.{m}"] = statistics.median(ctx.rec.samples[f"{m}_spark_s"])
    u, i = _arrays(edges)
    probes = {
        "scan": lambda: _noop(df),
        "hash.freebs": lambda: _noop(_hash_prefix(df, inp.M, inp.M_regs, "freebs")),
        "hash.freers": lambda: _noop(_hash_prefix(df, inp.M, inp.M_regs, "freers")),
        "trace.freebs": lambda: _noop(freebs_spark_trace(df, inp.M)),
        "trace.freers": lambda: _noop(freers_spark_trace(df, inp.M_regs, w=REGISTER_WIDTH)),
        "full.freebs": lambda: _noop(freebs_spark(df, inp.M)),
        "full.freers": lambda: _noop(freers_spark(df, inp.M_regs, w=REGISTER_WIDTH)),
    }
    t = {}
    for name, fn in probes.items():
        with ctx.tracer.span(f"sweep.spark.{name}"):
            # fastest of two: the probes are differenced, so noise is kept low
            t[name] = min(_timings(_in_group(ctx, name, fn), repeats=2)[0])
    L["spark.scan_s"] = t["scan"]
    L["hashing.spark_udf_s"] = t["hash.freebs"] - t["scan"]
    for s in SKETCHES:
        L[f"core.spark_window_s.{s}"] = t[f"trace.{s}"] - t[f"hash.{s}"]
        L[f"core.spark_aggregate_s.{s}"] = t[f"full.{s}"] - t[f"trace.{s}"]
        fn, M = (freebs_trace, inp.M) if s == "freebs" else (freers_trace, inp.M_regs)
        numpy_s, _ = _median_time(lambda: fn(u, i, M))
        L[f"spark.slowdown_vs_numpy.{s}"] = t[f"full.{s}"] / numpy_s
    groups = {"freebs": "full.freebs", "freers": "full.freers", "cse": "cse_spark", "vhll": "vhll_spark"}
    for m, op in groups.items():
        for k, v in sparkenv.job_counts(spark, ctx.groups[op]).items():
            L[f"spark.{k}.{m}"] = v


def _sweep_stream(ctx: Ctx, inp: Input) -> None:
    if ctx.workload != "stream":
        # one file (trigger) per query and no warm-up query: the JVM is
        # already warm from the Spark probes
        source = _write_stream(ctx, inp.edges.iloc[: ctx.sizes.stream_file_edges], files=1)
        refs = _stream_refs(ctx, source)
        for name, run, check, _ in _stream_round(ctx, source, refs):
            ctx.rec.op(name, run, check)
    L, med = ctx.layers, statistics.median
    for s in SKETCHES:
        reports = ctx.stream_runs[s]
        ops = [r["stateOperators"][0] for r in reports]
        L[f"streaming.trigger_ms.{s}"] = med([r["durationMs"]["triggerExecution"] for r in reports])
        L[f"streaming.add_batch_ms.{s}"] = med([r["durationMs"]["addBatch"] for r in reports])
        L[f"streaming.wal_ms.{s}"] = med([r["durationMs"]["walCommit"] for r in reports])
        L[f"streaming.commit_ms.{s}"] = med([o["commitTimeMs"] for o in ops])
        L[f"streaming.state_bytes.{s}"] = ops[-1]["customMetrics"]["stateOnCurrentVersionSizeBytes"]
        L[f"streaming.state_store_instances.{s}"] = ops[-1]["numStateStoreInstances"]
        rows_in = sum(r["numInputRows"] for r in reports)
        L[f"streaming.events_per_edge.{s}"] = sum(r["sink"]["numOutputRows"] for r in reports) / rows_in


def layer_sweep(ctx: Ctx) -> None:
    """Measure every ``PER_LAYER`` metric on this workload's input."""
    inp, L, rec = ctx.inp, ctx.layers, ctx.rec
    # the traced round's end-to-end values, for the tracing overhead
    for k in ("freebs_s", "freers_s"):
        L[f"trace.{k}"] = statistics.median(rec.samples[E2E_SOURCE[ctx.workload][k]])
    _sweep_numpy(ctx, inp)
    _sweep_fig3(ctx, inp)
    _sweep_spark(ctx, inp)
    _sweep_stream(ctx, inp)
    for k in ("datasets.generate_s", "spark.cache_s", "streaming.source_write_s"):
        L[k] = statistics.median(rec.samples[k])
    # cost of the spans themselves: time 10k empty spans, scale to the count kept
    n = len(ctx.tracer.spans)
    probe = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(10_000):
        with probe.span("x"):
            pass
    L["trace.spans"] = n
    L["trace.span_cost_s"] = (time.perf_counter() - t0) / 10_000 * n
