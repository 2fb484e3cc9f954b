"""Benchmark of the FreeBS/FreeRS reproduction: Spark batch, local numpy, streaming.

Run from the root of a checkout::

    python3 perfbench/run.py --workload local --seed 1 --seconds 10 --trace 0

``--workload all`` runs the three workloads in one process. ``--trace 1``
makes a traced run: one traced round plus the layer sweep, reporting
the per-layer metrics instead of the end-to-end ones. ``--smoke`` uses
tiny inputs and one round. Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Metric definitions are in
``perfbench/METRICS.md``.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # nothing is written into the checkout's sources

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("local", "spark-batch", "stream")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    return p.parse_args(argv)


def _src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return out.stdout.strip() if out.returncode == 0 else "n/a (not a git checkout)"


def _mem_total() -> str:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return f"{int(line.split()[1]) // 1024} MiB"
    except OSError:
        pass
    return "n/a"


def _versions() -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    return {
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
    }


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _report(w, ctx, end_to_end, trace: bool) -> dict:
    """Print one workload's lines; return its metrics for the JSON line."""
    from workloads import DEFAULT_M_VIRTUAL, E2E_SOURCE, PER_LAYER

    rec = ctx.rec
    sums = rec.summaries()
    inp = ctx.inp
    ctx.manifest.update(
        workload=w,
        dataset=inp.dataset,
        edges=len(inp.edges),
        fig3_edges=len(inp.fig3),
        M_bits=inp.M,
        M_registers=inp.M_regs,
        m=DEFAULT_M_VIRTUAL,
        sizes=vars(ctx.sizes),
    )
    print("manifest " + json.dumps(ctx.manifest, sort_keys=True))
    for name, s in sorted(sums.items()):
        print(
            f"metric {w} {name} = {_fmt(s['median'])} {s['unit']} "
            f"(q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])}, min {_fmt(s['min'])}, n {s['n']})"
        )
    share = rec.failed / max(rec.attempted, 1)
    print(f"metric {w} failed_op_share = {share:.6g} 1 ({rec.failed} of {rec.attempted} operations)")
    for f in rec.failures:
        print(f"FAILED {w} {f}", file=sys.stderr)
    if trace:
        for name, unit in PER_LAYER:
            print(f"layer {w} {name} = {_fmt(ctx.layers[name])} {unit}")
        top = sorted(ctx.tracer.self_times().items(), key=lambda kv: -kv[1])[:12]
        for name, t in top:
            print(f"self_time {w} {name} = {_fmt(t)} s")
        return {name: {"value": ctx.layers[name], "unit": unit} for name, unit in PER_LAYER}
    source = {"setup_s": "setup_s", **E2E_SOURCE[w]}
    return {name: {"value": sums[source[name]]["median"], "unit": "s"} for name in end_to_end}


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", category=FutureWarning)

    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch_root))
    (tmp / "py").mkdir()
    os.environ["TMPDIR"] = str(tmp / "py")
    tempfile.tempdir = str(tmp / "py")

    import sparkenv
    import workloads as wl

    sizes = wl.SMOKE if args.smoke else wl.FULL
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    base_manifest = {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total": _mem_total(),
        "versions": _versions(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    metrics, attempted, failed = {}, 0, 0
    ctx = spark = spark_start_s = None
    try:
        for w in names:
            ctx = wl.Ctx(w, args.seed, args.seconds, sizes, tmp / w, SRC, bool(args.trace))
            ctx.spark, ctx.spark_start_s = spark, spark_start_s
            ctx.manifest = dict(base_manifest)
            wl.RUNNERS[w](ctx)
            if args.trace:
                wl.layer_sweep(ctx)
                ctx.tracer.write(ROOT / ".perfbench-out" / f"trace-{w}-seed{args.seed}.json")
            spark, spark_start_s = ctx.spark, ctx.spark_start_s
            got = _report(w, ctx, wl.END_TO_END, bool(args.trace))
            prefix = f"{w}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted += ctx.rec.attempted
            failed += ctx.rec.failed
    finally:
        spark = ctx.spark if ctx is not None and ctx.spark is not None else spark
        if spark is not None:
            sparkenv.stop(spark)
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
