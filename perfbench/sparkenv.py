"""The Spark session of the benchmark and what Spark reports about its work.

The session mirrors the test suite's ``conftest.py``: ``local[*]``, the
same shuffle-partition setting (64 unless ``SPARK_SHUFFLE_PARTITIONS``
says otherwise), Arrow on and broadcast joins off. On top of that it is
quiet (log level ERROR, no console progress bars) and keeps every file
it writes under the benchmark's temp directory.
"""
from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

_LOG4J = """\
rootLogger.level = error
rootLogger.appenderRef.stderr.ref = console
appender.console.type = Console
appender.console.name = console
appender.console.target = SYSTEM_ERR
appender.console.layout.type = PatternLayout
appender.console.layout.pattern = %d{HH:mm:ss} %p %c{1}: %m%n
"""


def start(tmp: Path, src: Path):
    """Launch the JVM and return the SparkSession (conftest settings)."""
    for d in ("spark-local", "java", "warehouse"):
        (tmp / d).mkdir(parents=True, exist_ok=True)
    log4j = tmp / "log4j2.properties"
    log4j.write_text(_LOG4J)
    mem = os.environ.get("SPARK_DRIVER_MEM", "2g")
    # -XX:-UsePerfData: HotSpot would otherwise write /tmp/hsperfdata_<user>
    java_opts = (
        f"-XX:-UsePerfData -Djava.io.tmpdir={tmp / 'java'} "
        f"-Dlog4j2.configurationFile=file:{log4j}"
    )
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # the spark-submit launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {mem} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={tmp / 'spark-local'} "
        f'--driver-java-options "{java_opts}" '
        "pyspark-shell"
    )
    # Python workers import the program from the checkout, write no
    # bytecode into it, and keep temp files inside the run's directory.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYTHONWARNINGS"] = "ignore::FutureWarning"
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark-local")

    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session, then the JVM, and wait until the JVM has exited."""
    sc = spark.sparkContext
    gateway = sc._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is None:
        return
    # the gateway JVM exits when its stdin closes
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def config(spark) -> dict:
    """The session settings a run depends on, for the manifest."""
    conf = dict(spark.sparkContext.getConf().getAll())
    keys = (
        "spark.master",
        "spark.driver.memory",
        "spark.sql.shuffle.partitions",
        "spark.sql.execution.arrow.pyspark.enabled",
        "spark.sql.autoBroadcastJoinThreshold",
        "spark.ui.showConsoleProgress",
    )
    out = {k: conf.get(k) for k in keys}
    out["spark.sql.shuffle.partitions"] = spark.conf.get("spark.sql.shuffle.partitions")
    out["defaultParallelism"] = spark.sparkContext.defaultParallelism
    return out


def job_counts(spark, group: str, wait_s: float = 10.0) -> dict[str, int]:
    """Jobs, stages, tasks, failed tasks and single-task stages of a job group.

    Read from Spark's ``statusTracker``. Its store is filled by an
    asynchronous listener, so this waits until every job of the group
    has finished. Stages skipped because their shuffle output was reused
    ran no task and are not counted.
    """
    st = spark.sparkContext.statusTracker()
    deadline = time.monotonic() + wait_s
    while True:
        jobs = [st.getJobInfo(j) for j in st.getJobIdsForGroup(group)]
        if all(j is not None and j.status in ("SUCCEEDED", "FAILED") for j in jobs):
            break
        if time.monotonic() > deadline:
            break
        time.sleep(0.05)
    out = {"jobs": len(jobs), "stages": 0, "tasks": 0, "failed_tasks": 0, "single_task_stages": 0}
    for job in jobs:
        for sid in job.stageIds if job is not None else ():
            stage = st.getStageInfo(sid)
            if stage is None or stage.numCompletedTasks + stage.numFailedTasks == 0:
                continue
            out["stages"] += 1
            out["tasks"] += stage.numCompletedTasks
            out["failed_tasks"] += stage.numFailedTasks
            out["single_task_stages"] += int(stage.numTasks == 1)
    return out


def progress(query) -> list[dict]:
    """The query's ``StreamingQueryProgress`` reports as dicts, non-empty triggers only."""
    reports = [json.loads(p.json) for p in query.recentProgress]
    return [r for r in reports if r.get("numInputRows", 0) > 0]
