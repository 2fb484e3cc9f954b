"""Timing primitives of the benchmark: samples, spans and the correctness gate.

Nothing here imports the program under test; ``workloads.py`` wraps its
public calls with these helpers.
"""
from __future__ import annotations

import json
import statistics
import time
import traceback
from contextlib import contextmanager
from pathlib import Path


def summary(values: list[float]) -> dict:
    """Median, quartiles, minimum and sample count of one metric."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "n": len(values)}


class Tracer:
    """In-memory spans ``(name, start, end, parent)``; a no-op when disabled.

    Spans are opened only in the benchmark's own code, around calls into
    the program, so the untraced runs pay nothing but one branch.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[i]
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": rows, "self_s": self.self_times()}, indent=1)
        )


class Recorder:
    """Samples per metric plus the per-operation correctness gate.

    :meth:`op` times one call into the program, then runs its check. An
    operation that raises, or whose check raises, counts as failed and
    leaves no sample; ``failed / attempted`` is ``failed_op_share``.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.units: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, metric: str, value: float, unit: str) -> None:
        self.samples.setdefault(metric, []).append(float(value))
        self.units[metric] = unit

    def op(self, name: str, fn, check=None, metric=None):
        """Run ``fn`` timed (as span ``name``); return ``(output, seconds)``.

        ``check(output)`` must raise on a wrong result. On success, a
        ``metric`` name records the wall time in seconds, and a
        ``(name, unit)`` pair records the output itself as the sample.
        Returns ``(None, None)`` for a failed operation.
        """
        self.attempted += 1
        try:
            with self.tracer.span(name):
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
            if check is not None:
                with self.tracer.span(f"check.{name}"):
                    check(out)
        except Exception:  # a failed op is reported, the run goes on
            self.failed += 1
            self.failures.append(f"{name}: {traceback.format_exc(limit=3)}")
            return None, None
        if isinstance(metric, tuple):
            self.add(metric[0], out, metric[1])
        elif metric is not None:
            self.add(metric, dt, "s")
        return out, dt

    def summaries(self) -> dict[str, dict]:
        return {
            k: {**summary(v), "unit": self.units[k]}
            for k, v in self.samples.items()
            if v
        }
