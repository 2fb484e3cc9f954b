"""The paper's primary contribution: FreeBS and FreeRS (§IV).

Each sketch has one event algebra, a numpy kernel that absorbs a
``t``-ordered chunk of arrivals given the prior values at its positions
and the O(1) carry (:func:`freebs_absorb`, :func:`freers_absorb`). The
layers below are proven equivalent by the tests:

* ``*_sequential`` — the paper's Algorithm 1/2 verbatim (a Python loop
  over the stream); reference semantics and the runtime benchmark.
* ``*_trace`` — the kernel once over the whole stream from the empty
  array (DESIGN.md §2); the streaming drivers call it once per
  micro-batch with the state as prior and carry.
* ``*_spark`` — the same reformulation expressed in the Spark DataFrame
  API (windows + pandas UDFs), the distributed implementation.
"""
from repro.core.freebs import (
    freebs_absorb,
    freebs_sequential,
    freebs_spark,
    freebs_spark_trace,
    freebs_trace,
)
from repro.core.freers import (
    freers_absorb,
    freers_sequential,
    freers_spark,
    freers_spark_trace,
    freers_trace,
)
from repro.core.trace import estimates_from_trace

__all__ = [
    "estimates_from_trace",
    "freebs_absorb",
    "freebs_sequential",
    "freebs_trace",
    "freebs_spark",
    "freebs_spark_trace",
    "freers_absorb",
    "freers_sequential",
    "freers_trace",
    "freers_spark",
    "freers_spark_trace",
]
