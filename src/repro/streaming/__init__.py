"""Structured Streaming implementations (the repro-target layering).

The paper's sketches are *streaming* operators; here they are expressed
as Spark Structured Streaming stateful aggregations
(``applyInPandasWithState``):

* :mod:`repro.streaming.shared_sketch` — FreeBS/FreeRS. The shared
  array is global state, so exact semantics require a single state
  group: the packed bit/register array, the incremental ``q``
  bookkeeping and the last ``t`` live in state, and each micro-batch is
  absorbed like one Arrow batch of a Spark batch run
  (``repro.core.freebs.freebs_absorb_chunk`` /
  ``repro.core.freers.freers_absorb_chunk``). Tests assert the
  streaming run equals the batch run exactly. The group runs
  on one state-store partition: the returned DataFrame's ``writeStream``
  starts its query with ``spark.sql.shuffle.partitions`` at 1, changing
  the caller's session setting for the duration of ``start()`` only.
  The count is fixed in the checkpoint at first start, and transforming
  the returned DataFrame before ``writeStream`` drops the policy.
* :mod:`repro.streaming.source` — a deterministic file-backed
  micro-batch edge stream (ordered parquet chunks, one file per
  trigger).
"""
from repro.streaming.source import read_edge_stream, write_stream_batches
from repro.streaming.shared_sketch import freebs_stateful, freers_stateful

__all__ = [
    "write_stream_batches",
    "read_edge_stream",
    "freebs_stateful",
    "freers_stateful",
]
