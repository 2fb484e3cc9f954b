"""Structured Streaming implementations (the repro-target layering).

The paper's sketches are *streaming* operators; here they are expressed
as Spark Structured Streaming stateful aggregations
(``applyInPandasWithState``):

* :mod:`repro.streaming.shared_sketch` — FreeBS/FreeRS. The shared
  array is global state, so exact semantics require a single state
  group: the packed bit/register array plus the incremental ``q``
  bookkeeping live in state and each micro-batch is absorbed by the
  numpy trace's own kernel (``repro.core.freebs.freebs_absorb`` /
  ``repro.core.freers.freers_absorb``), with the state as prior and
  carry. Tests assert the streaming run equals the batch run exactly. The group runs
  on one state-store partition: the returned DataFrame's ``writeStream``
  starts its query with ``spark.sql.shuffle.partitions`` at 1, changing
  the caller's session setting for the duration of ``start()`` only.
  The count is fixed in the checkpoint at first start, and transforming
  the returned DataFrame before ``writeStream`` drops the policy.
* :mod:`repro.streaming.per_user` — the per-key pattern: per-user
  HLL++ sketch arrays keyed by user, emitting each user's current
  estimate every micro-batch.
* :mod:`repro.streaming.source` — a deterministic file-backed
  micro-batch edge stream (ordered parquet chunks, one file per
  trigger).
"""
from repro.streaming.source import read_edge_stream, write_stream_batches
from repro.streaming.shared_sketch import freebs_stateful, freers_stateful
from repro.streaming.per_user import hllpp_stateful

__all__ = [
    "write_stream_batches",
    "read_edge_stream",
    "freebs_stateful",
    "freers_stateful",
    "hllpp_stateful",
]
