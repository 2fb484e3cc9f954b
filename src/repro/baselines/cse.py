"""CSE — virtual-LPC bit sharing (paper §III-B-1, Yoon et al. [50]).

One shared M-bit array A. User s's *virtual* LPC sketch is the m bits
``A[f_1(s)], …, A[f_m(s)]``; pair (s, d) sets ``A[f_{h(d)}(s)]``. The
estimator subtracts the noise that other users leak into the virtual
sketch::

    n̂_s = -m ln(Û_s/m) + m ln(U/M)

with ``Û_s`` the zero count of the virtual sketch and ``U`` the global
zero count. Estimates are clamped to ``[0, ∞)`` (the noise term can
push small users negative) and the linear-counting terms saturate at
zero-count 1, so the estimation range is ``m ln m`` — the collapse the
paper shows for large-cardinality users.

Two layers:

* :class:`CseSketch` — sequential tracked-counter run (the paper's
  evaluation protocol; O(m) per edge re-estimating the arriving user).
* :func:`cse_spark` — Spark batch: the final array state is a distinct
  aggregation; per-user end-state estimates are a ``mapInPandas`` over
  users with the (small) bit array broadcast to executors.
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.baselines.tracked import VirtualSketch, edge_positions


class CseSketch(VirtualSketch):
    """Shared bit array + per-user tracked counters (sequential)."""

    def __init__(self, M: int, m: int, seed: int = 0):
        if not 1 <= m <= M:
            raise ValueError("need 1 <= m <= M")
        super().__init__(M, m, seed)
        self.A = np.zeros(self.M, dtype=bool)
        self.U = self.M  # global zero count

    def _estimate_at(self, idx: np.ndarray) -> float:
        virtual_zeros = int(self.m - self.A[idx].sum())
        first = -self.m * math.log(max(virtual_zeros, 1) / self.m)
        noise = -self.m * math.log(max(self.U, 1) / self.M)
        return max(0.0, first - noise)

    def update(self, s: int, pos: int) -> None:
        """Set bit ``pos`` (= ``f_{h(d)}(s)``) and refresh s's counter."""
        if not self.A[pos]:
            self.A[pos] = True
            self.U -= 1
        self.estimates[s] = self.estimate(s)

    def _cells(self, users: np.ndarray, items: np.ndarray) -> list[np.ndarray]:
        return [edge_positions(users, items, self.m, self.M, seed=self.seed)]


def cse_spark(edges: DataFrame, M: int, m: int, seed: int = 0) -> DataFrame:
    """CSE on Spark: end-of-stream estimates ``(user, estimate)``.

    The final array state is order-independent (a union of set bits), so
    it distributes cleanly: hash every edge to its bit position, take
    the distinct positions, pack them into an M-bit bitmap on the
    driver, broadcast it, and evaluate every user's virtual sketch with
    :meth:`CseSketch.end_state_estimates` in a ``mapInPandas`` pass.
    """

    @F.pandas_udf(LongType())
    def pos_udf(user: pd.Series, item: pd.Series) -> pd.Series:
        return pd.Series(edge_positions(user.to_numpy(), item.to_numpy(), m, M, seed))

    set_bits = (
        edges.select(pos_udf("user", "item").alias("pos"))
        .distinct()
        .toPandas()["pos"]
        .to_numpy()
    )
    A = np.zeros(M, dtype=bool)
    A[set_bits] = True
    U = int(M - len(set_bits))
    bA = edges.sparkSession.sparkContext.broadcast(np.packbits(A))

    out_schema = StructType(
        [StructField("user", LongType()), StructField("estimate", DoubleType())]
    )

    def per_user(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        sk = CseSketch(M, m, seed=seed)
        sk.A, sk.U = np.unpackbits(bA.value, count=M).astype(bool), U
        for pdf in batches:
            est = sk.end_state_estimates(pdf["user"].to_numpy())
            yield pd.DataFrame({"user": est.index, "estimate": est.to_numpy()})

    return edges.select("user").distinct().mapInPandas(per_user, out_schema)
