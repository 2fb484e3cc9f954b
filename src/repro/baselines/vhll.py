"""vHLL — virtual-HLL register sharing (paper §III-B-2, Xiao et al. [47]).

One shared array of M ``w``-bit registers. User s's *virtual* HLL
sketch is ``R[f_1(s)], …, R[f_m(s)]``; pair (s, d) max-updates
``R[f_{h(d)}(s)]`` with ``ρ(d)``. The estimator removes the noise other
users leak into the virtual sketch and rescales::

    n̂_s = M/(M-m) · ( α_m m² / Σ_i 2^{-R[f_i(s)]}  -  m α_M M / Σ_j 2^{-R[j]} )

with the standard linear-counting substitution for the first term when
it falls below ``2.5m`` (paper §III-B-2). Estimates are clamped to
``[0, ∞)``. Here M counts *registers* (the paper's M bits correspond to
``M_bits/w`` registers).

Layers mirror :mod:`repro.baselines.cse`: a sequential tracked-counter
run (O(m) per edge) and a Spark batch end-state estimator (register
array reduced with ``max`` per position, broadcast, ``mapInPandas``).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.baselines.estimators import (
    alpha,
    hll_estimate,
    linear_counting,
    pow2_neg_table,
)
from repro.baselines.tracked import VirtualSketch, edge_positions
from repro.hashing import rho_item


def _vhll_formula(
    M: int,
    m: int,
    virtual_hsum: float,
    virtual_zeros: int,
    global_hsum: float,
    global_zeros: int,
) -> float:
    """The vHLL estimator given the two harmonic sums.

    The noise term is ``m/M`` times the HLL estimate of the *total*
    cardinality from the whole array. The paper writes the raw harmonic
    form ``m α_M M / Σ_j 2^{-R[j]}``; like any HLL read-out it needs the
    standard linear-counting small-range correction when the global
    array is lightly loaded (the original vHLL estimator corrects its
    totals the same way) — without it the noise term overshoots by up
    to ~65% at small loads and drags every small user to zero.
    """
    first = alpha(m) * m * m / virtual_hsum
    if first < 2.5 * m and virtual_zeros > 0:
        first = linear_counting(m, virtual_zeros)
    total_est = hll_estimate(M, global_hsum, global_zeros)
    noise = m * total_est / M
    return max(0.0, M / (M - m) * (first - noise))


class VhllSketch(VirtualSketch):
    """Shared register array + per-user tracked counters (sequential)."""

    def __init__(self, M: int, m: int, w: int = 5, seed: int = 0):
        if not 1 <= m < M:
            raise ValueError("need 1 <= m < M")
        super().__init__(M, m, seed)
        self.w = int(w)
        self.cap = (1 << w) - 1
        self._pow2 = pow2_neg_table(self.cap)
        self.R = np.zeros(self.M, dtype=np.uint8)
        self.global_hsum = float(self.M)  # Σ_j 2^{-R[j]}, maintained O(1)
        self.global_zeros = self.M  # #zero registers, maintained O(1)

    def _estimate_at(self, idx: np.ndarray) -> float:
        vals = self.R[idx]
        hsum = float(self._pow2[vals].sum())
        zeros = int((vals == 0).sum())
        return _vhll_formula(
            self.M, self.m, hsum, zeros, self.global_hsum, self.global_zeros
        )

    def update(self, s: int, pos: int, r: int) -> None:
        """Max-update register ``pos`` and refresh s's counter."""
        old = int(self.R[pos])
        if r > old:
            self.global_hsum += self._pow2[r] - self._pow2[old]
            if old == 0:
                self.global_zeros -= 1
            self.R[pos] = r
        self.estimates[s] = self.estimate(s)

    def _cells(self, users: np.ndarray, items: np.ndarray) -> list[np.ndarray]:
        return [
            edge_positions(users, items, self.m, self.M, seed=self.seed),
            rho_item(items, cap=self.cap, seed=self.seed),
        ]


def vhll_spark(
    edges: DataFrame, M: int, m: int, w: int = 5, seed: int = 0
) -> DataFrame:
    """vHLL on Spark: end-of-stream estimates ``(user, estimate)``.

    The final register array is order-independent (elementwise max), so
    it is a ``groupBy(pos).agg(max(rho))`` aggregation; the array is
    then broadcast and users evaluated with
    :meth:`VhllSketch.end_state_estimates` in ``mapInPandas``.
    """
    cap = (1 << w) - 1

    @F.pandas_udf(LongType())
    def pos_udf(user: pd.Series, item: pd.Series) -> pd.Series:
        return pd.Series(edge_positions(user.to_numpy(), item.to_numpy(), m, M, seed))

    @F.pandas_udf(LongType())
    def rho_udf(item: pd.Series) -> pd.Series:
        return pd.Series(rho_item(item.to_numpy(), cap=cap, seed=seed))

    reg_state = (
        edges.select(
            pos_udf("user", "item").alias("pos"), rho_udf("item").alias("rho")
        )
        .groupBy("pos")
        .agg(F.max("rho").alias("r"))
        .toPandas()
    )
    R = np.zeros(M, dtype=np.uint8)
    R[reg_state["pos"].to_numpy()] = reg_state["r"].to_numpy()
    global_hsum = float(pow2_neg_table(cap)[R].sum())
    global_zeros = int((R == 0).sum())
    bR = edges.sparkSession.sparkContext.broadcast(R)

    out_schema = StructType(
        [StructField("user", LongType()), StructField("estimate", DoubleType())]
    )

    def per_user(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        sk = VhllSketch(M, m, w=w, seed=seed)
        sk.R, sk.global_hsum, sk.global_zeros = bR.value, global_hsum, global_zeros
        for pdf in batches:
            est = sk.end_state_estimates(pdf["user"].to_numpy())
            yield pd.DataFrame({"user": est.index, "estimate": est.to_numpy()})

    return edges.select("user").distinct().mapInPandas(per_user, out_schema)
