"""Evaluation metrics of the paper.

* Relative standard error RSE(n) — §V-C, used by Fig. 5.
* Super-spreader detection FNR/FPR — §V-F, used by Fig. 6 and Table II.
* Checkpointed estimates from Free* traces — the anytime-available
  ("over time") evaluation.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.trace import estimates_from_trace


def _align(estimates: pd.Series, truth: pd.Series) -> pd.DataFrame:
    """Join estimates to truth on user; users never estimated get 0."""
    df = pd.DataFrame({"n": truth.astype(np.float64)})
    df["est"] = estimates.reindex(truth.index).fillna(0.0)
    return df


def rse_exact(estimates: pd.Series, truth: pd.Series) -> pd.Series:
    """Paper §V-C: ``RSE(n) = (1/n)·sqrt(mean_{s: n_s=n}((n̂_s-n)²))``.

    Index: distinct true cardinality n; value: RSE over the users with
    exactly that cardinality.
    """
    df = _align(estimates, truth)
    df["sq"] = (df["est"] - df["n"]) ** 2
    mse = df.groupby("n")["sq"].mean()
    return (np.sqrt(mse) / mse.index).rename("rse")


def rse_by_bucket(estimates: pd.Series, truth: pd.Series) -> pd.DataFrame:
    """RSE per power-of-two cardinality bucket.

    At reproduction scale few users share an exact large n, so Fig. 5's
    per-n curve is reported per ``floor(log2 n)`` bucket: for each
    bucket we average the squared *relative* error (each user against
    its own n) and report the root. Columns: bucket_lo, bucket_hi,
    n_users, mean_n, rse.
    """
    df = _align(estimates, truth)
    df["bucket"] = np.floor(np.log2(df["n"])).astype(int)
    rows = []
    for b, grp in df.groupby("bucket"):
        rel = (grp["est"] - grp["n"]) / grp["n"]
        rows.append(
            {
                "bucket_lo": 2**b,
                "bucket_hi": 2 ** (b + 1) - 1,
                "n_users": len(grp),
                "mean_n": float(grp["n"].mean()),
                "rse": float(np.sqrt(np.mean(rel**2))),
            }
        )
    return pd.DataFrame(rows).sort_values("bucket_lo").reset_index(drop=True)


def super_spreaders(truth: pd.Series, delta: float) -> tuple[pd.Index, float]:
    """True super spreaders: users with ``n_s >= Δ·n_total`` (§V-F)."""
    threshold = delta * float(truth.sum())
    return truth.index[truth >= threshold], threshold


def detection_metrics(
    estimates: pd.Series, truth: pd.Series, delta: float
) -> dict[str, float]:
    """FNR and FPR of threshold detection at ``Δ`` (§V-F).

    The threshold is ``Δ·n_total`` with the *true* total (both the
    ground-truth labels and the detector use it), isolating per-user
    estimation error, which is what Table II compares. FNR = missed
    spreaders / spreaders; FPR = false alarms / all users.
    """
    spreaders, threshold = super_spreaders(truth, delta)
    est = estimates.reindex(truth.index).fillna(0.0)
    detected = truth.index[est >= threshold]
    n_spread = len(spreaders)
    missed = len(spreaders.difference(detected))
    false_pos = len(detected.difference(spreaders))
    return {
        "threshold": threshold,
        "n_spreaders": float(n_spread),
        "fnr": missed / n_spread if n_spread else float("nan"),
        "fpr": false_pos / len(truth) if len(truth) else float("nan"),
    }


def estimates_at_checkpoints(
    trace: pd.DataFrame, checkpoints: list[int]
) -> dict[int, pd.Series]:
    """Per-user estimates at each checkpoint t from a Free* trace.

    A Free* trace holds one row per accepted event ``(t, user,
    contrib)``; the estimate of a user at checkpoint T is the sum of its
    contributions with ``t < T`` (edge T not yet processed — matching
    the snapshot convention of the sequential baselines).
    """
    trace = trace.sort_values("t")
    t = trace["t"].to_numpy()
    # the rows with t < cp are a prefix of the sorted trace
    return {
        cp: estimates_from_trace(trace.iloc[: np.searchsorted(t, cp)])
        for cp in checkpoints
    }


def truth_at_checkpoints(
    stream: pd.DataFrame, checkpoints: list[int]
) -> dict[int, pd.Series]:
    """Exact per-user cardinalities among the first t edges, per checkpoint."""
    out: dict[int, pd.Series] = {}
    for cp in checkpoints:
        pre = stream[stream["t"] < cp]
        out[cp] = pre.groupby("user")["item"].nunique()
    return out
