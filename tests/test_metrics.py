"""Tests for the evaluation metrics (repro.analysis.metrics)."""
import numpy as np
import pandas as pd
import pytest

from repro.analysis.metrics import (
    detection_metrics,
    estimates_at_checkpoints,
    rse_by_bucket,
    rse_exact,
    super_spreaders,
    truth_at_checkpoints,
)


class TestRse:
    def test_exact_perfect_estimator_is_zero(self):
        truth = pd.Series({1: 10, 2: 10, 3: 20})
        assert (rse_exact(truth.astype(float), truth) == 0).all()

    def test_exact_hand_computed(self):
        truth = pd.Series({1: 10, 2: 10})
        est = pd.Series({1: 12.0, 2: 8.0})
        # RSE(10) = sqrt(mean(4, 4))/10 = 0.2
        assert rse_exact(est, truth).loc[10] == pytest.approx(0.2)

    def test_exact_missing_user_counts_as_zero(self):
        truth = pd.Series({1: 10})
        est = pd.Series(dtype=float)
        assert rse_exact(est, truth).loc[10] == pytest.approx(1.0)

    def test_bucket_boundaries(self):
        truth = pd.Series({1: 1, 2: 3, 3: 4, 4: 7, 5: 8})
        out = rse_by_bucket(truth.astype(float), truth)
        assert list(out["bucket_lo"]) == [1, 2, 4, 8]
        assert out["n_users"].sum() == 5

    def test_bucket_rse_value(self):
        truth = pd.Series({1: 4, 2: 4})
        est = pd.Series({1: 5.0, 2: 3.0})  # rel errs ±0.25
        out = rse_by_bucket(est, truth)
        assert out["rse"].iloc[0] == pytest.approx(0.25)


class TestSuperSpreaders:
    def test_threshold_definition(self):
        truth = pd.Series({1: 100, 2: 5, 3: 895})  # total 1000
        spreaders, thr = super_spreaders(truth, delta=0.05)
        assert thr == pytest.approx(50.0)
        assert set(spreaders) == {1, 3}

    def test_detection_perfect(self):
        truth = pd.Series({1: 100, 2: 5, 3: 895})
        m = detection_metrics(truth.astype(float), truth, delta=0.05)
        assert m["fnr"] == 0.0 and m["fpr"] == 0.0
        assert m["n_spreaders"] == 2

    def test_detection_missed_spreader(self):
        truth = pd.Series({1: 100, 2: 5, 3: 895})
        est = pd.Series({1: 10.0, 2: 5.0, 3: 895.0})  # misses user 1
        m = detection_metrics(est, truth, delta=0.05)
        assert m["fnr"] == pytest.approx(0.5)
        assert m["fpr"] == 0.0

    def test_detection_false_alarm(self):
        truth = pd.Series({1: 100, 2: 5, 3: 895})
        est = pd.Series({1: 100.0, 2: 60.0, 3: 895.0})  # user 2 falsely up
        m = detection_metrics(est, truth, delta=0.05)
        assert m["fnr"] == 0.0
        assert m["fpr"] == pytest.approx(1 / 3)

    def test_detection_missing_estimates_are_zero(self):
        truth = pd.Series({1: 100, 2: 5, 3: 895})
        m = detection_metrics(pd.Series(dtype=float), truth, delta=0.05)
        assert m["fnr"] == 1.0 and m["fpr"] == 0.0

    def test_no_spreaders_yields_nan_fnr(self):
        truth = pd.Series({1: 1, 2: 1})
        m = detection_metrics(truth.astype(float), truth, delta=0.9)
        assert np.isnan(m["fnr"])


class TestCheckpoints:
    def test_trace_cumsum_semantics(self):
        trace = pd.DataFrame(
            {"t": [0, 3, 5], "user": [1, 1, 2], "contrib": [1.0, 2.0, 4.0]}
        )
        snaps = estimates_at_checkpoints(trace, [0, 4, 10])
        assert snaps[0].empty  # nothing strictly before t=0
        assert snaps[4].loc[1] == pytest.approx(3.0)
        assert 2 not in snaps[4].index
        assert snaps[10].loc[2] == pytest.approx(4.0)

    def test_truth_checkpoints(self):
        stream = pd.DataFrame(
            {"t": [0, 1, 2, 3], "user": [1, 1, 1, 2], "item": [5, 5, 6, 7]}
        )
        snaps = truth_at_checkpoints(stream, [2, 4])
        assert snaps[2].loc[1] == 1  # only item 5 seen twice
        assert snaps[4].loc[1] == 2 and snaps[4].loc[2] == 1

    def test_trace_checkpoints_agree_with_sequential_snapshots(self):
        """Free* checkpointed estimates == a sequential run's snapshots."""
        from repro.core.freebs import freebs_sequential

        rng = np.random.default_rng(0)
        users = rng.integers(0, 10, 2000)
        items = rng.integers(0, 300, 2000)
        trace = freebs_sequential(users, items, 512)
        cps = [500, 1500, 2000]
        snaps = estimates_at_checkpoints(trace, cps)
        # replay manually
        for cp in cps:
            manual = trace[trace["t"] < cp].groupby("user")["contrib"].sum()
            pd.testing.assert_series_equal(snaps[cp], manual, check_exact=True)

    def test_unsorted_trace_checkpoints(self):
        """A shuffled trace, checkpoints at 0, at an event's t (which it
        excludes), just after it and past the end: the same sums, bit for
        bit, as masking the sorted trace."""
        from repro.core.freebs import freebs_sequential

        rng = np.random.default_rng(1)
        users = rng.integers(0, 10, 2000)
        items = rng.integers(0, 300, 2000)
        trace = freebs_sequential(users, items, 512)
        t_event = int(trace["t"].iloc[len(trace) // 2])
        cps = [0, t_event, t_event + 1, 10**9]
        snaps = estimates_at_checkpoints(trace.sample(frac=1, random_state=2), cps)
        assert snaps[0].empty
        for cp in cps:
            manual = trace[trace["t"] < cp].groupby("user")["contrib"].sum()
            pd.testing.assert_series_equal(snaps[cp], manual, check_exact=True)
