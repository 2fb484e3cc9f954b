"""The FreeBS/FreeRS input contract is checked in code: a legal M at every
public entry point, and clean micro-batches in the streaming drivers."""
import numpy as np
import pandas as pd
import pytest

from repro.core import (
    freebs_sequential,
    freebs_spark,
    freebs_spark_trace,
    freebs_trace,
    freers_sequential,
    freers_spark,
    freers_spark_trace,
    freers_trace,
)
from repro.streaming import freebs_stateful, freers_stateful
from repro.streaming.shared_sketch import batch_arrays

_NUMPY = [freebs_sequential, freebs_trace, freers_sequential, freers_trace]
_SPARK = [
    freebs_spark_trace,
    freebs_spark,
    freebs_stateful,
    freers_spark_trace,
    freers_spark,
    freers_stateful,
]


@pytest.fixture(scope="module")
def edges(spark):
    n = np.arange(5, dtype=np.int64)
    return spark.createDataFrame(pd.DataFrame({"t": n, "user": n, "item": n}))


@pytest.mark.parametrize("M", [0, -5, 2.5])
@pytest.mark.parametrize(
    "entry", [pytest.param(f, id=f.__name__) for f in _NUMPY + _SPARK]
)
def test_illegal_M_raises(request, entry, M):
    if entry in _SPARK:
        args = (request.getfixturevalue("edges"),)
    else:
        args = (np.arange(5), np.arange(5))
    with pytest.raises(ValueError, match="M must be an int >= 1"):
        entry(*args, M)


def _batch():
    return pd.DataFrame(
        {"t": [12, 10, 11], "user": [5, 3, 4], "item": [8, 6, 7], "g": 0}
    )


class TestMicroBatchContract:
    def test_sorted_int64_arrays(self):
        pdf = _batch()
        t, users, items = batch_arrays([pdf.iloc[:1], pdf.iloc[:0], pdf.iloc[1:]])
        assert t.tolist() == [10, 11, 12]
        assert users.tolist() == [3, 4, 5]
        assert items.tolist() == [6, 7, 8]
        assert {a.dtype for a in (t, users, items)} == {np.dtype(np.int64)}

    def test_no_rows(self):
        for arrays in (batch_arrays([]), batch_arrays([_batch().iloc[:0]])):
            assert [len(a) for a in arrays] == [0, 0, 0]

    @pytest.mark.parametrize("col", ["t", "user", "item"])
    def test_null_raises(self, col):
        # Arrow hands a null long to pandas as float NaN
        pdf = _batch()
        pdf[col] = pdf[col].astype(np.float64)
        pdf.loc[1, col] = np.nan
        with pytest.raises(ValueError, match="null"):
            batch_arrays([pdf])

    def test_repeated_t_raises(self):
        pdf = _batch()
        pdf.loc[2, "t"] = 12
        with pytest.raises(ValueError, match="repeated t"):
            batch_arrays([pdf.iloc[:1], pdf.iloc[1:]])
