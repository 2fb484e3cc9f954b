"""Property-based tests (hypothesis) for the exact core invariants."""
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freebs import freebs_absorb, freebs_sequential, freebs_trace
from repro.core.freers import freers_absorb, freers_sequential, freers_trace
from repro.core.trace import trace_frame
from repro.hashing import h_star, rho_star

streams = st.integers(1, 400).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 20), min_size=n, max_size=n),
        st.lists(st.integers(0, 10_000), min_size=n, max_size=n),
        st.integers(4, 2048),  # M
        st.integers(0, 1 << 30),  # seed
    )
)

# a stream plus cut points in 0..n: repeated cuts make empty chunks,
# adjacent ones single-edge chunks
chunked_streams = streams.flatmap(
    lambda d: st.tuples(
        st.just(d), st.lists(st.integers(0, len(d[0])), max_size=12)
    )
)


def _chunks(n, cuts):
    bounds = [0, *sorted(cuts), n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _assert_exact(got, u, i, M, seed, trace, sequential):
    pd.testing.assert_frame_equal(got, trace(u, i, M, seed=seed), check_exact=True)
    pd.testing.assert_frame_equal(
        got, sequential(u, i, M, seed=seed), check_exact=True
    )


@settings(max_examples=40, deadline=None)
@given(chunked_streams)
def test_freebs_chunked_absorb_equals_one_shot(data):
    """Absorbing chunk by chunk, carrying the state, is the one-shot run."""
    (users, items, M, seed), cuts = data
    u, i = np.array(users, dtype=np.int64), np.array(items, dtype=np.int64)
    bits = h_star(u, i, M, seed=seed)
    B, m0, events = np.zeros(M, dtype=bool), M, []
    for c in _chunks(len(u), cuts):
        idx, contrib, m0 = freebs_absorb(bits[c], B[bits[c]], m0, M)
        B[bits[c][idx]] = True
        events.append(trace_frame(c.start + idx, u[c][idx], contrib))
    got = pd.concat(events, ignore_index=True)
    _assert_exact(got, u, i, M, seed, freebs_trace, freebs_sequential)


@settings(max_examples=40, deadline=None)
@given(chunked_streams)
def test_freers_chunked_absorb_equals_one_shot(data):
    """Same for FreeRS; at M <= 2048 every S is dyadic and exact."""
    (users, items, M, seed), cuts = data
    u, i = np.array(users, dtype=np.int64), np.array(items, dtype=np.int64)
    regs = h_star(u, i, M, seed=seed)
    rhos = rho_star(u, i, cap=31, seed=seed)
    R, S, events = np.zeros(M, dtype=np.uint8), float(M), []
    for c in _chunks(len(u), cuts):
        idx, contrib, S = freers_absorb(regs[c], rhos[c], R[regs[c]], S, M)
        np.maximum.at(R, regs[c][idx], rhos[c][idx].astype(np.uint8))
        events.append(trace_frame(c.start + idx, u[c][idx], contrib))
    got = pd.concat(events, ignore_index=True)
    _assert_exact(got, u, i, M, seed, freers_trace, freers_sequential)


@settings(max_examples=40, deadline=None)
@given(streams)
def test_freebs_vectorized_equals_algorithm1(data):
    users, items, M, seed = data
    u, i = np.array(users), np.array(items)
    pd.testing.assert_frame_equal(
        freebs_sequential(u, i, M, seed=seed), freebs_trace(u, i, M, seed=seed)
    )


@settings(max_examples=40, deadline=None)
@given(streams)
def test_freers_vectorized_equals_algorithm2(data):
    users, items, M, seed = data
    u, i = np.array(users), np.array(items)
    pd.testing.assert_frame_equal(
        freers_sequential(u, i, M, seed=seed), freers_trace(u, i, M, seed=seed)
    )


@settings(max_examples=30, deadline=None)
@given(streams)
def test_freebs_estimate_invariants(data):
    users, items, M, seed = data
    u, i = np.array(users), np.array(items)
    trace = freebs_trace(u, i, M, seed=seed)
    # no more events than bits or distinct pairs
    n_pairs = len(pd.DataFrame({"u": u, "i": i}).drop_duplicates())
    assert len(trace) <= min(M, n_pairs)
    # contributions start at 1 and never decrease
    if len(trace):
        c = trace["contrib"].to_numpy()
        assert c[0] >= 1.0
        assert (np.diff(c) >= -1e-12).all()


@settings(max_examples=30, deadline=None)
@given(streams)
def test_stream_order_does_not_change_final_arrays(data):
    """Final sketch state is order-independent (only estimates depend
    on order) — the property that makes the Spark reduction correct."""
    users, items, M, seed = data
    u, i = np.array(users), np.array(items)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(u))
    bits_a = np.unique(h_star(u, i, M, seed=seed))
    bits_b = np.unique(h_star(u[perm], i[perm], M, seed=seed))
    assert np.array_equal(bits_a, bits_b)
    regs = h_star(u, i, M, seed=seed)
    rhos = rho_star(u, i, cap=31, seed=seed)
    final_a = pd.DataFrame({"r": regs, "v": rhos}).groupby("r")["v"].max()
    final_b = (
        pd.DataFrame({"r": regs[perm], "v": rhos[perm]}).groupby("r")["v"].max()
    )
    pd.testing.assert_series_equal(final_a, final_b)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=100),
    st.integers(0, 1 << 20),
)
def test_duplicate_suffix_never_changes_estimates(users, seed):
    """Replaying an exact prefix adds nothing (distinct-counting)."""
    u = np.array(users)
    i = np.arange(len(u)) % 7  # small item space → duplicates likely
    once = freebs_trace(u, i, 512, seed=seed)
    twice = freebs_trace(
        np.concatenate([u, u]), np.concatenate([i, i]), 512, seed=seed
    )
    pd.testing.assert_frame_equal(once, twice)
