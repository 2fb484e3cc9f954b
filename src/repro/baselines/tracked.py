"""The tracked-counter protocol shared by the baselines (paper §V-B).

Every baseline keeps one counter per user, refreshed on each arrival of
that user; :class:`TrackedCounters` streams the edges and snapshots the
counters at checkpoints. CSE and vHLL additionally share one array of M
cells in which user s reads the m cells ``f_1(s)..f_m(s)``
(:class:`VirtualSketch`).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.hashing import f_user, h_item


class TrackedCounters:
    """Per-user tracked counters.

    Subclasses define ``_cells(users, items)``, the hashed per-edge
    arguments of ``update`` after the user, and ``update(s, *cells)``.
    """

    def __init__(self):
        self.estimates: dict[int, float] = {}

    def run(
        self,
        users: np.ndarray,
        items: np.ndarray,
        checkpoints: list[int] | None = None,
        **update_kwargs,
    ) -> dict[int, dict[int, float]]:
        """Stream all edges; return estimate snapshots at checkpoints.

        ``checkpoints`` are arrival indices t; the snapshot at t holds the
        counters before edge t is processed. The final state is always
        available via ``estimates``. ``update_kwargs`` are passed to every
        ``update`` (the per-user sketches' ``enumerate_state``).
        """
        users = np.asarray(users, dtype=np.int64)
        cells = self._cells(users, np.asarray(items, dtype=np.int64))
        snaps: dict[int, dict[int, float]] = {}
        cps = sorted(checkpoints or [])
        ci = 0
        for t, row in enumerate(zip(*(c.tolist() for c in (users, *cells)))):
            while ci < len(cps) and cps[ci] <= t:
                snaps[cps[ci]] = dict(self.estimates)
                ci += 1
            self.update(*row, **update_kwargs)
        for cp in cps[ci:]:
            snaps[cp] = dict(self.estimates)
        return snaps

    def final_estimates(self) -> pd.Series:
        """Tracked counters as a Series (index: user)."""
        return pd.Series(self.estimates, dtype=np.float64).rename_axis("user")


def edge_positions(users, items, m: int, M: int, seed: int = 0) -> np.ndarray:
    """Cell ``f_{h(d)}(s)`` of the shared array that edge (s, d) updates."""
    return f_user(users, h_item(items, m, seed=seed), M, seed=seed)


def virtual_positions(s: int, m: int, M: int, seed: int = 0) -> np.ndarray:
    """Positions ``f_1(s)..f_m(s)`` of user s's virtual sketch.

    int32 while every position of the M-cell array fits (M ≤ 2^31),
    which halves the index cache, and int64 above.
    """
    idx = f_user(np.int64(s), np.arange(m, dtype=np.int64), M, seed=seed)
    return idx.astype(np.int32 if M <= 1 << 31 else np.int64)


class VirtualSketch(TrackedCounters):
    """Shared M-cell array read through per-user virtual sketches of m cells.

    Subclasses define ``_estimate_at(idx)``, the estimate of a user
    whose virtual sketch is at positions ``idx``.
    """

    # recomputing f_1..f_m(s) costs ~m hash ops per edge; heavy-tail
    # streams revisit the same users constantly, so memoize (~64 MB cap)
    _IDX_CACHE_CAP = 16384

    def __init__(self, M: int, m: int, seed: int):
        super().__init__()
        self.M, self.m, self.seed = int(M), int(m), seed
        self._idx_cache: dict[int, np.ndarray] = {}

    def _user_idx(self, s: int) -> np.ndarray:
        """Memoized :func:`virtual_positions` of user s."""
        idx = self._idx_cache.get(s)
        if idx is None:
            idx = virtual_positions(s, self.m, self.M, seed=self.seed)
            if len(self._idx_cache) < self._IDX_CACHE_CAP:
                self._idx_cache[s] = idx
        return idx

    def estimate(self, s: int) -> float:
        """Estimate for user s from the current array."""
        return self._estimate_at(self._user_idx(s))

    def end_state_estimates(self, users: np.ndarray) -> pd.Series:
        """Re-estimate the given (distinct) users against the *final* array."""
        return pd.Series(
            {
                int(s): self._estimate_at(
                    virtual_positions(s, self.m, self.M, seed=self.seed)
                )
                for s in users
            },
            dtype=np.float64,
        ).rename_axis("user")
