"""Result containers for Monte-Carlo hitting-time estimation.

Hitting times are right-censored: a finite simulation can only observe
``tau <= horizon``.  The containers below keep the raw censored sample
(``-1`` marks "not hit by the horizon") together with the horizon, so that
downstream estimators can treat censoring correctly -- important because
the paper's regimes differ exactly in how much probability mass sits at
``tau = inf`` (e.g. Theorem 1.3(b): a ballistic walk never hits the target
with probability ``1 - O(log^2 l / l)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Sentinel stored in hitting-time arrays for "not hit by the horizon".
CENSORED = -1


@dataclass(frozen=True)
class HittingTimeSample:
    """A censored i.i.d. sample of hitting times.

    Attributes
    ----------
    times:
        int64 array; entry ``i`` is walk ``i``'s hitting time, or
        :data:`CENSORED` if the walk had not hit the target by ``horizon``.
    horizon:
        The censoring step (inclusive: a hit at exactly ``horizon`` counts).
    """

    times: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        times = np.asarray(self.times)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        valid = (times == CENSORED) | ((times >= 0) & (times <= self.horizon))
        if not np.all(valid):
            raise ValueError("hitting times must lie in [0, horizon] or be CENSORED")

    @property
    def n(self) -> int:
        """Sample size."""
        return int(self.times.shape[0])

    @property
    def hit_mask(self) -> np.ndarray:
        """Boolean mask of walks that hit the target by the horizon."""
        return self.times != CENSORED

    @property
    def n_hits(self) -> int:
        """Number of walks that hit the target by the horizon."""
        return int(self.hit_mask.sum())

    @property
    def hit_fraction(self) -> float:
        """Empirical ``P(tau <= horizon)``."""
        return self.n_hits / self.n if self.n else float("nan")

    def hit_times(self) -> np.ndarray:
        """The observed (uncensored) hitting times."""
        return self.times[self.hit_mask]

    def probability_by(self, t: int) -> float:
        """Empirical ``P(tau <= t)`` for ``t <= horizon`` (nan when empty)."""
        if t > self.horizon:
            raise ValueError(f"t={t} exceeds the horizon {self.horizon}")
        if not self.n:
            return float("nan")
        return np.count_nonzero(self.hit_mask & (self.times <= t)) / self.n

    def restricted(self, t: int) -> "HittingTimeSample":
        """Re-censor the sample at an earlier horizon ``t``."""
        if t > self.horizon:
            raise ValueError(f"t={t} exceeds the horizon {self.horizon}")
        times = np.where(self.hit_mask & (self.times <= t), self.times, CENSORED)
        return HittingTimeSample(times=times, horizon=t)


def group_minimum(times: np.ndarray, k: int) -> np.ndarray:
    """Parallel hitting times from single-walk hitting times.

    The parallel hitting time of ``k`` independent walks (Definition 3.7)
    is the minimum of their ``k`` individual hitting times.  Given a flat
    sample of single-walk times (``CENSORED`` for misses) whose length is
    a multiple of ``k``, consecutive blocks of ``k`` walks are treated as
    one parallel group and the per-group minimum is returned (``CENSORED``
    where every group member missed).
    """
    times = np.asarray(times)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if times.shape[0] % k != 0:
        raise ValueError(f"sample size {times.shape[0]} is not a multiple of k={k}")
    grouped = times.reshape(-1, k).astype(np.int64)
    masked = np.where(grouped == CENSORED, np.iinfo(np.int64).max, grouped)
    minima = masked.min(axis=1)
    return np.where(minima == np.iinfo(np.int64).max, CENSORED, minima)


def bootstrap_parallel(
    times: np.ndarray, k: int, n_groups: int, rng: np.random.Generator
) -> np.ndarray:
    """Resampled parallel hitting times from a pool of single-walk times.

    Because the ``k`` walks of a group are i.i.d. when they share a
    strategy, groups can be formed by resampling from a (large) pool of
    single-walk hitting times instead of simulating ``k * n_groups`` fresh
    walks.  Returns ``n_groups`` parallel times (``CENSORED`` where every
    resampled member missed).
    """
    times = np.asarray(times)
    picks = rng.integers(0, times.shape[0], size=(n_groups, k))
    return group_minimum(times[picks].reshape(-1), k)
