"""Multi-target search: many walks, many food items, exact mid-jump pickup.

The paper motivates its single-target analysis with collective foraging
(Section 1.1) and contrasts it with the classical Levy-foraging setting of
"sparse randomly distributed revisitable targets" [38].  This engine
simulates that richer scenario exactly: ``n_walks`` Levy walks move over a
*field* of target nodes, and for every item the engine reports the first
time any walk steps on it (mid-jump included) and which walk did.

A modelling observation makes one engine serve both classic semantics.
Walks in this model do not react to finding food (no communication, no
behaviour change), so trajectories are independent of the field; hence

* *revisitable* items ([38]): an item's first-discovery time is just the
  parallel hitting time of its node; and
* *destructive* items (foraging): the collector of an item is exactly the
  walk achieving that same earliest crossing -- later crossings find the
  node empty but nothing else changes.

The engine therefore records, per item, the earliest crossing over all
walks and phases.  Items are pruned from detection only once they are no
longer *contestable* (their recorded time is at or below every active
walk's elapsed time), which keeps the pruning exact even though walks
drift apart in elapsed time.

Exactness of mid-jump detection: conditioned on a phase ``(u, v)``, the
direct path's positions at different rings are independent uniform
tie-breaks (see :mod:`repro.lattice.direct_path`), so per-ring marginal
samples ARE the joint law -- but two items at the *same* ring of the same
phase must be tested against a *single* sampled crossing node, which the
engine enforces by deduplicating ``(round, walk, ring)`` triples.  The
loop itself is :func:`repro.engine.ring.multi_target_times`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.distributions.base import JumpDistribution
from repro.engine._compat import legacy_api
from repro.engine.results import CENSORED
from repro.engine.ring import multi_target_times
from repro.engine.samplers import BatchJumpSampler
from repro.engine.vectorized import _as_sampler
from repro.rng import SeedLike, as_generator

IntPoint = Tuple[int, int]


@dataclass(frozen=True)
class ForagingResult:
    """Outcome of a multi-target run.

    Attributes
    ----------
    targets:
        The item coordinates, shape ``(n_items, 2)`` (as passed in).
    discovery_times:
        int64 array of shape ``(n_items,)``: the step at which each item
        was first reached, or ``CENSORED``.
    discoverer:
        int64 array of shape ``(n_items,)``: index of the earliest-crossing
        walk (``-1`` where never reached) -- the collector under
        destructive semantics.
    horizon:
        The step deadline used.
    """

    targets: np.ndarray
    discovery_times: np.ndarray
    discoverer: np.ndarray
    horizon: int

    @property
    def n_items(self) -> int:
        return int(self.targets.shape[0])

    @property
    def n_collected(self) -> int:
        return int(np.count_nonzero(self.discovery_times != CENSORED))

    @property
    def collected_fraction(self) -> float:
        return self.n_collected / self.n_items if self.n_items else float("nan")

    def collection_curve(self, grid: Sequence[int]) -> np.ndarray:
        """Number of items collected by each step in ``grid``."""
        times = self.discovery_times
        valid = times[times != CENSORED]
        return np.array([int(np.count_nonzero(valid <= g)) for g in grid])

    def collections_per_walk(self, n_walks: int) -> np.ndarray:
        """Items collected by each walk (destructive attribution)."""
        counts = np.zeros(n_walks, dtype=np.int64)
        for walk in self.discoverer[self.discovery_times != CENSORED]:
            counts[int(walk)] += 1
        return counts


@legacy_api(
    positional=("horizon", "n", "rng", "start"),
    renames={"n_walks": "n"},
)
def multi_target_search(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    targets: Sequence[IntPoint],
    *,
    horizon: int,
    n: int,
    rng: SeedLike = None,
    start: IntPoint = (0, 0),
) -> ForagingResult:
    """Run ``n`` Levy walks over a field of targets.

    Returns per-item first-discovery times and discoverers (see the module
    docstring for why this covers destructive and revisitable semantics at
    once).  Ties at one step go to the lowest walk id.  Work per phase
    round is O(active walks x contestable items + crossings tested).
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    target_array = np.asarray(targets, dtype=np.int64)
    if target_array.ndim != 2 or target_array.shape[1] != 2:
        raise ValueError("targets must be a sequence of (x, y) pairs")
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    best_time, best_walk = multi_target_times(
        sampler,
        target_array,
        horizon=int(horizon),
        n=int(n),
        rng=rng,
        start=(int(start[0]), int(start[1])),
    )
    times = np.where(best_time == np.iinfo(np.int64).max, CENSORED, best_time)
    return ForagingResult(
        targets=target_array,
        discovery_times=times,
        discoverer=best_walk,
        horizon=horizon,
    )


def scatter_poisson_field(
    density: float,
    radius: int,
    rng: SeedLike = None,
    exclude_origin: bool = True,
) -> np.ndarray:
    """Scatter items uniformly at random over the ball ``B_radius(0)``.

    The classical Levy-foraging setting [38] assumes sparse, uniformly
    distributed targets; this helper produces such a field with expected
    ``density * |B_radius|`` items (each ball node included independently
    -- a Bernoulli field, the lattice analogue of a Poisson process).
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if radius < 1:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = as_generator(rng)
    coords = np.arange(-radius, radius + 1)
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    inside = np.abs(xs) + np.abs(ys) <= radius
    if exclude_origin:
        inside &= ~((xs == 0) & (ys == 0))
    candidates = np.stack([xs[inside], ys[inside]], axis=1)
    keep = rng.random(candidates.shape[0]) < density
    return candidates[keep].astype(np.int64)
