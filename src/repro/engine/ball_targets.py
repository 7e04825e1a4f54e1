"""Hitting times for *ball* targets (radius-D food patches, cf. [18]).

The paper's target is a single node; the intermittent-search model of
[18] (Section 2) instead places a target of arbitrary *diameter D* and
only lets the walk detect it at jump endpoints.  The combination matters:
footnote 3 of the paper notes that with unit targets or with non-
intermittent detection "all exponents alpha >= 2 (resp. <= 2) are optimal
as well" -- i.e. [18]'s uniqueness of the Cauchy exponent hinges on both
ingredients.  This engine provides the missing piece: exact hitting times
of the Manhattan ball ``B_radius(center)`` under both detection
semantics, so the EXT-DIAM experiment can measure how target size shifts
the exponent landscape.

Exact mid-jump detection for a ball: a phase from ``u`` to ``v`` (length
``d``) can enter ``B_r(w)`` only while crossing rings ``i`` of ``u`` with
``m - r <= i <= m + r`` (``m = ||w - u||_1``), because a node at ring
``i`` has distance at least ``|m - i|`` from ``w``.  Conditioned on
``(u, v)``, path positions at distinct rings are independent uniform
tie-breaks (see :mod:`repro.lattice.direct_path`), so sampling the <= 2r+1
relevant ring marginals jointly-independently and testing membership is
exact; the hit step is the *first* crossing ring inside the ball.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.distributions.base import JumpDistribution
from repro.engine._compat import legacy_api
from repro.engine.results import HittingTimeSample
from repro.engine.ring import hitting_times
from repro.engine.samplers import BatchJumpSampler
from repro.engine.vectorized import _as_sampler
from repro.rng import SeedLike, as_generator

IntPoint = Tuple[int, int]


@legacy_api(
    positional=("radius", "horizon", "n", "rng", "start", "detect_during_jump"),
    renames={"n_walks": "n"},
)
def ball_hitting_times(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    center: IntPoint,
    *,
    radius: int,
    horizon: int,
    n: int,
    rng: SeedLike = None,
    start: IntPoint = (0, 0),
    detect_during_jump: bool = True,
) -> HittingTimeSample:
    """Hitting times of the ball ``B_radius(center)`` for ``n`` walks.

    ``radius = 0`` recovers the point-target engine.  With
    ``detect_during_jump=False`` only phase endpoints are tested (the
    intermittent model of [18]).
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    n_walks = int(n)
    start_distance = abs(int(center[0]) - start[0]) + abs(int(center[1]) - start[1])
    if start_distance <= radius:
        return HittingTimeSample(times=np.zeros(n_walks, np.int64), horizon=horizon)
    times = hitting_times(
        sampler,
        center,
        radius=int(radius),
        horizon=int(horizon),
        n=n_walks,
        rng=rng,
        start=(int(start[0]), int(start[1])),
        detect_during_jump=detect_during_jump,
        unit_steps=False,
        engine="ball",
    )
    return HittingTimeSample(times=times, horizon=horizon)
