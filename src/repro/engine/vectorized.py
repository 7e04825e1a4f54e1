"""Vectorized Monte-Carlo engines for hitting times.

These engines simulate thousands of independent walks simultaneously and
are *exact*: they produce hitting times with precisely the law of the
object-level processes in :mod:`repro.walks`, but at a cost of O(1) work
per jump phase instead of O(d) work per phase.

The key trick (derived and verified in
:mod:`repro.lattice.direct_path`) is that a Levy walk jumping from ``u``
to ``v`` can visit a target ``w`` only while crossing the ring
``R_m(u)`` with ``m = ||w - u||_1``, it crosses that ring exactly once,
and the node it occupies there has an explicitly samplable marginal
("nearest node to the segment point, fair coin on ties").  So per phase
the engine samples the distance, the endpoint, and -- only if the target
is within reach -- one ring-marginal node, and never materializes paths.

Two detection semantics are supported (Section 2 discusses the contrast
with the "intermittent" model of [18]):

* ``detect_during_jump=True`` (the paper's Levy *walk*): the target is
  found the moment the walk steps on it, mid-jump included;
* ``detect_during_jump=False`` (intermittent / Levy-flight semantics):
  only jump endpoints are inspected.

The functions here validate their arguments and run the shared staged
round loop of :mod:`repro.engine.ring`.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.distributions.base import JumpDistribution
from repro.engine._compat import legacy_api
from repro.engine.results import HittingTimeSample
from repro.engine.ring import hitting_times
from repro.engine.samplers import BatchJumpSampler, HomogeneousSampler
from repro.rng import SeedLike, as_generator

IntPoint = Tuple[int, int]


def _as_sampler(source: Union[BatchJumpSampler, JumpDistribution]) -> BatchJumpSampler:
    if isinstance(source, BatchJumpSampler):
        return source
    return HomogeneousSampler(source)


@legacy_api(
    positional=("horizon", "n", "rng", "start", "detect_during_jump"),
    renames={"n_walks": "n"},
)
def walk_hitting_times(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    target: IntPoint,
    *,
    horizon: int,
    n: int,
    rng: SeedLike = None,
    start: IntPoint = (0, 0),
    detect_during_jump: bool = True,
) -> HittingTimeSample:
    """Hitting times of ``n`` independent Levy walks for one target.

    Each walk starts at ``start`` at time 0 and runs until it hits
    ``target`` or its elapsed *steps* (not jumps) exceed ``horizon``.
    Time is counted exactly as in Definition 3.4: a phase with distance
    ``d >= 1`` lasts ``d`` steps, a phase with ``d = 0`` lasts 1 step, and
    a mid-phase hit at ring ``m`` is recorded at ``t_phase_start + m``.

    Parameters
    ----------
    jumps:
        Jump-length law: a :class:`JumpDistribution` shared by all walks,
        or a :class:`BatchJumpSampler` (e.g. per-walk exponents).
    target:
        The target node ``u*``.
    horizon:
        Censoring step; hits at exactly ``horizon`` count.
    n:
        Number of independent walks.
    rng:
        Seed or generator.
    start:
        Common start node (the origin in the paper).
    detect_during_jump:
        If False, only phase endpoints are checked (intermittent model).

    Returns
    -------
    HittingTimeSample
        Censored sample of the ``n`` hitting times.
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    n_walks = int(n)
    start = (int(start[0]), int(start[1]))
    if start == (int(target[0]), int(target[1])):
        # Definition 3.7: the hitting time is the first step t >= 0 with
        # J_t = u*, so starting on the target means tau = 0.
        return HittingTimeSample(times=np.zeros(n_walks, dtype=np.int64), horizon=horizon)
    times = hitting_times(
        sampler,
        target,
        radius=0,
        horizon=int(horizon),
        n=n_walks,
        rng=rng,
        start=start,
        detect_during_jump=detect_during_jump,
        unit_steps=False,
        engine="walk",
    )
    return HittingTimeSample(times=times, horizon=horizon)


@legacy_api(
    positional=("horizon", "n", "rng", "start"),
    renames={"horizon_jumps": "horizon", "n_flights": "n"},
)
def flight_hitting_times(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    target: IntPoint,
    *,
    horizon: int,
    n: int,
    rng: SeedLike = None,
    start: IntPoint = (0, 0),
) -> HittingTimeSample:
    """Hitting times (in *jumps*) of independent Levy flights.

    A flight's time unit is one jump (Definition 3.3): ``horizon`` and
    the returned times count jumps, and a flight only detects the target
    when a jump lands on it.  Used for the flight-level lemmas (4.5,
    4.13) and as the intermittent-detection comparator.
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    n_flights = int(n)
    horizon_jumps = int(horizon)
    start = (int(start[0]), int(start[1]))
    if start == (int(target[0]), int(target[1])):
        return HittingTimeSample(
            times=np.zeros(n_flights, dtype=np.int64), horizon=horizon_jumps
        )
    times = hitting_times(
        sampler,
        target,
        radius=0,
        horizon=horizon_jumps,
        n=n_flights,
        rng=rng,
        start=start,
        detect_during_jump=False,
        unit_steps=True,
        engine="flight",
    )
    return HittingTimeSample(times=times, horizon=horizon_jumps)
