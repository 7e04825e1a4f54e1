"""Rings ``R_d(u)``, balls ``B_d(u)`` and boxes ``Q_d(u)`` (paper Figure 1).

The paper defines, for a node ``u`` of Z^2 and an integer radius ``d``:

* ``R_d(u) = {v : ||u - v||_1 = d}`` -- the *ring* (a lattice diamond);
* ``B_d(u) = {v : ||u - v||_1 <= d}`` -- the *ball*;
* ``Q_d(u) = {v : ||u - v||_inf <= d}`` -- the *box* (a square).

Both the Levy flight and the Levy walk pick jump destinations uniformly at
random on a ring (Definitions 3.3 and 3.4), so exact, vectorized uniform
sampling on ``R_d`` is a core primitive of every simulation engine in this
package.  The sampling is implemented through an explicit bijection between
``{0, ..., 4d-1}`` and the ring, which is also exposed for testing
(:func:`ring_index_to_offset` / :func:`offset_to_ring_index`).

The bijection walks the diamond counter-clockwise starting from ``(d, 0)``:

* quadrant 0 (indices ``0..d-1``):   ``(d - r,  r)``
* quadrant 1 (indices ``d..2d-1``):  ``(-r,  d - r)``
* quadrant 2 (indices ``2d..3d-1``): ``(-(d - r), -r)``
* quadrant 3 (indices ``3d..4d-1``): ``(r, -(d - r))``

where ``r = index mod d``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

IntPoint = Tuple[int, int]


def ring_size(d: int) -> int:
    """Number of nodes at Manhattan distance exactly ``d`` from a node.

    ``|R_0| = 1`` (the node itself) and ``|R_d| = 4d`` for ``d >= 1``.
    """
    if d < 0:
        raise ValueError(f"radius must be non-negative, got {d}")
    return 1 if d == 0 else 4 * d


def ball_size(d: int) -> int:
    """Number of nodes in the Manhattan ball ``B_d``: ``2d^2 + 2d + 1``."""
    if d < 0:
        raise ValueError(f"radius must be non-negative, got {d}")
    return 2 * d * d + 2 * d + 1


def box_size(d: int) -> int:
    """Number of nodes in the Chebyshev box ``Q_d``: ``(2d + 1)^2``."""
    if d < 0:
        raise ValueError(f"radius must be non-negative, got {d}")
    return (2 * d + 1) ** 2


def ring_index_to_offset(d: int, index: int) -> IntPoint:
    """Map ``index`` in ``{0, ..., ring_size(d) - 1}`` to a ring offset.

    The map is a bijection onto ``R_d(0)``; adding the offset to a center
    node yields the corresponding element of ``R_d(center)``.
    """
    if d == 0:
        if index != 0:
            raise ValueError("ring of radius 0 has a single node")
        return (0, 0)
    if not 0 <= index < 4 * d:
        raise ValueError(f"index {index} out of range for ring of radius {d}")
    quadrant, r = divmod(index, d)
    if quadrant == 0:
        return (d - r, r)
    if quadrant == 1:
        return (-r, d - r)
    if quadrant == 2:
        return (-(d - r), -r)
    return (r, -(d - r))


def offset_to_ring_index(offset: IntPoint) -> int:
    """Inverse of :func:`ring_index_to_offset` (with ``d = |x| + |y|``)."""
    x, y = offset
    d = abs(x) + abs(y)
    if d == 0:
        return 0
    if x > 0 and y >= 0:
        return y
    if x <= 0 and y > 0:
        return d + (-x)
    if x < 0 and y <= 0:
        return 2 * d + (-y)
    return 3 * d + x


def ring_nodes(center: IntPoint, d: int) -> List[IntPoint]:
    """Return all nodes of ``R_d(center)`` in bijection order."""
    cx, cy = center
    nodes = []
    for index in range(ring_size(d)):
        ox, oy = ring_index_to_offset(d, index)
        nodes.append((cx + ox, cy + oy))
    return nodes


def ball_nodes(center: IntPoint, d: int) -> List[IntPoint]:
    """Return all nodes of the Manhattan ball ``B_d(center)``."""
    return [node for radius in range(d + 1) for node in ring_nodes(center, radius)]


def box_nodes(center: IntPoint, d: int) -> List[IntPoint]:
    """Return all nodes of the Chebyshev box ``Q_d(center)``."""
    cx, cy = center
    return [
        (cx + ox, cy + oy)
        for ox in range(-d, d + 1)
        for oy in range(-d, d + 1)
    ]


def iter_ring_offsets(d: int) -> Iterator[IntPoint]:
    """Iterate over the offsets of ``R_d(0)`` in bijection order."""
    for index in range(ring_size(d)):
        yield ring_index_to_offset(d, index)


def sample_ring_offsets(
    distances: np.ndarray,
    rng: np.random.Generator,
    u: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sample, for each ``d`` in ``distances``, a uniform offset on ``R_d(0)``.

    This is the vectorized destination sampler used by Definitions 3.3/3.4:
    given the jump distance ``d``, the destination is uniform among the
    ``4d`` nodes at distance ``d`` (and is the node itself when ``d = 0``).

    Parameters
    ----------
    distances:
        Integer array of shape ``(n,)`` with non-negative entries.
    rng:
        Source of randomness.
    u:
        Optional pre-drawn uniforms of shape ``(n,)`` in ``[0, 1)``; the
        engines batch one ``rng.random`` call per round and hand each
        consumer its slice.
    out:
        Optional int64 destination buffer of shape ``(n, 2)``.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``(n, 2)``; row ``i`` is uniform on
        ``R_{distances[i]}(0)``.
    """
    d = np.asarray(distances, dtype=np.int64)
    if d.ndim != 1:
        raise ValueError("distances must be a 1-d array")
    if np.any(d < 0):
        raise ValueError("distances must be non-negative")
    n = d.shape[0]
    if u is None:
        u = rng.random(n)
    # Uniform index in [0, 4d): scale u ~ U[0,1), which is exact for int64
    # ranges well below 2**53; clip guards the measure-zero rounding case
    # index == 4d.  For d == 0 the index is 0 and the branch-free formulas
    # below yield (0, 0) via the final where.
    four_d = 4 * d
    index = (u * four_d).astype(np.int64)
    four_d -= 1
    np.maximum(four_d, 0, out=four_d)
    np.minimum(index, four_d, out=index)
    # Branch-free diamond walk, counter-clockwise from (d, 0):
    # indices [0, 2d] sweep x from d down to -d on the y >= 0 side,
    # indices (2d, 4d) sweep x from -d+1 up to d-1 on the y < 0 side.
    # Scratch arrays are reused in place: the block engines call this
    # on ~16k rows at a time.
    upper = index <= 2 * d
    lower_x = np.multiply(d, 3, out=four_d)
    np.subtract(index, lower_x, out=lower_x)  # index - 3d
    np.subtract(d, index, out=index)  # d - index
    x = np.where(upper, index, lower_x)
    if out is None:
        out = np.empty((n, 2), dtype=np.int64)
    out[:, 0] = x
    y_mag = np.abs(x, out=index)
    del x
    np.subtract(d, y_mag, out=y_mag)
    out[:, 1] = np.where(upper, y_mag, np.negative(y_mag, out=four_d))
    return out
