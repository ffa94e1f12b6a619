"""Deterministic coverings of the rays of C^m (unit vectors modulo phase).

A net is built as a union of refinement levels drawn from the fixed
ladder delta_l = 2 * 2^(-l/2).  A request for covering radius delta
takes every level down to the first one at or below delta, so nets for
smaller delta are supersets of nets for larger delta; scan maxima
are then monotone under refinement by construction.

Every net covers in the phase-quotient metric min_phi ||x - e^(i phi) y||,
which bounds the trace distance of the projectors the oracle sees by the
same 2*delta as the Euclidean metric does.  One construction per dimension:

* m = 2, "band": latitude/longitude covering of the Bloch sphere through
  (theta, phi) -> (cos(theta/2), e^(i phi) sin(theta/2)); ~ (1/delta)^2 points.
* m >= 3, "grid": every ray has a representative with x_0 real and >= 0, so
  a cubic grid of spacing h = delta/sqrt(2m-1) on (Re x, Im x_1..x_(m-1))
  keeps first-axis centers h/2, 3h/2, ...; centers strictly within half a
  cell diagonal of the sphere are projected onto it, each at its coarsest
  level; ~ (1/delta)^(2m-2) points.
* m = 1: CP^0 is one point, [1].

`method="grid"` also builds the grid at m = 2.  A net larger than
MAX_POINTS is refused before anything is allocated: both sizes are counted
exactly, level by level, by the rule that builds the level (the grid's from
integer histograms, the band's from its list of rings).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .core import Array

MAX_POINTS = 6_000_000


class NetTooLargeError(ValueError):
    """Requested net would exceed MAX_POINTS."""


class NetTooCoarseError(ValueError):
    """A consumer required a finer net than the one supplied."""


@dataclass(frozen=True)
class DeltaNet:
    m: int
    delta: float
    points: Array  # (K, m) complex, unit rows
    method: str = "grid"

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @cached_property
    def features(self) -> Array:
        """`projector_features` of the points, built on first use and kept."""
        feats = projector_features(self.points)
        feats.setflags(write=False)
        return feats


@dataclass(frozen=True)
class CoverageReport:
    max_gap: float
    delta: float

    @property
    def passed(self) -> bool:
        return self.max_gap <= self.delta


def _ladder_levels(delta: float) -> range:
    """The indices l of every ladder value 2 * 2^(-l/2) from 2 down to the first <= delta."""
    l = 0
    while 2.0 * 2.0 ** (-l / 2.0) > delta:
        l += 1
    return range(l + 1)


def _grid_window(dim: int, l: int) -> tuple[int, int]:
    """lo, hi: grid level l keeps the centers with lo <= S = sum (2 i_a + 1)^2 <= hi.

    The center h (i + 1/2), h = delta_l / sqrt(dim), has norm (h/2) sqrt(S)
    and lies strictly within half a cell diagonal 2^(-l/2) of the sphere
    exactly when |S - dim (2^l + 1)| < 2 dim 2^(l/2), i.e. when
    (S - dim (2^l + 1))^2 < dim^2 2^(l+2).  A cell whose center is on this
    window's edge meets the sphere at most at a corner s/sqrt(dim), s a sign
    vector, and the other cells at that corner have centers inside it.  The
    projection (2i + 1)/sqrt(S) is the same at every level, so a center is
    kept only at its coarsest one: the windows rise with l, and a level
    keeps only S above the previous level's window.
    """
    def shell(l: int) -> tuple[int, int]:
        mid, half = dim * (2**l + 1), math.isqrt(dim * dim * 2 ** (l + 2) - 1)
        return mid - half, mid + half

    lo, hi = shell(l)
    return (max(lo, shell(l - 1)[1] + 1) if l else lo), hi


def _grid_level_points(m: int, l: int) -> Array:
    """The odd vectors o = 2i + 1 with S = |o|^2 in `_grid_window` and o_0 > 0,
    as the points o/sqrt(S), in lexicographic order of o."""
    dim = 2 * m - 1
    lo, hi = _grid_window(dim, l)
    k = (math.isqrt(hi) + 1) // 2
    axis = np.arange(1 - 2 * k, 2 * k, 2)  # every odd o with o^2 <= hi; the positive ones from k
    lead = min(dim - 2, 2)  # chunks over two leading axes (one at m = 2), Re x_0 > 0 only
    rest = np.stack(
        np.meshgrid(*([axis] * (dim - lead)), indexing="ij"), axis=-1
    ).reshape(-1, dim - lead)
    rest_sq = np.sum(rest**2, axis=1)
    order = np.argsort(rest_sq, kind="stable")
    sorted_sq = rest_sq[order]
    blocks = []
    for head in itertools.product(axis[k:], *([axis] * (lead - 1))):
        s = sum(a * a for a in head)
        start, stop = np.searchsorted(sorted_sq, [lo - s, hi - s + 1])
        sel = rest[np.sort(order[start:stop])]
        block = np.empty((sel.shape[0], dim), dtype=np.int64)
        block[:, :lead] = head
        block[:, lead:] = sel
        blocks.append(block)
    odd = np.concatenate(blocks, axis=0)
    real = odd / np.sqrt(np.sum(odd**2, axis=1))[:, None]
    return real[:, :m] + 1j * np.pad(real[:, m:], ((0, 0), (1, 0)))


def _grid_level_count(m: int, l: int) -> int:
    """The number of centers `_grid_level_points` keeps, counted without
    building them; past MAX_POINTS, some larger number.

    S = dim + 8 sum T(i_a) with T(i) = i (i + 1)/2 (the same for i and
    -1 - i), so the window on S is one on U = sum T.  The histogram of U over
    the first dim - 1 axes (the first one i >= 0 only, the others both signs)
    is built one axis at a time; the last axis then only has to land in the
    window.  Bins are capped at MAX_POINTS + 1: a capped bin feeds only bins
    that reach the cap too, so a total of at most MAX_POINTS is exact.
    """
    dim = 2 * m - 1
    lo, hi = _grid_window(dim, l)
    lo, hi = max(-((dim - lo) // 8), 0), (hi - dim) // 8  # the window on U = (S - dim)/8
    cap = MAX_POINTS + 1
    tri = np.arange((math.isqrt(8 * hi + 1) + 1) // 2, dtype=np.int64)  # T(i) <= hi
    tri = tri * (tri + 1) // 2
    hist = np.zeros(hi + 1, dtype=np.int64)  # ways to reach sum T = u over the axes so far
    hist[0] = 1
    for axis in range(dim - 1):
        nxt = np.zeros_like(hist)
        for t in tri:
            nxt[t:] += hist[: hist.size - t]
        hist = np.minimum(nxt if axis == 0 else 2 * nxt, cap)
        if hist[lo:].sum() > MAX_POINTS:  # these already lie in the window, the rest at T = 0
            return cap
    u = np.arange(hi + 1)
    last = np.searchsorted(tri, hi - u, "right") - np.searchsorted(tri, lo - u, "left")
    return int(hist @ (2 * last))


def _band_rings(l: int) -> list[tuple[float, int]]:
    """Polar angle and point count of each ring of band level l on the Bloch
    sphere: ring and longitude spacing the sphere angle 4 asin(d/2) for
    phase-quotient radius d = delta_l, with safety factors 0.95 and 0.98."""
    d = 2.0 * 2.0 ** (-l / 2.0)
    step = 4.0 * math.asin(d / 2.0) * 0.95 * math.sqrt(2.0) * 0.98
    n_rings = max(int(math.ceil(math.pi / step)), 1)
    dtheta = math.pi / n_rings
    rings = []
    for j in range(n_rings):
        theta = (j + 0.5) * dtheta
        s_edge = 1.0 if theta - dtheta / 2 <= math.pi / 2 <= theta + dtheta / 2 else max(
            math.sin(theta - dtheta / 2), math.sin(theta + dtheta / 2)
        )
        rings.append((theta, max(int(math.ceil(2.0 * math.pi * s_edge / step)), 1)))
    return rings


def _band_level_count(l: int) -> int:
    return sum(n_phi for _, n_phi in _band_rings(l))


def _band_level_points(l: int) -> Array:
    """Covering of the m=2 state space modulo phase, via its 2-sphere chart."""
    rings = _band_rings(l)
    theta = np.concatenate([np.full(n_phi, t) for t, n_phi in rings])
    phi = np.concatenate([2.0 * math.pi * np.arange(n_phi) / n_phi for _, n_phi in rings])
    pts = np.empty((theta.size, 2), dtype=complex)
    pts[:, 0] = np.cos(theta / 2.0)
    pts[:, 1] = np.exp(1j * phi) * np.sin(theta / 2.0)
    return pts


def build_net(m: int, delta: float, *, method: str | None = None) -> DeltaNet:
    """Deterministic covering of the rays of C^m with phase-quotient radius <= delta.

    `method` defaults to "band" at m = 2 and "grid" otherwise.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0.0 < delta <= 2.0:
        raise ValueError(f"delta must lie in (0, 2], got {delta}")
    if method is None:
        method = "band" if m == 2 else "grid"
    if method == "band":
        if m != 2:
            raise ValueError("band construction is only defined for m = 2")
        level_count, level_points = _band_level_count, _band_level_points
    elif method == "grid":
        level_count, level_points = partial(_grid_level_count, m), partial(_grid_level_points, m)
    else:
        raise ValueError(f"unknown method {method!r}")
    if delta >= 2.0 or m == 1:
        # CP^0 is a single point, and the sphere has diameter 2: any single point covers it
        pts = np.zeros((1, m), dtype=complex)
        pts[0, 0] = 1.0
    else:
        levels, size = _ladder_levels(delta), 0
        for l in levels:
            size += level_count(l)
            if size > MAX_POINTS:
                raise NetTooLargeError(
                    f"{method} net for m={m}, delta={delta} exceeds {MAX_POINTS} points; "
                    "use a larger delta"
                )
        pts = np.concatenate([level_points(l) for l in levels], axis=0)
    pts.setflags(write=False)
    return DeltaNet(m, delta, pts, method=method)


def projector_features(points: Array) -> Array:
    """Real coordinates f(x) of xx^dagger for each row x of a (K, m) array, as
    an (m^2, K) array: |x_a|^2, then 2 Re and 2 Im of conj(x_a) x_b for a < b
    (pairs in `np.triu_indices` order), filled a row at a time."""
    m = points.shape[1]
    i, j = np.triu_indices(m, 1)
    feats = np.empty((m * m, points.shape[0]))
    for a in range(m):
        feats[a] = points[:, a].real ** 2 + points[:, a].imag ** 2
    for row, (a, b) in enumerate(zip(i, j), m):
        off = 2.0 * points[:, a].conj() * points[:, b]
        feats[row], feats[row + i.size] = off.real, off.imag
    return feats


def _projector_embedding(points: Array) -> Array:
    """Real coordinates E(x) of xx^dagger, with ||E(x) - E(y)||^2 = 2 - 2|<x, y>|^2:
    f(x) with the off-diagonal coordinates scaled by 1/sqrt(2), as rows."""
    emb = projector_features(points).T.copy()
    emb[:, points.shape[1] :] /= math.sqrt(2.0)
    return emb


def gaps_to_net(net: DeltaNet, samples: Array) -> Array:
    """Phase-quotient distance from each sample (rows, unit vectors in C^m) to the net."""
    from scipy.spatial import cKDTree  # slow to import, and only this needs it

    tree = cKDTree(_projector_embedding(net.points))
    frob, _ = tree.query(_projector_embedding(samples), k=1)
    overlap = np.sqrt(np.clip(1.0 - frob**2 / 2.0, 0.0, 1.0))
    return np.sqrt(np.clip(2.0 - 2.0 * overlap, 0.0, None))


def haar_unit_vectors(m: int, count: int, seed: int) -> Array:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def verify_coverage(net: DeltaNet, samples: int, seed: int) -> CoverageReport:
    """Monte-Carlo covering check: max gap over sampled unit vectors."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    gaps = gaps_to_net(net, haar_unit_vectors(net.m, samples, seed))
    return CoverageReport(float(gaps.max()), net.delta)
