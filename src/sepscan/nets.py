"""Deterministic coverings of the rays of C^m (unit vectors modulo phase).

A net is built as a union of refinement levels drawn from the fixed
ladder delta_l = 2 * 2^(-l/2).  A request for covering radius delta
takes every level down to the first one at or below delta, so nets for
smaller delta are strict supersets of nets for larger delta; scan maxima
are then monotone under refinement by construction.

Every net covers in the phase-quotient metric min_phi ||x - e^(i phi) y||,
which bounds the trace distance of the projectors the oracle sees by the
same 2*delta as the Euclidean metric does.  One construction per dimension:

* m = 2, "band": latitude/longitude covering of the Bloch sphere through
  (theta, phi) -> (cos(theta/2), e^(i phi) sin(theta/2)); ~ (1/delta)^2 points.
* m >= 3, "grid": every ray has a representative with x_0 real and >= 0, so
  a cubic grid of spacing delta/sqrt(2m-1) on (Re x, Im x_1..x_(m-1)) keeps
  first-axis centers h/2, 3h/2, ...; centers within half a cell diagonal of
  the sphere are projected onto it; ~ (1/delta)^(2m-2) points.
* m = 1: CP^0 is one point, [1].

`method="grid"` also builds the grid at m = 2.  A net larger than
MAX_POINTS is refused before anything is allocated: the grid's size is
counted exactly from integer histograms, the band's is bounded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .core import Array

MAX_POINTS = 6_000_000
COUNT_SLACK = 1e-9


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


def _ladder_levels(delta: float) -> list[float]:
    """Every ladder value 2 * 2^(-l/2) from 2 down to the first <= delta."""
    levels = []
    l = 0
    while True:
        d = 2.0 * 2.0 ** (-l / 2.0)
        levels.append(d)
        if d <= delta:
            return levels
        l += 1


def _grid_geometry(m: int, level_delta: float) -> tuple[int, float, float, int]:
    """dim = 2m - 1, the spacing h, half a cell diagonal, and k: each axis holds
    the centers (i + 1/2) h for -k <= i < k."""
    dim = 2 * m - 1
    h = level_delta / math.sqrt(dim)
    half_diag = 0.5 * h * math.sqrt(dim)
    return dim, h, half_diag, int(math.ceil((1.0 + half_diag) / h))


def _grid_level_points(m: int, level_delta: float) -> Array:
    dim, h, half_diag, k = _grid_geometry(m, level_delta)
    axis = (np.arange(-k, k) + 0.5) * h
    lead = min(dim - 2, 2)  # chunks over two leading axes (one at m = 2), Re x_0 > 0 only
    pts = []
    rest = np.stack(
        np.meshgrid(*([axis] * (dim - lead)), indexing="ij"), axis=-1
    ).reshape(-1, dim - lead)
    rest_sq = np.sum(rest**2, axis=1)
    order = np.argsort(rest_sq, kind="stable")
    sorted_sq = rest_sq[order]
    lo_sq, hi_sq = max(1.0 - half_diag, 0.0) ** 2, (1.0 + half_diag) ** 2
    for head in itertools.product(axis[k:], *([axis] * (lead - 1))):
        # candidates by squared norm, widened so the exact filter below decides
        s = sum(a * a for a in head)
        lo, hi = np.searchsorted(sorted_sq, [lo_sq - s - 1e-9, hi_sq - s + 1e-9])
        idx = np.sort(order[lo:hi])
        sq = rest_sq[idx]
        for a in head:  # coordinate by coordinate, as the full grid's norm sums
            sq = sq + a * a
        norms = np.sqrt(sq)
        keep = np.abs(norms - 1.0) <= half_diag
        if not np.any(keep):
            continue
        sel = rest[idx[keep]]
        block = np.empty((sel.shape[0], dim))
        block[:, :lead] = head
        block[:, lead:] = sel
        block /= norms[keep][:, None]
        pts.append(block)
    real = np.concatenate(pts, axis=0)
    return real[:, :m] + 1j * np.pad(real[:, m:], ((0, 0), (1, 0)))


def _grid_level_count(m: int, level_delta: float) -> int:
    """The number of centers `_grid_level_points` keeps, counted without
    building them; past MAX_POINTS, some larger number.

    The center h (i_a + 1/2) has squared norm (h^2/4) S with the integer
    S = sum (2 i_a + 1)^2 = dim + 8 sum T(i_a), T(i) = i (i + 1)/2 (the same
    for i and -1 - i), and it is kept when (1 - hd)^2 <= (h^2/4) S <= (1 + hd)^2.
    The histogram of sum T over the first dim - 1 axes (the first one i >= 0
    only, the others both signs) is built one axis at a time; the last axis
    then only has to land in the window.  The window is widened by the
    relative COUNT_SLACK, so the count is never below the built size; it
    exceeds it only by centers on the window's edge that float rounding
    drops.  Bins are capped at MAX_POINTS + 1: a capped bin feeds only bins
    that reach the cap too, so a total of at most MAX_POINTS is exact.
    """
    dim, h, half_diag, k = _grid_geometry(m, level_delta)
    lo = math.ceil((4.0 * max(1.0 - half_diag, 0.0) ** 2 / h**2 * (1.0 - COUNT_SLACK) - dim) / 8.0)
    hi = math.floor((4.0 * (1.0 + half_diag) ** 2 / h**2 * (1.0 + COUNT_SLACK) - dim) / 8.0)
    if hi < 0:
        return 0
    lo = max(lo, 0)
    cap = MAX_POINTS + 1
    tri = np.arange(k, dtype=np.int64)
    tri = tri * (tri + 1) // 2
    tri = tri[tri <= hi]
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


def _grid_size(m: int, delta: float) -> int:
    """The grid net's size, counted level by level; past MAX_POINTS, some larger number."""
    total = 0
    for d in _ladder_levels(delta):
        total += _grid_level_count(m, d)
        if total > MAX_POINTS:
            break
    return total


def _band_step(d: float) -> float:
    """Ring and longitude spacing on the Bloch sphere for phase-quotient radius d:
    the sphere angle 4 asin(d/2) with safety factors 0.95 and 0.98."""
    gamma = 4.0 * math.asin(min(d, 2.0) / 2.0) * 0.95
    return gamma * math.sqrt(2.0) * 0.98


def _band_level_points(level_delta: float) -> Array:
    """Covering of the m=2 state space modulo phase, via its 2-sphere chart."""
    step = _band_step(level_delta)
    n_rings = max(int(math.ceil(math.pi / step)), 1)
    dtheta = math.pi / n_rings
    thetas, phis = [], []
    for j in range(n_rings):
        theta = (j + 0.5) * dtheta
        s_edge = 1.0 if theta - dtheta / 2 <= math.pi / 2 <= theta + dtheta / 2 else max(
            math.sin(theta - dtheta / 2), math.sin(theta + dtheta / 2)
        )
        n_phi = max(int(math.ceil(2.0 * math.pi * s_edge / step)), 1)
        ring_phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
        thetas.append(np.full(n_phi, theta))
        phis.append(ring_phis)
    theta = np.concatenate(thetas)
    phi = np.concatenate(phis)
    pts = np.empty((theta.size, 2), dtype=complex)
    pts[:, 0] = np.cos(theta / 2.0)
    pts[:, 1] = np.exp(1j * phi) * np.sin(theta / 2.0)
    return pts


def _estimate_band_size(delta: float) -> float:
    total = 0.0
    for d in _ladder_levels(delta):
        total += 4.0 * math.pi / _band_step(d) ** 2 + 4
    return total


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
        size_of, level_points = _estimate_band_size, _band_level_points
    elif method == "grid":
        size_of, level_points = partial(_grid_size, m), partial(_grid_level_points, m)
    else:
        raise ValueError(f"unknown method {method!r}")
    if delta >= 2.0 or m == 1:
        # CP^0 is a single point, and the sphere has diameter 2: any single point covers it
        pts = np.zeros((1, m), dtype=complex)
        pts[0, 0] = 1.0
    else:
        try:
            size = size_of(delta)
        except (OverflowError, ZeroDivisionError):  # beyond float range, so beyond MAX_POINTS
            size = math.inf
        if size > MAX_POINTS:
            raise NetTooLargeError(
                f"{method} net for m={m}, delta={delta} exceeds {MAX_POINTS} points; "
                "use a larger delta"
            )
        pts = np.concatenate([level_points(d) for d in _ladder_levels(delta)], axis=0)
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
