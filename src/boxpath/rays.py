"""Analytic distributions for paths entering through a face interior.

Entry points are uniform on the entry face and directions are drawn from
the component-uniform law (each direction component uniform on [-1, 1],
the entry-axis component forced inward), the model whose exit laws admit
the closed quadrature kernels below.  All results are expressed in the
canonical frame of a face-pair class (entry on x_j = 0; opposing exit on
x_j = X_j with coordinates (x_i, x_k); adjacent exit on x_k = 0 with
coordinates (x_i, x_j), the second being the elevation above the shared
edge).

Derivation sketch.  With inward slope s = direction_j in (0, 1], the
plane-hit coordinate along a transverse axis c is x_c + (X_j / s) * t_c
with x_c uniform on (0, X_c) and t_c uniform on (-1, 1), whose density is
the uniform-uniform overlap kernel k.  By box convexity, hitting the
opposing plane inside the face rectangle is exactly the exit event, so
face-restricted plane-hit densities are exit densities.  k is a sum of
two ramps min(1, u s / X_j), so the exit maps integrate polynomials or
c / s over s piece by piece and are closed (`exit_pdf_opposing`,
`exit_pdf_adjacent`).  Joint (length, location) densities follow from a
5-variable change of variables onto (n, exit coordinates, auxiliaries)
with the radial integral closed: a slice at length n integrates the
direction weight over the arcs of a circle that lie inside the entry
face (Santalo, Integral Geometry and Geometric Probability, 1976).  On
each piece of an arc that weight has an elementary antiderivative, and
`_arc_weight`, the arc rule of both path models (chords weigh the angle),
sums the cumulative weight over the face's corners.  `_slice`, the one
slice function of both models and both pair kinds, places the circle
(its height, radius and cutting sides) and applies that rule, so each
model passes only its arc cumulative and its constant.  The length
marginals integrate the same slices over the exit face, by Gauss-Legendre
panels split at the kinks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .density import GridDensity, GridDensity1D, _unit_mass
from .geometry import BoxDims, IndexTriple, PairKind, joint_frame

__all__ = [
    "FacePdf",
    "exit_pdf_adjacent",
    "exit_pdf_opposing",
    "joint_pdf_adjacent",
    "joint_pdf_opposing",
    "length_marginal_adjacent",
    "length_marginal_opposing",
]

# The sampler direction model (`montecarlo.DIRECTION_MODELS`) these laws describe.
DIRECTION_MODEL = "cube-components"

_BLOCK = 64  # length nodes per vectorised block of `_on_nodes`
_MARGINAL_NODES = 16  # Gauss-Legendre nodes per panel of the ray length marginals


@dataclass(frozen=True)
class FacePdf:
    """Density on one exit face of a face-pair class, conditional on that exit.

    `density` has the two exit-location axes, after a leading length axis
    for a joint (length, exit-location) law.  It integrates to one; `mass`
    is the probability of exiting through the face given entry through the
    class entry face, so the physical sub-density is mass * density.
    """

    density: GridDensity
    mass: float


def _acos_ratio(d, r):
    """arccos(min(1, d / r)) for d, r >= 0, with its r -> 0 limit: 0 off the line, pi/2 on it."""
    near = d < r
    return np.arccos(np.where(near, d / np.where(near, r, 1.0), d > 0))


def _arc_weight(cumulative, r, across, along):
    """The weight on the arcs of the circle of radius r about a point that lie inside a rectangle.

    `across` and `along` hold the point's distances to the sides on two crossing axes (a side
    through the point may be left out: its corners' arcs are empty).  A side at distance d cuts
    the arc within cut = arccos(min(1, d / r)) of its normal, so at a corner, in the angle t
    from the across side's normal, the arc runs from cut_across to pi/2 - cut_along and weighs
    max(0, C(pi/2 - cut_along) - C(cut_across)), C the model's cumulative arc weight; C(t) = t
    gives the angle: 2 pi inside the rectangle at r = 0, pi on an edge and pi/2 at a corner.
    """
    lo = [cumulative(_acos_ratio(d, r)) for d in across]
    hi = [cumulative(0.5 * np.pi - _acos_ratio(d, r)) for d in along]
    return sum(np.maximum(0.0, h - c) for c in lo for h in hi)


def _slice(kind: PairKind, arc, n, u, v, xi, xj, xk):
    """n times the weight of `_arc_weight` on the entry-face arcs of the paths of length n to the exit
    (u, v) of a class with dims X, broadcast: either path model's joint slice up to its constant.

    The exit sits at height c above the entry plane, and the entry points at length n lie on the
    circle of radius r = sqrt(n^2 - c^2) about its projection.  An opposing exit (u, v) on x_j = X_j
    has c = X_j and its centre inside the X_i x X_k entry face; an adjacent exit (u, elevation v) on
    x_k = 0 has c = v and its centre (u, 0) on the face's edge x_k = 0, so only the far side x_k = X_k
    cuts across.  `arc(c, r)` is the model's cumulative arc weight.  The slice is zero below n = c.
    """
    c, across = (xj, (v, xk - v)) if kind is PairKind.OPPOSING else (v, (xk,))
    r_sq = n * n - c * c
    r = np.sqrt(np.maximum(r_sq, 0.0))
    return np.where(r_sq >= 0.0, n * _arc_weight(arc(c, r), r, across, (u, xi - u)), 0.0)


_leggauss = functools.cache(lambda nodes: np.polynomial.legendre.leggauss(nodes))  # built on first use, off the import path


def _live_panels(points, nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the panels between the sorted `points` of each row.

    A panel [lo, lo + 2 h] is mapped by x = lo + h (1 - cos phi), which smooths a square-root
    end of the integrand, and summed by `nodes` nodes in phi.  Returns (row, x, w): each
    nonzero panel's row in the 2-d `points`, and its nodes and weights, shape (kept, nodes).
    Empty panels are dropped before they are mapped, so their nodes are never built.
    """
    edges = np.sort(points, axis=-1)
    lo, half = edges[:, :-1], 0.5 * np.diff(edges, axis=-1)
    shift, sin, w = _panel_rule(nodes)
    row, col = np.nonzero(half * sin[0] * w[0] > 0.0)
    lo, half = lo[row, col, None], half[row, col, None]
    return row, lo + half * shift, half * sin * w


def _panel_rule(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The panel map's node offsets 1 - cos phi, its Jacobian sin phi and the weights in phi."""
    x, w = _leggauss(nodes)
    phi = 0.5 * np.pi * (x + 1.0)
    return 1.0 - np.cos(phi), np.sin(phi), 0.5 * np.pi * w


def _on_nodes(values, n_grid: np.ndarray, shape: tuple[int, ...] = ()) -> np.ndarray:
    """values(n), of shape (lengths,) + `shape`, at the length nodes `n_grid`; each call gets a
    block of `_BLOCK` lengths, so the temporaries of the broadcast laws stay bounded."""
    out = np.empty(n_grid.shape + shape)
    for start in range(0, n_grid.size, _BLOCK):
        out[start : start + _BLOCK] = values(n_grid[start : start + _BLOCK])
    return out


def _face_pdf(box: BoxDims, kind: PairKind, indices: IndexTriple, vals: np.ndarray, mass: float | None = None) -> FacePdf:
    """The FacePdf of grid values on the last `vals.ndim` axes of the class's `joint_frame`,
    normalized by their one grid integral; its mass is that integral unless one is given."""
    domain, names = joint_frame(box, kind, indices)
    dens = GridDensity(domain[-vals.ndim :], vals, names[-vals.ndim :])
    integral = dens.integral()
    unit = GridDensity(dens.domain, _unit_mass(dens.values, integral), dens.axis_names)
    return FacePdf(unit, integral if mass is None else mass)


# ---------------------------------------------------------------------------
# Exit-location densities (length integrated out).


_EDGE_SUBNODES = 33  # midpoint sub-nodes of the first elevation cell of an adjacent exit map


def _ramp_product(p, q):
    """G(p, q) = int_0^1 min(1, p s) min(1, q s) ds for p, q >= 0."""
    lo = 1.0 / np.maximum(1.0, np.maximum(p, q))
    hi = 1.0 / np.maximum(1.0, np.minimum(p, q))
    return p * q * lo**3 / 3.0 + np.minimum(p, q) * (hi * hi - lo * lo) / 2.0 + 1.0 - hi


def _ramp_over_slope(p, c):
    """H(p, c) = int_0^1 min(1, c s)^2 / s * min(1, p s) ds for p >= 0, c > 0."""
    u, v = 1.0 / np.maximum(1.0, c), 1.0 / np.maximum(1.0, p)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    between = np.where(u < v, p * (hi - lo), c * c * (hi * hi - lo * lo) / 2.0)
    return c * c * p * lo**3 / 3.0 + between - np.log(hi)


def exit_pdf_opposing(
    box: BoxDims,
    indices: IndexTriple,
    a_nodes: int = 129,
    b_nodes: int = 129,
) -> FacePdf:
    """Exit-location density on the opposing face x_j = X_j.

    f(a, b) = int_0^1 ds k_i(a; X_j / s) k_k(b; X_j / s) over the inward
    slope s, where k(u; X_j / s) = (min(1, u s / X_j) + min(1, (W - u) s / X_j)) / (2 W)
    is the density of x + (X_j / s) t at u for x ~ U(0, W), t ~ U(-1, 1).
    Expanding the product gives four closed ramp integrals:

        f(a, b) = sum_{p in {a, X_i - a}} sum_{q in {b, X_k - b}} G(p / X_j, q / X_j) / (4 X_i X_k),
        G(p, q) = p q lo^3 / 3 + min(p, q) (hi^2 - lo^2) / 2 + 1 - hi,

    with lo <= hi the kinks min(1, 1/p) and min(1, 1/q).  The
    face-restricted integral is the face-exit probability.
    """
    xi, xj, xk = indices.dims(box)
    a = np.linspace(0.0, xi, a_nodes)[:, None]
    b = np.linspace(0.0, xk, b_nodes)[None, :]
    vals = sum(_ramp_product(p / xj, q / xj) for p in (a, xi - a) for q in (b, xk - b)) / (4.0 * xi * xk)
    return _face_pdf(box, PairKind.OPPOSING, indices, vals)


def exit_pdf_adjacent(
    box: BoxDims,
    indices: IndexTriple,
    a_nodes: int = 129,
    e_nodes: int = 129,
) -> FacePdf:
    """Exit-location density on the adjacent face x_k = 0.

    f(a, e) = int_0^1 ds min(1, (X_k s / e)^2) / (4 X_k s) k_i(a; e / s),
    where e is the elevation above the shared edge and k the overlap
    kernel of `exit_pdf_opposing`.  It is closed in the slope s:

        f(a, e) = sum_{p in {a, X_i - a}} H(p / e, X_k / e) / (8 X_i X_k),
        H(p, c) = c^2 p lo^3 / 3 + B - ln hi,

    with lo <= hi the kinks min(1, 1/c) and min(1, 1/p), and
    B = p (hi - lo) where 1/c < 1/p, else c^2 (hi^2 - lo^2) / 2.  The
    density has an integrable logarithmic spike at e = 0; the e = 0 node
    is set by first-cell mass matching (the cell mass from the closed
    values at `_EDGE_SUBNODES` midpoints), so grid integration conserves
    mass.
    """
    xi, xj, xk = indices.dims(box)
    a = np.linspace(0.0, xi, a_nodes)[:, None]
    e = np.linspace(0.0, xj, e_nodes)

    def rows(evals: np.ndarray) -> np.ndarray:
        evals = evals[None, :]
        return sum(_ramp_over_slope(p / evals, xk / evals) for p in (a, xi - a)) / (8.0 * xi * xk)

    vals = np.empty((a_nodes, e_nodes))
    vals[:, 1:] = rows(e[1:])
    h = e[1]
    # First-cell mass per a-column from a fine sub-grid, then solve for the
    # e = 0 node value that makes the trapezoid first-cell mass exact.
    esub = h * (np.arange(_EDGE_SUBNODES) + 0.5) / _EDGE_SUBNODES
    cell_mass = rows(esub).mean(axis=1) * h
    vals[:, 0] = np.maximum(0.0, 2.0 * (cell_mass - vals[:, 1] * h / 2.0) / h)
    return _face_pdf(box, PairKind.ADJACENT, indices, vals)


# ---------------------------------------------------------------------------
# Joint (length, exit-location) densities.


def _sec3(t):
    """int_0^t sec^3 = (sec t tan t + ln(sec t + tan t)) / 2."""
    sec, tan = 1.0 / np.cos(t), np.tan(t)
    return 0.5 * (sec * tan + np.log(sec + tan))


def _opposing_arc(xj, r):
    """The folded cumulative weight C(t) of `joint_pdf_opposing` on [0, pi/2] at radius r."""
    star = np.minimum(0.25 * np.pi, _acos_ratio(xj, r))
    r3 = np.where(r > 0.0, r, 1.0) ** 3

    def rising(t):
        return _sec3(np.minimum(t, star)) / r3 + np.maximum(0.0, t - star) / xj**3

    quarter = 2.0 * rising(0.25 * np.pi)

    def cumulative(t):
        folded = rising(np.minimum(t, 0.5 * np.pi - t))
        return np.where(t <= 0.25 * np.pi, folded, quarter - folded)

    return cumulative


def _adjacent_arc(e, rho):
    """The cumulative weight C(t) of `joint_pdf_adjacent` at elevation e and radius rho, 0 at
    rho = 0 < e, and with moment=True (rho > 0) also D(t) = int_0^t rho sin(phi) w(phi) dphi,
    whose three pieces grow by sec / rho, rho^2 sin^2 / (2 e^3) and -1 / (rho sin)."""
    rho2 = np.where(rho > 0.0, rho, 1.0) ** 2
    arc = _acos_ratio(e, rho)
    near, far = np.minimum(0.25 * np.pi, arc), np.maximum(0.25 * np.pi, 0.5 * np.pi - arc)
    sin_near, sin_far = np.sin(near), np.sin(far)
    mid_scale = rho / np.where(e > 0.0, e, 1.0) ** 3  # the middle piece is empty at e = 0

    def cumulative(t, moment=False):
        low, mid, high = np.minimum(t, near), np.sin(np.clip(t, near, far)), np.sin(np.maximum(t, far))
        c = np.tan(low) / rho2 + mid_scale * (mid - sin_near) + (1.0 / sin_far**2 - 1.0 / high**2) / (2.0 * rho2)
        if not moment:
            return c
        d = (1.0 / np.cos(low) - 1.0) / rho + 0.5 * mid_scale * rho * (mid * mid - sin_near * sin_near) + (1.0 / sin_far - 1.0 / high) / rho
        return c, d

    return cumulative


def _joint(box: BoxDims, kind: PairKind, indices: IndexTriple, nodes, arc, scale: float, mass: float | None = None) -> FacePdf:
    """One class joint of either path model: `scale` times the `_slice` of its cumulative arc weight
    `arc`, on the `joint_frame` grid of `nodes` = (length, u, v) node counts; see `_face_pdf` for the mass."""
    domain, dims = joint_frame(box, kind, indices)[0], indices.dims(box)
    n_grid, u, v = (np.linspace(lo, hi, m) for (lo, hi), m in zip(domain, nodes))
    vals = _on_nodes(lambda n: scale * _slice(kind, arc, n[:, None, None], u[:, None], v, *dims), n_grid, (u.size, v.size))
    return _face_pdf(box, kind, indices, vals, mass)


def joint_pdf_opposing(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 64,
    a_nodes: int = 64,
    b_nodes: int = 64,
) -> FacePdf:
    """Joint density of (path length n, exit location) on the opposing face.

    Support starts at n = X_j (the straight crossing).  With the radial
    part of the direction integral closed, a slice at (n, a, b) is
    X_j n / (12 X_i X_k) times the integral of
    w = 1 / max(X_j, r |sin|, r |cos|)^3 over the arcs of the circle of
    radius r = sqrt(n^2 - X_j^2) around (a, b) that lie inside the entry
    face.  w has period pi/2 and mirrors about pi/4, so on each quadrant
    between two sides' normals its cumulative weight is C(t) = P0(t) up
    to pi/4 and Q - P0(pi/2 - t) after, with
    P0(t) = S3(min(t, t*)) / r^3 + max(0, t - t*) / X_j^3,
    S3(t) = (sec t tan t + ln(sec t + tan t)) / 2,
    t* = min(pi/4, arccos(min(1, X_j / r))) and Q = 2 P0(pi/4)
    (`_opposing_arc`).  `_slice` sums C over the arcs inside the face,
    the four corners of `_arc_weight`.  At n = X_j the arcs take their
    r -> 0 limit: 2 pi inside the face, pi on an edge and pi/2 at a corner.
    """
    xi, xj, xk = indices.dims(box)
    return _joint(box, PairKind.OPPOSING, indices, (n_nodes, a_nodes, b_nodes), _opposing_arc, xj / (12.0 * xi * xk))


def joint_pdf_adjacent(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 64,
    a_nodes: int = 64,
    e_nodes: int = 64,
) -> FacePdf:
    """Joint density of (length, exit location) on the adjacent face x_k = 0.

    The entry-depth integral is closed (the exit pins the depth
    coordinate); a slice at (n, a, e) is n / (12 X_i X_k) times the
    integral of w = rho cos(phi) / max(e, rho |sin phi|, rho cos phi)^3
    over the arcs of the half circle of radius rho = sqrt(n^2 - e^2)
    around (a, 0) on the entry face's edge that lie inside the face, phi
    measured from the depth axis.  w is even; on [0, pi/2] its cumulative
    weight C(t) is tan(t) / rho^2 up to t1 = min(pi/4, arccos(min(1, e / rho))),
    then grows by rho sin(t) / e^3 up to t2 = max(pi/4, arcsin(min(1, e / rho))),
    then by -1 / (2 rho^2 sin^2 t) (`_adjacent_arc`).  On each side of
    the depth axis the inside arc runs from the depth cut
    arccos(min(1, X_k / rho)) to arcsin(min(1, d / rho)), d the distance
    to the side x_i = 0 or X_i: `_slice` of an adjacent exit, whose
    circle only the far side x_k = X_k cuts across.  The slab e >= n is
    zero, and so is the n = 0 slab, where f(n, a, 0) grows like 1 / n.
    """
    xi, _, xk = indices.dims(box)
    return _joint(box, PairKind.ADJACENT, indices, (n_nodes, a_nodes, e_nodes), _adjacent_arc, 1.0 / (12.0 * xi * xk))


# ---------------------------------------------------------------------------
# Length marginals (location integrated over the exit face).


def _jump_law(values, lo: float, hi: float, n_nodes: int, nodes: int) -> GridDensity1D:
    """f = values(n) on `n_nodes` nodes over [lo, hi] (`_on_nodes`), for f with a jump
    and a sqrt(n - lo) term at lo that the trapezoid rule does not resolve: the lo node is the first
    cell's hat average int f phi_0 / int phi_0, the node value of `GridDensity1D.project`."""
    n_grid = np.linspace(lo, hi, n_nodes)
    vals = _on_nodes(values, n_grid)
    h = n_grid[1] - lo
    n, w = _live_panels(np.array([[lo, lo + h]]), nodes)[1:]
    vals[0] = np.sum(w * values(n[0]) * (1.0 - (n[0] - lo) / h)) / (0.5 * h)
    return GridDensity1D(lo, hi, vals)


def _opposing_values(n, xi, xj, xk):
    """The opposing length law at lengths n >= X_j (1-d); see `length_marginal_opposing`."""
    m = n[:, None]
    r = np.sqrt(np.maximum(m * m - xj * xj, 0.0))
    star = np.minimum(0.25 * np.pi, _acos_ratio(xj, r))
    ends = [_acos_ratio(xi, r), 0.5 * np.pi - _acos_ratio(xk, r)]  # outside them the integrand is 0
    row, t, w = _live_panels(np.concatenate([*ends, star, 0.5 * np.pi - star], axis=-1), _MARGINAL_NODES)
    rc, rs = r[row] * np.cos(t), r[row] * np.sin(t)
    inside = np.maximum(0.0, xi - rc) * np.maximum(0.0, xk - rs) / np.maximum(xj, np.maximum(rc, rs)) ** 3
    return xj * n * np.bincount(row, np.sum(w * inside, axis=-1), minlength=n.size) / (3.0 * xi * xk)


def length_marginal_opposing(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 1025,
) -> GridDensity1D:
    """Sub-density of the path length for opposing exits (mass = face-exit
    probability given entry, not renormalized).

    The slices of `joint_pdf_opposing` integrated over the exit face give,
    with r = sqrt(n^2 - X_j^2),

        f(n) = X_j n / (3 X_i X_k) int_0^{pi/2} (X_i - r cos t)_+ (X_k - r sin t)_+
               / max(X_j, r cos t, r sin t)^3 dt,

    which `chords._pair_values` closes for chords with weight 1.  Its panels
    (`_live_panels`) end at arccos(min(1, X_i / r)) and pi/2 - arccos(min(1, X_k / r))
    and split at t* = min(pi/4, arccos(min(1, X_j / r))) and pi/2 - t*, where
    the largest of the three terms changes (pi/4 is a kink only once t* = pi/4).
    The n = X_j node is the first cell's hat average (`_jump_law`).
    """
    xi, xj, xk = indices.dims(box)
    return _jump_law(lambda n: _opposing_values(n, xi, xj, xk), xj, box.diagonal, n_nodes, _MARGINAL_NODES)


def _adjacent_values(n, xi, xj, xk):
    """6 X_k times the adjacent length law at lengths n > 0 (1-d); see `length_marginal_adjacent`."""
    m = n[:, None]
    top, sq = np.minimum(xj, m), m * m
    roots = (sq - xk * xk, sq - xi * xi, sq - 2.0 * xk * xk, 0.5 * (sq - xk * xk), sq - 2.0 * xi * xi, 0.5 * (sq - xi * xi), sq - xi * xi - xk * xk)
    kinks = [m / np.sqrt(3.0), m / np.sqrt(2.0), xk, *(np.sqrt(np.maximum(v, 0.0)) for v in roots)]
    row, e, w = _live_panels(np.concatenate([np.zeros_like(m), top, *(np.minimum(top, k) for k in kinks)], axis=-1), _MARGINAL_NODES)
    m = m[row]  # most panels are empty, and only the others are evaluated
    live = e < m  # e rounds to n only at the very end of a panel, where the integrand vanishes
    rho = np.sqrt(np.where(live, m * m - e * e, 1.0))
    cumulative = _adjacent_arc(e, rho)
    lo = _acos_ratio(xk, rho)
    (c_lo, d_lo), (c_hi, d_hi) = (cumulative(t, moment=True) for t in (lo, np.maximum(lo, 0.5 * np.pi - _acos_ratio(xi, rho))))
    panel_sums = np.sum(np.where(live, w * (c_hi - c_lo - (d_hi - d_lo) / xi), 0.0), axis=-1)
    return n * np.bincount(row, panel_sums, minlength=n.size)


def length_marginal_adjacent(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 1025,
    angle_nodes: int = 1024,
    elevation_nodes: int = 512,
) -> GridDensity1D:
    """Sub-density of the path length for exits through the adjacent face
    x_k = 0 (mass = face-exit probability given entry).

    The slices of `joint_pdf_adjacent` integrated over the exit position
    along the shared edge give, with rho = sqrt(n^2 - e^2),

        f(n) = n / (6 X_k) int_0^{min(X_j, n)} [C - D / X_i] de,

    C and D from `_adjacent_arc`, taken from the depth cut
    arccos(min(1, X_k / rho)) to the side cut pi/2 - arccos(min(1, X_i / rho))
    (empty once the cuts cross).  Its panels in e (`_live_panels`) split where
    the weight's pieces change (n / sqrt(3), n / sqrt(2)), where a cut
    appears or crosses a piece boundary (X_k, and for X = X_k and X_i:
    sqrt(n^2 - X^2), sqrt(n^2 - 2 X^2) and sqrt((n^2 - X^2) / 2)) and where
    the cuts meet (sqrt(n^2 - X_i^2 - X_k^2)).  At e = X_i, where the side
    cut crosses the last piece boundary, the integrand vanishes at the cut
    and the kink is too weak to need a split.  The n = 0 node is the exact
    n -> 0+ limit, this integral at n = 1 with X_i, X_j and X_k infinite:
    C0 / (12 X_k), C0 about 3.0936.  `angle_nodes` and `elevation_nodes`
    are unused, kept so that existing calls and argument readers work.
    """
    xi, xj, xk = indices.dims(box)
    vals = _on_nodes(lambda n: _adjacent_values(n, xi, xj, xk), np.linspace(0.0, box.diagonal, n_nodes))
    vals[0] = _adjacent_values(np.ones(1), np.inf, np.inf, np.inf)[0]
    return GridDensity1D(0.0, box.diagonal, vals / (6.0 * xk))
