"""Analytic distributions for chords between uniform surface points.

In this model the entry point is uniform on the box surface and the exit
point is an independent uniform surface point, redrawn while it lands on
the entry face.  Conditional on the (entry, exit) face pair the two
points are uniform on their faces.

Every law here comes from one arc.  Fix the exit point, at height c
above the entry plane (X_j for an opposing exit, the elevation e for an
adjacent one).  The entry points at chord length n then lie on a circle
of radius r = sqrt(n^2 - c^2) in the entry plane, centred at the exit
point's projection.  The entry point is uniform on the W x H entry
rectangle, so P(L <= n | exit) = |disk(r) & rect| / (W H) and

    f(n | exit) = n theta_in(r) / (W H),

where theta_in is the angle of the circle that lies inside the rectangle
(`_inside_angle`; Santalo, Integral Geometry and Geometric Probability,
1976; Ghosh, Bull. Calcutta Math. Soc. 43, 1951).  The conditional law
and the (length, exit location) joints are these values on a grid.  The
location-integrated pair laws integrate them over the exit face: in
closed form for an opposing pair, and by Gauss-Legendre panels split at
the arc's kinks for an adjacent pair.  Every node value (but the opposing
pair law's first) is exact to that quadrature; nothing is convolved.
"""

from __future__ import annotations

import numpy as np

from .rays import FacePdf, _acos_ratio, _jump_law, _live_panels
from .density import GridDensity, GridDensity1D
from .errors import NumericalError
from .geometry import BoxDims, FaceId, IndexTriple, PairKind, entry_probability, joint_frame

__all__ = [
    "conditional_exit_probability",
    "conditional_length_pdf",
    "joint_pdf_adjacent",
    "joint_pdf_opposing",
    "pair_length_pdf",
]

_PANEL_NODES = 24  # Gauss-Legendre nodes per panel of the adjacent pair integral and the opposing edge node


def conditional_exit_probability(box: BoxDims, entry: FaceId, exit: FaceId) -> float:
    """P(exit face | entry face) when the exit point is redrawn off the entry face.

    Equals P_exit / (1 - P_entry).  Redrawing both points of a same-face
    pair would give the same conditional, but would tilt the entry-face
    law away from P_entry unless all faces have equal area.
    """
    if entry == exit:
        raise ValueError("entry and exit faces coincide")
    box = BoxDims.from_any(box)
    return entry_probability(box, exit) / (1.0 - entry_probability(box, entry))


def _inside_angle(r, left, right, bottom, top):
    """Angle of the circle of radius r that lies inside a rectangle.

    The centre lies at distances left, right, bottom and top (all >= 0)
    from the rectangle's sides.  Each side the circle crosses cuts off an
    arc of 2 arccos(d / r); where the cut arcs of two sides overlap, at a
    corner inside the circle, the overlap
    arccos(d_x / r) + arccos(d_y / r) - pi/2 is added back.  At r = 0 the
    angle is 2 pi inside the rectangle, pi on an edge and pi/2 at a corner.
    """
    # A side through the centre (d = 0.0) cuts a half circle at every r: arccos(0) = pi/2.
    cut = [0.5 * np.pi if np.ndim(d) == 0 and d == 0.0 else _acos_ratio(d, r) for d in (left, bottom, right, top)]
    overlap = sum(np.maximum(0.0, cut[s] + cut[(s + 1) % 4] - 0.5 * np.pi) for s in range(4))
    return np.maximum(0.0, 2.0 * np.pi - 2.0 * sum(cut) + overlap)


def _conditional_values(box: BoxDims, kind: PairKind, indices: IndexTriple, u, v, n) -> np.ndarray:
    """f(n | exit) = n theta_in(sqrt(n^2 - c^2)) / (X_i X_k) at every (n, u, v); shape (n, u, v).

    Opposing exits sit at (u, v) on x_j = X_j: c = X_j and the centre
    (u, v) lies inside the X_i x X_k entry rectangle.  Adjacent exits sit
    at (u, elevation v) on x_k = 0: c = v and the centre (u, 0) lies on the
    rectangle's edge x_k = 0.  The density is zero below n = c.
    """
    xi, xj, xk = indices.dims(box)
    n = np.asarray(n, dtype=float)[:, None, None]
    u = np.asarray(u, dtype=float)[None, :, None]
    v = np.asarray(v, dtype=float)[None, None, :]
    if kind is PairKind.OPPOSING:
        c, bottom, top = xj, v, xk - v
    else:
        c, bottom, top = v, 0.0, xk
    r_sq = n * n - c * c
    theta = _inside_angle(np.sqrt(np.maximum(r_sq, 0.0)), u, xi - u, bottom, top)
    return np.where(r_sq >= 0.0, n * theta, 0.0) / (xi * xk)


def conditional_length_pdf(
    box: BoxDims,
    kind: PairKind,
    indices: IndexTriple,
    exit_uv: tuple[float, float],
    n_nodes: int = 513,
) -> GridDensity1D:
    """Length density conditional on the canonical exit location.

    For an opposing exit the location is (x_i, x_k) on the face x_j = X_j;
    for an adjacent exit it is (x_i, elevation) on x_k = 0.  The support
    runs from the exit's height above the entry plane to the farthest
    entry corner.
    """
    box = BoxDims.from_any(box)
    xi, xj, xk = indices.dims(box)
    u, v = float(exit_uv[0]), float(exit_uv[1])
    if kind is PairKind.OPPOSING:
        n_lo, far_k = xj, max(v * v, (v - xk) ** 2)
    else:
        n_lo, far_k = v, xk * xk
    n_hi = float(np.sqrt(n_lo * n_lo + max(u * u, (u - xi) ** 2) + far_k))
    if n_hi <= n_lo:
        raise NumericalError("degenerate conditional support")
    n_grid = np.linspace(n_lo, n_hi, n_nodes)
    vals = _conditional_values(box, kind, indices, [u], [v], n_grid)[:, 0, 0]
    return GridDensity1D(n_lo, n_hi, vals).normalized()


def _joint(box: BoxDims, kind: PairKind, indices: IndexTriple, n_nodes: int, u_nodes: int, v_nodes: int) -> FacePdf:
    box = BoxDims.from_any(box)
    domain, names = joint_frame(box, kind, indices)
    n_grid, u, v = (np.linspace(lo, hi, m) for (lo, hi), m in zip(domain, (n_nodes, u_nodes, v_nodes)))
    vals = _conditional_values(box, kind, indices, u, v, n_grid) / (domain[1][1] * domain[2][1])
    dens = GridDensity(domain, vals, names)
    entry = FaceId(indices.j, 0)
    exit_face = FaceId(indices.j, 1) if kind is PairKind.OPPOSING else FaceId(indices.k, 0)
    mass = conditional_exit_probability(box, entry, exit_face)
    return FacePdf(kind, indices, dens.normalized(), mass)


def joint_pdf_opposing(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 64,
    u_nodes: int = 64,
    v_nodes: int = 64,
) -> FacePdf:
    """Joint (length, exit-location) density for an opposing face pair.

    The exit location is uniform on the face, so the joint factorizes into
    (1 / area) times the conditional length law at each location.
    """
    return _joint(box, PairKind.OPPOSING, indices, n_nodes, u_nodes, v_nodes)


def joint_pdf_adjacent(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 64,
    u_nodes: int = 64,
    v_nodes: int = 64,
) -> FacePdf:
    """Joint (length, exit-location) density for an adjacent face pair."""
    return _joint(box, PairKind.ADJACENT, indices, n_nodes, u_nodes, v_nodes)


def _pair_values(box: BoxDims, kind: PairKind, indices: IndexTriple, n) -> np.ndarray:
    """Unit-mass length density of a face pair at the lengths n, location integrated out.

    Opposing pair: the in-plane offset (D_i, D_k) has the difference
    density 4 (X_i - d_i)(X_k - d_k) / (X_i^2 X_k^2), and its integral over
    the quarter arc of radius r = sqrt(n^2 - X_j^2) inside the offset
    rectangle is closed.  Adjacent pair: with D_i = t the remaining offset
    (E, Z) is uniform on X_j x X_k, so
    f(n) = 2n / (X_i^2 X_j X_k) int_0^min(n, X_i) (X_i - t) theta(sqrt(n^2 - t^2)) dt,
    theta the arc angle at a corner of that rectangle.  With t = n sin a
    the range splits where n cos a equals X_j, X_k or their hypotenuse,
    and each non-empty panel is summed by `rays._live_panels`.
    """
    xi, xj, xk = indices.dims(box)
    n = np.asarray(n, dtype=float)
    if kind is PairKind.OPPOSING:
        r = np.sqrt(np.maximum(n * n - xj * xj, 0.0))
        t_lo = _acos_ratio(xi, r)
        t_hi = np.maximum(t_lo, 0.5 * np.pi - _acos_ratio(xk, r))

        def antiderivative(t):
            return xi * xk * t + xi * r * np.cos(t) - xk * r * np.sin(t) + 0.5 * (r * np.sin(t)) ** 2

        vals = 4.0 * n * (antiderivative(t_hi) - antiderivative(t_lo)) / (xi * xi * xk * xk)
        return np.where(n >= xj, vals, 0.0)
    m = n.reshape(-1, 1)
    a_max = 0.5 * np.pi - _acos_ratio(xi, m)
    cuts = [np.minimum(a_max, _acos_ratio(c, m)) for c in (xj, xk, np.hypot(xj, xk))]
    row, a, weight = _live_panels(np.concatenate([np.zeros_like(m), *cuts, a_max], axis=-1), _PANEL_NODES)
    m = m[row]  # most panels are empty, and only the others are evaluated
    s = m * np.cos(a)
    integrand = (xi - m * np.sin(a)) * _inside_angle(s, 0.0, xj, 0.0, xk) * s
    sums = np.bincount(row, np.sum(weight * integrand, axis=-1), minlength=n.size).reshape(n.shape)
    return 2.0 * n * sums / (xi * xi * xj * xk)


def pair_length_pdf(
    box: BoxDims,
    kind: PairKind,
    indices: IndexTriple,
    n_nodes: int = 1025,
) -> GridDensity1D:
    """Unit-mass length density for a face pair, location integrated out.

    The node values are the exact law (see `_pair_values`).  The support
    is the class's length axis in `geometry.joint_frame`: it starts at the
    gap X_j for an opposing pair, whose n = X_j node is the first cell's
    hat average (`rays._jump_law`), and at 0 for an adjacent one.
    """
    box = BoxDims.from_any(box)
    lo, hi = joint_frame(box, kind, indices)[0][0]
    if kind is PairKind.OPPOSING:
        law = _jump_law(lambda n: _pair_values(box, kind, indices, n), lo, hi, n_nodes, _PANEL_NODES)
    else:
        law = GridDensity1D(lo, hi, _pair_values(box, kind, indices, np.linspace(lo, hi, n_nodes)))
    return law.normalized()
