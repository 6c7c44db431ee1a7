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
(Santalo, Integral Geometry and Geometric Probability, 1976; Ghosh, Bull.
Calcutta Math. Soc. 43, 1951), the ray laws' arc rule `rays._arc_weight`
with the angle as the cumulative arc weight.  The conditional law and the
(length, exit location) joints are these values on a grid: the slice
function of both path models, `rays._slice`, with the angle and the
constant 1 / (W H), over the exit face's area for a joint.  The
location-integrated pair laws integrate them over the exit face: in
closed form for an opposing pair, and by Gauss-Legendre panels split at
the arc's kinks for an adjacent pair.  Every node value (but the opposing
pair law's first) is exact to that quadrature; nothing is convolved.
"""

from __future__ import annotations

import numpy as np

from .rays import FacePdf, _acos_ratio, _arc_weight, _joint, _jump_law, _live_panels, _slice
from .density import GridDensity1D
from .geometry import BoxDims, FaceId, IndexTriple, PairKind, entry_probability, joint_frame

__all__ = [
    "conditional_exit_probability",
    "conditional_length_pdf",
    "joint_pdf_adjacent",
    "joint_pdf_opposing",
    "pair_length_pdf",
]

_PANEL_NODES = 24  # Gauss-Legendre nodes per panel of the adjacent pair integral and the opposing edge node


def _angle(t):
    """The cumulative arc weight of `rays._arc_weight` for chords, whose every direction weighs 1."""
    return t


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
    entry corner.  The law is f(n | exit) = n theta_in / (X_i X_k), the
    `rays._slice` of the angle over the entry face's area.  An exit off
    its face (boundary included) is a ValueError.
    """
    box = BoxDims.from_any(box)
    xi, xj, xk = indices.dims(box)
    u, v = float(exit_uv[0]), float(exit_uv[1])
    extents = joint_frame(box, kind, indices)[0][1:]
    if not all(lo <= x <= hi for x, (lo, hi) in zip((u, v), extents)):
        raise ValueError(f"exit_uv {(u, v)} lies off the exit face {extents}")
    if kind is PairKind.OPPOSING:
        n_lo, far_k = xj, max(v * v, (v - xk) ** 2)
    else:
        n_lo, far_k = v, xk * xk
    n_hi = float(np.sqrt(n_lo * n_lo + max(u * u, (u - xi) ** 2) + far_k))
    n_grid = np.linspace(n_lo, n_hi, n_nodes)
    vals = _slice(kind, lambda c, r: _angle, n_grid, u, v, xi, xj, xk) / (xi * xk)
    return GridDensity1D(n_lo, n_hi, vals).normalized()


def joint_pdf_opposing(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 64,
    u_nodes: int = 64,
    v_nodes: int = 64,
) -> FacePdf:
    """Joint (length, exit-location) density for an opposing face pair.

    The exit location is uniform on the face, so the joint factorizes into
    (1 / area) times the conditional length law at each location.  Its
    mass is the exact `conditional_exit_probability`.
    """
    box = BoxDims.from_any(box)
    xi, _, xk = indices.dims(box)
    mass = conditional_exit_probability(box, FaceId(indices.j, 0), FaceId(indices.j, 1))
    return _joint(box, PairKind.OPPOSING, indices, (n_nodes, u_nodes, v_nodes), lambda c, r: _angle, 1.0 / (xi * xk * xi * xk), mass)


def joint_pdf_adjacent(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 64,
    u_nodes: int = 64,
    v_nodes: int = 64,
) -> FacePdf:
    """Joint (length, exit-location) density for an adjacent face pair; as `joint_pdf_opposing`."""
    box = BoxDims.from_any(box)
    xi, xj, xk = indices.dims(box)
    mass = conditional_exit_probability(box, FaceId(indices.j, 0), FaceId(indices.k, 0))
    return _joint(box, PairKind.ADJACENT, indices, (n_nodes, u_nodes, v_nodes), lambda c, r: _angle, 1.0 / (xi * xk * xi * xj), mass)


def _pair_values(box: BoxDims, kind: PairKind, indices: IndexTriple, n) -> np.ndarray:
    """Unit-mass length density of a face pair at the lengths n, location integrated out.

    Opposing pair: the in-plane offset (D_i, D_k) has the difference
    density 4 (X_i - d_i)(X_k - d_k) / (X_i^2 X_k^2), and its integral over
    the quarter arc of radius r = sqrt(n^2 - X_j^2) inside the offset
    rectangle is closed.  Adjacent pair: with D_i = t the remaining offset
    (E, Z) is uniform on X_j x X_k, so
    f(n) = 2n / (X_i^2 X_j X_k) int_0^min(n, X_i) (X_i - t) theta(sqrt(n^2 - t^2)) dt,
    theta the angle inside that rectangle of a circle about its corner:
    `rays._arc_weight` with only the far sides X_j and X_k.  With t = n sin a
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
    integrand = (xi - m * np.sin(a)) * _arc_weight(_angle, s, (xj,), (xk,)) * s
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
