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
the uniform-uniform overlap kernel `_overlap`.  By box convexity, hitting
the opposing plane inside the face rectangle is exactly the exit event,
so face-restricted plane-hit densities are exit densities.  Joint
(length, location) densities follow from a 5-variable change of variables
onto (n, exit coordinates, auxiliaries) with the radial integral closed;
the remaining angular integrals below are bounded and regular.  In the
adjacent length marginal the exit-elevation integral is closed as well
(see `length_marginal_adjacent`), so one angle rule is left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import GridDensity, GridDensity1D
from .geometry import BoxDims, IndexTriple, PairKind
from .pool import run_each

__all__ = [
    "FacePdf",
    "exit_pdf_adjacent",
    "exit_pdf_opposing",
    "forward_adjacent",
    "forward_opposing",
    "jacobian_adjacent",
    "jacobian_opposing",
    "joint_pdf_adjacent",
    "joint_pdf_opposing",
    "length_marginal_adjacent",
    "length_marginal_opposing",
]

# The sampler direction model (`montecarlo.DIRECTION_MODELS`) these laws describe.
DIRECTION_MODEL = "cube-components"


@dataclass(frozen=True)
class FacePdf:
    """Density on one exit face of a face-pair class, conditional on that exit.

    `density` has the two exit-location axes, after a leading length axis
    for a joint (length, exit-location) law.  It integrates to one; `mass`
    is the probability of exiting through the face given entry through the
    class entry face, so the physical sub-density is mass * density.
    """

    kind: PairKind
    indices: IndexTriple
    density: GridDensity
    mass: float


def _dims(box: BoxDims, indices: IndexTriple) -> tuple[float, float, float]:
    return box.dim(indices.i), box.dim(indices.j), box.dim(indices.k)


def _overlap(u: np.ndarray, alpha: np.ndarray, width: float) -> np.ndarray:
    """Density of x + alpha*t at u, for x ~ U(0, width), t ~ U(-1, 1)."""
    hi = np.minimum(1.0, u / alpha)
    lo = np.maximum(-1.0, (u - width) / alpha)
    return 0.5 * np.clip(hi - lo, 0.0, None) / width


def _midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


# ---------------------------------------------------------------------------
# Exit-location densities (length integrated out).


def exit_pdf_opposing(
    box: BoxDims,
    indices: IndexTriple,
    a_nodes: int = 129,
    b_nodes: int = 129,
    slope_nodes: int = 2048,
) -> FacePdf:
    """Exit-location density on the opposing face x_j = X_j.

    f(a, b) = int_0^1 ds k_i(a; X_j / s) k_k(b; X_j / s), with k the
    uniform-uniform overlap kernel; the face-restricted integral is the
    face-exit probability.
    """
    box = BoxDims.from_any(box)
    xi, xj, xk = _dims(box, indices)
    s = _midpoints(slope_nodes)
    alpha = xj / s
    a = np.linspace(0.0, xi, a_nodes)
    b = np.linspace(0.0, xk, b_nodes)
    ga = _overlap(a[:, None], alpha[None, :], xi)
    gb = _overlap(b[:, None], alpha[None, :], xk)
    vals = np.einsum("as,bs->ab", ga, gb, optimize=True) / slope_nodes
    dens = GridDensity(((0.0, xi), (0.0, xk)), vals, (f"x{indices.i}", f"x{indices.k}"))
    mass = dens.integral()
    return FacePdf(PairKind.OPPOSING, indices, dens.normalized(force=True), mass)


def exit_pdf_adjacent(
    box: BoxDims,
    indices: IndexTriple,
    a_nodes: int = 129,
    e_nodes: int = 129,
    slope_nodes: int = 2048,
    edge_subnodes: int = 33,
) -> FacePdf:
    """Exit-location density on the adjacent face x_k = 0.

    f(a, e) = int_0^1 ds min(1, (X_k s / e)^2) / (4 X_k s) k_i(a; e / s),
    where e is the elevation above the shared edge.  The density has an
    integrable logarithmic spike at e = 0; the e = 0 node is set by exact
    first-cell mass matching so grid integration conserves mass.
    """
    box = BoxDims.from_any(box)
    xi, xj, xk = _dims(box, indices)
    s = _midpoints(slope_nodes)
    a = np.linspace(0.0, xi, a_nodes)
    e = np.linspace(0.0, xj, e_nodes)

    def rows(evals: np.ndarray) -> np.ndarray:
        out = np.empty((a_nodes, evals.size))
        for col, ev in enumerate(evals):
            c = np.minimum(1.0, (xk * s / ev) ** 2) / (4.0 * xk * s) / slope_nodes
            ga = _overlap(a[:, None], (ev / s)[None, :], xi)
            out[:, col] = ga @ c
        return out

    vals = np.empty((a_nodes, e_nodes))
    vals[:, 1:] = rows(e[1:])
    h = e[1]
    # First-cell mass per a-column from a fine sub-grid, then solve for the
    # e = 0 node value that makes the trapezoid first-cell mass exact.
    esub = h * _midpoints(edge_subnodes)
    cell_mass = rows(esub).mean(axis=1) * h
    vals[:, 0] = np.maximum(0.0, 2.0 * (cell_mass - vals[:, 1] * h / 2.0) / h)
    dens = GridDensity(((0.0, xi), (0.0, xj)), vals, (f"x{indices.i}", f"x{indices.j}"))
    mass = dens.integral()
    return FacePdf(PairKind.ADJACENT, indices, dens.normalized(force=True), mass)


# ---------------------------------------------------------------------------
# Joint (length, exit-location) densities.


def _opposing_slice(
    n: float, a: np.ndarray, b: np.ndarray, xi: float, xj: float, xk: float, angle_nodes: int
) -> np.ndarray:
    m = n * n - xj * xj
    if m < 0.0:
        return np.zeros((a.size, b.size))
    theta = (np.arange(angle_nodes) + 0.5) / angle_nodes * np.pi - np.pi / 2.0
    dtheta = np.pi / angle_nodes
    root = np.sqrt(m)
    delta = root * np.sin(theta)
    dplane = root * np.cos(theta)
    # Indicator/width densities of the retained uniforms.
    fa = ((a[:, None] - delta[None, :] >= 0.0) & (a[:, None] - delta[None, :] <= xi)).astype(float) / xi
    fb = (
        ((b[:, None] - dplane[None, :] >= 0.0) & (b[:, None] - dplane[None, :] <= xk)).astype(float)
        + ((b[:, None] + dplane[None, :] >= 0.0) & (b[:, None] + dplane[None, :] <= xk)).astype(float)
    ) / xk
    reach = n / np.maximum(xj, np.maximum(np.abs(delta), dplane))
    w = (xj / (12.0 * n * n)) * reach**3 * dtheta
    return np.einsum("at,bt,t->ab", fa, fb, w, optimize=True)


def _adjacent_slice(
    n: float, a: np.ndarray, e: np.ndarray, xi: float, xj: float, xk: float, angle_nodes: int
) -> np.ndarray:
    out = np.zeros((a.size, e.size))
    if n <= 0.0:
        return out
    phi = (np.arange(angle_nodes) + 0.5) / angle_nodes * np.pi - np.pi / 2.0
    dphi = np.pi / angle_nodes
    live = e < n
    ev = e[live]
    root = np.sqrt(np.maximum(n * n - ev * ev, 0.0))  # (E,)
    delta = root[:, None] * np.sin(phi)[None, :]  # (E, T)
    depth = root[:, None] * np.cos(phi)[None, :]
    reach = np.maximum(ev[:, None], np.maximum(np.abs(delta), depth))
    wq = np.where(depth <= xk, depth / reach**3, 0.0) * (n / (12.0 * xi * xk) * dphi)
    fa = (a[:, None, None] >= delta[None, :, :]) & (a[:, None, None] - delta[None, :, :] <= xi)
    out[:, live] = np.einsum("aet,et->ae", fa.astype(float), wq, optimize=True)
    return out


def _joint(
    box: BoxDims,
    kind: PairKind,
    indices: IndexTriple,
    n_nodes: int,
    a_nodes: int,
    b_nodes: int,
    angle_nodes: int,
    workers: int,
) -> FacePdf:
    """One class joint, filled one length slice per pool task."""
    box = BoxDims.from_any(box)
    xi, xj, xk = _dims(box, indices)
    if kind is PairKind.OPPOSING:
        n_lo, other, b_axis, slice_at = xj, xk, indices.k, _opposing_slice
    else:
        n_lo, other, b_axis, slice_at = 0.0, xj, indices.j, _adjacent_slice
    n_grid = np.linspace(n_lo, box.diagonal, n_nodes)
    a = np.linspace(0.0, xi, a_nodes)
    b = np.linspace(0.0, other, b_nodes)
    vals = np.empty((n_nodes, a_nodes, b_nodes))

    def fill(idx: int) -> None:
        vals[idx] = slice_at(n_grid[idx], a, b, xi, xj, xk, angle_nodes)

    run_each(fill, range(n_nodes), workers)
    dens = GridDensity(((n_lo, box.diagonal), (0.0, xi), (0.0, other)), vals, ("n", f"x{indices.i}", f"x{b_axis}"))
    mass = dens.integral()
    return FacePdf(kind, indices, dens.normalized(force=True), mass)


def joint_pdf_opposing(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 64,
    a_nodes: int = 64,
    b_nodes: int = 64,
    angle_nodes: int = 2048,
    workers: int = 1,
) -> FacePdf:
    """Joint density of (path length n, exit location) on the opposing face.

    Support starts at n = X_j (the straight crossing).  The radial part of
    the direction integral is closed analytically; the angular integral
    runs over the polar angle of the transverse displacement, with both
    signs of the third component folded in.
    """
    return _joint(box, PairKind.OPPOSING, indices, n_nodes, a_nodes, b_nodes, angle_nodes, workers)


def joint_pdf_adjacent(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 64,
    a_nodes: int = 64,
    e_nodes: int = 64,
    angle_nodes: int = 1024,
    workers: int = 1,
) -> FacePdf:
    """Joint density of (length, exit location) on the adjacent face x_k = 0.

    The entry-depth integral is closed (the exit pins the depth
    coordinate); the in-plane displacement integral is parametrized by its
    polar angle, which regularizes the square-root edge of the integrand.
    """
    return _joint(box, PairKind.ADJACENT, indices, n_nodes, a_nodes, e_nodes, angle_nodes, workers)


# ---------------------------------------------------------------------------
# Length marginals (location integrated over the exit face).


_BLOCK = 64  # length nodes per vectorised block of the ray length marginals


def length_marginal_opposing(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 1025,
    angle_nodes: int = 4096,
) -> GridDensity1D:
    """Sub-density of the path length for opposing exits (mass = face-exit
    probability given entry, not renormalized).

    The angle sum runs over blocks of `_BLOCK` length nodes, so the
    temporaries scale with a block, not with `n_nodes x angle_nodes`.
    """
    box = BoxDims.from_any(box)
    xi, xj, xk = _dims(box, indices)
    n_grid = np.linspace(xj, box.diagonal, n_nodes)
    theta = (np.arange(angle_nodes) + 0.5) / angle_nodes * np.pi - np.pi / 2.0
    dtheta = np.pi / angle_nodes
    sin, cos = np.sin(theta), np.cos(theta)
    vals = np.empty(n_nodes)
    for start in range(0, n_nodes, _BLOCK):
        n = n_grid[start : start + _BLOCK]
        root = np.sqrt(np.maximum(n[:, None] ** 2 - xj * xj, 0.0))
        delta = root * sin
        dplane = root * cos
        ki = np.clip(xi - np.abs(delta), 0.0, None) / xi
        kk = 2.0 * np.clip(xk - dplane, 0.0, None) / xk
        reach = n[:, None] / np.maximum(xj, np.maximum(np.abs(delta), dplane))
        w = xj / (12.0 * n**2)
        vals[start : start + _BLOCK] = w * (ki * kk * reach**3).sum(axis=1) * dtheta
    return GridDensity1D(xj, box.diagonal, vals)


def _below_antiderivative(e, n, c, m, ratio):
    """Antiderivative in e of c * root * (1 - ratio * root) / reach^3 with reach = m * root."""
    return c / m**3 * (np.arctanh(e / n) / n - ratio * np.arcsin(e / n))


def _above_antiderivative(e, n, c, ratio):
    """Antiderivative in e of c * root * (1 - ratio * root) / reach^3 with reach = e."""
    root = np.sqrt(np.maximum(n * n - e * e, 0.0))
    far = -root / (2.0 * e * e) + np.log((n + root) / e) / (2.0 * n)
    return c * (far + ratio * (n * n / (2.0 * e * e) + np.log(e)))


def _elevation_integral(n, lo, hi, c, m, ratio):
    """Integral over e in [lo, hi] (lo <= hi) of c * root * (1 - ratio * root) / reach^3.

    root = sqrt(n^2 - e^2) and reach = max(e, m * root), which is m * root
    below e* = n m / sqrt(1 + m^2) and e above it.
    """
    split = np.clip(n * m / np.sqrt(1.0 + m * m), lo, hi)
    below = _below_antiderivative(split, n, c, m, ratio) - _below_antiderivative(lo, n, c, m, ratio)
    return below + _above_antiderivative(hi, n, c, ratio) - _above_antiderivative(split, n, c, ratio)


def length_marginal_adjacent(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 1025,
    angle_nodes: int = 1024,
    elevation_nodes: int = 512,
) -> GridDensity1D:
    """Sub-density of the path length for exits through the adjacent face
    x_k = 0 (mass = face-exit probability given entry).

    f(n) = n / (12 X_k) int dphi int de ki depth / reach^3 [depth <= X_k]
    over the in-plane angle phi and the exit elevation e, with
    root = sqrt(n^2 - e^2), depth = root cos(phi), ki = 1 - root |sin(phi)| / X_i
    and reach = max(e, m root), m = max(|sin(phi)|, cos(phi)).  The
    elevation integral is closed: the integrand is nonzero on [lo, hi] with
    hi = min(X_j, n) and lo where ki and the depth bound switch on, and it
    has two pieces split at e* = n m / sqrt(1 + m^2), where reach turns from
    m root to e.  With s = |sin(phi)|, c = cos(phi) their antiderivatives are

        below e*:  (c / m^3) [atanh(e/n) / n - (s/X_i) arcsin(e/n)]
        above e*:  c [-root / (2 e^2) + ln((n + root) / e) / (2 n)
                      + (s/X_i) (n^2 / (2 e^2) + ln e)].

    Only the angle phi keeps a midpoint rule (`angle_nodes`), vectorised
    over blocks of length nodes.  The n = 0 node is the exact n -> 0+
    limit at the same angle nodes: X_i, X_j and X_k are then infinite on
    the scale of n, so n times the elevation integral is the n = 1 integral
    over e in [0, 1] with ki = 1, which integrates over phi to about
    3.0936 / (12 X_k).  `elevation_nodes` is unused; it is kept so that
    existing calls and argument readers keep working.
    """
    box = BoxDims.from_any(box)
    xi, xj, xk = _dims(box, indices)
    n_grid = np.linspace(0.0, box.diagonal, n_nodes)
    phi = (np.arange(angle_nodes) + 0.5) / angle_nodes * np.pi - np.pi / 2.0
    dphi = np.pi / angle_nodes
    s, c = np.abs(np.sin(phi)), np.cos(phi)
    m = np.maximum(s, c)
    ratio = s / xi
    with np.errstate(divide="ignore"):
        # ki > 0 and depth <= X_k hold where root^2 <= cap
        cap = np.minimum((xi / s) ** 2, (xk / c) ** 2)
    vals = np.empty(n_nodes)
    vals[0] = _elevation_integral(1.0, 0.0, 1.0, c, m, 0.0).sum() * dphi / (12.0 * xk)
    for start in range(1, n_nodes, _BLOCK):
        n = n_grid[start : start + _BLOCK, None]
        hi = np.minimum(xj, n)
        lo = np.minimum(np.sqrt(np.maximum(n * n - cap, 0.0)), hi)
        integ = _elevation_integral(n, lo, hi, c, m, ratio).sum(axis=1) * dphi
        # the a-marginal of the location indicator contributes X_i * ki,
        # cancelling the 1/X_i of the entry-area density
        vals[start : start + _BLOCK] = n[:, 0] / (12.0 * xk) * integ
    return GridDensity1D(0.0, box.diagonal, vals)


# ---------------------------------------------------------------------------
# Change-of-variable forward maps and Jacobians.


def forward_opposing(
    box: BoxDims, indices: IndexTriple, entry: np.ndarray, direction: np.ndarray
) -> np.ndarray:
    """Map (x_i, x_k, t_i, t_j, t_k) to (n, r, x'_i, x'_k, x_i).

    `entry` holds the transverse entry coordinates (x_i, x_k); `direction`
    the un-normalized direction components (t_i, t_j, t_k) with t_j > 0.
    """
    box = BoxDims.from_any(box)
    _, xj, _ = _dims(box, indices)
    x_i, x_k = float(entry[0]), float(entry[1])
    t_i, t_j, t_k = (float(v) for v in direction)
    if t_j <= 0:
        raise ValueError("the entry-axis direction component must point inward (t_j > 0)")
    r = float(np.sqrt(t_i * t_i + t_j * t_j + t_k * t_k))
    scale = xj / t_j
    return np.array([r * scale, r, x_i + scale * t_i, x_k + scale * t_k, x_i])


def jacobian_opposing(
    box: BoxDims, indices: IndexTriple, entry: np.ndarray, direction: np.ndarray
) -> float:
    """|det| of the forward_opposing differential: n^2 D / (X_j r^2) with
    D the transverse displacement along axis k."""
    box = BoxDims.from_any(box)
    _, xj, _ = _dims(box, indices)
    n, r, _, xk_exit, _ = forward_opposing(box, indices, entry, direction)
    d = abs(xk_exit - float(entry[1]))
    return float(n * n * d / (xj * r * r))


def forward_adjacent(
    box: BoxDims, indices: IndexTriple, entry: np.ndarray, direction: np.ndarray
) -> np.ndarray:
    """Map (x_i, x_k, t_i, t_j, t_k) to (n, x'_i, x'_j, zeta, x_i).

    Exit through x_k = 0 requires t_k < 0; zeta = x_k / |t_k| is the ray
    parameter at the exit plane and x'_j = zeta * t_j the exit elevation.
    """
    x_i, x_k = float(entry[0]), float(entry[1])
    t_i, t_j, t_k = (float(v) for v in direction)
    if t_k >= 0:
        raise ValueError("exit through x_k = 0 requires t_k < 0")
    if t_j <= 0:
        raise ValueError("the entry-axis direction component must point inward (t_j > 0)")
    zeta = x_k / abs(t_k)
    r = float(np.sqrt(t_i * t_i + t_j * t_j + t_k * t_k))
    return np.array([zeta * r, x_i + zeta * t_i, zeta * t_j, zeta, x_i])


def jacobian_adjacent(
    box: BoxDims,
    indices: IndexTriple,
    entry: np.ndarray,
    direction: np.ndarray,
    form: str = "quartic",
) -> float:
    """|det| of the forward_adjacent differential.

    Two algebraically identical closed forms are exposed: "quartic"
    (zeta^4 / n) and "cubic" (zeta^3 / r); on the constraint n = zeta * r
    they coincide, which the test suite checks against finite differences.
    """
    n, _, _, zeta, _ = forward_adjacent(box, indices, entry, direction)
    r = n / zeta
    if form == "quartic":
        return float(zeta**4 / n)
    if form == "cubic":
        return float(zeta**3 / r)
    raise ValueError(f"unknown Jacobian form {form!r}; use 'quartic' or 'cubic'")
