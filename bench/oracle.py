"""Reference means for the two path models, computed apart from boxpath.

Nothing here imports boxpath: the values check the program's outputs,
so they must not share its code.  Every integral is a composite
Gauss-Legendre rule whose panels are split at the kinks of the
integrand, so each panel sees a smooth function and the rule converges
fast (see bench/README.md for the derivation).

Run ``python3 bench/oracle.py`` for the module's own check.
"""

from __future__ import annotations

import sys

import numpy as np

DEFAULT_NODES = 12
# Geometric panel grading of the ray integral: ratio and panel count.
GRADING = 4.0
GRADING_PANELS = 3
# Mean-check bound per unit of box diagonal (see mean_bound).
MEAN_BOUND = 2.5e-3


def _panels(lo, hi, breaks, nodes):
    """Gauss-Legendre nodes and weights on [lo, hi] split at `breaks`.

    `lo`, `hi` and each entry of `breaks` broadcast to one shape S; the
    result has shape S + (P * nodes,) for P = len(breaks) + 1 panels.
    Breaks outside [lo, hi] give empty panels with zero weight.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    lo, hi, *cuts = np.broadcast_arrays(*(np.asarray(v, float) for v in (lo, hi, *breaks)))
    edges = np.sort(np.stack([lo, *(np.clip(c, lo, hi) for c in cuts), hi], axis=-1), axis=-1)
    a, b = edges[..., :-1, None], edges[..., 1:, None]
    pts = 0.5 * (a + b) + 0.5 * (b - a) * x
    wts = 0.5 * (b - a) * w
    shape = pts.shape[:-2] + (-1,)
    return pts.reshape(shape), wts.reshape(shape)


def _dims(box, axis):
    """(X_i, X_j, X_k) for entry axis j = `axis` (1-based)."""
    j = axis - 1
    i, k = (a for a in range(3) if a != j)
    return float(box[i]), float(box[j]), float(box[k])


def area_shares(box):
    """Probability that a uniform surface point lies on a face of each axis,
    per face (two faces per axis share it equally)."""
    x = np.asarray(box, float)
    areas = np.array([x[1] * x[2], x[0] * x[2], x[0] * x[1]])
    return areas / (2.0 * areas.sum())


def ray_mean(box, axis, nodes=DEFAULT_NODES):
    """Mean path length of the ray model given entry through a face of `axis`.

    Direction magnitudes (u, s, w) = (|t_i|, t_j, |t_k|) are uniform on
    (0, 1)^3.  With a = X_j/s, alpha = X_i/u, beta = X_k/w and
    m = min(a, alpha, beta), the exit parameter averaged over the uniform
    entry point is m - m^2 (1/alpha + 1/beta)/2 + m^3/(3 alpha beta); the
    length is that times |t|.  The kinks of min() sit at u = s X_i/X_j,
    w = s X_k/X_j and w = u X_k/X_i; the outer panels split where those
    lines leave the unit square.  Near the origin the integrand is
    homogeneous of degree 0, so panels are also graded geometrically away
    from the origin (s), from the u kink and from the lower w kink.
    """
    xi, xj, xk = _dims(box, axis)
    grade = [GRADING**-k for k in range(1, GRADING_PANELS + 1)]
    total = 0.0
    for s, ws in zip(*_panels(0.0, 1.0, [xj / xi, xj / xk, *grade], nodes)):
        u0 = s * xi / xj
        u, wu = _panels(0.0, 1.0, [u0, xi / xk, *(u0 / g for g in grade)], nodes)
        w0 = np.maximum(u * xk / xi, s * xk / xj)
        w, ww = _panels(0.0, 1.0, [u * xk / xi, np.full_like(u, s * xk / xj), *(w0 / g for g in grade)], nodes)
        u = u[:, None]
        ia, iu, iw = s / xj, u / xi, w / xk
        m = 1.0 / np.maximum(ia, np.maximum(iu, iw))
        t = m - 0.5 * m * m * (iu + iw) + m**3 * iu * iw / 3.0
        total += ws * np.einsum("u,uw,uw->", wu, ww, t * np.sqrt(s * s + u * u + w * w))
    return float(total)


def _graded(width, nodes):
    """Panels on (0, width) graded geometrically towards 0."""
    return _panels(0.0, width, [width * GRADING**-k for k in range(1, GRADING_PANELS + 1)], nodes)


def _triangular(width, nodes):
    """Nodes and weights of |U - U'| for U, U' uniform on (0, width)."""
    d, w = _graded(width, nodes)
    return d, w * 2.0 * (width - d) / width**2


def _uniform(width, nodes):
    x, w = _graded(width, nodes)
    return x, w / width


def chord_pair_mean(box, kind, axis, other=None, nodes=DEFAULT_NODES):
    """E[L] for chords from a face of `axis` to a face of `other`.

    Opposing pair across axis j: L^2 = D_i^2 + X_j^2 + D_k^2 with D_c the
    difference of two uniforms on (0, X_c).  Adjacent pair, entry axis j,
    exit on a face of axis k: L^2 = D_i^2 + E^2 + Z^2 with E uniform on
    (0, X_j) (exit height) and Z uniform on (0, X_k) (entry depth).  The
    only kink, at the origin of the adjacent integrand, is a corner of the
    domain; panels are graded geometrically towards it.
    """
    x = np.asarray(box, float)
    j = axis - 1
    if kind == "opposing":
        i, k = (a for a in range(3) if a != j)
        di, wi = _triangular(x[i], nodes)
        dk, wk = _triangular(x[k], nodes)
        f = np.sqrt(di[:, None] ** 2 + x[j] ** 2 + dk[None, :] ** 2)
        return float(np.einsum("a,b,ab->", wi, wk, f))
    k = other - 1
    (i,) = (a for a in range(3) if a not in (j, k))
    di, wi = _triangular(x[i], nodes)
    e, we = _uniform(x[j], nodes)
    z, wz = _uniform(x[k], nodes)
    f = np.sqrt(di[:, None, None] ** 2 + e[None, :, None] ** 2 + z[None, None, :] ** 2)
    return float(np.einsum("a,b,c,abc->", wi, we, wz, f))


def chord_mean_single_face(box, axis, nodes=DEFAULT_NODES):
    """Mean chord length given entry through a face of `axis`.

    Exit faces g are mixed with P_g / (1 - P_f), the exit law given the
    entry face under both readings of the same-face redraw.
    """
    p = area_shares(box)
    p_f = p[axis - 1]
    total = p[axis - 1] / (1.0 - p_f) * chord_pair_mean(box, "opposing", axis, nodes=nodes)
    for other in (1, 2, 3):
        if other != axis:
            total += 2.0 * p[other - 1] / (1.0 - p_f) * chord_pair_mean(box, "adjacent", axis, other, nodes)
    return float(total)


def law_mass_mean(lo, hi, values):
    """Trapezoid mass and mean (first moment over mass) of a node law."""
    x = np.linspace(lo, hi, len(values))
    mass = float(np.trapezoid(values, x))
    return mass, float(np.trapezoid(x * values, x) / mass)


def mean_bound(box):
    """Largest accepted |mean - reference|, in length units.

    It scales with the box diagonal.  On the unit cube it is 4.3e-3, below
    the 5.9e-3 shift of a 1 % stretch of the length axis.
    """
    return MEAN_BOUND * float(np.linalg.norm(np.asarray(box, float)))


def references(box, nodes=DEFAULT_NODES):
    """Every reference mean the benchmark checks against, by name."""
    shares = 2.0 * area_shares(box)
    refs = {f"ray_axis{a}": ray_mean(box, a, nodes) for a in (1, 2, 3)}
    refs["ray_combined"] = float(sum(p * refs[f"ray_axis{a}"] for a, p in zip((1, 2, 3), shares)))
    refs.update({f"chord_axis{a}": chord_mean_single_face(box, a, nodes) for a in (1, 2, 3)})
    return refs


def self_check(box):
    """The oracle's own check.

    Returns the references at 2n nodes and a list of failure messages:
    - every reference agrees with itself at n and 2n nodes to 1e-8;
    - on the unit cube, a law with the reference mean passes the mean
      check and the same law with its length axis stretched by 1 % fails.
    """
    coarse = references(box, DEFAULT_NODES)
    fine = references(box, 2 * DEFAULT_NODES)
    problems = [
        f"{name}: {coarse[name]!r} at {DEFAULT_NODES} nodes, {fine[name]!r} at {2 * DEFAULT_NODES}"
        for name in fine
        if not abs(coarse[name] - fine[name]) <= 1e-8
    ]
    cube = (1.0, 1.0, 1.0)
    ref = ray_mean(cube, 1)
    # A symmetric triangle on [0, 2 ref] has mean ref exactly.
    hi = 2.0 * ref
    tri = np.minimum(np.linspace(0.0, hi, 2049), np.linspace(hi, 0.0, 2049))
    for stretch, should_pass in ((1.0, True), (1.01, False)):
        _, mean = law_mass_mean(0.0, stretch * hi, tri)
        if (abs(mean - ref) <= mean_bound(cube)) != should_pass:
            problems.append(f"a law stretched by {stretch} {'fails' if should_pass else 'passes'} the mean check")
    return fine, problems


if __name__ == "__main__":
    failed = False
    for test_box in ((1.0, 1.0, 1.0), (1.0, 0.1, 1.0), (0.2, 1.0, 0.2)):
        refs, problems = self_check(test_box)
        print(f"box {test_box}: " + ", ".join(f"{k} {v:.10f}" for k, v in refs.items()))
        for line in problems:
            print("FAIL", line)
        failed = failed or bool(problems)
    print("oracle self-check:", "FAIL" if failed else "PASS")
    sys.exit(1 if failed else 0)
