"""Length distributions combined over entry faces and exit faces.

Every length law here is a weighted sum of the per-class length laws of
the nine canonical face-pair classes; only the weights differ.  A
`ClassLawTable` holds those class laws for one box, one model and one set
of nodes, so the all-entry law and each single-entry-face law mix the same
table.  Ray class laws are sub-densities carrying their face-exit mass and
are weighted by entry-face probabilities; chord class laws are unit
densities weighted by pair probabilities P_entry * P_exit / (1 - P_entry).
Either way the mixture integrates to one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import chords, rays
from .density import GridDensity1D
from .errors import NumericalError
from .geometry import (
    FACE_PAIRS,
    BoxDims,
    FaceId,
    FacePairClass,
    IndexTriple,
    PairKind,
    canonical_classes,
    entry_probability,
)

__all__ = [
    "ClassLawTable",
    "CombinedLengthPdf",
    "ComponentTerm",
    "class_law_table",
    "combined_length_pdf_rays",
    "combined_length_pdf_chords",
    "location_length_pdf",
    "single_face_length_pdf",
]

_MASS_TOL = 0.2  # the largest |integral - 1| of a length mixture that is not refused


@dataclass(frozen=True)
class ComponentTerm:
    """One canonical class's contribution to a combined length law."""

    label: str
    kind: PairKind
    indices: IndexTriple
    multiplicity: int
    weight: float
    mass: float


@dataclass(frozen=True)
class CombinedLengthPdf:
    """A combined length density with its bookkeeping.

    `integral` is the grid integral of `density` before any rescaling; a
    value near one confirms the mixture is a probability density on its
    own.
    """

    density: GridDensity1D
    integral: float
    terms: tuple[ComponentTerm, ...]

    def normalized(self) -> GridDensity1D:
        return self.density.normalized()


def _exit_classes(entry_face: FaceId) -> list[FacePairClass]:
    """The five classes of one entry face: the opposing exit, then the adjacent ones."""
    pairs = [pair for pair in FACE_PAIRS if pair.entry_face == entry_face]
    return sorted(pairs, key=lambda pair: pair.kind is PairKind.ADJACENT)


@dataclass(frozen=True)
class ClassLawTable:
    """Length laws of canonical classes for one box, one model and one set of nodes.

    `laws` is keyed by `FacePairClass.law_key`, (kind, X_i, X_j, X_k).
    `projected` holds each law projected onto the mixture grid, the
    n_nodes nodes on [0, diagonal], under the same keys, so every mixture
    reuses one projection per law.
    """

    box: BoxDims
    model: str
    n_nodes: int
    laws: dict[tuple, GridDensity1D]
    projected: dict[tuple, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        grid = np.linspace(0.0, self.box.diagonal, self.n_nodes)
        object.__setattr__(self, "projected", {key: law.project(grid) for key, law in self.laws.items()})

    def combined(self) -> CombinedLengthPdf:
        """The length law over all entries: 2 opposing and 4 adjacent pairs per class."""
        pairs = [
            (cls, 2 if cls.kind is PairKind.OPPOSING else 4, entry_probability(self.box, cls.entry_face))
            for cls in canonical_classes()
        ]
        return self._mix(pairs)

    def single_face(self, entry_face: FaceId) -> CombinedLengthPdf:
        """The length law conditional on one entry face."""
        return self._mix([(cls, 1, 1.0) for cls in _exit_classes(entry_face)])

    def _mix(self, pairs: list[tuple[FacePairClass, int, float]]) -> CombinedLengthPdf:
        """Sum `multiplicity * p_entry * P(pair | entry) * law` over (class, multiplicity, p_entry).

        For rays P(pair | entry) is carried by the sub-density law itself;
        for chords it is P_exit / (1 - P_entry).  Each law enters through its
        projection onto the mixture grid (`projected`), which keeps its mass
        across a jump between nodes.
        """
        box = self.box
        values = np.zeros(self.n_nodes)
        terms = []
        for cls, mult, p_entry in pairs:
            weight = mult * p_entry
            if self.model == "chords":
                weight = weight * chords.conditional_exit_probability(box, cls.entry_face, cls.exit_face)
            key = cls.law_key(box)
            values += weight * self.projected[key]
            terms.append(ComponentTerm(cls.label, cls.kind, cls.indices, mult, weight, self.laws[key].integral()))
        density = GridDensity1D(0.0, box.diagonal, values)
        integral = density.integral()
        if abs(integral - 1.0) > _MASS_TOL:
            raise NumericalError(f"{self.model} length mixture has mass {integral:.6g}, off unity by more than {_MASS_TOL}")
        return CombinedLengthPdf(density, integral, tuple(terms))


def class_law_table(
    box: BoxDims,
    model: str = "rays",
    n_nodes: int = 1025,
    classes: list[FacePairClass] | None = None,
) -> ClassLawTable:
    """Compute the length law of each class in `classes` (default: all nine).

    "rays" laws are `rays.length_marginal_*` sub-densities; "chords" laws
    are `chords.pair_length_pdf` unit densities.
    A law is computed once per distinct (kind, X_i, X_j, X_k),
    so on the cube one law serves every class of a kind.
    """
    if model not in ("rays", "chords"):
        raise ValueError(f"unknown model {model!r}; use 'rays' or 'chords'")
    box = BoxDims.from_any(box)
    laws: dict[tuple, GridDensity1D] = {}
    for cls in canonical_classes() if classes is None else classes:
        key = cls.law_key(box)
        if key in laws:
            continue
        if model == "chords":
            laws[key] = chords.pair_length_pdf(box, cls.kind, cls.indices, n_nodes)
        elif cls.kind is PairKind.OPPOSING:
            laws[key] = rays.length_marginal_opposing(box, cls.indices, n_nodes)
        else:
            laws[key] = rays.length_marginal_adjacent(box, cls.indices, n_nodes)
    return ClassLawTable(box, model, n_nodes, laws)


def combined_length_pdf_rays(
    box: BoxDims,
    n_nodes: int = 1025,
) -> CombinedLengthPdf:
    """Length density over all entries for the face-interior model.

    f(n) = sum over entry faces of P_entry times the per-entry length law,
    expanded into 2 opposing + 4 adjacent weighted class marginals.
    """
    return class_law_table(box, "rays", n_nodes).combined()


def combined_length_pdf_chords(
    box: BoxDims,
    n_nodes: int = 1025,
) -> CombinedLengthPdf:
    """Length density over all surface-chord pairs (same-face pairs excluded).

    Pair weights are P_entry * P_exit / (1 - P_entry) summed over the
    ordered pairs pooled into each canonical class; the class laws are
    unit densities, so the weights themselves sum to one.
    """
    return class_law_table(box, "chords", n_nodes).combined()


def single_face_length_pdf(
    box: BoxDims,
    entry_face: FaceId,
    model: str = "rays",
    n_nodes: int = 1025,
) -> CombinedLengthPdf:
    """Length density conditional on one entry face.

    `model` selects one of: "rays" (uniform entry on the face,
    component-uniform direction) or "chords" (exit uniform on the
    remaining surface).  The five exit faces contribute one opposing and
    four adjacent terms; the table holds only the laws those need.
    """
    table = class_law_table(box, model, n_nodes, _exit_classes(entry_face))
    return table.single_face(entry_face)


def location_length_pdf(
    joints: Mapping[str, rays.FacePdf],
    box: BoxDims,
    exit_face: FaceId,
    cell: tuple[float, float, float],
) -> GridDensity1D:
    """Length density given the exit lies in a square cell of one face.

    `joints` maps each class label to that class's (length, exit) joint
    for one model; `cell` is (a, b, half_width) in the exit face's local
    coordinates and is clipped to each joint's domain.  Every pair that
    exits through `exit_face` adds, in entry-code order, its joint's mass
    over the cell weighted by P_entry and the face-exit mass; the sum is
    renormalized on 513 nodes.  Raises NumericalError when the cell holds
    no mass.
    """
    box = BoxDims.from_any(box)
    grid = np.linspace(0.0, box.diagonal, 513)
    acc = np.zeros_like(grid)
    for pair in FACE_PAIRS:
        if pair.exit_face != exit_face:
            continue
        joint = joints[pair.label]
        u, v = pair.exit_local_to_canonical(box, np.array([[cell[0], cell[1]]]))[0]
        (u_lo, u_hi), (v_lo, v_hi) = joint.density.domain[1], joint.density.domain[2]
        a0, a1 = max(u_lo, u - cell[2]), min(u_hi, u + cell[2])
        b0, b1 = max(v_lo, v - cell[2]), min(v_hi, v + cell[2])
        if not (a1 > a0 and b1 > b0):
            continue
        part = joint.density.band_integral(1, a0, a1).band_integral(1, b0, b1)
        acc += entry_probability(box, pair.entry_face) * joint.mass * part.project(grid)
    if acc.sum() <= 0:
        raise NumericalError("location cell has no analytic mass; widen the cell")
    return GridDensity1D(0.0, box.diagonal, acc).normalized()
