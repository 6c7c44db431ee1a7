"""Face bookkeeping, entry probabilities, and canonical-frame maps."""

import numpy as np
import pytest

from boxpath import (
    ALL_FACES,
    FACE_PAIRS,
    BoxDims,
    FaceId,
    IndexTriple,
    PairKind,
    Side,
    canonical_classes,
    chords,
    classify_pair,
    combined_length_pdf_chords,
    entry_probability,
    rays,
)
from boxpath.montecarlo import class_bin_edges


def test_face_codes_round_trip():
    for face in ALL_FACES:
        assert FaceId.from_code(face.code) == face
    assert len({f.code for f in ALL_FACES}) == 6


def test_entry_probabilities_cube(cube):
    for face in ALL_FACES:
        assert entry_probability(cube, face) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_entry_probabilities_slab(slab):
    # surface 2*(0.1 + 0.1 + 1) = 2.4; the large faces are the axis-2 pair
    assert entry_probability(slab, FaceId(2, Side.LOW)) == pytest.approx(1.0 / 2.4, abs=1e-15)
    assert entry_probability(slab, FaceId(1, Side.LOW)) == pytest.approx(0.1 / 2.4, abs=1e-15)


@pytest.mark.parametrize("dims", [(1.0, 1.0, 1.0), (1.0, 0.1, 1.0), (0.2, 1.0, 0.2), (1.3, 0.8, 1.1)])
def test_entry_probabilities_sum_to_one(dims):
    box = BoxDims(*dims)
    total = sum(entry_probability(box, f) for f in ALL_FACES)
    assert abs(total - 1.0) <= 1e-12


def test_thirty_ordered_pairs_pool_into_nine_classes():
    keys = {(pair.kind, pair.indices.as_tuple) for pair in FACE_PAIRS}
    assert sum(1 for kind, _ in keys if kind is PairKind.OPPOSING) == 3
    assert len(keys) == 9
    assert {pair.label for pair in FACE_PAIRS} == {c.label for c in canonical_classes()}


def test_face_pairs_table(cube):
    """30 distinct ordered pairs, by entry code then exit code, each its own class."""
    codes = [(pair.entry_face.code, pair.exit_face.code) for pair in FACE_PAIRS]
    assert codes == sorted(set(codes)) and len(codes) == 30
    assert all(e != x for e, x in codes)
    for pair in FACE_PAIRS:
        assert pair == classify_pair(pair.entry_face, pair.exit_face)
    # each class pools as many ordered pairs as the combined length laws
    # weight it by: 2 opposing, 4 adjacent
    terms = combined_length_pdf_chords(cube, 65).terms
    assert len(terms) == 9
    for term in terms:
        count = sum(1 for pair in FACE_PAIRS if pair.label == term.label)
        assert count == term.multiplicity == (2 if term.kind is PairKind.OPPOSING else 4)


def test_same_face_pair_rejected():
    with pytest.raises(ValueError):
        classify_pair(FaceId(1, Side.LOW), FaceId(1, Side.LOW))


def test_opposing_classes_use_even_permutations():
    for cls in canonical_classes():
        if cls.kind is not PairKind.OPPOSING:
            continue
        i, j, k = cls.indices.as_tuple
        assert sorted((i, j, k)) == [1, 2, 3]
        # even permutation of (1, 2, 3)
        assert (i, j, k) in {(1, 2, 3), (2, 3, 1), (3, 1, 2)}


def test_adjacent_classes_cover_all_axis_pairs():
    seen = set()
    for cls in canonical_classes():
        if cls.kind is not PairKind.ADJACENT:
            continue
        i, j, k = cls.indices.as_tuple
        assert i == 6 - j - k
        seen.add((j, k))
    assert seen == {(j, k) for j in (1, 2, 3) for k in (1, 2, 3) if j != k}


def test_canonical_ranges(skew_box):
    """Canonical exit coordinates stay inside the class coordinate box."""
    rng = np.random.default_rng(6)
    for entry in ALL_FACES:
        for exit in ALL_FACES:
            if entry == exit:
                continue
            cls = classify_pair(entry, exit)
            p, q = exit.plane_axes
            pts = rng.uniform(0.0, 1.0, (200, 2)) * [skew_box.dim(p), skew_box.dim(q)]
            uv = cls.exit_local_to_canonical(skew_box, pts)
            xi = skew_box.dim(cls.indices.i)
            assert np.all(uv[:, 0] >= -1e-12) and np.all(uv[:, 0] <= xi + 1e-12)
            if cls.kind is PairKind.OPPOSING:
                hi2 = skew_box.dim(cls.indices.k)
            else:
                hi2 = skew_box.dim(cls.indices.j)
            assert np.all(uv[:, 1] >= -1e-12) and np.all(uv[:, 1] <= hi2 + 1e-12)


@pytest.mark.parametrize("cls", canonical_classes(), ids=lambda c: c.label)
def test_class_frame_on_a_box_of_three_different_edges(skew_box, cls):
    """Every class law and histogram of one class shares its frame: n on
    [X_j or 0, diagonal], u on [0, X_i], v on [0, X_k or X_j], read off the
    box by hand.  All three edges differ, so swapped axes would show."""
    i, j, k = cls.indices.as_tuple
    opposing = cls.kind is PairKind.OPPOSING
    v = k if opposing else j
    domain = (
        (skew_box.dim(j) if opposing else 0.0, skew_box.diagonal),
        (0.0, skew_box.dim(i)),
        (0.0, skew_box.dim(v)),
    )
    names = ("n", f"x{i}", f"x{v}")
    kind = "opposing" if opposing else "adjacent"
    for model in (rays, chords):
        joint = getattr(model, f"joint_pdf_{kind}")(skew_box, cls.indices, 4, 4, 4).density
        assert (joint.domain, joint.axis_names) == (domain, names)
    exit_map = getattr(rays, f"exit_pdf_{kind}")(skew_box, cls.indices, 4, 4).density
    assert (exit_map.domain, exit_map.axis_names) == (domain[1:], names[1:])
    edges = class_bin_edges(skew_box, cls.kind, cls.indices, 3, 3, 3)
    assert tuple((e[0], e[-1]) for e in edges) == domain


def test_hand_checked_reflection_case():
    """Entry on a HIGH face reflects the entry axis; exit HIGH reflects too.

    Entry face x2 = X2 with exit x1 = X1 on box (2, 3, 5): the canonical
    frame places the entry on x2 = 0 and the exit on x1 = 0, so both axes
    reflect while the remaining in-plane axis x3 is kept.
    """
    box = BoxDims(2.0, 3.0, 5.0)
    cls = classify_pair(FaceId(2, Side.HIGH), FaceId(1, Side.HIGH))
    assert cls.kind is PairKind.ADJACENT
    assert cls.indices.as_tuple == (3, 2, 1)
    # exit-face local coordinates on x1 = X1 are (x2, x3), ascending axes
    pt = np.array([[0.7, 4.1]])
    uv = cls.exit_local_to_canonical(box, pt)
    # canonical exit coords are (x_i = x3, elevation along entry axis 2)
    assert uv[0, 0] == pytest.approx(4.1, abs=1e-12)
    assert uv[0, 1] == pytest.approx(3.0 - 0.7, abs=1e-12)


def test_box_dims_helpers(skew_box):
    assert skew_box.dim(1) == 1.3
    assert skew_box.as_array().tolist() == [1.3, 0.8, 1.1]
    assert skew_box.diagonal == pytest.approx(np.sqrt(1.3**2 + 0.8**2 + 1.1**2))
    assert FaceId(2, Side.LOW).area(skew_box) == pytest.approx(1.3 * 1.1)
    with pytest.raises(ValueError):
        BoxDims(1.0, -1.0, 1.0)


def test_box_dims_store_python_floats():
    for box in (BoxDims(1, 1, 1), BoxDims(*np.ones(3))):
        assert all(type(x) is float for x in (box.x1, box.x2, box.x3))
        assert box == BoxDims(1.0, 1.0, 1.0)
        assert hash(box) == hash(BoxDims(1.0, 1.0, 1.0))


@pytest.mark.parametrize(
    "dims",
    [(1e-200, 1e-200, 1e-200), (1.0, 1.0, 1e200), (1e-160, 1.0, 1.0), (1e154, 1e154, 1e154)],
    ids=["areas-underflow", "square-overflows", "square-underflows", "diagonal-overflows"],
)
def test_box_dims_refuse_what_the_laws_cannot_square(dims):
    with pytest.raises(ValueError, match="box"):
        BoxDims(*dims)
