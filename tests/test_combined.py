"""Combined (all-entry) length laws for both models."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from boxpath import (
    ALL_FACES,
    FACE_PAIRS,
    BoxDims,
    FaceId,
    GridDensity,
    GridDensity1D,
    NumericalError,
    PairKind,
    Side,
    canonical_classes,
    canonical_histograms,
    combined_length_pdf_chords,
    combined_length_pdf_rays,
    entry_probability,
    length_histogram,
    sample_chords,
    single_face_length_pdf,
)

from boxpath.combined import ClassLawTable, location_length_pdf
from boxpath.rays import FacePdf

from conftest import binned_l1

ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


@pytest.fixture(scope="module")
def cube_combined_rays(cube):
    return combined_length_pdf_rays(cube, 513)


@pytest.fixture(scope="module")
def cube_combined_chords(cube):
    return combined_length_pdf_chords(cube, 513)


def test_combined_integrates_to_one(cube_combined_rays, cube_combined_chords):
    assert cube_combined_rays.density.integral() == pytest.approx(1.0, abs=2e-2)
    assert cube_combined_chords.density.integral() == pytest.approx(1.0, abs=2e-2)
    assert cube_combined_rays.density.normalized().integral() == pytest.approx(1.0, abs=1e-9)


def test_component_weights_form_a_partition(cube_combined_rays, cube_combined_chords):
    # chord weights are pair probabilities and sum to one on their own;
    # ray weights carry the entry probability, their masses the exit split
    assert sum(t.weight for t in cube_combined_chords.terms) == pytest.approx(1.0, abs=1e-12)
    assert sum(t.weight * t.mass for t in cube_combined_rays.terms) == pytest.approx(1.0, rel=2e-2)
    assert len(cube_combined_rays.terms) == 9
    assert {t.multiplicity for t in cube_combined_rays.terms} == {2, 4}


def test_combined_matches_sampling(cube_combined_rays, cube_combined_chords, rays_batch_cube, chords_batch_cube):
    edges, counts = length_histogram(rays_batch_cube, 128)
    assert binned_l1(cube_combined_rays.density, edges, counts) <= 0.02
    edges, counts = length_histogram(chords_batch_cube, 128)
    assert binned_l1(cube_combined_chords.density, edges, counts) <= 0.02


def test_expected_length_matches_sampling(cube_combined_rays, cube_combined_chords, rays_batch_cube, chords_batch_cube):
    assert cube_combined_rays.density.mean() == pytest.approx(
        float(rays_batch_cube.length.mean()), abs=3e-3
    )
    assert cube_combined_chords.density.mean() == pytest.approx(
        float(chords_batch_cube.length.mean()), abs=3e-3
    )


def test_slab_mixtures_keep_their_mass(slab):
    """The class laws' jumps at n = X_j fall between mixture nodes; the mixtures keep their mass anyway.

    Each chord class law has unit mass, so the chord mixture's is 1 to
    rounding; the ray class laws carry their face-exit masses, which sum
    to 1 up to each law's own trapezoid mass error.
    """
    assert combined_length_pdf_rays(slab, 257).density.integral() == pytest.approx(1.0, abs=2e-4)
    assert combined_length_pdf_chords(slab, 257).density.integral() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dims, bound", [((1.0, 1.0, 1.0), 1e-6), ((1.0, 0.1, 1.0), 5e-6)], ids=["cube", "slab"])
def test_combined_ray_mean_matches_oracle(dims, bound):
    """At the benchmark's 257 nodes the ray mixture's mean matches the independent
    oracle's (measured off by 4.5e-8 on the cube and 3.1e-6 on the slab)."""
    oracle = _load_oracle()
    law = combined_length_pdf_rays(BoxDims(*dims), 257).density
    _, mean = oracle.law_mass_mean(law.lo, law.hi, law.values)
    assert abs(mean - oracle.references(dims)["ray_combined"]) <= bound


def test_scaling_law():
    """Scaling the box by c scales every chord length by c."""
    small = BoxDims(0.5, 0.4, 0.55)
    big = BoxDims(1.0, 0.8, 1.1)
    for builder in (lambda box: combined_length_pdf_rays(box, 257), lambda box: combined_length_pdf_chords(box, 257)):
        e_small = builder(small).density.mean()
        e_big = builder(big).density.mean()
        assert e_big == pytest.approx(2.0 * e_small, rel=1e-3)


def test_all_cube_faces_equivalent(cube):
    """On the cube every entry face yields the same single-face law."""
    laws = [single_face_length_pdf(cube, f, "chords", 257).density.values for f in ALL_FACES]
    for other in laws[1:]:
        assert np.allclose(laws[0], other, atol=1e-9)


def test_single_face_matches_pinned_sampling(cube):
    from boxpath import montecarlo

    face = FaceId(2, Side.LOW)
    for model, sampler in (
        ("rays", lambda: montecarlo.sample_rays(cube, 500_000, 77, "cube-components", 1, entry_face=face)),
        ("chords", lambda: montecarlo.sample_chords(cube, 500_000, 78, 1, entry_face=face)),
    ):
        law = single_face_length_pdf(cube, face, model, 513)
        batch = sampler()
        assert np.all(batch.entry_code == face.code)
        edges, counts = length_histogram(batch, 96)
        assert binned_l1(law.density, edges, counts) <= 0.03


def test_combined_is_entry_weighted_sum_of_single_faces(skew_box):
    """f(n) = sum over entry faces f of P_f times the single-face law of f."""
    for model, combined in (
        ("rays", combined_length_pdf_rays(skew_box, 129)),
        ("chords", combined_length_pdf_chords(skew_box, 129)),
    ):
        total = np.zeros(129)
        for face in ALL_FACES:
            single = single_face_length_pdf(skew_box, face, model, 129)
            total += entry_probability(skew_box, face) * single.density.values
        peak = combined.density.values.max()
        assert np.max(np.abs(total - combined.density.values)) <= 1e-12 * peak


def test_sampled_chord_class_shares_match_weights(slab):
    """Each class's share of sampled chords matches its mixture weight.

    The slab's unequal face areas separate redrawing only the exit point
    (the law the weights P_f P_g / (1 - P_f) describe) from redrawing both
    points of a same-face pair.
    """
    n = 400_000
    totals = {label: h.total for label, h in canonical_histograms(sample_chords(slab, n, 31, 1), 2, 2, 2).items()}
    for term in combined_length_pdf_chords(slab, 65).terms:
        sigma = np.sqrt(term.weight * (1.0 - term.weight) / n)
        assert abs(totals[term.label] / n - term.weight) <= 5.0 * sigma, term.label


def test_mixture_off_unit_mass_raises(cube):
    table = ClassLawTable(cube, "chords", 65)
    table.combined()
    for projected in table.projected.values():
        projected *= 2.0  # a projection is linear in its law: the laws doubled
    with pytest.raises(NumericalError):
        table.combined()


def test_single_face_rejects_unknown_model(cube):
    with pytest.raises(ValueError):
        single_face_length_pdf(cube, FaceId(1, Side.LOW), "banana")


def test_location_length_pdf_consistent(skew_box):
    """A whole-face cell gives the weighted mix of the joints' length marginals."""
    rng = np.random.default_rng(3)
    joints = {}
    for cls in canonical_classes():
        i, j, k = (skew_box.dim(a) for a in cls.indices.as_tuple)
        n_lo, other = (j, k) if cls.kind is PairKind.OPPOSING else (0.0, j)
        domain = ((n_lo, skew_box.diagonal), (0.0, i), (0.0, other))
        values = rng.random((17, 9, 11)) + 0.1
        values /= GridDensity(domain, values).integral()
        joints[cls.label] = FacePdf(GridDensity(domain, values), rng.uniform(0.05, 0.3))
    face = FaceId(3, Side.HIGH)
    law = location_length_pdf(joints, skew_box, face, (0.65, 0.4, 2.0))
    mix = sum(
        entry_probability(skew_box, pair.entry_face)
        * joints[pair.label].mass
        * joints[pair.label].density.integrate_out(2).integrate_out(1).project(law.nodes)
        for pair in FACE_PAIRS
        if pair.exit_face == face
    )
    expected = GridDensity1D(0.0, skew_box.diagonal, mix).normalized()
    assert np.max(np.abs(law.values - expected.values)) <= 1e-9
    with pytest.raises(NumericalError):
        location_length_pdf(joints, skew_box, face, (40.0, 40.0, 0.01))
