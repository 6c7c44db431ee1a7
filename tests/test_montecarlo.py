"""Samplers: determinism, distributional invariants, and throughput."""

import time
from functools import partial

import numpy as np
import pytest
from scipy import stats

from boxpath import (
    ALL_FACES,
    BoxDims,
    FaceId,
    Side,
    STREAM_COUNT,
    canonical_histograms,
    face_counts,
    length_histogram,
    montecarlo,
    sample_chords,
    sample_rays,
)
from boxpath.geometry import canonical_classes, classify_pair, entry_probability
from boxpath.montecarlo import (
    DIRECTION_MODELS,
    _draw_directions,
    _stream_rng,
    class_bin_edges,
    for_each_stream,
    merge_meta,
)


def rebuild_points(box: BoxDims, codes: np.ndarray, ab: np.ndarray) -> np.ndarray:
    pts = np.empty((codes.size, 3))
    ax = codes >> 1
    side = codes & 1
    dims = box.as_array()
    for a in range(3):
        rows = ax == a
        p, q = (b for b in range(3) if b != a)
        pts[rows, p] = ab[rows, 0]
        pts[rows, q] = ab[rows, 1]
        pts[rows, a] = side[rows] * dims[a]
    return pts


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_bitwise_identical(cube):
    a = sample_rays(cube, 40_000, 5, "cube-components", 1)
    b = sample_rays(cube, 40_000, 5, "cube-components", 1)
    assert np.array_equal(a.length, b.length)
    assert np.array_equal(a.exit_ab, b.exit_ab)
    assert not np.array_equal(a.length, sample_rays(cube, 40_000, 6, "cube-components", 1).length)


@pytest.mark.parametrize("model", ["cube-components", "ball-rejection"])
def test_worker_count_invariance_rays(cube, model):
    a = sample_rays(cube, 50_000, 7, model, 1)
    b = sample_rays(cube, 50_000, 7, model, 3)
    assert np.array_equal(a.entry_code, b.entry_code)
    assert np.array_equal(a.entry_ab, b.entry_ab)
    assert np.array_equal(a.exit_code, b.exit_code)
    assert np.array_equal(a.exit_ab, b.exit_ab)
    assert np.array_equal(a.length, b.length)


def test_worker_count_invariance_chords(cube):
    a = sample_chords(cube, 50_000, 7, 1)
    b = sample_chords(cube, 50_000, 7, 4)
    assert np.array_equal(a.length, b.length)
    assert np.array_equal(a.exit_ab, b.exit_ab)


def test_count_not_multiple_of_streams(cube):
    n = STREAM_COUNT * 100 + 17
    batch = sample_rays(cube, n, 3, "cube-components", 2)
    assert len(batch) == n


@pytest.mark.parametrize("sampler", ["rays", "chords"])
def test_stream_batches_are_the_runs_rows(cube, sampler):
    """Each stream's batch is its slice of the run, and its counters sum to the run's."""
    n = STREAM_COUNT * 15 + 40
    if sampler == "rays":
        draw = partial(sample_rays, cube, n, 3, "ball-rejection")
    else:
        draw = partial(sample_chords, cube, n, 3)
    whole = draw(workers=2)
    parts = {}
    for_each_stream(n, 2, lambda s, rows: parts.update({s: (rows, draw(stream=s))}))
    assert sorted(parts) == list(range(STREAM_COUNT))
    for rows, part in parts.values():
        for name in ("entry_code", "entry_ab", "exit_code", "exit_ab", "length"):
            assert np.array_equal(getattr(part, name), getattr(whole, name)[rows])
    assert merge_meta([parts[s][1].meta for s in range(STREAM_COUNT)]) == whole.meta
    with pytest.raises(ValueError):
        draw(stream=STREAM_COUNT)


@pytest.mark.parametrize("model", DIRECTION_MODELS)
def test_ray_sampler_counters(cube, model):
    """Redraws and direction proposals are integer sums over streams."""
    a = sample_rays(cube, 50_001, 7, model, 1)
    b = sample_rays(cube, 50_001, 7, model, 3)
    assert a.meta == b.meta
    assert a.meta["zero_component_redraws"] >= 0
    if model == "ball-rejection":
        accepted = len(a) + a.meta["zero_component_redraws"]
        assert accepted / a.meta["direction_draws"] == pytest.approx(np.pi / 6.0, abs=6e-3)
    else:
        assert "direction_draws" not in a.meta


# ---------------------------------------------------------------------------
# direction models


def test_ball_rejection_acceptance_rate():
    """Uniform cube proposals land in the unit ball with probability pi/6."""
    rng = _stream_rng(123, 0)
    draws = rng.uniform(-1.0, 1.0, (1_000_000, 3))
    inside = (np.einsum("ij,ij->i", draws, draws) <= 1.0).mean()
    assert inside == pytest.approx(np.pi / 6.0, abs=3e-3)


def test_ball_rejection_directions_isotropic():
    rng = _stream_rng(9, 1)
    d, _ = _draw_directions(rng, 200_000, "ball-rejection")
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    # longitude uniform on [-pi, pi], cos(latitude) uniform on [-1, 1]
    lon = np.arctan2(d[:, 1], d[:, 0])
    chi1 = stats.chisquare(np.histogram(lon, bins=24, range=(-np.pi, np.pi))[0]).pvalue
    chi2 = stats.chisquare(np.histogram(d[:, 2], bins=24, range=(-1, 1))[0]).pvalue
    assert chi1 > 1e-4 and chi2 > 1e-4


def test_cube_components_directions_not_isotropic():
    rng = _stream_rng(9, 2)
    d, _ = _draw_directions(rng, 200_000, "cube-components")
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    p = stats.chisquare(np.histogram(d[:, 2], bins=24, range=(-1, 1))[0]).pvalue
    assert p < 1e-10


def test_unknown_direction_model_rejected(cube):
    with pytest.raises(ValueError):
        sample_rays(cube, 100, 1, "isotropic-banana", 1)


# ---------------------------------------------------------------------------
# distributional invariants


def test_entry_faces_follow_area_law(slab):
    batch = sample_rays(slab, 500_000, 11, "cube-components", 1)
    counts, _ = face_counts(batch)
    expected = np.array([entry_probability(slab, f) for f in ALL_FACES]) * len(batch)
    p = stats.chisquare(counts, expected).pvalue
    assert p > 1e-4


def test_rays_never_exit_through_entry_face(rays_batch_cube):
    assert np.all(rays_batch_cube.entry_code != rays_batch_cube.exit_code)


def test_chords_collision_rate(cube, chords_batch_cube):
    # same-face redraw rate estimates the sum of squared face probabilities
    rate = chords_batch_cube.meta["collision_rate"]
    assert rate == pytest.approx(1.0 / 6.0, abs=3e-3)
    assert np.all(chords_batch_cube.entry_code != chords_batch_cube.exit_code)


def test_trajectory_endpoints_reproduce_length(cube, rays_batch_cube, chords_batch_cube):
    for batch in (rays_batch_cube, chords_batch_cube):
        sel = slice(0, 100_000)
        p0 = rebuild_points(cube, batch.entry_code[sel], batch.entry_ab[sel])
        p1 = rebuild_points(cube, batch.exit_code[sel], batch.exit_ab[sel])
        dist = np.linalg.norm(p1 - p0, axis=1)
        assert np.max(np.abs(dist - batch.length[sel])) <= 1e-9
        assert np.min(p0) >= -1e-12 and np.max(p0) <= 1.0 + 1e-12


def test_pinned_entry_face(cube):
    face = FaceId(3, Side.HIGH)
    batch = sample_rays(cube, 30_000, 13, "cube-components", 1, entry_face=face)
    assert np.all(batch.entry_code == face.code)
    batch = sample_chords(cube, 30_000, 13, 1, entry_face=face)
    assert np.all(batch.entry_code == face.code)
    assert np.all(batch.exit_code != face.code)


# ---------------------------------------------------------------------------
# histograms


def test_canonical_histograms_partition_samples(rays_batch_cube):
    hists = canonical_histograms(rays_batch_cube, 8, 8, 8)
    assert len(hists) == 9
    assert sum(h.total for h in hists.values()) == len(rays_batch_cube)
    h = hists["opposing-entry2"]
    assert h.counts.shape == (8, 8, 8)
    assert h.in_range + h.overflow == h.total
    assert h.overflow <= 1e-3 * h.total
    probs = h.probabilities()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def per_pair_reference(box, batch, bins):
    """Every ordered pair binned on its own by histogramdd, through classify_pair."""
    ref = {}
    for cls in canonical_classes():
        edges = class_bin_edges(box, cls.kind, cls.indices.as_tuple, *bins)
        ref[cls.label] = [edges, np.zeros(bins), 0]
    for entry in ALL_FACES:
        for exit in ALL_FACES:
            rows = (batch.entry_code == entry.code) & (batch.exit_code == exit.code)
            if entry == exit:
                assert not rows.any()
                continue
            cls = classify_pair(entry, exit)
            edges, counts, total = ref[cls.label]
            uv = cls.exit_local_to_canonical(box, batch.exit_ab[rows])
            h, _ = np.histogramdd(np.column_stack([batch.length[rows], uv]), bins=edges)
            ref[cls.label] = [edges, counts + h, total + int(rows.sum())]
    return ref


@pytest.mark.parametrize("sampler", ["rays", "chords"])
def test_canonical_histograms_match_per_pair_reference(skew_box, sampler):
    if sampler == "rays":
        batch = sample_rays(skew_box, 200_000, 41, "cube-components", 1)
    else:
        batch = sample_chords(skew_box, 200_000, 42, 1)
    bins = (6, 5, 4)
    ref = per_pair_reference(skew_box, batch, bins)
    hists = canonical_histograms(batch, *bins)
    assert list(hists) == [cls.label for cls in canonical_classes()]
    for label, (_, counts, total) in ref.items():
        assert np.array_equal(hists[label].counts, counts)
        assert hists[label].total == total
    assert sum(h.total for h in hists.values()) == len(batch)


def test_canonical_histograms_bin_edges_like_histogramdd(skew_box):
    """Values on the edges, past the last edge, NaN and infinite: as histogramdd bins them."""
    batch = sample_rays(skew_box, 20_000, 44, "cube-components", 1)
    bins = (6, 5, 4)
    edges = [class_bin_edges(skew_box, cls.kind, cls.indices.as_tuple, *bins) for cls in canonical_classes()]
    odd = [np.nan, np.inf, -np.inf, -1e300, 1e300, -1e-300, 0.0, 5.0]
    rng = np.random.default_rng(3)
    batch.length[:5_000] = rng.choice(np.concatenate([e[0] for e in edges] + [odd]), 5_000)
    uv = np.concatenate([e[1] for e in edges] + [e[2] for e in edges] + [odd])
    batch.exit_ab[5_000:10_000] = rng.choice(uv, (5_000, 2))
    hists = canonical_histograms(batch, *bins)
    for label, (_, counts, total) in per_pair_reference(skew_box, batch, bins).items():
        assert np.array_equal(hists[label].counts, counts)
        assert hists[label].total == total


def test_canonical_histograms_skip_bad_face_codes(cube):
    """Rows with a face code outside 0..5 are counted in no class."""
    batch = sample_rays(cube, 1_000, 43, "cube-components", 1)
    batch.entry_code[:10], batch.exit_code[:10] = 0, 8  # 0 * 6 + 8 is the code of pair (1, 2)
    batch.entry_code[10:20], batch.exit_code[10:20] = 43, 0  # 43 * 6 wraps to 2 in uint8
    hists = canonical_histograms(batch, 2, 2, 2)
    assert sum(h.total for h in hists.values()) == len(batch) - 20


def test_class_occupancies_match_analytic_masses(rays_batch_cube):
    hists = canonical_histograms(rays_batch_cube, 4, 4, 4)
    n = len(rays_batch_cube)
    # 2 faces per opposing class, each with exit mass 1/12
    assert hists["opposing-entry2"].total / n == pytest.approx(2 / 12 / 6, rel=0.05)
    # 4 ordered pairs per adjacent class, each (1/6) * (11/48)
    assert hists["adjacent-entry2-exit1"].total / n == pytest.approx(4 * (11 / 48) / 6, rel=0.05)


def test_length_histogram_axis_filter(rays_batch_cube):
    edges, counts = length_histogram(rays_batch_cube, 32)
    total = counts.sum()
    by_axis = 0
    for axis in (1, 2, 3):
        _, c = length_histogram(rays_batch_cube, 32, entry_axis=axis)
        by_axis += c.sum()
    assert by_axis == total


# ---------------------------------------------------------------------------
# throughput


def test_sampling_throughput(cube):
    n = 2_000_000
    t0 = time.perf_counter()
    sample_rays(cube, n, 321, "cube-components", 1)
    dt = time.perf_counter() - t0
    assert n / dt >= 1_000_000, f"rays throughput {n / dt:.0f}/s below 1e6/s"
    t0 = time.perf_counter()
    sample_chords(cube, n, 321, 1)
    dt = time.perf_counter() - t0
    assert n / dt >= 1_000_000, f"chords throughput {n / dt:.0f}/s below 1e6/s"
