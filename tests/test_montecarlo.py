"""Samplers: determinism, distributional invariants, and throughput."""

import hashlib
import re
import time
import warnings
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
    length_histogram,
    montecarlo,
    sample_chords,
    sample_rays,
)
from boxpath.geometry import FACE_PAIRS, canonical_classes, classify_pair, entry_probability
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


@pytest.mark.parametrize("workers", [1, 3])
def test_for_each_stream_returns_results_in_stream_order(workers):
    n = STREAM_COUNT * 2 + 5
    results = for_each_stream(n, workers, lambda s, rows: (s, rows.stop - rows.start))
    assert [s for s, _ in results] == list(range(STREAM_COUNT))
    assert sum(m for _, m in results) == n


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


def test_zero_component_redraws(cube, monkeypatch):
    """A direction whose entry-axis component is 0 is redrawn until it is not.

    The first draw zeroes every third row and the second draw its first row,
    so one stream redraws ceil(n / 3) + 1 times; rows never zeroed keep the
    unpatched run's values.
    """
    n = STREAM_COUNT * 300
    plain = sample_rays(cube, n, 17, "cube-components", stream=0)
    draw = montecarlo._draw_directions
    calls = []

    def zeroing(rng, count, model):
        d, draws = draw(rng, count, model)
        if not calls:
            d[::3] = 0.0
        elif len(calls) == 1:
            d[0] = 0.0
        calls.append(count)
        return d, draws

    monkeypatch.setattr(montecarlo, "_draw_directions", zeroing)
    batch = sample_rays(cube, n, 17, "cube-components", stream=0)
    rows = len(batch)
    assert calls == [rows, -(-rows // 3), 1]
    assert batch.meta["zero_component_redraws"] == -(-rows // 3) + 1
    kept = np.arange(rows) % 3 != 0
    for name in ("entry_code", "entry_ab", "exit_code", "exit_ab", "length"):
        assert np.array_equal(getattr(batch, name)[kept], getattr(plain, name)[kept])
    assert np.all(batch.entry_code != batch.exit_code) and np.all(batch.length > 0.0)
    p0 = rebuild_points(cube, batch.entry_code, batch.entry_ab)
    p1 = rebuild_points(cube, batch.exit_code, batch.exit_ab)
    assert np.max(np.abs(np.linalg.norm(p1 - p0, axis=1) - batch.length)) <= 1e-9


def test_zero_components_off_the_entry_axis(skew_box, monkeypatch):
    """A direction component of 0 off the entry axis, also where the entry
    point lies on that axis's low plane (0 / 0), never picks that axis: the
    rows are those of a per-axis reference that skips 0 components, and no
    floating-point warning is raised.
    """
    draw_directions, draw_points = montecarlo._draw_directions, montecarlo._surface_points
    drawn = []

    def zeroing(rng, count, model):
        d, draws = draw_directions(rng, count, model)
        d[::2, 1] = 0.0
        d[::3, 2] = 0.0
        drawn.append(np.array(d))
        return d, draws

    def on_low_plane(rng, codes):
        p = draw_points(rng, codes)
        p[::6, 1] = 0.0  # rows whose y component is 0 too
        return p

    monkeypatch.setattr(montecarlo, "_draw_directions", zeroing)
    monkeypatch.setattr(montecarlo, "_surface_points", on_low_plane)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = sample_rays(skew_box, STREAM_COUNT * 600, 9, "cube-components", 1, FaceId(1, Side.HIGH), stream=0)
    assert len(drawn) == 1 and batch.meta["zero_component_redraws"] == 0
    d = drawn[0]
    d[:, 0] = -np.abs(d[:, 0])  # inward from the high x face
    p = rebuild_points(skew_box, batch.entry_code, batch.entry_ab)
    assert np.all(p[::6, 1] == 0.0)
    x = skew_box.as_array()
    with np.errstate(divide="ignore", invalid="ignore"):
        t3 = np.where(d != 0.0, (x * (d > 0.0) - p) / d, np.inf)
    axis, t = t3.argmin(axis=1), t3.min(axis=1)
    rows = np.arange(len(batch))
    assert np.array_equal(batch.exit_code, 2 * axis + (d[rows, axis] > 0.0))
    assert np.all((batch.exit_code[::2] >> 1) != 1) and np.all((batch.exit_code[::3] >> 1) != 2)
    assert np.array_equal(batch.length, t * np.sqrt((d[:, 0] ** 2 + d[:, 2] ** 2) + d[:, 1] ** 2))
    assert np.all(np.isfinite(batch.length)) and np.all(batch.length > 0.0)
    exit = np.clip(p + t[:, None] * d, 0.0, x)
    off_axis = np.arange(3) != axis[:, None]
    assert np.array_equal(rebuild_points(skew_box, batch.exit_code, batch.exit_ab)[off_axis], exit[off_axis])


@pytest.mark.parametrize("sampler", ["rays", "chords"])
def test_kernels_are_bitwise_equal_across_row_blocks(skew_box, monkeypatch, sampler):
    """A stream's rows do not depend on the row blocks its kernel works in."""
    draw = partial(sample_rays, skew_box, STREAM_COUNT * 1000, 3) if sampler == "rays" else partial(sample_chords, skew_box, STREAM_COUNT * 1000, 3)
    whole = draw(stream=5)
    monkeypatch.setattr(montecarlo, "_BLOCK", 96)
    blocked = draw(stream=5)
    for name in ("entry_code", "entry_ab", "exit_code", "exit_ab", "length"):
        assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name


# Digests of every batch array, and the sampler counters, of runs that cover
# both direction models, the chord sampler, a pinned entry face, a count
# that is no multiple of STREAM_COUNT, and the cube, the slab (37.8 % of
# chord pair attempts collide) and a skew box.  A faster sampler must keep
# every draw, so these values never change with its implementation.
GOLDEN_RUNS = {
    "rays-cube-components-cube": (
        lambda: sample_rays(BoxDims(1.0, 1.0, 1.0), 20_001, 5, "cube-components", 2),
        ("62e8101248dfe5a55eae93df", "c83a2c969c9d5bfca18c888d", "ba38ff91c662bb2a3187151c",
         "6998363cf615a7ee92f6afa8", "79ecff367a48ce24ad70439b"),
        {"zero_component_redraws": 0},
    ),
    "rays-cube-components-slab": (
        lambda: sample_rays(BoxDims(1.0, 0.1, 1.0), 20_001, 6, "cube-components", 2),
        ("1ef22ee4fa29687050481a01", "579c0a9a6ac7d58088d3cb76", "2ecefcf4fbfc42d59ef6b344",
         "a36dffd048c260d922f777ed", "2e3170811279f464d9a2ef7a"),
        {"zero_component_redraws": 0},
    ),
    "rays-ball-rejection-skew": (
        lambda: sample_rays(BoxDims(1.3, 0.8, 1.1), 20_001, 7, "ball-rejection", 2),
        ("21319cfc3f809e2ad80f5b26", "f82e869bf7faa61043547c44", "179dc90c42dda43e4ee3a7f6",
         "fcf10239b395eaf6d234e723", "ab3f7ffe5e3d8aa452836cc7"),
        {"zero_component_redraws": 0, "direction_draws": 38120},
    ),
    "rays-pinned-slab": (
        lambda: sample_rays(BoxDims(1.0, 0.1, 1.0), 20_001, 8, "ball-rejection", 2, FaceId(2, Side.HIGH)),
        ("16578f0af0677eb6a0603cdb", "770f8bddb6f3667200f2e735", "8076f569a5edc8bae8935b2c",
         "c583e9573b30975dfd7ae233", "e442d12a6b377d8755671785"),
        {"zero_component_redraws": 0, "direction_draws": 37732},
    ),
    "chords-cube": (
        lambda: sample_chords(BoxDims(1.0, 1.0, 1.0), 20_001, 9, 2),
        ("0e094d4619e930c394642c68", "751fcf83c238b543ed26ed0e", "4ccba6b7e754e635811c9889",
         "48782694297459362671f623", "14278a8139fa7e144ed65164"),
        {"pair_attempts": 23960, "pair_collisions": 3959},
    ),
    "chords-slab": (
        lambda: sample_chords(BoxDims(1.0, 0.1, 1.0), 20_001, 10, 2),
        ("1db9221f4952f67c86301dca", "82e97ff73f33ca43d057cfdb", "1095f79370e16738895d2a0d",
         "d05eaaf2438f9bc13793179a", "e51cf53ba74a3f127f88b7d6"),
        {"pair_attempts": 32154, "pair_collisions": 12153},
    ),
    "chords-skew": (
        lambda: sample_chords(BoxDims(1.3, 0.8, 1.1), 20_001, 11, 2),
        ("1b99ed7f5b5c0528fd86a6af", "be2f4eb1d8f0b4c8d01a66ec", "75627c2bd3f7e824724dbebd",
         "3276e26e189d3c0388570ccc", "fcf90d3892153b3184d3303b"),
        {"pair_attempts": 24301, "pair_collisions": 4300},
    ),
    "chords-pinned-slab": (
        lambda: sample_chords(BoxDims(1.0, 0.1, 1.0), 20_001, 12, 2, FaceId(1, Side.LOW)),
        ("6e430df5caffbd8901d2f4be", "27ad327dcb1d4e9a3795d0ce", "e620fc2c4de1894982aa808b",
         "a07fce4d6f17925a00a5951d", "7a78ba313a379dde5bb78d93"),
        {"pair_attempts": 20902, "pair_collisions": 901},
    ),
}


def array_digest(a: np.ndarray) -> str:
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:24]


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_sampler_golden_digests(name):
    run, digests, counters = GOLDEN_RUNS[name]
    batch = run()
    arrays = ("entry_code", "entry_ab", "exit_code", "exit_ab", "length")
    assert tuple(array_digest(getattr(batch, a)) for a in arrays) == digests
    assert {k: batch.meta[k] for k in counters} == counters
    assert set(batch.meta) & set(montecarlo._COUNTERS) == set(counters)


# ---------------------------------------------------------------------------
# raw draws


@pytest.mark.parametrize("count", [1, 3, 4, 5, 15_625])
def test_raw_draws_are_the_generators_doubles(count):
    """One raw draw gives `Generator.random` and `uniform(-1, 1)` bitwise, also
    for counts that are no multiple of the 4 outputs Philox makes per counter."""
    raw, ref = _stream_rng(5, 1), _stream_rng(5, 1)
    assert np.array_equal(montecarlo._uniform(raw, count), ref.random(count))
    assert np.array_equal(montecarlo._uniform(raw, count, signed=True), ref.uniform(-1.0, 1.0, count))
    assert np.array_equal(montecarlo._uniform(raw, count, axes=3), ref.random((count, 3)))
    assert np.array_equal(montecarlo._uniform(raw, count, signed=True, axes=3), ref.uniform(-1.0, 1.0, (count, 3)))
    assert np.array_equal(raw.bit_generator.random_raw(9), ref.bit_generator.random_raw(9))  # both streams at one place


def test_raw_draws_interleave_with_generator_calls():
    """Raw draws and `Generator` calls on one stream take its outputs in turn."""
    mixed, ref = _stream_rng(6, 2), _stream_rng(6, 2)
    for count in (1, 5, 3, 4, 7, 2):
        assert np.array_equal(montecarlo._uniform(mixed, count), ref.random(count))
        assert np.array_equal(mixed.uniform(-1.0, 1.0, count + 1), ref.uniform(-1.0, 1.0, count + 1))
        assert np.array_equal(montecarlo._uniform(mixed, count, signed=True, axes=3), ref.uniform(-1.0, 1.0, (count, 3)))
        assert np.array_equal(mixed.random(count), ref.random(count))


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


@pytest.mark.parametrize("box_name", ["cube", "slab"])
def test_face_codes_end_at_the_last_face(box_name, request):
    """A draw at or past the last cumulative probability is face 5, never code 6.

    On the cube and the slab the cumulative face probabilities end just below 1.
    """
    box = request.getfixturevalue(box_name)
    cum = np.cumsum([entry_probability(box, f) for f in ALL_FACES])
    u = np.concatenate([cum, np.nextafter(cum, -1.0), [0.0, np.nextafter(1.0, 0.0)]])
    codes = montecarlo._face_codes(u, cum)
    assert codes.size == u.size
    assert np.array_equal(codes, np.minimum(np.searchsorted(cum, u, side="right"), 5))
    assert codes[cum.size - 1] == 5 and codes[-1] == 5


def test_entry_faces_follow_area_law(slab):
    batch = sample_rays(slab, 500_000, 11, "cube-components", 1)
    counts = np.bincount(batch.entry_code, minlength=6)
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
    assert h.total - h.counts.sum() <= 1e-3 * h.total
    probs = h.counts / h.counts.sum()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def per_pair_reference(box, batch, bins):
    """Every ordered pair binned on its own by histogramdd, through classify_pair."""
    ref = {}
    for cls in canonical_classes():
        edges = class_bin_edges(box, cls.kind, cls.indices, *bins)
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


@pytest.mark.parametrize("bins", [(40, 4, 4), (3, 17, 2)])
def test_canonical_histograms_with_unequal_bin_counts(skew_box, bins):
    """Per-axis bin counts that differ: each class's block is padded per axis,
    so its size follows the bins, and the counts match the reference, also
    for values far outside every axis's range."""
    binning = montecarlo.JointBinning(skew_box, *bins)
    rng = np.random.default_rng(6)
    for batch in (sample_rays(skew_box, 50_000, 47, "cube-components", 1), sample_chords(skew_box, 50_000, 48, 1)):
        odd = [np.nan, np.inf, -np.inf, -1.0, 1e300]
        batch.length[:2_000] = rng.choice(odd, 2_000)
        batch.exit_ab[2_000:4_000] = rng.choice(odd, (2_000, 2))
        counts = binning.count(batch)
        assert counts.shape == (len(canonical_classes()) + 1, *(b + 2 for b in bins))
        hists = binning.histograms(counts)
        for label, (_, ref, total) in per_pair_reference(skew_box, batch, bins).items():
            assert np.array_equal(hists[label].counts, ref), label
            assert hists[label].total == total


def test_canonical_histograms_bin_edges_like_histogramdd(skew_box):
    """Values on the edges, past the last edge, NaN and infinite: as histogramdd bins them."""
    batch = sample_rays(skew_box, 20_000, 44, "cube-components", 1)
    bins = (6, 5, 4)
    edges = [class_bin_edges(skew_box, cls.kind, cls.indices, *bins) for cls in canonical_classes()]
    odd = [np.nan, np.inf, -np.inf, -1e300, 1e300, -1e-300, 0.0, 5.0]
    rng = np.random.default_rng(3)
    batch.length[:5_000] = rng.choice(np.concatenate([e[0] for e in edges] + [odd]), 5_000)
    uv = np.concatenate([e[1] for e in edges] + [e[2] for e in edges] + [odd])
    batch.exit_ab[5_000:10_000] = rng.choice(uv, (5_000, 2))
    hists = canonical_histograms(batch, *bins)
    for label, (_, counts, total) in per_pair_reference(skew_box, batch, bins).items():
        assert np.array_equal(hists[label].counts, counts)
        assert hists[label].total == total


@pytest.mark.parametrize(
    "box", [BoxDims(1.3, 0.8, 1.1), BoxDims(1e-5, 1.0, 1e-5), BoxDims(1e-7, 1.0, 1e-7)], ids=["skew", "needle", "thinner-needle"]
)
def test_canonical_histograms_near_edges_like_histogramdd(box):
    """Values an ulp or a relative 1e-9 either side of every bin edge, also
    where a mirrored exit coordinate X - x lands there, bin as histogramdd
    bins them, for every face pair alike.  The needles' opposing-entry2
    lengths span only about 1e-10 and 1e-14 of their length."""
    batch = sample_rays(box, 20_000, 46, "cube-components", 1)
    bins = (6, 5, 4)
    edges = [class_bin_edges(box, cls.kind, cls.indices, *bins) for cls in canonical_classes()]

    def around(v):
        return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf), v * (1 - 1e-9), v * (1 + 1e-9)])

    uv = np.concatenate([e[a] for e in edges for a in (1, 2)])
    rng = np.random.default_rng(5)
    pairs = rng.choice(np.array([(p.entry_face.code, p.exit_face.code) for p in FACE_PAIRS], np.uint8), len(batch))
    batch.entry_code[:], batch.exit_code[:] = pairs.T
    batch.length[:] = rng.choice(around(np.concatenate([e[0] for e in edges])), len(batch))
    batch.exit_ab[:] = rng.choice(around(np.concatenate([uv, *(x - uv for x in box.as_array())])), (len(batch), 2))
    hists = canonical_histograms(batch, *bins)
    for label, (_, counts, total) in per_pair_reference(box, batch, bins).items():
        assert np.array_equal(hists[label].counts, counts), label
        assert hists[label].total == total


def test_canonical_histograms_skip_bad_face_codes(cube):
    """Rows with a face code outside 0..5 are counted in no class, and a batch of another box not at all."""
    batch = sample_rays(cube, 1_000, 43, "cube-components", 1)
    batch.entry_code[:10], batch.exit_code[:10] = 0, 8  # 0 * 6 + 8 is the code of pair (1, 2)
    batch.entry_code[10:20], batch.exit_code[10:20] = 43, 0  # 43 * 6 wraps to 2 in uint8
    hists = canonical_histograms(batch, 2, 2, 2)
    assert sum(h.total for h in hists.values()) == len(batch) - 20
    with pytest.raises(ValueError, match="differs from the binning's box"):
        montecarlo.JointBinning(BoxDims(1.0, 2.0, 1.0), 2, 2, 2).count(batch)


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


@pytest.mark.parametrize("axis", [0, -1, 4, 1.5])
def test_length_histogram_rejects_other_axes(rays_batch_cube, axis):
    with pytest.raises(ValueError, match="entry_axis"):
        length_histogram(rays_batch_cube, 32, entry_axis=axis)


@pytest.mark.parametrize("bins", [0, -1, 2.5, True, False], ids=repr)
def test_bin_counts_must_be_positive_integers(rays_batch_cube, bins):
    """Both binnings refuse a bin count that is not an integer of at least 1, naming it, before binning."""
    for axis, name in enumerate(("n_bins", "u_bins", "v_bins")):
        shape = [8, 8, 8]
        shape[axis] = bins
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer of at least 1, got {bins!r}")):
            canonical_histograms(rays_batch_cube, *shape)
    with pytest.raises(ValueError, match=re.escape(f"bins must be an integer of at least 1, got {bins!r}")):
        length_histogram(rays_batch_cube, bins)


@pytest.mark.parametrize("lo", [0.0, 0.25])
def test_length_counts_bin_like_histogram(skew_box, lo):
    """Each row of a stream's length counts is np.histogram of its entry axis's lengths.

    Values on the edges, exactly at the diagonal, past it, NaN and infinite
    bin as np.histogram bins them; a row with an entry code outside 0..5
    counts only in the all-faces row.
    """
    batch = sample_rays(skew_box, 20_000, 45, "cube-components", 1)
    bins = 37
    edges = np.histogram_bin_edges(np.empty(0), bins, range=(lo, skew_box.diagonal))
    odd = [np.nan, np.inf, -np.inf, -1e300, 1e300, -1e-300, 0.0, skew_box.diagonal, np.nextafter(skew_box.diagonal, 9.0)]
    rng = np.random.default_rng(4)
    batch.length[:10_000] = rng.choice(np.concatenate([edges, np.nextafter(edges, -9.0), odd]), 10_000)
    batch.entry_code[:50] = 7
    binning = montecarlo.LengthBinning(bins, lo, skew_box.diagonal)
    counts = binning.by_axis(binning.count(batch))
    assert np.array_equal(binning.edges, edges)
    assert counts.shape == (4, bins) and counts.dtype == np.uint64
    assert np.array_equal(counts[0], np.histogram(batch.length, bins, range=(lo, skew_box.diagonal))[0])
    for axis in (1, 2, 3):
        rows = (batch.entry_code >> 1) == axis - 1
        ref = np.histogram(batch.length[rows], bins, range=(lo, skew_box.diagonal))[0]
        assert np.array_equal(counts[axis], ref)
        assert np.array_equal(length_histogram(batch, bins, lo, entry_axis=axis)[1], ref)
    assert np.array_equal(length_histogram(batch, bins, lo)[1], counts[0])


def test_length_binning_face_counts(skew_box):
    """The entry and exit face counts from the per-pair length counts: those of the rows with both codes in 0..5."""
    batch = sample_chords(skew_box, 20_000, 49, 1)
    batch.entry_code[:30] = 9
    batch.exit_code[30:50] = 6
    binning = montecarlo.LengthBinning(16, 0.0, skew_box.diagonal)
    faces = binning.face_counts(binning.count(batch))
    kept = (batch.entry_code < 6) & (batch.exit_code < 6)
    assert np.array_equal(faces[0], np.bincount(batch.entry_code[kept], minlength=6))
    assert np.array_equal(faces[1], np.bincount(batch.exit_code[kept], minlength=6))


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
