"""Deterministic synthetic videos: rigidly translating rectangles/ellipses
with controllable distractors and embedding noise, plus backward flow fields
that transport each ground-truth mask exactly.

Flow construction: inside each object's current-frame region the backward
vector is minus the object's velocity; everywhere else it points far outside
the image so background samples resolve to background. This makes
warp_mask(gt[t-1], flow[t]) == gt[t] bit-exact whenever objects stay
pairwise disjoint.

Every shape is drawn in its own box (a mask.Patch) and encoded from it, so
a shape costs in proportion to its box, not to the image; only the flow
fields are full-image arrays, built in FlowField's column-major layout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import TrackmergeError
from .flow import FlowField, save_flo
from .labelmap import paint, write_frames
from .manifest import GroundTruthObject, Proposal, VideoManifest, save_manifest
from .mask import Mask, Patch, tight_boxes


@dataclass(frozen=True)
class ShapeSpec:
    """A rigidly translating shape: proposal source and/or GT object."""

    shape: str  # "rect" or "ellipse"
    size: tuple  # (w, h) in pixels
    start: tuple  # top-left (x, y) at frame 0
    velocity: tuple  # integer (vx, vy) per frame
    objectness: float = 0.9
    archetype: tuple | None = None  # unit embedding vector; random if None

    def position(self, t: int):
        return (self.start[0] + t * self.velocity[0], self.start[1] + t * self.velocity[1])


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    frame_count: int
    width: int
    height: int
    objects: tuple  # ShapeSpec per GT object; ids assigned 1..n in order
    planted: tuple = ()  # persistent non-GT distractor shapes
    embedding_dim: int = 16
    distractor_count: int = 0  # random extra proposals per frame
    embedding_noise: float = 0.0
    spurious_rate: float = 0.0  # chance per object per frame of a perturbed near-copy
    video_id: str = "synth"

    def __post_init__(self):
        if self.frame_count < 1 or not self.objects:
            raise TrackmergeError("scenario needs >= 1 frame and >= 1 object")
        for s in tuple(self.objects) + tuple(self.planted):
            w, h = s.size
            if w < 1 or h < 1:
                raise TrackmergeError(f"shape size {s.size} must be positive")
            if w > self.width or h > self.height:
                raise TrackmergeError(f"shape {s.size} larger than image")
            for t in range(self.frame_count):
                x, y = s.position(t)
                if x < 0 or y < 0 or x + w > self.width or y + h > self.height:
                    raise TrackmergeError(
                        f"trajectory leaves the image at frame {t}: {(x, y)}"
                    )
            if s.archetype is not None:
                a = np.asarray(s.archetype, np.float64)
                if a.shape != (self.embedding_dim,) or abs(np.linalg.norm(a) - 1) > 1e-9:
                    raise TrackmergeError("archetype must be a unit vector of embedding_dim")


@dataclass
class SynthResult:
    manifest: VideoManifest
    gt_all_frames: list  # per frame: {object_id: Mask}


def _shape_patch(spec: ShapeSpec, t: int) -> Patch:
    """The shape at frame t, drawn in its (w, h) box at its position. The
    ellipse has no pixel outside the box: the columns just outside lie
    (w + 1) / 2 from its centre, beyond the radius w / 2, and the rows
    likewise."""
    x, y = spec.position(t)
    w, h = spec.size
    if spec.shape == "rect":
        grid = np.ones((h, w), dtype=bool)
    elif spec.shape == "ellipse":
        yy, xx = np.mgrid[y : y + h, x : x + w]
        cx, cy = x + (w - 1) / 2, y + (h - 1) / 2
        rx, ry = w / 2, h / 2
        grid = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
    else:
        raise TrackmergeError(f"unknown shape '{spec.shape}'")
    return Patch(y, x, grid)


def _unit_vector(rng, dim) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _rand_rect(rng, spec: ScenarioSpec) -> Mask:
    w = int(rng.integers(2, max(3, spec.width // 3)))
    h = int(rng.integers(2, max(3, spec.height // 3)))
    x = int(rng.integers(0, spec.width - w + 1))
    y = int(rng.integers(0, spec.height - h + 1))
    return Mask.from_patch(Patch(y, x, np.ones((h, w), dtype=bool)), spec.width, spec.height)


def generate(spec: ScenarioSpec) -> SynthResult:
    """Build the manifest, with its flow fields preloaded, and full-video GT.

    Fully deterministic in spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    dim = spec.embedding_dim
    far = float(2 * (spec.width + spec.height))  # guaranteed out-of-image sample

    archetypes = []
    for s in tuple(spec.objects) + tuple(spec.planted):
        if s.archetype is not None:
            archetypes.append(np.asarray(s.archetype, np.float64))
        else:
            archetypes.append(_unit_vector(rng, dim))
    n_obj = len(spec.objects)

    # gt_patches[t][j]: object j + 1 at frame t, in its box
    gt_patches = [[_shape_patch(s, t) for s in spec.objects] for t in range(spec.frame_count)]
    gt_all_frames = [
        {j + 1: Mask.from_patch(p, spec.width, spec.height) for j, p in enumerate(patches)}
        for patches in gt_patches
    ]

    flows = []
    for t in range(1, spec.frame_count):
        # FlowField's own column-major planes, painted through their (h, w, 2) view
        planes = np.zeros((2, spec.width, spec.height), dtype=np.float32)
        planes[0] = far
        vec = planes.transpose(2, 1, 0)
        for s, p in zip(spec.objects, gt_patches[t]):
            vec[p.slices][p.grid] = (-s.velocity[0], -s.velocity[1])
        flows.append(FlowField(spec.width, spec.height, vec))

    def noisy(arch):
        if spec.embedding_noise > 0:
            return arch + spec.embedding_noise * rng.standard_normal(dim)
        return np.array(arch)

    frames = []
    for t in range(spec.frame_count):
        frame = []  # (mask, objectness, embedding) per proposal, in draw order
        for j, s in enumerate(spec.objects):
            frame.append((gt_all_frames[t][j + 1], s.objectness, noisy(archetypes[j])))
        for k, s in enumerate(spec.planted):
            m = Mask.from_patch(_shape_patch(s, t), spec.width, spec.height)
            frame.append((m, s.objectness, noisy(archetypes[n_obj + k])))
        for j, s in enumerate(spec.objects):
            if spec.spurious_rate > 0 and rng.random() < spec.spurious_rate:
                shifted = _shift_mask(gt_patches[t][j], rng, spec.width, spec.height)
                if shifted is not None:
                    obj = float(np.clip(s.objectness - rng.uniform(0.05, 0.3), 0.01, 1))
                    emb = archetypes[j] + max(spec.embedding_noise, 0.05) * rng.standard_normal(dim)
                    frame.append((shifted, obj, emb))
        for _ in range(spec.distractor_count):
            m = _rand_rect(rng, spec)
            obj = float(rng.uniform(0.1, 0.85))
            frame.append((m, obj, _unit_vector(rng, dim)))
        boxes = tight_boxes([m for m, _, _ in frame])
        frames.append([Proposal(t, m, b, o, e) for (m, o, e), b in zip(frame, boxes)])

    manifest = VideoManifest(
        video_id=spec.video_id,
        width=spec.width,
        height=spec.height,
        frame_count=spec.frame_count,
        embedding_dim=dim,
        proposals=frames,
        ground_truth=[
            GroundTruthObject(
                object_id=j + 1,
                first_frame_mask=gt_all_frames[0][j + 1],
                first_frame_bbox=frames[0][j].bbox,
                embedding=np.array(archetypes[j]),
            )
            for j in range(n_obj)
        ],
        flow_paths=[f"flows/{t:05d}.flo" for t in range(1, spec.frame_count)],
        preloaded_flows=flows,
    )
    return SynthResult(manifest, gt_all_frames)


def _shift_mask(p: Patch, rng, width, height) -> Mask | None:
    """The patch moved by a random (dx, dy) in [-2, 2] and cut to the
    (height, width) image; None when none of its pixels is left."""
    dx, dy = (int(v) for v in rng.integers(-2, 3, size=2))
    h, w = p.grid.shape
    y, x = p.y0 + dy, p.x0 + dx  # the moved box's top left
    y0, x0, y1, x1 = max(y, 0), max(x, 0), min(y + h, height), min(x + w, width)
    if y0 >= y1 or x0 >= x1:
        return None
    grid = p.grid[y0 - y : y1 - y, x0 - x : x1 - x]
    if not grid.any():
        return None
    return Mask.from_patch(Patch(y0, x0, grid), width, height)


def gt_label_maps(result: SynthResult) -> list:
    """GT label maps per frame; overlaps (if any) go to the lowest object_id."""
    w, h = result.manifest.width, result.manifest.height
    return [
        paint(w, h, [(j, m, 0.0) for j, m in frame_gt.items()])
        for frame_gt in result.gt_all_frames
    ]


def save_scenario(result: SynthResult, out_dir):
    """Write manifest.json, flows/*.flo, and gt/*.pgm under out_dir."""
    m = result.manifest
    os.makedirs(os.path.join(out_dir, "flows"), exist_ok=True)
    for path, f in zip(m.flow_paths, m.preloaded_flows):
        save_flo(f, os.path.join(out_dir, path))
    write_frames(gt_label_maps(result), os.path.join(out_dir, "gt"))
    save_manifest(m, os.path.join(out_dir, "manifest.json"))


# ---------------------------------------------------------------------------
# Ready-made scenarios


def single_object_scenario(seed=0, frame_count=5) -> ScenarioSpec:
    """One clean rectangle, no distractors: any weights must recover GT."""
    return ScenarioSpec(
        seed=seed,
        frame_count=frame_count,
        width=32,
        height=24,
        objects=(ShapeSpec("rect", (6, 6), (2, 8), (2, 0)),),
        video_id=f"single_{seed}",
    )


def crossing_scenario(seed=0) -> ScenarioSpec:
    """Two identical-embedding rectangles passing each other, plus a
    stationary higher-objectness distractor. Only mask propagation can keep
    the identities apart; appearance and objectness cues are dead ends."""
    dim = 16
    arch = tuple(np.eye(dim)[0])
    return ScenarioSpec(
        seed=seed,
        frame_count=10,
        width=40,
        height=26,
        objects=(
            ShapeSpec("rect", (6, 6), (2, 3), (3, 0), objectness=0.9, archetype=arch),
            ShapeSpec("rect", (6, 6), (30, 17), (-3, 0), objectness=0.9, archetype=arch),
        ),
        planted=(
            ShapeSpec("rect", (6, 6), (17, 10), (0, 0), objectness=0.95, archetype=arch),
        ),
        embedding_dim=dim,
        video_id=f"crossing_{seed}",
    )


def random_scenario(
    seed,
    max_frames=6,
    max_objects=3,
    max_distractors=3,
    noise=0.05,
    spurious_rate=None,
    require_disjoint=True,
) -> ScenarioSpec:
    """Small random instance for property tests with exactly the drawn number
    of objects. Speeds are capped so every shape stays in the image; disjoint
    layouts are found by rejection sampling (keeps the last draw if unlucky).
    The frame count is drawn from 2..max_frames."""
    if max_frames < 2:
        raise TrackmergeError(f"max_frames must be at least 2, got {max_frames}")
    rng = np.random.default_rng(seed)
    width, height = 28, 20
    frame_count = int(rng.integers(2, max_frames + 1))
    n_obj = int(rng.integers(1, max_objects + 1))

    span = frame_count - 1
    for _ in range(200):
        objects = []
        for _ in range(n_obj):
            w = int(rng.integers(3, 8))
            h = int(rng.integers(3, 8))
            kx = min(2, (width - w) // span)
            ky = min(2, (height - h) // span)
            vx = int(rng.integers(-kx, kx + 1))
            vy = int(rng.integers(-ky, ky + 1))
            x = int(rng.integers(max(0, -span * vx), width - w - max(0, span * vx) + 1))
            y = int(rng.integers(max(0, -span * vy), height - h - max(0, span * vy) + 1))
            shape = "rect" if rng.random() < 0.7 else "ellipse"
            objects.append(ShapeSpec(shape, (w, h), (x, y), (vx, vy)))
        if not require_disjoint or _disjoint(objects, frame_count, width, height):
            break

    return ScenarioSpec(
        seed=int(rng.integers(0, 2**31)),
        frame_count=frame_count,
        width=width,
        height=height,
        objects=tuple(objects),
        embedding_dim=8,
        distractor_count=int(rng.integers(0, max_distractors + 1)),
        embedding_noise=noise,
        spurious_rate=float(rng.uniform(0, 0.5)) if spurious_rate is None else spurious_rate,
        video_id=f"rand_{seed}",
    )


def _disjoint(objects, frame_count, width, height) -> bool:
    for t in range(frame_count):
        total = np.zeros((height, width), dtype=int)
        for s in objects:
            p = _shape_patch(s, t)
            total[p.slices] += p.grid
        if (total > 1).any():
            return False
    return True
