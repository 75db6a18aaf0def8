"""Synthetic tracking scenarios plus the file formats around them.

The generator renders identities moving with constant velocity, corrupted by
positional noise, detection dropout, box jitter, and spurious detections.
Every detection carries an appearance vector (a stand-in for a CNN patch
embedding) and a small RoI grid whose first channel holds the rendered
object shape.  Everything is driven by one seeded generator, so a given
config reproduces byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, check_at_least, check_finite_sign, check_in, read_text

Box = tuple[float, float, float, float]  # x, y, w, h with top-left origin


@dataclass
class Detection:
    """One detected box in one frame, with optional learning payloads."""

    node_id: int
    frame: int
    box: Box
    confidence: float = 1.0
    appearance: np.ndarray | None = None
    roi_grid: np.ndarray | None = None      # (H, W, d_roi)
    gt_identity: int | None = None
    gt_mask: np.ndarray | None = None       # (H, W) binary, absent for clutter

    def __post_init__(self):
        x, y, w, h = self.box
        if not (w > 0 and h > 0):
            raise ConfigError(f"detection {self.node_id}: box needs positive size, got w={w}, h={h}")
        check_at_least(f"detection {self.node_id}: frame", self.frame, 0)
        if self.roi_grid is not None and self.gt_mask is not None:
            if self.roi_grid.shape[:2] != self.gt_mask.shape:
                raise ConfigError(
                    f"detection {self.node_id}: roi grid {self.roi_grid.shape[:2]} and "
                    f"mask {self.gt_mask.shape} disagree")


@dataclass
class ScenarioConfig:
    num_frames: int = 40
    num_identities: int = 4
    image_width: float = 512.0
    image_height: float = 512.0
    speed_max: float = 3.0            # constant per-identity velocity bound, px/frame
    pos_noise_std: float = 1.0        # per-frame positional noise, px
    detection_dropout: float = 0.0
    false_positive_rate: float = 0.0  # expected spurious detections per frame
    box_jitter_std: float = 0.0
    box_size_min: float = 24.0
    box_size_max: float = 64.0
    d_app: int = 16
    app_noise_std: float = 0.1
    roi_h: int = 8
    roi_w: int = 8
    d_roi: int = 4
    roi_noise_std: float = 0.1
    mask_fill_min: float = 0.55
    mask_fill_max: float = 0.85
    frame_stride: int = 1             # keep every k-th frame
    seed: int = 0

    def validate(self) -> None:
        check_at_least("num_frames", self.num_frames, 2)
        check_at_least("num_identities", self.num_identities, 1)
        check_in("detection_dropout", self.detection_dropout, 0, 1)
        for name in ("speed_max", "pos_noise_std", "false_positive_rate",
                     "box_jitter_std", "app_noise_std", "roi_noise_std"):
            check_finite_sign(name, getattr(self, name))
        for name in ("image_width", "image_height", "box_size_max"):
            check_finite_sign(name, getattr(self, name), positive=True)
        if not 0 < self.box_size_min <= self.box_size_max:
            raise ConfigError(
                f"box sizes must satisfy 0 < box_size_min <= box_size_max, "
                f"got {self.box_size_min}, {self.box_size_max}")
        check_at_least("d_app", self.d_app, 1)
        if self.roi_h < 4 or self.roi_w < 4:
            raise ConfigError(f"roi grid must be at least 4x4, got {self.roi_h}x{self.roi_w}")
        check_at_least("d_roi", self.d_roi, 1)
        if not 0.0 < self.mask_fill_min <= self.mask_fill_max <= 1.0:
            raise ConfigError("mask fill fractions must satisfy 0 < min <= max <= 1")
        check_at_least("frame_stride", self.frame_stride, 1)
        check_at_least("seed", self.seed, 0)


def _render_mask(h: int, w: int, shape: str, fill: float) -> np.ndarray:
    # shape indicator on pixel centers of the box-local unit square
    v = (np.arange(h) + 0.5) / h - 0.5
    u = (np.arange(w) + 0.5) / w - 0.5
    vv, uu = np.meshgrid(v, u, indexing="ij")
    half = fill / 2.0
    if shape == "ellipse":
        inside = (uu / half) ** 2 + (vv / half) ** 2 <= 1.0
    else:
        inside = np.maximum(np.abs(uu), np.abs(vv)) <= half
    return inside.astype(np.float64)


def _roi_grid(cfg: ScenarioConfig, indicator: np.ndarray, appearance: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
    grid = np.zeros((cfg.roi_h, cfg.roi_w, cfg.d_roi))
    # the shape channel is observed through per-detection noise, so a single
    # view does not determine the mask; aggregating views of the same object
    # does
    grid[:, :, 0] = indicator + rng.normal(0.0, cfg.roi_noise_std,
                                           size=(cfg.roi_h, cfg.roi_w))
    for c in range(1, cfg.d_roi - 1):
        grid[:, :, c] = appearance[(c - 1) % appearance.size]
    if cfg.d_roi >= 2:
        grid[:, :, cfg.d_roi - 1] = rng.normal(0.0, cfg.roi_noise_std, size=(cfg.roi_h, cfg.roi_w))
    return grid


def generate_scenario(cfg: ScenarioConfig) -> list[Detection]:
    """Simulate one scenario as its detections, a pure function of the config:
    node ids 0..n-1 in frame order, ground truth in each gt_identity."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    m = cfg.num_identities

    base_app = rng.normal(0.0, 1.0, size=(m, cfg.d_app))
    velocity = rng.uniform(-cfg.speed_max, cfg.speed_max, size=(m, 2))
    start = np.column_stack([
        rng.uniform(0.15 * cfg.image_width, 0.85 * cfg.image_width, size=m),
        rng.uniform(0.15 * cfg.image_height, 0.85 * cfg.image_height, size=m),
    ])
    box_w = rng.uniform(cfg.box_size_min, cfg.box_size_max, size=m)
    box_h = rng.uniform(cfg.box_size_min, cfg.box_size_max, size=m)
    shapes = ["ellipse" if rng.uniform() < 0.5 else "rectangle" for _ in range(m)]
    fills = rng.uniform(cfg.mask_fill_min, cfg.mask_fill_max, size=m)
    masks = [_render_mask(cfg.roi_h, cfg.roi_w, shapes[i], fills[i]) for i in range(m)]

    detections: list[Detection] = []
    next_id = 0
    for frame in range(1, cfg.num_frames + 1, cfg.frame_stride):
        step = frame - 1
        for ident in range(m):
            if rng.uniform() < cfg.detection_dropout:
                continue
            center = start[ident] + velocity[ident] * step \
                + rng.normal(0.0, cfg.pos_noise_std, size=2)
            jitter = rng.normal(0.0, cfg.box_jitter_std, size=4)
            w = max(box_w[ident] + jitter[2], 1.0)
            h = max(box_h[ident] + jitter[3], 1.0)
            x = center[0] - w / 2.0 + jitter[0]
            y = center[1] - h / 2.0 + jitter[1]
            app = base_app[ident] + rng.normal(0.0, cfg.app_noise_std, size=cfg.d_app)
            conf = rng.uniform(0.7, 1.0)
            roi = _roi_grid(cfg, masks[ident], app, rng)
            detections.append(Detection(
                node_id=next_id, frame=frame, box=(x, y, w, h), confidence=conf,
                appearance=app, roi_grid=roi, gt_identity=ident,
                gt_mask=masks[ident].copy()))
            next_id += 1
        for _ in range(rng.poisson(cfg.false_positive_rate)):
            w = rng.uniform(cfg.box_size_min, cfg.box_size_max)
            h = rng.uniform(cfg.box_size_min, cfg.box_size_max)
            x = rng.uniform(0.0, max(cfg.image_width - w, 1.0))
            y = rng.uniform(0.0, max(cfg.image_height - h, 1.0))
            app = rng.normal(0.0, 1.0, size=cfg.d_app)
            conf = rng.uniform(0.3, 0.8)
            roi = _roi_grid(cfg, np.zeros((cfg.roi_h, cfg.roi_w)), app, rng)
            detections.append(Detection(
                node_id=next_id, frame=frame, box=(x, y, w, h), confidence=conf,
                appearance=app, roi_grid=roi, gt_identity=None, gt_mask=None))
            next_id += 1
    return detections


# ---------------------------------------------------------------------------
# row reader shared by every comma-separated input file

def _read_rows(path, parse_row, header: str | None = None, key=None) -> list:
    """parse_row applied to the fields of every non-blank line of a CSV file.

    Every field must be a finite number; parse_row receives them as floats
    and reports a malformed row by raising ValueError.  With key given,
    key(row) names the row's key (say "node id 3"), and a key that repeats
    an earlier row's is malformed too.  Any failure becomes a ParseError
    naming path:line.  With a header given, the first line must equal it.
    """
    lines = read_text(path).split("\n")
    if header is not None and lines[0].strip() != header:
        raise ParseError(f"{path}:1: expected the header {header!r}")
    first = 0 if header is None else 1
    rows = []
    seen = set()
    for ln, line in enumerate(lines[first:], start=first + 1):
        line = line.strip()
        if not line:
            continue
        try:
            vals = list(map(float, line.split(",")))
            if not all(map(math.isfinite, vals)):
                raise ValueError("values must be finite (no nan or inf)")
            row = parse_row(vals)
            if key is not None:
                name = key(row)
                if name in seen:
                    raise ValueError(f"repeated {name}")
                seen.add(name)
            rows.append(row)
        except ValueError as e:
            raise ParseError(f"{path}:{ln}: {e}") from e
    return rows


def _int(v: float) -> int:
    i = int(v)
    if i != v:
        raise ValueError(f"expected an integer, got {v!r}")
    return i


def _dims(vals: list[float], n: int) -> tuple[int, ...]:
    dims = tuple(_int(v) for v in vals)
    if len(dims) != n or min(dims) < 1:
        raise ValueError(f"expected {n} positive grid dimensions, got {dims}")
    return dims


# ---------------------------------------------------------------------------
# detection and track files (MOTChallenge CSV layout)

def load_mot_detections(path) -> list[Detection]:
    """Read frame,id,x,y,w,h,conf[,...] rows; id -1 means unknown identity."""
    def parse(vals):
        if len(vals) < 7:
            raise ValueError(f"expected at least 7 fields, got {len(vals)}")
        frame, ident = _int(vals[0]), _int(vals[1])
        x, y, w, h, conf = vals[2:7]
        if w <= 0 or h <= 0:
            raise ValueError(f"box needs positive size, got w={w}, h={h}")
        if frame < 0:
            raise ValueError(f"frame must be >= 0, got {frame}")
        return frame, ident, (x, y, w, h), conf

    return [Detection(node_id=i, frame=frame, box=box, confidence=conf,
                      gt_identity=None if ident < 0 else ident)
            for i, (frame, ident, box, conf) in enumerate(_read_rows(path, parse))]


def write_detections(detections: list[Detection], path) -> None:
    with open(path, "w") as fh:
        for d in sorted(detections, key=lambda d: (d.frame, d.node_id)):
            ident = -1 if d.gt_identity is None else d.gt_identity
            x, y, w, h = d.box
            fh.write(f"{d.frame},{ident},{x:.2f},{y:.2f},{w:.2f},{h:.2f},{d.confidence:.2f},-1,-1,-1\n")


def write_results(tracks, path) -> list[int]:
    """Write track series as frame,track_id,x,y,w,h,conf,-1,-1,-1 rows.

    tracks is a list of series, each a list of (frame, box, conf); ids are
    reassigned 1..m in order of first appearance, boxes rounded to 2
    decimals.  Returns that order: tracks[order[k]] is written as id k + 1.
    """
    order = sorted(range(len(tracks)), key=lambda i: (min(f for f, _, _ in tracks[i]), i))
    rows = []
    for new_id, i in enumerate(order, start=1):
        for frame, box, conf in tracks[i]:
            x, y, w, h = box
            rows.append((frame, new_id, x, y, w, h, conf))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w") as fh:
        for frame, tid, x, y, w, h, conf in rows:
            fh.write(f"{frame},{tid},{x:.2f},{y:.2f},{w:.2f},{h:.2f},{conf:.2f},-1,-1,-1\n")
    return order


def load_tracks(path) -> dict[int, dict[int, Box]]:
    """Read a gt or results file into track_id -> frame -> box."""
    tracks: dict[int, dict[int, Box]] = {}
    for det in load_mot_detections(path):
        if det.gt_identity is None:
            raise ParseError(f"{path}: row for frame {det.frame} lacks a track id")
        if det.frame in tracks.setdefault(det.gt_identity, {}):
            raise ParseError(f"{path}: repeated track id {det.gt_identity} in frame {det.frame}")
        tracks[det.gt_identity][det.frame] = det.box
    return tracks


def write_track_assignment(tracks: list[list[int]], path) -> None:
    """Write node id lists as track_id,node_id rows, the k-th list as track k + 1."""
    rows = [f"{tid},{nid}\n" for tid, ids in enumerate(tracks, start=1) for nid in ids]
    with open(path, "w") as fh:
        fh.write("track_id,node_id\n" + "".join(rows))


def load_track_assignment(path) -> list[list[int]]:
    """Read a track_id,node_id CSV into node id lists, ordered by track id."""
    def parse(vals):
        tid, nid = (_int(v) for v in vals)
        return tid, nid

    tracks: dict[int, list[int]] = {}
    for tid, nid in _read_rows(path, parse, header="track_id,node_id",
                               key=lambda r: f"node id {r[1]}"):
        tracks.setdefault(tid, []).append(nid)
    return [tracks[tid] for tid in sorted(tracks)]


# ---------------------------------------------------------------------------
# sidecar files: embeddings, RoI grids, ground-truth masks

def write_embeddings(detections: list[Detection], path) -> None:
    """Write node_id,v0,...,vk rows, or nothing if a detection lacks its vector."""
    rows = []
    for d in detections:
        if d.appearance is None:
            raise ConfigError(f"detection {d.node_id} has no appearance vector")
        vals = ",".join(repr(float(v)) for v in d.appearance)
        rows.append(f"{d.node_id},{vals}\n")
    with open(path, "w") as fh:
        fh.writelines(rows)


def attach_embeddings(detections: list[Detection], path) -> None:
    """Fill detection.appearance from a node_id,v0,...,vk CSV in place."""
    width = None

    def parse(vals):
        nonlocal width
        if len(vals) < 2:
            raise ValueError("expected node_id plus at least one value")
        vec = np.asarray(vals[1:], dtype=np.float64)
        if width is None:
            width = vec.size
        elif vec.size != width:
            raise ValueError(f"dimension {vec.size} does not match earlier {width}")
        return _int(vals[0]), vec

    table = dict(_read_rows(path, parse, key=lambda r: f"node id {r[0]}"))
    missing = [d.node_id for d in detections if d.node_id not in table]
    if missing:
        raise ParseError(f"{path}: no embedding for node ids {missing[:5]}"
                         + ("..." if len(missing) > 5 else ""))
    for d in detections:
        d.appearance = table[d.node_id]


def write_roi_grids(detections: list[Detection], path) -> None:
    """Write node_id,h,w,c,values rows, or nothing if a detection lacks its grid."""
    rows = []
    for d in detections:
        if d.roi_grid is None:
            raise ConfigError(f"detection {d.node_id} has no roi grid")
        h, w, c = d.roi_grid.shape
        vals = ",".join(repr(float(v)) for v in d.roi_grid.reshape(-1))
        rows.append(f"{d.node_id},{h},{w},{c},{vals}\n")
    with open(path, "w") as fh:
        fh.writelines(rows)


def attach_roi_grids(detections: list[Detection], path) -> None:
    def parse(vals):
        h, w, c = _dims(vals[1:4], 3)
        grid = np.asarray(vals[4:], dtype=np.float64)
        if grid.size != h * w * c:
            raise ValueError(f"expected {h * w * c} values, got {grid.size}")
        return _int(vals[0]), grid.reshape(h, w, c)

    table = dict(_read_rows(path, parse, key=lambda r: f"node id {r[0]}"))
    missing = next((d.node_id for d in detections if d.node_id not in table), None)
    if missing is not None:
        raise ParseError(f"{path}: no roi grid for node id {missing}")
    for d in detections:
        d.roi_grid = table[d.node_id]


def _binary(mask: np.ndarray) -> bool:
    return bool(((mask == 0) | (mask == 1)).all())


def write_gt_masks(detections: list[Detection], path) -> None:
    """Write each detection's mask as a node_id,identity,frame,h,w,values row;
    a mask value other than 0 or 1 is a ConfigError and writes nothing."""
    rows = []
    for d in detections:
        if d.gt_mask is None:
            continue
        if not _binary(d.gt_mask):
            raise ConfigError(f"detection {d.node_id}: gt mask values must be 0 or 1")
        h, w = d.gt_mask.shape
        ident = -1 if d.gt_identity is None else d.gt_identity
        bits = ",".join(str(int(v)) for v in d.gt_mask.reshape(-1))
        rows.append(f"{d.node_id},{ident},{d.frame},{h},{w},{bits}\n")
    with open(path, "w") as fh:
        fh.writelines(rows)


def load_gt_masks(path) -> dict[int, tuple[int, int, np.ndarray]]:
    """Read node_id -> (identity, frame, mask) from a mask CSV."""
    def parse(vals):
        nid, ident, frame = (_int(v) for v in vals[:3])
        h, w = _dims(vals[3:5], 2)
        mask = np.asarray(vals[5:], dtype=np.float64)
        if mask.size != h * w:
            raise ValueError(f"expected {h * w} values, got {mask.size}")
        if not _binary(mask):
            raise ValueError("mask values must be 0 or 1")
        return nid, (ident, frame, mask.reshape(h, w))

    return dict(_read_rows(path, parse, key=lambda r: f"node id {r[0]}"))
