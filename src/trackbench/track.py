"""Waypoint tracks, reference speeds, and tracking-error geometry.

A track is an ordered polyline of waypoints with per-waypoint reference
speeds, optionally closed into a loop.  All controllers measure themselves
against it: nearest-point projection, lookahead intersection for Pure
Pursuit, and the signed error triple (cross-track, heading, speed).

Sign convention: cross-track error is positive when the reference point
lies to the LEFT of the vehicle heading; positive steering turns left.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import wrap_angle
from .models import VehicleParams, VehicleState

# Segments scanned around the hint before falling back to a global query.
_HINT_BACK = 8
_HINT_FORWARD = 80
# A hinted result worse than this is re-checked globally (must exceed the
# harness off-track threshold so terminations are never decided on a stale
# window).
_HINT_TRUST_DIST = 6.0


@dataclass
class NearestPoint:
    x: float
    y: float
    v_ref: float
    index: int
    t: float
    distance: float
    s: float


@dataclass
class LookaheadResult:
    x: float
    y: float
    alpha: float
    # fallback: no circle intersection, nearest forward waypoint beyond the
    # circle was substituted.  end_of_track: a finite track ran out; the
    # point is clamped to the final waypoint.
    fallback: bool = False
    end_of_track: bool = False


@dataclass
class TrackingErrors:
    cross_track: float
    heading: float
    speed: float
    nearest_index: int
    distance: float
    s: float
    # parameter of the foot point along segment nearest_index
    t: float = 0.0


class Track:
    """Immutable waypoint polyline; queries are read-only."""

    def __init__(self, xs, ys, v_ref, closed: bool = False):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        vr = np.asarray(v_ref, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.shape != vr.shape:
            raise ValueError("xs, ys, v_ref must be equal-length 1-D arrays")
        if xs.size < 2:
            raise ValueError("a track needs at least 2 waypoints")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys)) and np.all(np.isfinite(vr))):
            raise ValueError("track coordinates and speeds must be finite")
        if np.any(vr < 0.0):
            raise ValueError("reference speeds must be >= 0")

        self.xs = xs
        self.ys = ys
        self.v_ref = vr
        self.closed = bool(closed)
        self.npts = xs.size
        self.nseg = self.npts if self.closed else self.npts - 1

        nxt = (np.arange(self.nseg) + 1) % self.npts
        dx = xs[nxt] - xs[: self.nseg]
        dy = ys[nxt] - ys[: self.nseg]
        self.seg_len = np.hypot(dx, dy)
        if np.any(self.seg_len <= 1e-6):
            raise ValueError("consecutive waypoints must be more than 1e-6 m apart")
        self.seg_tangent = np.arctan2(dy, dx)
        # cum_s[i] = arc length at waypoint i; cum_s[nseg] = total length
        self.cum_s = np.concatenate(([0.0], np.cumsum(self.seg_len)))
        self.length = float(self.cum_s[-1])
        self._curvature = self._waypoint_curvature()

    # ------------------------------------------------------------------ io

    @classmethod
    def from_csv(cls, path, closed: bool = False, v_ref: float | None = None) -> "Track":
        """Load `x,y` or `x,y,v_ref` rows.

        A given v_ref sets every waypoint's reference speed, replacing the
        file's column; an `x,y` file without one gets 8 m/s, the default of
        the generated tracks.
        """
        xs, ys, vr = [], [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [c.strip() for c in next(reader, [])[:3]]
            if header not in (["x", "y"], ["x", "y", "v_ref"]):
                raise ValueError(f"{path}: expected CSV header 'x,y' or 'x,y,v_ref'")
            for row in reader:
                if not row:
                    continue
                if len(row) < len(header):
                    raise ValueError(f"{path} line {reader.line_num}: expected "
                                     f"{len(header)} columns, got {len(row)}")
                xs.append(float(row[0]))
                ys.append(float(row[1]))
                if len(header) == 3:
                    vr.append(float(row[2]))
        if v_ref is not None or len(header) == 2:
            vr = np.full(len(xs), 8.0 if v_ref is None else v_ref)
        return cls(xs, ys, vr, closed)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("x,y,v_ref\n")
            for x, y, v in zip(self.xs, self.ys, self.v_ref):
                fh.write(f"{x:.12g},{y:.12g},{v:.12g}\n")

    # ------------------------------------------------------- geometry utils

    def _waypoint_curvature(self) -> np.ndarray:
        """Signed curvature per waypoint from tangent turn over arc length."""
        kappa = np.zeros(self.npts)
        for i in range(self.npts):
            if self.closed:
                prev_seg = (i - 1) % self.nseg
                next_seg = i % self.nseg
            else:
                if i == 0 or i >= self.nseg:
                    continue
                prev_seg = i - 1
                next_seg = i
            dth = wrap_angle(self.seg_tangent[next_seg] - self.seg_tangent[prev_seg])
            ds = 0.5 * (self.seg_len[prev_seg] + self.seg_len[next_seg])
            kappa[i] = dth / ds
        return kappa

    def seg_end_index(self, seg: int) -> int:
        return (seg + 1) % self.npts

    def point_on_segment(self, seg: int, t: float) -> tuple[float, float]:
        j = self.seg_end_index(seg)
        x = self.xs[seg] + t * (self.xs[j] - self.xs[seg])
        y = self.ys[seg] + t * (self.ys[j] - self.ys[seg])
        return float(x), float(y)

    def v_ref_on_segment(self, seg: int, t: float) -> float:
        j = self.seg_end_index(seg)
        return float(self.v_ref[seg] + t * (self.v_ref[j] - self.v_ref[seg]))

    def arc_length_at(self, seg: int, t: float) -> float:
        return float(self.cum_s[seg] + t * self.seg_len[seg])

    def locate_s(self, s: float) -> tuple[int, float]:
        """Map arc length to (segment, parameter); wraps when closed,
        clamps to the ends when open."""
        if self.closed:
            s = s % self.length
        else:
            s = min(max(s, 0.0), self.length)
        seg = int(np.searchsorted(self.cum_s, s, side="right")) - 1
        seg = min(max(seg, 0), self.nseg - 1)
        t = (s - self.cum_s[seg]) / self.seg_len[seg]
        return seg, float(min(max(t, 0.0), 1.0))

    def point_at_s(self, s: float) -> tuple[float, float]:
        seg, t = self.locate_s(s)
        return self.point_on_segment(seg, t)

    def tangent_at_s(self, s: float) -> float:
        seg, _ = self.locate_s(s)
        return float(self.seg_tangent[seg])

    def v_ref_at_s(self, s: float) -> float:
        seg, t = self.locate_s(s)
        return self.v_ref_on_segment(seg, t)

    def curvature_at_s(self, s: float) -> float:
        """Curvature linearly interpolated between waypoint estimates."""
        seg, t = self.locate_s(s)
        j = self.seg_end_index(seg)
        return float(self._curvature[seg] + t * (self._curvature[j] - self._curvature[seg]))

    # ------------------------------------------------------------- queries

    def nearest(self, px: float, py: float, hint: int | None = None) -> NearestPoint:
        """Closest interpolated point; exact ties keep the lowest index.

        A hint narrows the scan to a window around the previous match and
        falls back to the full track when the windowed result is suspect.
        """
        if hint is not None:
            start = (hint - _HINT_BACK) % self.nseg if self.closed else max(hint - _HINT_BACK, 0)
            count = min(_HINT_BACK + _HINT_FORWARD, self.nseg)
            seg, t, dist = kernels.nearest_on_polyline(
                self.xs, self.ys, px, py, start, count, self.nseg, self.npts, self.closed
            )
            if dist <= _HINT_TRUST_DIST:
                return self._nearest_result(seg, t, dist)
        seg, t, dist = kernels.nearest_on_polyline_numpy(
            self.xs, self.ys, px, py, self.nseg, self.npts
        )
        return self._nearest_result(seg, t, dist)

    def _nearest_result(self, seg: int, t: float, dist: float) -> NearestPoint:
        x, y = self.point_on_segment(seg, t)
        return NearestPoint(
            x=x,
            y=y,
            v_ref=self.v_ref_on_segment(seg, t),
            index=int(seg),
            t=float(t),
            distance=float(dist),
            s=self.arc_length_at(seg, t),
        )

    def lookahead(
        self,
        px: float,
        py: float,
        heading: float,
        d_l: float,
        foot: TrackingErrors | None = None,
    ) -> LookaheadResult:
        """First forward intersection of the radius-d_l circle with the track.

        Searched onward from the foot point of `foot` (errors already
        measured at (px, py)), or of a global nearest query without it.  If
        the track never enters the circle the nearest forward waypoint beyond
        it substitutes (flagged fallback); if a finite track is exhausted the
        final waypoint is returned with end_of_track set.
        """
        if not d_l > 0.0:
            raise ValueError(f"lookahead distance must be > 0, got {d_l}")
        if foot is None:
            near = self.nearest(px, py)
            start, t_lo = near.index, near.t
        else:
            start, t_lo = foot.nearest_index, foot.t

        seg = start
        for _ in range(self.nseg):
            ax, ay = self.point_on_segment(seg, 0.0)
            j = self.seg_end_index(seg)
            bx = float(self.xs[j])
            by = float(self.ys[j])
            dx = bx - ax
            dy = by - ay
            a = dx * dx + dy * dy
            fx = ax - px
            fy = ay - py
            b = 2.0 * (fx * dx + fy * dy)
            c = fx * fx + fy * fy - d_l * d_l
            disc = b * b - 4.0 * a * c
            if disc >= 0.0:
                root = math.sqrt(disc)
                for tt in ((-b - root) / (2.0 * a), (-b + root) / (2.0 * a)):
                    if t_lo <= tt <= 1.0:
                        tx = ax + tt * dx
                        ty = ay + tt * dy
                        return LookaheadResult(
                            x=tx, y=ty, alpha=self._alpha(px, py, heading, tx, ty)
                        )
            seg += 1
            if self.closed:
                seg %= self.nseg
            elif seg >= self.nseg:
                break
            t_lo = 0.0

        # No intersection.  Either the vehicle sits farther than d_l from
        # every remaining point (substitute the nearest forward waypoint
        # beyond the circle) or a finite track ran out inside the circle
        # (clamp to the final waypoint and signal end-of-track).
        for k in range(self.npts):
            idx = (start + 1 + k) % self.npts if self.closed else start + 1 + k
            if idx >= self.npts:
                break
            wx = float(self.xs[idx])
            wy = float(self.ys[idx])
            if math.hypot(wx - px, wy - py) > d_l:
                return LookaheadResult(
                    x=wx, y=wy, alpha=self._alpha(px, py, heading, wx, wy), fallback=True
                )
        tx = float(self.xs[-1])
        ty = float(self.ys[-1])
        return LookaheadResult(
            x=tx, y=ty, alpha=self._alpha(px, py, heading, tx, ty),
            fallback=self.closed, end_of_track=not self.closed,
        )

    @staticmethod
    def _alpha(px: float, py: float, heading: float, tx: float, ty: float) -> float:
        return wrap_angle(math.atan2(ty - py, tx - px) - heading)

    def tracking_errors(
        self,
        state: VehicleState,
        frame: str,
        params: VehicleParams,
        hint: int | None = None,
    ) -> TrackingErrors:
        """Signed error triple measured at the chosen reference frame.

        frame: 'cog', 'front_axle' (forward by lf), or 'rear_axle' (back by
        lr).  Cross-track magnitude is the distance to the foot point; the
        sign is the side of the heading the foot lies on (left positive).
        """
        if frame == "cog":
            off = 0.0
        elif frame == "front_axle":
            off = params.dist_front
        elif frame == "rear_axle":
            off = -params.dist_rear
        else:
            raise ValueError(f"unknown frame {frame!r}")
        px = state.x + off * math.cos(state.theta)
        py = state.y + off * math.sin(state.theta)
        near = self.nearest(px, py, hint)
        side = -math.sin(state.theta) * (near.x - px) + math.cos(state.theta) * (near.y - py)
        cross = near.distance if side >= 0.0 else -near.distance
        heading_err = wrap_angle(float(self.seg_tangent[near.index]) - state.theta)
        return TrackingErrors(
            cross_track=cross,
            heading=heading_err,
            speed=near.v_ref - state.v,
            nearest_index=near.index,
            distance=near.distance,
            s=near.s,
            t=near.t,
        )


# ------------------------------------------------------------- generators


def straight_track(
    length: float = 200.0,
    spacing: float = 1.0,
    v_ref: float = 8.0,
    start: tuple[float, float] = (0.0, 0.0),
    heading: float = 0.0,
) -> Track:
    n = max(int(round(length / spacing)), 1)
    s = np.linspace(0.0, length, n + 1)
    xs = start[0] + s * math.cos(heading)
    ys = start[1] + s * math.sin(heading)
    return Track(xs, ys, np.full(n + 1, v_ref), closed=False)


def circle_track(radius: float = 30.0, spacing: float = 1.0, v_ref: float = 8.0) -> Track:
    n = max(int(round(2.0 * math.pi * radius / spacing)), 8)
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    # start at the bottom heading east so the lap runs counter-clockwise
    xs = radius * np.sin(ang)
    ys = radius * (1.0 - np.cos(ang))
    return Track(xs, ys, np.full(n, v_ref), closed=True)


def racetrack(
    straight: float = 100.0,
    radius: float = 20.0,
    spacing: float = 1.0,
    v_ref: float = 8.0,
) -> Track:
    """Two straights joined by two 180-degree arcs, counter-clockwise."""
    xs: list[float] = []
    ys: list[float] = []

    n1 = max(int(round(straight / spacing)), 2)
    for i in range(n1):
        xs.append(straight * i / n1)
        ys.append(0.0)
    narc = max(int(round(math.pi * radius / spacing)), 4)
    for i in range(narc):
        a = -math.pi / 2 + math.pi * i / narc
        xs.append(straight + radius * math.cos(a))
        ys.append(radius + radius * math.sin(a))
    for i in range(n1):
        xs.append(straight * (1.0 - i / n1))
        ys.append(2.0 * radius)
    for i in range(narc):
        a = math.pi / 2 + math.pi * i / narc
        xs.append(radius * math.cos(a))
        ys.append(radius + radius * math.sin(a))
    vr = np.full(len(xs), v_ref)
    return Track(np.array(xs), np.array(ys), vr, closed=True)
