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
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import kernels
# bound at import: perfbench's tracer times the module attribute
# kernels.nearest_on_polyline_numpy as the global scan, so a window scan
# called through it would read as a fallback
from .kernels import nearest_on_polyline_numpy as _numpy_scan
from .kernels import wrap_angle
from .models import VehicleParams

# Segments scanned around the hint before falling back to a global query.
_HINT_BACK = 8
_HINT_FORWARD = 80
# A hinted result worse than this is re-checked globally (must exceed the
# harness off-track threshold so terminations are never decided on a stale
# window).
_HINT_TRUST_DIST = 6.0


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
    s: float
    # parameter of the foot point along segment nearest_index
    t: float = 0.0


class Track:
    """Immutable waypoint polyline: it holds read-only copies of its inputs
    and every array derived from them, so queries never see stale geometry."""

    def __init__(self, xs, ys, v_ref, closed: bool = False):
        xs = np.array(xs, dtype=np.float64)
        ys = np.array(ys, dtype=np.float64)
        vr = np.array(v_ref, dtype=np.float64)
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

        # (start x, start y, dx, dy, dx*dx + dy*dy) per segment, twice over
        # on a closed track so that a hinted window never wraps
        self._table = kernels.segment_table(xs, ys, self.closed)
        self._segments = tuple(col[: self.nseg] for col in self._table)
        _, _, dx, dy, seg2 = self._segments
        self.seg_len = np.hypot(dx, dy)
        if np.any(self.seg_len <= 1e-6):
            raise ValueError("consecutive waypoints must be more than 1e-6 m apart")
        self.seg_tangent = np.arctan2(dy, dx)
        # cum_s[i] = arc length at waypoint i; cum_s[nseg] = total length
        self.cum_s = np.concatenate(([0.0], np.cumsum(self.seg_len)))
        self.length = float(self.cum_s[-1])
        self._curvature = self._waypoint_curvature()
        # a segment's change in v_ref and curvature, end minus start
        nxt = (np.arange(self.nseg) + 1) % self.npts
        dv = vr[nxt] - vr[: self.nseg]
        dk = self._curvature[nxt] - self._curvature[: self.nseg]
        for arr in (xs, ys, vr, self.seg_len, self.seg_tangent, self.cum_s,
                    self._curvature, dv, dk, *self._table, *self._segments):
            arr.flags.writeable = False

        # Read-only memoryviews for the O(1) accessors: an element reads as
        # a Python float, without making a numpy scalar or a copy.
        view = memoryview
        self._x, self._y, self._v, self._k = view(xs), view(ys), view(vr), view(self._curvature)
        self._dx, self._dy, self._seg2 = view(dx), view(dy), view(seg2)
        self._dv, self._dk = view(dv), view(dk)
        self._len, self._cum, self._tangent = (
            view(self.seg_len), view(self.cum_s), view(self.seg_tangent))

    def __reduce__(self):
        # memoryviews do not pickle; a track is rebuilt from its inputs
        return type(self), (self.xs, self.ys, self.v_ref, self.closed)

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

    # ------------------------------------------------------- geometry utils

    def _waypoint_curvature(self) -> np.ndarray:
        """Signed curvature per waypoint: the turn from the segment before it
        to the one after, over their mean length; 0 at an open track's ends."""
        tangent, length = self.seg_tangent, self.seg_len
        if self.closed:
            # waypoint 0 joins the last segment to the first
            tangent = np.concatenate((tangent[-1:], tangent))
            length = np.concatenate((length[-1:], length))
        kappa = wrap_angle(np.diff(tangent)) / (0.5 * (length[:-1] + length[1:]))
        return kappa if self.closed else np.concatenate(([0.0], kappa, [0.0]))

    def point_on_segment(self, seg: int, t: float) -> tuple[float, float]:
        return float(self._x[seg] + t * self._dx[seg]), float(self._y[seg] + t * self._dy[seg])

    def v_ref_on_segment(self, seg: int, t: float) -> float:
        return float(self._v[seg] + t * self._dv[seg])

    def arc_length_at(self, seg: int, t: float) -> float:
        return float(self._cum[seg] + t * self._len[seg])

    def locate_s(self, s: float) -> tuple[int, float]:
        """Map arc length to (segment, parameter); wraps when closed,
        clamps to the ends when open."""
        if self.closed:
            s = s % self.length
        else:
            s = min(max(s, 0.0), self.length)
        seg = bisect_right(self._cum, s) - 1
        seg = min(max(seg, 0), self.nseg - 1)
        t = (s - self._cum[seg]) / self._len[seg]
        return seg, float(min(max(t, 0.0), 1.0))

    def point_at_s(self, s: float) -> tuple[float, float]:
        seg, t = self.locate_s(s)
        return self.point_on_segment(seg, t)

    def tangent_at_s(self, s: float) -> float:
        seg, _ = self.locate_s(s)
        return self._tangent[seg]

    def v_ref_at_s(self, s: float) -> float:
        seg, t = self.locate_s(s)
        return self.v_ref_on_segment(seg, t)

    def curvature_at_s(self, s: float) -> float:
        """Curvature linearly interpolated between waypoint estimates."""
        seg, t = self.locate_s(s)
        return float(self._k[seg] + t * self._dk[seg])

    # ------------------------------------------------------------- queries

    def nearest(self, px: float, py: float, hint: int | None = None, *,
                numpy_window: bool = False) -> tuple[int, float, float]:
        """(segment, t, distance) of the closest interpolated point.

        A hint narrows the scan to a window around the previous match and
        falls back to the full track when the windowed result is suspect.
        Exact ties keep the first segment in window order when hinted (on a
        closed track a window across the seam keeps segment nseg-1 over
        segment 0) and the lowest index otherwise.

        numpy_window scans the hinted window with one numpy pass instead of
        the scalar loop; both return the same bits.  Only
        learning.build_observation sets it.  The simulation harness keeps
        the loop until perfbench's peak memory stops growing with its pass
        count (ROADMAP item 1): with the numpy window a classical_grid pass
        is about 4x shorter, so 6-8 passes fit in a run instead of 1-2 and
        its peak memory reads about twice as high.  Then the flag and the
        loop kernel are deleted.
        """
        if hint is not None:
            start = (hint - _HINT_BACK) % self.nseg if self.closed else max(hint - _HINT_BACK, 0)
            stop = start + min(_HINT_BACK + _HINT_FORWARD, self.nseg)
            if not self.closed:
                stop = min(stop, self.nseg)
            if numpy_window:
                seg, t, dist = _numpy_scan(*(c[start:stop] for c in self._table), px, py)
                seg += start
            else:
                seg, t, dist = kernels.nearest_on_polyline(*self._table, px, py, start, stop)
            if dist <= _HINT_TRUST_DIST:
                return int(seg % self.nseg), float(t), float(dist)
        seg, t, dist = kernels.nearest_on_polyline_numpy(*self._segments, px, py)
        return int(seg), float(t), float(dist)

    def lookahead(
        self,
        px: float,
        py: float,
        heading: float,
        d_l: float,
        foot: TrackingErrors,
    ) -> LookaheadResult:
        """First forward intersection of the radius-d_l circle with the track.

        Searched onward from the foot point of `foot`, the errors already
        measured at (px, py).  If the track never enters the circle the
        nearest forward waypoint beyond it substitutes (flagged fallback); if
        a finite track is exhausted the final waypoint is returned with
        end_of_track set.
        """
        if not d_l > 0.0:
            raise ValueError(f"lookahead distance must be > 0, got {d_l}")
        start, t_lo = foot.nearest_index, foot.t

        seg = start
        for _ in range(self.nseg):
            ax = self._x[seg]
            ay = self._y[seg]
            dx = self._dx[seg]
            dy = self._dy[seg]
            a = self._seg2[seg]
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
            wx = self._x[idx]
            wy = self._y[idx]
            if math.hypot(wx - px, wy - py) > d_l:
                return LookaheadResult(
                    x=wx, y=wy, alpha=self._alpha(px, py, heading, wx, wy), fallback=True
                )
        tx = self._x[-1]
        ty = self._y[-1]
        return LookaheadResult(
            x=tx, y=ty, alpha=self._alpha(px, py, heading, tx, ty),
            fallback=self.closed, end_of_track=not self.closed,
        )

    @staticmethod
    def _alpha(px: float, py: float, heading: float, tx: float, ty: float) -> float:
        return wrap_angle(math.atan2(ty - py, tx - px) - heading)

    def tracking_errors(
        self,
        state: tuple[float, float, float, float],
        frame: str,
        params: VehicleParams,
        hint: int | None = None,
        *,
        numpy_window: bool = False,
    ) -> TrackingErrors:
        """Signed error triple of the state (x, y, theta, v), measured at the
        chosen reference frame.

        frame: 'cog', 'front_axle' (forward by lf), or 'rear_axle' (back by
        lr).  Cross-track magnitude is the distance to the foot point; the
        sign is the side of the heading the foot lies on (left positive).
        numpy_window is passed to :meth:`nearest`.
        """
        if frame == "cog":
            off = 0.0
        elif frame == "front_axle":
            off = params.dist_front
        elif frame == "rear_axle":
            off = -params.dist_rear
        else:
            raise ValueError(f"unknown frame {frame!r}")
        x, y, theta, v = state
        px = x + off * math.cos(theta)
        py = y + off * math.sin(theta)
        seg, t, dist = self.nearest(px, py, hint, numpy_window=numpy_window)
        fx, fy = self.point_on_segment(seg, t)
        side = -math.sin(theta) * (fx - px) + math.cos(theta) * (fy - py)
        return TrackingErrors(
            cross_track=dist if side >= 0.0 else -dist,
            heading=wrap_angle(self._tangent[seg] - theta),
            speed=self.v_ref_on_segment(seg, t) - v,
            nearest_index=seg,
            s=self.arc_length_at(seg, t),
            t=t,
        )


# ------------------------------------------------------------- generators


def _require_sizes(**sizes: float) -> None:
    for name, value in sizes.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")


def straight_track(
    length: float = 200.0,
    spacing: float = 1.0,
    v_ref: float = 8.0,
    start: tuple[float, float] = (0.0, 0.0),
    heading: float = 0.0,
) -> Track:
    _require_sizes(length=length, spacing=spacing)
    if not (isinstance(start, (list, tuple)) and len(start) == 2 and all(
            isinstance(c, (int, float)) and not isinstance(c, bool) and math.isfinite(c)
            for c in start)):
        raise ValueError(f"start must be two finite numbers [x, y], got {start!r}")
    if not math.isfinite(heading):
        raise ValueError(f"heading must be finite, got {heading}")
    n = max(int(round(length / spacing)), 1)
    s = np.linspace(0.0, length, n + 1)
    xs = start[0] + s * math.cos(heading)
    ys = start[1] + s * math.sin(heading)
    return Track(xs, ys, np.full(n + 1, v_ref), closed=False)


def circle_track(radius: float = 30.0, spacing: float = 1.0, v_ref: float = 8.0) -> Track:
    _require_sizes(radius=radius, spacing=spacing)
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
    _require_sizes(straight=straight, radius=radius, spacing=spacing)
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
