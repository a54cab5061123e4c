"""Numerically hot kernels.

Compiled with numba when it is importable and the ``TRACKBENCH_NUMBA``
environment variable is not set to ``0``/``false``/``off``/``no``.  Otherwise
the same source runs as plain Python, and the full-track polyline scan
switches to a vectorized numpy path (see :mod:`trackbench.track`).
``USING_NUMBA`` reports which path is active.
"""

from __future__ import annotations

import math
import os

import numpy as np


def _flag_enabled() -> bool:
    raw = os.environ.get("TRACKBENCH_NUMBA", "1").strip().lower()
    return raw not in {"0", "false", "off", "no"}


USING_NUMBA = False

if _flag_enabled():
    try:
        from numba import njit

        USING_NUMBA = True
    except ImportError:
        pass

if not USING_NUMBA:

    def njit(*args, **kwargs):
        # no-op stand-in so the same functions run interpreted
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco


TWO_PI = 2.0 * math.pi


@njit(cache=True)
def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - theta) % TWO_PI


@njit(cache=True)
def kin_step(x, y, theta, v, accel, steer, dt, wheelbase, lr):
    """One explicit-Euler step of the kinematic bicycle model."""
    beta = math.atan(math.tan(steer) * lr / wheelbase)
    nx = x + v * math.cos(theta + beta) * dt
    ny = y + v * math.sin(theta + beta) * dt
    ntheta = wrap_angle(theta + v * math.tan(steer) * math.cos(beta) / wheelbase * dt)
    nv = v + accel * dt
    return nx, ny, ntheta, nv


@njit(cache=True)
def kin_rollout(x, y, theta, v, seq, dt, wheelbase, lr, out):
    """Roll the kinematic model out[i] = state after i+1 steps.

    seq is (m, 2) columns (accel, steer); the last row is held for steps
    beyond m.  out must be (p, 4).
    """
    p = out.shape[0]
    m = seq.shape[0]
    for i in range(p):
        j = i if i < m else m - 1
        x, y, theta, v = kin_step(x, y, theta, v, seq[j, 0], seq[j, 1], dt, wheelbase, lr)
        out[i, 0] = x
        out[i, 1] = y
        out[i, 2] = theta
        out[i, 3] = v
    return out


@njit(cache=True)
def mpc_cost(
    x,
    y,
    theta,
    v,
    seq,
    prev_a,
    prev_d,
    refs,
    dt,
    wheelbase,
    lr,
    w_pos,
    w_head,
    w_vel,
    w_da,
    w_ds,
    v_soft_max,
    accel_rate_max,
    steer_rate_max,
    soft_penalty,
):
    """Fused rollout + tracking cost used by the receding-horizon optimizer.

    refs is (p, 4) rows (x, y, theta, v_ref).  seq is (m, 2), held after m.
    Soft terms (rate-of-change and speed envelope) are quadratic in the
    violation; a non-positive bound disables the corresponding term.

    The kinematic step and both angle wraps are written out inline, with the
    operations of kin_step and wrap_angle in the same order, so the result
    equals a kin_step rollout bit for bit.  Each step reads its array
    elements into Python floats first: interpreted, arithmetic on numpy
    scalars and a call per step cost about as much as the arithmetic itself.

    Only the first m steps read a new row.  They add the rate terms and
    compute the steer terms tan(d), beta and cos(beta), which the held steps
    reuse.  A held step's rate changes are exactly zero, so with finite rate
    weights (MpcWeights requires them) its rate terms add nothing.
    """
    p = refs.shape[0]
    m = seq.shape[0]
    x = float(x)
    y = float(y)
    theta = float(theta)
    v = float(v)
    pa = float(prev_a)
    pd = float(prev_d)
    a = pa
    td = beta = cb = 0.0
    cost = 0.0
    for i in range(p):
        if i < m:
            a = float(seq[i, 0])
            d = float(seq[i, 1])
            da = a - pa
            dd = d - pd
            cost += w_da * da * da + w_ds * dd * dd
            if accel_rate_max > 0.0:
                ex = abs(da) - accel_rate_max * dt
                if ex > 0.0:
                    cost += soft_penalty * ex * ex
            if steer_rate_max > 0.0:
                ex = abs(dd) - steer_rate_max * dt
                if ex > 0.0:
                    cost += soft_penalty * ex * ex
            pa = a
            pd = d
            td = math.tan(d)
            beta = math.atan(td * lr / wheelbase)
            cb = math.cos(beta)
        # kin_step, then wrap_angle on the new heading
        nx = x + v * math.cos(theta + beta) * dt
        ny = y + v * math.sin(theta + beta) * dt
        theta = theta + v * td * cb / wheelbase * dt
        theta = math.pi - (math.pi - theta) % TWO_PI
        v = v + a * dt
        x = nx
        y = ny
        dx = x - float(refs[i, 0])
        dy = y - float(refs[i, 1])
        eh = math.pi - (math.pi - (theta - float(refs[i, 2]))) % TWO_PI
        ev = float(refs[i, 3]) - v
        cost += w_pos * (dx * dx + dy * dy) + w_head * eh * eh + w_vel * ev * ev
        if v_soft_max > 0.0:
            over = v - v_soft_max
            if over > 0.0:
                cost += soft_penalty * over * over
    return cost


@njit(cache=True)
def nearest_on_polyline(xs, ys, px, py, start, count, nseg, npts, closed):
    """Scan `count` segments beginning at `start` for the closest point.

    Segment i runs P[i] -> P[(i+1) % npts]; for open tracks nseg = npts-1 and
    the scan stops at the last segment.  Strict `<` keeps the first (lowest
    index in scan order) of exactly-tied segments.  Returns (segment index,
    parameter t in [0,1], distance).
    """
    best_d2 = np.inf
    best_i = -1
    best_t = 0.0
    for k in range(count):
        i = start + k
        if closed:
            i = i % nseg
        elif i >= nseg:
            break
        ax = xs[i]
        ay = ys[i]
        nxt = (i + 1) % npts
        bx = xs[nxt]
        by = ys[nxt]
        dx = bx - ax
        dy = by - ay
        seg2 = dx * dx + dy * dy
        t = ((px - ax) * dx + (py - ay) * dy) / seg2
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        fx = ax + t * dx
        fy = ay + t * dy
        d2 = (px - fx) * (px - fx) + (py - fy) * (py - fy)
        if d2 < best_d2:
            best_d2 = d2
            best_i = i
            best_t = t
    return best_i, best_t, math.sqrt(best_d2)


def nearest_on_polyline_numpy(xs, ys, px, py, nseg, npts):
    """Vectorized full-track scan; same contract as a start=0 full-count
    kernel scan (np.argmin keeps the lowest index on exact ties)."""
    idx = np.arange(nseg)
    ax = xs[idx]
    ay = ys[idx]
    bx = xs[(idx + 1) % npts]
    by = ys[(idx + 1) % npts]
    dx = bx - ax
    dy = by - ay
    seg2 = dx * dx + dy * dy
    t = ((px - ax) * dx + (py - ay) * dy) / seg2
    np.clip(t, 0.0, 1.0, out=t)
    fx = ax + t * dx
    fy = ay + t * dy
    d2 = (px - fx) ** 2 + (py - fy) ** 2
    i = int(np.argmin(d2))
    return i, float(t[i]), float(math.sqrt(d2[i]))
