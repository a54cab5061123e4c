"""Numerically hot kernels, run as plain Python: the plant step and rollout,
the MPC horizon cost, and the nearest-point scans.

Both nearest-point scans read a segment table built once per track
(segment_table): a hinted query scans a window of it with the scalar loop,
an unhinted one scans all of it with numpy (see :mod:`trackbench.track`).
"""

from __future__ import annotations

import math

import numpy as np

# nothing compiles these kernels; kept because perfbench's machine record reads it
USING_NUMBA = False

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - theta) % TWO_PI


def kin_step(x, y, theta, v, accel, steer, dt, wheelbase, lr):
    """One explicit-Euler step of the kinematic bicycle model."""
    beta = math.atan(math.tan(steer) * lr / wheelbase)
    nx = x + v * math.cos(theta + beta) * dt
    ny = y + v * math.sin(theta + beta) * dt
    ntheta = wrap_angle(theta + v * math.tan(steer) * math.cos(beta) / wheelbase * dt)
    nv = v + accel * dt
    return nx, ny, ntheta, nv


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


def segment_table(xs, ys, closed):
    """Per-segment geometry (start x, start y, dx, dy, dx*dx + dy*dy).

    Segment i runs P[i] -> P[(i+1) % npts]; an open track has npts-1
    segments.  A closed track's table holds its segments twice, so that any
    window of at most nseg segments starting below nseg is a plain index
    range.
    """
    n = xs.size
    nseg = n if closed else n - 1
    nxt = (np.arange(nseg) + 1) % n
    ax = xs[:nseg]
    ay = ys[:nseg]
    dx = xs[nxt] - ax
    dy = ys[nxt] - ay
    seg2 = dx * dx + dy * dy
    cols = (ax, ay, dx, dy, seg2)
    if closed:
        cols = tuple(np.concatenate((c, c)) for c in cols)
    return cols


def nearest_on_polyline(ax, ay, dx, dy, seg2, px, py, start, stop):
    """Scan segments start..stop-1 of a segment table for the closest point.

    Strict `<` keeps the first (lowest table index) of exactly-tied
    segments.  Returns (table index, parameter t in [0,1], distance).
    """
    best_d2 = np.inf
    best_i = -1
    best_t = 0.0
    for i in range(start, stop):
        x0 = ax[i]
        y0 = ay[i]
        ex = dx[i]
        ey = dy[i]
        t = ((px - x0) * ex + (py - y0) * ey) / seg2[i]
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        ux = px - (x0 + t * ex)
        uy = py - (y0 + t * ey)
        d2 = ux * ux + uy * uy
        if d2 < best_d2:
            best_d2 = d2
            best_i = i
            best_t = t
    return best_i, best_t, math.sqrt(best_d2)


def nearest_on_polyline_numpy(ax, ay, dx, dy, seg2, px, py):
    """Vectorized scan of every segment of a table, each once (the first
    nseg rows of a closed track's); same contract as a full
    nearest_on_polyline scan (np.argmin keeps the lowest index on exact
    ties)."""
    t = ((px - ax) * dx + (py - ay) * dy) / seg2
    np.clip(t, 0.0, 1.0, out=t)
    fx = ax + t * dx
    fy = ay + t * dy
    d2 = (px - fx) ** 2 + (py - fy) ** 2
    i = int(np.argmin(d2))
    return i, float(t[i]), float(math.sqrt(d2[i]))
