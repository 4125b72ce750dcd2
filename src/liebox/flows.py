"""Explicit Runge-Kutta integrators for polynomial vector fields.

``dopri5`` is the one numeric integrator: a vectorized adaptive
Dormand-Prince 5(4) with one step size per row, at the fixed tolerances
below.  ``VectorFieldSystem`` flows every field that has no exact Lie series
by it (single trajectories, batched generator flows and constant-control
mixture flows alike).  A row that leaves the domain box, underflows its
step or reaches the step cap comes back as NaN, so the harnesses count it as
non-finite.  Reference: Hairer-Norsett-Wanner, *Solving Ordinary
Differential Equations I* (2nd ed., 1993), sections II.4-II.5.

Fixed-step ``rk4_batch`` (``rk4`` is one row of it) has no library caller:
the tests use it as an independent reference and ``perfbench`` traces both
names.
"""

import numpy as np

# DOPRI5 per-step error tolerances, domain box half-width and step cap.
DOPRI5_RTOL = 1e-10
DOPRI5_ATOL = 1e-10
DOMAIN_BOX = 10.0
DOPRI5_MAX_STEPS = 100_000


class DomainEscapeError(RuntimeError):
    """A single flow (``VectorFieldSystem.flow``) ended outside the domain box."""


# Dormand-Prince 5(4) tableau; the last row of _A is the 5th-order weights,
# so the last stage is the field at the new point (first same as last).
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = tuple(b5 - b4 for b5, b4 in zip(_A[6] + (0.0,), (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40,
)))


def dopri5(fb, T, Y0):
    """Integrate y' = fb(y) from 0 to T over the rows of Y0; returns (N, n).

    ``fb`` maps an (N, n) array to (N, n); ``T`` is a scalar or has one
    (signed) entry per row.  Each row runs its own step size, so a row's
    result never depends on the other rows, and leaves the batch once it
    reaches its T.  The error of a step is controlled against DOPRI5_ATOL +
    DOPRI5_RTOL*|y| componentwise, in RMS over the components.  A row that
    starts or steps outside +-DOMAIN_BOX, has a non-finite T, underflows its
    step or reaches DOPRI5_MAX_STEPS steps comes back as NaN; nothing raises.
    """
    Y0 = np.asarray(Y0, dtype=float)
    N = Y0.shape[0]
    T = np.broadcast_to(np.asarray(T, dtype=float), (N,))
    start = (np.abs(Y0) <= DOMAIN_BOX).all(axis=1) & np.isfinite(T)
    out = Y0.copy()
    out[~start] = np.nan
    live = np.flatnonzero(start & (T != 0))
    Y, sign = Y0[live], np.sign(T[live])[:, None]
    total = np.abs(T[live])
    s, h = np.zeros(live.size), total.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        K0 = sign * fb(Y)
        for _ in range(DOPRI5_MAX_STEPS):
            if not live.size:
                break
            rest = total - s
            h = np.minimum(h, rest)
            hc = h[:, None]
            k = [K0]
            for a in _A[1:]:
                Ys = Y + hc * sum(c * kj for c, kj in zip(a, k) if c)
                k.append(sign * fb(Ys))
            # the last stage point is the 5th-order solution
            E = hc * sum(c * kj for c, kj in zip(_E, k) if c)
            sc = DOPRI5_ATOL + DOPRI5_RTOL * np.maximum(np.abs(Y), np.abs(Ys))
            err = np.sqrt(np.mean((E / sc) ** 2, axis=1))
            ok = err <= 1.0
            Y[ok], K0[ok], s[ok] = Ys[ok], k[6][ok], s[ok] + h[ok]
            done = ok & (h >= rest)
            # a non-finite error shrinks the step by the largest factor
            h = h * np.minimum(5.0, np.fmax(0.2, 0.9 * (err + 1e-300) ** -0.2))
            escaped = ok & ~(np.abs(Y) <= DOMAIN_BOX).all(axis=1)
            failed = ~done & (escaped | (h < 1e-14 * total))
            out[live[done]] = Y[done]
            out[live[failed]] = np.nan
            keep = ~(done | failed)
            if not keep.all():
                live, Y, K0, sign = live[keep], Y[keep], K0[keep], sign[keep]
                total, s, h = total[keep], s[keep], h[keep]
    out[live] = np.nan
    return out


def rk4(f, t, y0, steps=8):
    """Fixed-step RK4 of one point, as a tuple: one row of ``rk4_batch``."""
    fb = lambda Y: np.asarray([f(Y[0])], dtype=float)
    return tuple(float(v) for v in rk4_batch(fb, t, [y0], steps)[0])


def rk4_batch(fb, T, Y0, steps=4):
    """Vectorized RK4: Y0 has shape (N, n), T scalar or shape (N,)."""
    Y = np.asarray(Y0, dtype=float).copy()
    T = np.asarray(T, dtype=float)
    dt = (T / steps)[..., None] if T.ndim else T / steps
    for _ in range(steps):
        k1 = fb(Y)
        k2 = fb(Y + 0.5 * dt * k1)
        k3 = fb(Y + 0.5 * dt * k2)
        k4 = fb(Y + dt * k3)
        Y = Y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return Y
