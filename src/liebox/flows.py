"""Explicit Runge-Kutta integrators for polynomial vector fields.

Adaptive Dormand-Prince 5(4) integrates single trajectories at the fixed
tolerances below (``VectorFieldSystem.flow``); its error control makes the
tolerance contract hold on arbitrary user models, and a trajectory that
leaves the domain box raises.  Vectorized fixed-step RK4 serves batches of
non-triangular fields, which have no exact flow: every batched leg there
takes ``RK4_STEPS`` steps.  The scalar ``rk4`` is one row of ``rk4_batch``;
it has no library caller and stays because ``perfbench`` traces it by name.
"""

import numpy as np

# Steps per batched RK4 leg of a non-triangular field (the only fallback).
RK4_STEPS = 32
# DOPRI5 per-step error tolerances, domain box half-width and step cap.
DOPRI5_RTOL = 1e-10
DOPRI5_ATOL = 1e-10
DOMAIN_BOX = 10.0
DOPRI5_MAX_STEPS = 100_000


class DomainEscapeError(RuntimeError):
    """Trajectory left the configured domain box."""


class StepUnderflowError(RuntimeError):
    """Adaptive step fell below the representable minimum."""


# Dormand-Prince 5(4) tableau
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


def _check_box(y):
    if any(abs(v) > DOMAIN_BOX for v in y):
        raise DomainEscapeError(f"point {tuple(y)} escaped box +-{DOMAIN_BOX}")


def dopri5(f, t, y0):
    """Integrate y' = f(y) from 0 to t (t may be negative); returns a tuple.

    ``f`` maps a tuple of floats to a tuple of floats.  Error per step is
    controlled against DOPRI5_ATOL + DOPRI5_RTOL*|y| componentwise.
    """
    y = tuple(float(v) for v in y0)
    _check_box(y)
    if t == 0:
        return y
    sign = 1.0 if t > 0 else -1.0
    total = abs(t)
    if sign < 0:
        g = f
        f = lambda p: tuple(-v for v in g(p))
    s = 0.0
    h = total
    n = len(y)
    k = [None] * 7
    for _ in range(DOPRI5_MAX_STEPS):
        if s >= total:
            return y
        h = min(h, total - s)
        k[0] = f(y)
        for stage in range(1, 7):
            a = _A[stage]
            yy = tuple(
                y[i] + h * sum(a[j] * k[j][i] for j in range(stage))
                for i in range(n)
            )
            k[stage] = f(yy)
        y5 = tuple(
            y[i] + h * sum(_B5[j] * k[j][i] for j in range(7)) for i in range(n)
        )
        err = 0.0
        for i in range(n):
            e = h * sum((_B5[j] - _B4[j]) * k[j][i] for j in range(7))
            sc = DOPRI5_ATOL + DOPRI5_RTOL * max(abs(y[i]), abs(y5[i]))
            err += (e / sc) ** 2
        err = (err / n) ** 0.5
        if err <= 1.0:
            y = y5
            _check_box(y)
            s += h
            h *= min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))
        else:
            h *= max(0.2, 0.9 * err**-0.2)
        if h < 1e-14 * total:
            raise StepUnderflowError(f"step underflow at s={s} of {total}")
    raise StepUnderflowError(f"exceeded {DOPRI5_MAX_STEPS} steps")


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
