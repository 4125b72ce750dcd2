"""Explicit Runge-Kutta integrators for polynomial vector fields.

An adaptive Dormand-Prince 5(4) scheme integrates single trajectories at
tight tolerances; its error control is what makes the tolerance contract
hold on arbitrary user models.  A fixed-step classical RK4 (scalar, and
vectorized over rows) serves the batches that have no exact flow: fields
that are not triangular.  ``VectorFieldSystem.flow_batch`` flows triangular
generators exactly, and ``VectorFieldSystem.mixture_flow_batch`` does the
same for the constant-control mixtures of ``metric.control_endpoints``.
"""

import numpy as np


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


def _check_box(y, box):
    if box is not None and any(abs(v) > box for v in y):
        raise DomainEscapeError(f"point {tuple(y)} escaped box +-{box}")


def dopri5(f, t, y0, rtol=1e-10, atol=1e-10, box=None, max_steps=100_000):
    """Integrate y' = f(y) from 0 to t (t may be negative); returns a tuple.

    ``f`` maps a tuple of floats to a tuple of floats.  Error per step is
    controlled against atol + rtol*|y| componentwise.
    """
    y = tuple(float(v) for v in y0)
    _check_box(y, box)
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
    for _ in range(max_steps):
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
            sc = atol + rtol * max(abs(y[i]), abs(y5[i]))
            err += (e / sc) ** 2
        err = (err / n) ** 0.5
        if err <= 1.0:
            y = y5
            _check_box(y, box)
            s += h
            h *= min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))
        else:
            h *= max(0.2, 0.9 * err**-0.2)
        if h < 1e-14 * total:
            raise StepUnderflowError(f"step underflow at s={s} of {total}")
    raise StepUnderflowError(f"exceeded {max_steps} steps")


def rk4(f, t, y0, steps=8):
    """Fixed-step classical RK4 on tuples; cheap path for optimizers."""
    y = tuple(float(v) for v in y0)
    if t == 0 or steps <= 0:
        return y
    h = t / steps
    n = len(y)
    for _ in range(steps):
        k1 = f(y)
        k2 = f(tuple(y[i] + 0.5 * h * k1[i] for i in range(n)))
        k3 = f(tuple(y[i] + 0.5 * h * k2[i] for i in range(n)))
        k4 = f(tuple(y[i] + h * k3[i] for i in range(n)))
        y = tuple(
            y[i] + h / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
            for i in range(n)
        )
    return y


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
