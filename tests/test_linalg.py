import math

import numpy as np
import pytest

from liebox.linalg import (
    lambda_sweep,
    matrix_with_spectrum,
    min_norm_solve,
    random_orthogonal,
    recover_controls,
    tychonoff_error_components,
    tychonoff_solve,
)
from liebox.vfield import load_model

HEIS = load_model("heisenberg")


def test_symmetric_split():
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    x = tychonoff_solve(A, b, 1e-7)
    assert np.allclose(x, [0.5, 0.5], atol=1e-6)


def test_decoupled_diagonal():
    A = np.diag([1.0, 0.0])
    b = np.array([1.0, 0.0])
    for lam in (0.5, 0.1, 1e-3):
        x = tychonoff_solve(A, b, lam)
        assert abs(x[0] - 1.0 / (1.0 + lam**2)) < 1e-12
        assert abs(x[1]) < 1e-12


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        tychonoff_solve(np.eye(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        tychonoff_solve(np.array([[np.nan, 0], [0, 1]]), np.ones(2), 1e-3)


def test_min_norm_full_rank_square():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    b = rng.standard_normal(4)
    x, rank, res = min_norm_solve(A, b)
    assert rank == 4
    assert np.allclose(A @ x, b, atol=1e-9)
    assert res < 1e-9


def test_min_norm_rank_one_closed_form():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(5)
    v = rng.standard_normal(3)
    A = np.outer(u, v)
    b = rng.standard_normal(5)
    x, rank, _ = min_norm_solve(A, b)
    assert rank == 1
    expected = (b @ u) / (u @ u) / (v @ v) * v
    assert np.allclose(x, expected, atol=1e-10)


def test_min_norm_agrees_with_tychonoff_limit():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A, U, V = matrix_with_spectrum(rng, 5, 8, [2.0, 1.0, 0.5])
        beta = rng.standard_normal(3)
        b = U @ beta  # in the column span
        x_ls, rank, res = min_norm_solve(A, b)
        assert rank == 3 and res < 1e-10
        x_lam = tychonoff_solve(A, b, 1e-6)
        scale = np.linalg.norm(x_ls)
        assert np.linalg.norm(x_ls - x_lam) <= 1e-9 * max(scale, 1.0)


def test_error_component_formula():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = np.sort(rng.uniform(0.2, 3.0, size=3))[::-1]
        A, U, V = matrix_with_spectrum(rng, 6, 5, s)
        beta = rng.standard_normal(3)
        b = U @ beta
        x_ls, _, _ = min_norm_solve(A, b)
        for lam in (1e-2, 1e-3, 1e-4):
            x_lam = tychonoff_solve(A, b, lam)
            expected = np.linalg.norm(tychonoff_error_components(s, beta, lam))
            got = np.linalg.norm(x_ls - x_lam)
            assert abs(got - expected) < 1e-10, (lam, got, expected)


def test_convergence_slope_two():
    rng = np.random.default_rng(4)
    lams = np.geomspace(1e-6, 1e-2, 9)
    for _ in range(5):
        A, U, V = matrix_with_spectrum(rng, 6, 9, [1.5, 0.7, 0.1])
        b = U @ rng.standard_normal(3)
        rows = lambda_sweep(A, b, lams)
        xs = [math.log(l) for l, e in rows]
        ys = [math.log(e) for l, e in rows]
        slope = np.polyfit(xs, ys, 1)[0]
        assert abs(slope - 2.0) <= 0.1


def test_regularized_norm_monotone():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((5, 7))
    b = rng.standard_normal(5)
    norms = [np.linalg.norm(tychonoff_solve(A, b, lam)) for lam in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)]
    assert all(a >= b_ - 1e-12 for a, b_ in zip(norms, norms[1:]))


def test_residual_orthogonal_to_columns():
    rng = np.random.default_rng(6)
    A, U, V = matrix_with_spectrum(rng, 6, 4, [1.0, 0.3])
    b = rng.standard_normal(6)  # generically not in span
    x, rank, res = min_norm_solve(A, b)
    r = A @ x - b
    assert np.linalg.norm(A.T @ r) <= 1e-10 * max(1.0, np.linalg.norm(b))


def test_recover_controls_single_flow():
    pts, vels = [], []
    for t in np.linspace(0.0, 0.5, 6):
        p = HEIS.flow(1, t, (0.0, 0.0, 0.0))
        pts.append(p)
        vels.append(HEIS.batch_fn(1)(np.asarray(p)))
    controls, residuals, flags, max_norm = recover_controls(HEIS, pts, vels)
    for c in controls:
        assert np.allclose(c, [1.0, 0.0], atol=1e-10)
    assert not any(flags)
    assert abs(max_norm - 1.0) < 1e-10


def test_recover_controls_heisenberg_circle():
    # forward-simulate controls (cos t, sin t), then invert them back
    def control(t):
        return np.array([math.cos(t), math.sin(t)])

    def rhs(t, p):
        c = control(t)
        return c[0] * HEIS.batch_fn(1)(p) + c[1] * HEIS.batch_fn(2)(p)

    # time-dependent RK4, test-local oracle
    p = np.zeros(3)
    t, h = 0.0, 0.01
    pts, vels, times = [], [], []
    for _ in range(60):
        pts.append(tuple(p))
        vels.append(rhs(t, p))
        times.append(t)
        k1 = rhs(t, p)
        k2 = rhs(t + h / 2, p + h / 2 * k1)
        k3 = rhs(t + h / 2, p + h / 2 * k2)
        k4 = rhs(t + h, p + h * k3)
        p = p + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    controls, residuals, flags, max_norm = recover_controls(HEIS, pts, vels)
    for tt, c in zip(times, controls):
        assert np.allclose(c, control(tt), atol=1e-8)
    assert not any(flags)
    assert max_norm <= 1.0 + 1e-8


def test_recover_controls_flags_vertical():
    pts = [(0.0, 0.0, 0.0)]
    vels = [np.array([0.0, 0.0, 1.0])]  # vertical direction, not horizontal
    _, residuals, flags, _ = recover_controls(HEIS, pts, vels)
    assert flags[0]
    assert residuals[0] > 0.5


def test_random_orthogonal_is_orthogonal():
    rng = np.random.default_rng(7)
    Q = random_orthogonal(rng, 5)
    assert np.allclose(Q @ Q.T, np.eye(5), atol=1e-12)
