"""Tychonoff-regularized least squares and min-norm control recovery.

The regularized solve factors the shifted normal equations by Cholesky; the
min-norm route is SVD-based.  Both are kept because the whole point of the
pair is the convergence law of one toward the other as the regularization
vanishes.
"""

import numpy as np

RANK_TOL = 1e-10


def tychonoff_solve(A, b, lam):
    """Solution of (A^T A + lam^2 I) x = A^T b.

    Factors the augmented matrix [A; lam I] by QR: its R factor is the
    Cholesky factor of the shifted normal matrix, computed without ever
    forming A^T A (which would square the condition number and ruin the
    small-lam regime this routine exists for).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("non-finite input")
    q = A.shape[1]
    aug = np.vstack([A, lam * np.eye(q)])
    rhs = np.concatenate([b, np.zeros(q)])
    Q, R = np.linalg.qr(aug)
    return np.linalg.solve(R, Q.T @ rhs)


def min_norm_solve(A, b):
    """Minimum-norm least-squares solution, rank and residual norm.

    Singular values below RANK_TOL * sigma_max are treated as zero.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s.size and s[0] > 0:
        rank = int(np.sum(s > RANK_TOL * s[0]))
    else:
        rank = 0
    beta = U.T @ b
    xi = np.zeros_like(s)
    xi[:rank] = beta[:rank] / s[:rank]
    x = Vt.T @ xi
    residual = float(np.linalg.norm(A @ x - b))
    return x, rank, residual


def tychonoff_error_components(singular_values, beta, lam):
    """Per-mode deviation of the regularized solution from the exact one.

    For a system with singular values sigma_i and rotated data beta_i the
    i-th component of x_LS - x_lam is lam^2 beta_i / (sigma_i (sigma_i^2 +
    lam^2)); modes with sigma_i = 0 do not contribute.
    """
    out = []
    for s, be in zip(singular_values, beta):
        if s > 0:
            out.append(lam**2 * be / (s * (s**2 + lam**2)))
    return np.array(out)


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def matrix_with_spectrum(rng, n, q, singular_values):
    """Random matrix with prescribed singular values (rank = #nonzero)."""
    s = np.asarray(singular_values, dtype=float)
    r = s.size
    U = random_orthogonal(rng, n)[:, :r]
    V = random_orthogonal(rng, q)[:, :r]
    return U @ np.diag(s) @ V.T, U, V


def lambda_sweep(A, b, lams):
    """(lam, ||x_LS - x_lam||) rows for the convergence plot."""
    x_ls, _, _ = min_norm_solve(A, b)
    rows = []
    for lam in lams:
        x = tychonoff_solve(A, b, lam)
        rows.append((float(lam), float(np.linalg.norm(x_ls - x))))
    return rows


def recover_controls(system, points, velocities):
    """Min-norm horizontal controls along a path, one solve per sample.

    Each velocity is expressed in the generator columns at the same point;
    a residual above 1e-8 * (1 + |velocity|) flags a non-horizontal sample.
    Returns (controls, residuals, flags, max_norm).
    """
    controls, residuals, flags = [], [], []
    for p, v in zip(points, velocities):
        X = np.stack([f(p) for f in system.fields], axis=1)
        b, _, res = min_norm_solve(X, np.asarray(v, dtype=float))
        controls.append(b)
        residuals.append(res)
        flags.append(res > 1e-8 * (1.0 + np.linalg.norm(v)))
    max_norm = max((float(np.linalg.norm(c)) for c in controls), default=0.0)
    return controls, residuals, flags, max_norm
