"""Frame determinants, maximal-frame selection and ball-box experiments.

Frame determinants are exact (Fraction arithmetic) at rational points; the
selection rule scores |det| * r^(total degree) and keeps the winner, with
ties broken by enumeration order.  The experiments are Monte Carlo or
Newton-solve harnesses built on the chart and membership machinery; every
sampling routine takes an explicit seed and reports it back.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import min_norm_solve
from .metric import ball_membership, chart_leg_count, control_endpoints, membership_mask
from .approxexp import box_norm, chart_jacobians, e_map_batch
from .approxexp import e_map  # noqa: F401  (the perfbench tracer patches ballbox.e_map)
from .words import as_fraction


class HormanderError(RuntimeError):
    """No frame spans at the given point: every determinant vanished."""


def _exact_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _exact_det(minor)
    return total


def _rational_point(x):
    return [as_fraction(v) if not isinstance(v, float) else Fraction(v).limit_denominator(10**12) for v in x]


def _exact_columns(frame, x):
    """Exact column maps at the rational point of x, each evaluated on first use."""
    xf = _rational_point(x)
    return functools.cache(lambda i: frame.map(i).eval_exact(xf))


def _columns_det(col, I):
    rows = [[col(j)[i] for j in I] for i in range(len(I))]
    return _exact_det(rows)


def lambda_I(frame, I, x):
    """Exact determinant of the commutator columns Y_{i_1}..Y_{i_n} at x."""
    I = frame.check_index_tuple(I)
    return _columns_det(_exact_columns(frame, x), I)


MAX_CANDIDATES = 20000


def frame_candidates(frame):
    """Index tuples without repetition, in deterministic enumeration order.

    Above ``MAX_CANDIDATES`` tuples, a pivoted-QR beam over a reference point
    grid picks the strongest 2n columns first (deterministic), then
    enumerates those.
    """
    n = frame.system.n
    combos = math.comb(frame.q, n)
    if combos <= MAX_CANDIDATES:
        return list(itertools.combinations(range(1, frame.q + 1), n))
    # beam: rank columns by norm of the coefficient maps at the origin-ish
    ref = np.zeros(n) + 0.1
    scores = [
        (-float(np.linalg.norm(frame.map(i)(ref))), i) for i in range(1, frame.q + 1)
    ]
    scores.sort()
    keep = sorted(i for _, i in scores[: max(2 * n, n + 4)])
    return list(itertools.combinations(keep, n))


def lambda_vector(frame, x, r):
    """Scaled determinant tuple over candidate frames, in enumeration order."""
    col = _exact_columns(frame, x)
    rows = []
    for I in frame_candidates(frame):
        lam = _columns_det(col, I)
        rows.append((I, lam, float(abs(lam)) * r ** frame.ell(I)))
    return rows


def nu(frame, points):
    """Min over the sample set of the norm of the unscaled tuple."""
    worst = math.inf
    for x in points:
        vec = [float(lam) for _, lam, _ in lambda_vector(frame, x, 1.0)]
        worst = min(worst, float(np.linalg.norm(vec)))
    return worst


@dataclass
class MaximalTriple:
    I: tuple
    x: tuple
    r: float
    score: float
    candidates: int = 0
    exact_dets: int = 0


# Float pre-rank margins of ``select_maximal``: relative, and absolute in
# determinant units.
_RANK_REL, _RANK_ABS = 1e-6, 1e-9


def select_maximal(frame, x, r):
    """Frame with the largest |det| * r^degree score; ties keep the first.

    Every candidate is first scored by one batched float determinant at x,
    and the float score ``s`` of a candidate of weight ``w = r^ell(I)`` is
    taken to bound its exact score within ``s * (1 -+ 1e-6) -+ 1e-9 * w``.
    Only the candidates whose upper bound reaches the highest lower bound get
    an exact determinant, in enumeration order, and the exact scores decide,
    so the winner is the one an all-exact scan gives.  The relative term
    covers rounding in an n x n float determinant (about 1e-15 times its
    condition).  The absolute term covers the point: the exact determinant
    is taken at ``_rational_point(x)``, which lies within 1e-12 of x in
    every coordinate, so the determinant moves by 1e-12 times its gradient.
    Each exact column map is evaluated at most once per call.
    """
    col = _exact_columns(frame, x)
    cands = frame_candidates(frame)
    Y = frame.eval_columns(range(1, frame.q + 1), np.asarray(x, dtype=float))
    idx = np.array(cands, dtype=int).reshape(len(cands), frame.system.n) - 1
    w = r ** np.array([frame.ell(I) for I in cands], dtype=float)
    approx = np.abs(np.linalg.det(Y[:, idx].transpose(1, 0, 2))) * w
    lower = approx * (1 - _RANK_REL) - _RANK_ABS * w
    upper = approx * (1 + _RANK_REL) + _RANK_ABS * w
    near = np.flatnonzero(upper >= lower.max(initial=0.0))
    best_I, best_score = None, -1.0
    for k in near:
        I = cands[k]
        score = float(abs(_columns_det(col, I))) * r ** frame.ell(I)
        if score > best_score:
            best_I, best_score = I, score
    if best_score <= 0.0:
        raise HormanderError(f"all frame determinants vanish at {tuple(x)}")
    return MaximalTriple(
        I=best_I, x=tuple(float(v) for v in x), r=float(r), score=best_score,
        candidates=len(cands), exact_dets=len(near),
    )


# -- chart inversion ------------------------------------------------------------


def invert_chart(frame, I, x, r, Y):
    """Damped Newton solves of chart(h) = y from h = 0, one row per target.

    Every row runs the same algorithm on its own: central-difference
    Jacobian, ``solve`` (``lstsq`` for a singular row), and the first of 10
    step halvings that lowers the residual.  A row stops when its residual
    drops to 1e-8 * r, when no halving helps, or after 50 iterations.
    The full step is tried first; the 9 shorter ones are evaluated only for
    the rows it does not improve.  Returns the solutions, their residuals
    and the converged mask.
    """
    I = frame.check_index_tuple(I)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    k, n = Y.shape
    tol = 1e-8 * r
    halvings = 0.5 ** np.arange(1, 10)

    def E(H):
        return e_map_batch(frame, I, x, r, H.reshape(-1, n))

    H = np.zeros((k, n))
    R = Y - E(H)
    res = np.linalg.norm(R, axis=1)
    live = np.ones(k, dtype=bool)
    for _ in range(50):
        rows = np.flatnonzero(live & (res > tol))
        if not rows.size:
            break
        h = H[rows]
        d = 1e-6 * np.maximum(1.0, np.abs(h).max(axis=1))
        J = chart_jacobians(frame, I, x, r, h, d[:, None])
        try:
            step = np.linalg.solve(J, R[rows][..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.array([_solve_or_lstsq(*row) for row in zip(J, R[rows])])
        h_new = h + step
        R_new = Y[rows] - E(h_new)
        r_new = np.linalg.norm(R_new, axis=1)
        moved = r_new < res[rows]
        back = np.flatnonzero(~moved)
        if back.size:
            cand = h[back, None] + step[back, None] * halvings[:, None]
            Rc = Y[rows[back], None] - E(cand).reshape(cand.shape)
            rc = np.linalg.norm(Rc, axis=2)
            better = rc < res[rows[back], None]
            hit = better.any(axis=1)
            pick = better.argmax(axis=1)[hit]
            sel = back[hit]
            h_new[sel], R_new[sel] = cand[hit, pick], Rc[hit, pick]
            r_new[sel] = rc[hit, pick]
            moved[sel] = True
        live[rows] = moved
        take = rows[moved]
        H[take], R[take], res[take] = h_new[moved], R_new[moved], r_new[moved]
    return H, res, res <= tol


def _solve_or_lstsq(J, b):
    try:
        return np.linalg.solve(J, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(J, b, rcond=None)[0]


def newton_invert(frame, I, x, r, y, eps):
    """Single-target form of ``invert_chart`` with the box gauge of the solve."""
    H, res, ok = invert_chart(frame, I, x, r, [y])
    h = H[0]
    bn = box_norm(h, [frame.degree(i) for i in frame.check_index_tuple(I)])
    return {"h": h, "residual": float(res[0]), "converged": bool(ok[0]),
            "box_norm": bn, "in_box": bool(bn < eps or not h.any())}


def sample_rho_targets(system, frame, x, scale, count, seed):
    """Endpoints of random admissible weighted paths: certified rho <= scale.

    Each path has 4 constant-control segments over the whole frame.
    """
    rng = np.random.default_rng(seed)
    B = rng.uniform(-1, 1, size=(count, 4, frame.q))
    norms = np.linalg.norm(B, axis=2, keepdims=True)
    B /= np.maximum(norms, 1.0)  # per-segment |b| <= 1
    weights = np.array([scale ** frame.degree(j) for j in range(1, frame.q + 1)])
    U = B * weights[None, None, :]
    return control_endpoints(system, U, x, frame.words)


def inclusion_check(
    system, frame, I, x, r, eps, c=0.05, samples=200, seed=0,
    collision_pairs=200,
):
    """Ball-box inclusion experiment plus a sampled injectivity probe.

    Targets are generated with certified weighted distance below
    c * eps^s * r; each is inverted through the chart by damped Newton and
    counted as covered when the solve lands strictly inside the eps-box.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]: the chart box is unit scale")
    I = frame.check_index_tuple(I)
    s = system.s
    scale = c * eps**s * r
    targets = sample_rho_targets(system, frame, x, scale, samples, seed)
    H, residuals, converged = invert_chart(frame, I, x, r, targets)
    degrees = [frame.degree(i) for i in I]
    norms = np.array([box_norm(h, degrees) for h in H])
    solved = norms[converged & (norms < eps)]
    # collision probe: distinct box points should have distinct images
    rng = np.random.default_rng(seed + 1)
    H = rng.uniform(-1, 1, size=(2 * collision_pairs, system.n))
    H *= (eps ** np.array(degrees, dtype=float))[None, :]
    pts = e_map_batch(frame, I, x, r, H)
    A, B = pts[:collision_pairs], pts[collision_pairs:]
    HA, HB = H[:collision_pairs], H[collision_pairs:]
    sep = np.abs(HA - HB).max(axis=1)
    img = np.linalg.norm(A - B, axis=1)
    collisions = int(np.sum((sep > 1e-3) & (img < 1e-9)))
    return {
        "samples": int(samples),
        "solved_fraction": solved.size / samples,
        "max_residual": float(residuals.max(initial=0.0)),
        "worst_box_norm": float(solved.max(initial=0.0)),
        "target_scale": scale,
        "collisions": collisions,
        "seed": seed,
    }


# -- frame-coefficient recovery ----------------------------------------------------


def express_in_frame(frame, v, x):
    """Min-norm coefficients of a vector over the frame columns at x."""
    Y = np.stack(
        [frame.map(i)(np.asarray(x, dtype=float)) for i in range(1, frame.q + 1)],
        axis=1,
    )
    b, rank, residual = min_norm_solve(Y, np.asarray(v, dtype=float))
    return {
        "coefficients": b,
        "residual": residual,
        "rank": rank,
        "in_span": residual <= 1e-8 * (1.0 + float(np.linalg.norm(v))),
        "sup_norm": float(np.abs(b).max()) if b.size else 0.0,
    }


def ad_coefficient_bound(system, frame, Z, w, x, times):
    """Frame coefficients of ad_Z X_w along the flow of Z; sup-norm bound.

    Realizes the measurable-coefficient recovery: at each sampled time the
    ad field is expressed in the frame by the min-norm solve.
    """
    g = system.ad(Z, w)
    g_fn = g.compile_scalar()
    rows = []
    for t in times:
        p = system.flow(Z, t, x)
        out = express_in_frame(frame, np.asarray(g_fn(p)), p)
        rows.append((float(t), out["sup_norm"], out["residual"]))
    return {
        "rows": rows,
        "max_sup_norm": max(r[1] for r in rows),
        "max_residual": max(r[2] for r in rows),
    }


# -- volume harnesses ------------------------------------------------------------


def _bounding_box(frame, I, x, r):
    """Euclidean box containing the chart image of the acceptance region."""
    M = chart_leg_count(frame, I)
    degrees = [frame.degree(i) for i in I]
    axes = [np.array([-((1.0 / M) ** d), 0.0, (1.0 / M) ** d]) for d in degrees]
    grid = np.array(list(itertools.product(*axes)))
    pts = e_map_batch(frame, I, x, r, grid)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * 1.3 + 1e-12
    return center - half, center + half


def _nonfinite_rows(res):
    """Sample rows whose membership residual is not finite.

    Such rows fail both membership masks, so they drop out of the counts;
    reporting them keeps a numerical breakdown from passing as a small ball.
    """
    return int((~np.isfinite(res)).sum())


def doubling_ratio(system, frame, x, r, N=100_000, seed=0, kind="rho"):
    """Monte Carlo volume ratio of the radius-2r and radius-r balls.

    One uniform stream over a box adapted to the outer ball, with the maximal
    frame selected once at radius r and reused.  One membership solve runs at
    radius 2r; the inner mask is read off that solve by the chart's dilation
    (``metric.membership_mask``), so the inner acceptance region is the exact
    chart dilate of the outer one on every model.  ``nonfinite`` counts the
    rows whose residual in that one solve is not finite.
    """
    I = select_maximal(frame, x, r).I
    lo, hi = _bounding_box(frame, I, x, 2 * r)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(N, system.n))
    mask_outer, H, res = ball_membership(system, frame, I, x, 2 * r, pts, kind=kind)
    mask_inner = membership_mask(frame, I, 2 * r, H, res, r)
    k2, k1 = int(mask_outer.sum()), int(mask_inner.sum())
    if k1 == 0:
        raise RuntimeError("zero inner-ball count; enlarge N or the box")
    ratio = k2 / k1
    se = ratio * math.sqrt(1.0 / k1 + 1.0 / k2)
    return {
        "ratio": ratio,
        "stderr": se,
        "outer_count": k2,
        "inner_count": k1,
        "N": int(N),
        "nonfinite": _nonfinite_rows(res),
        "I": I,
        "r": float(r),
        "seed": seed,
        "kind": kind,
    }


def poincare_suite(system, frame, fs, x, r, C_enlarge=2.0, N=100_000, seed=0):
    """Monte Carlo mean-oscillation vs horizontal-gradient integrals.

    One shared sample stream over the enlarged ball's bounding box, with the
    two membership masks computed once and reused for every test function.
    One membership solve runs at the enlarged radius R = C_enlarge * r; the
    radius-r mask is read off that solve by the chart's dilation
    (``metric.membership_mask``), and ``nonfinite`` counts the rows whose
    residual in that one solve is not finite.  Both integrals are box-volume
    * accepted-fraction * sample mean; the per-function ratio is the
    empirical constant.
    """
    I = select_maximal(frame, x, r).I
    R = C_enlarge * r
    lo, hi = _bounding_box(frame, I, x, R)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(N, system.n))
    box_vol = float(np.prod(hi - lo))
    mask_out, H, res = ball_membership(system, frame, I, x, R, pts)
    mask_in = membership_mask(frame, I, R, H, res, r)
    nonfinite = _nonfinite_rows(res)
    k_in, k_out = int(mask_in.sum()), int(mask_out.sum())
    if k_in == 0 or k_out == 0:
        raise RuntimeError("empty ball sample; enlarge N")
    inner_pts = pts[mask_in]
    outer_pts = pts[mask_out]
    reports = []
    for f in fs:
        vals_in = f.compile_batch()(inner_pts)
        f_mean = float(vals_in.mean())
        lhs = box_vol * (k_in / N) * float(np.abs(vals_in - f_mean).mean())
        rhs = 0.0
        for j in range(1, system.m + 1):
            g = system.horizontal_derivative(j, f).compile_batch()
            rhs += box_vol * (k_out / N) * float(np.abs(r * g(outer_pts)).mean())
        reports.append({
            "lhs": lhs,
            "rhs": rhs,
            "ratio": (lhs / rhs) if rhs > 0 else 0.0,
            "inner_count": k_in,
            "outer_count": k_out,
            "nonfinite": nonfinite,
            "I": I,
            "seed": seed,
        })
    return reports


def poincare_check(system, frame, f, x, r, C_enlarge=2.0, N=100_000, seed=0):
    """Single-function form of the shared-stream suite."""
    return poincare_suite(system, frame, [f], x, r, C_enlarge=C_enlarge, N=N, seed=seed)[0]


def maximality_stability(system, frame, x, r, seed=0):
    """Fraction of nearby points (short admissible paths) keeping the frame."""
    samples, reach = 20, 0.01
    base = select_maximal(frame, x, r).I
    targets = sample_rho_targets(system, frame, x, reach * r, samples, seed)
    same = sum(
        1 for y in targets if select_maximal(frame, y, r).I == base
    )
    return {"base": base, "same_fraction": same / samples, "samples": samples}
