"""Frame determinants, maximal-frame selection and ball-box experiments.

Frame determinants are exact at rational points (integer elimination on
columns with their denominators cleared); the selection rule scores
|det| * r^(total degree) exactly for every tuple over the frame's distinct
columns and keeps the winner, with ties broken by enumeration order.  The
experiments are Monte Carlo or chart-inversion harnesses built on the chart
and membership machinery; every sampling routine takes an explicit seed and
reports it back.  The doubling and Poincare harnesses draw their points
through one sampler, ``_ball_sample``: one uniform stream split between the
two balls' own boxes, and one membership solve per call.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import min_norm_solve
from .metric import control_endpoints
from .approxexp import (ball_membership, box_norm, chart_leg_count, e_map_batch,
                        invert_chart, membership_mask)
from .approxexp import e_map  # noqa: F401  (the perfbench tracer patches ballbox.e_map)
from .words import rational_point


class HormanderError(RuntimeError):
    """No frame spans at the given point: every determinant vanished."""


class EmptySampleError(RuntimeError):
    """A Monte Carlo ball sample accepted no point in a ball it needs."""


def _bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _exact_columns(frame, x):
    """Exact column maps at the rational point of x, each evaluated on first use,
    as (integer column, denominator): the column is the one over the other."""
    xf = rational_point(x)

    def column(i):
        v = frame.map(i).eval_exact(xf)
        d = math.lcm(*(c.denominator for c in v))
        return [c.numerator * (d // c.denominator) for c in v], d

    return functools.cache(column)


def _columns_det(col, I):
    """Exact determinant of the columns I: one integer elimination (the
    determinant of the transpose) over the product of the denominators."""
    cols = [col(j) for j in I]
    return Fraction(_bareiss_det([c for c, _ in cols]), math.prod(d for _, d in cols))


def lambda_I(frame, I, x):
    """Exact determinant of the commutator columns Y_{i_1}..Y_{i_n} at x."""
    I = frame.check_index_tuple(I)
    return _columns_det(_exact_columns(frame, x), I)


MAX_CANDIDATES = 20000


def frame_candidates(frame):
    """Index tuples over the distinct columns, in deterministic enumeration order.

    The distinct columns are the nonzero word maps that are not +- the map of
    an earlier word of the same degree.  A tuple with a zero column has
    determinant 0, and one with a later twin scores as the earlier tuple that
    holds the first twin instead (or 0, with both), so the first best of all
    ``combinations(range(1, q + 1), n)`` is among these.  Above
    ``MAX_CANDIDATES`` tuples, a beam keeps the max(2n, n + 4) distinct
    columns of largest Euclidean norm at (0.1, ..., 0.1), ties to the lower
    index, and enumerates the tuples of those.
    """
    n, cols = frame.system.n, []
    for j in range(1, frame.q + 1):
        Y = frame.map(j)
        if not Y.is_zero() and not any(
                frame.degree(i) == frame.degree(j) and frame.map(i) in (Y, -Y) for i in cols):
            cols.append(j)
    if math.comb(len(cols), n) > MAX_CANDIDATES:  # the beam; a stable sort keeps ties in order
        norms = np.linalg.norm(frame.eval_columns(cols, np.full(n, 0.1)), axis=0)
        cols = sorted(cols[k] for k in np.argsort(-norms, kind="stable")[: max(2 * n, n + 4)])
    return list(itertools.combinations(cols, n))


@dataclass
class MaximalTriple:
    I: tuple
    x: tuple
    r: float
    score: float
    candidates: int = 0


def select_maximal(frame, x, r):
    """Frame with the largest |det| * r^degree score; ties keep the first.

    Every tuple of ``frame_candidates`` (listed once per frame) is scored by
    its exact determinant at ``words.rational_point(x)``, each exact column
    map evaluated at most once per call: the winner and score of an exact
    scan over every index tuple or, above ``MAX_CANDIDATES``, the best of the
    beam's tuples; the exact score is reported as a float, inf past its range.
    """
    col = _exact_columns(frame, x)
    if "candidates" not in frame.tables:  # built once per frame
        frame.tables["candidates"] = frame_candidates(frame)
    cands, rf = frame.tables["candidates"], Fraction(float(r))
    scores = [abs(_columns_det(col, I)) * rf ** frame.ell(I) for I in cands]
    best_score = max(scores, default=0)
    if best_score == 0:
        raise HormanderError(f"all frame determinants vanish at {tuple(x)}")
    try:
        score = float(best_score)
    except OverflowError:
        score = math.inf
    return MaximalTriple(
        I=cands[scores.index(best_score)], x=tuple(float(v) for v in x), r=float(r),
        score=score, candidates=len(cands),
    )


# -- chart inversion ------------------------------------------------------------


def newton_invert(frame, I, x, r, y, eps):
    """Single-target ``invert_chart`` with the box gauge of the solve.

    Converged means a residual of at most 1e-8 * r, and in the box a gauge
    below ``eps``, which must lie in (0, 1] as in ``inclusion_check``.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]: the chart box is unit scale")
    I = frame.check_index_tuple(I)
    H, res = invert_chart(frame, I, x, r, [y])
    h = H[0]
    bn = float(box_norm(h, [frame.degree(i) for i in I]))
    return {"h": h, "residual": float(res[0]), "converged": bool(res[0] <= 1e-8 * r),
            "box_norm": bn, "in_box": bool(bn < eps)}


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


# Pairs of box points in the injectivity probe of ``inclusion_check``.
_COLLISION_PAIRS = 200


def inclusion_check(system, frame, I, x, r, eps, c=0.05, samples=200, seed=0):
    """Ball-box inclusion experiment plus a sampled injectivity probe.

    Targets are generated with certified weighted distance below
    c * eps^s * r; each is inverted through the chart (``invert_chart``) and
    counted as covered when the solve converges (residual at most 1e-8 * r)
    strictly inside the eps-box.  The probe maps ``_COLLISION_PAIRS`` pairs
    of box points and counts the separated pairs whose images coincide.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]: the chart box is unit scale")
    I = frame.check_index_tuple(I)
    s = system.s
    scale = c * eps**s * r
    targets = sample_rho_targets(system, frame, x, scale, samples, seed)
    H, residuals = invert_chart(frame, I, x, r, targets)
    degrees = [frame.degree(i) for i in I]
    norms = box_norm(H, degrees)
    solved = norms[(residuals <= 1e-8 * r) & (norms < eps)]
    # collision probe: distinct box points should have distinct images
    rng = np.random.default_rng(seed + 1)
    H = rng.uniform(-1, 1, size=(2 * _COLLISION_PAIRS, system.n))
    H *= (eps ** np.array(degrees, dtype=float))[None, :]
    pts = e_map_batch(frame, I, x, r, H)
    A, B = pts[:_COLLISION_PAIRS], pts[_COLLISION_PAIRS:]
    HA, HB = H[:_COLLISION_PAIRS], H[_COLLISION_PAIRS:]
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
    Y = frame.eval_columns(range(1, frame.q + 1), x)
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
    g_fn = system.ad(Z, w).compile_batch()
    rows = []
    for t in times:
        p = system.flow(Z, t, x)
        out = express_in_frame(frame, g_fn(np.asarray(p)), p)
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


def _ball_sample(system, frame, x, r, R, N, seed):
    """Seeded uniform points in each ball's own box, with both ball masks.

    The frame is the maximal one at radius r.  One uniform stream of N rows
    fills two strata, the first N // 2 rows the radius-r ball's box and the
    rest the radius-R ball's box, and one membership solve runs at R over
    all N rows.  The inner stratum reads the radius-r mask off it by the
    chart's dilation (``approxexp.membership_mask``), so the inner region is
    still the exact chart dilate of the outer one.  Returns the frame, then
    per ball (radius r, then R) its accepted points, its volume (box volume
    times accepted fraction) and that fraction, and the count of rows whose
    residual is not finite: they fail both masks, and counting them keeps a
    numerical breakdown from passing as a small ball.
    """
    I = select_maximal(frame, x, r).I
    k = N // 2
    U = np.random.default_rng(seed).uniform(size=(N, system.n))
    strata = [(slice(0, k), _bounding_box(frame, I, x, r)),
              (slice(k, N), _bounding_box(frame, I, x, R))]
    pts = np.concatenate([lo + U[rows] * (hi - lo) for rows, (lo, hi) in strata])
    outer, H, res = ball_membership(system, frame, I, x, R, pts)
    masks = membership_mask(frame, I, R, H[:k], res[:k], r), outer[k:]
    balls = []
    for (rows, (lo, hi)), mask in zip(strata, masks):
        p = int(mask.sum()) / max(mask.size, 1)
        balls.append((pts[rows].compress(mask, axis=0), float(np.prod(hi - lo)) * p, p))
    return I, balls, int((~np.isfinite(res)).sum())


def doubling_ratio(system, frame, x, r, N=100_000, seed=0):
    """Monte Carlo volume ratio of the radius-2r and radius-r balls.

    One ``_ball_sample`` at R = 2r, with the maximal frame selected once at
    radius r and reused.  With k accepted rows, a fraction p of its stratum,
    in each ball, the ratio's stderr is ratio * sqrt((1 - p1) / k1 +
    (1 - p2) / k2).  ``nonfinite`` counts the rows whose residual in its one
    membership solve is not finite.
    """
    I, ((in1, vol1, p1), (in2, vol2, p2)), nonfinite = _ball_sample(
        system, frame, x, r, 2 * r, N, seed)
    k1, k2 = len(in1), len(in2)
    if k1 == 0 or k2 == 0:
        raise EmptySampleError(
            f"zero {'inner' if k1 == 0 else 'outer'}-ball count; enlarge N or the box")
    ratio = vol2 / vol1
    se = ratio * math.sqrt((1 - p1) / k1 + (1 - p2) / k2)
    return {
        "ratio": ratio,
        "stderr": se,
        "outer_count": k2,
        "inner_count": k1,
        "N": int(N),
        "nonfinite": nonfinite,
        "I": I,
        "r": float(r),
        "seed": seed,
    }


def poincare_suite(system, frame, fs, x, r, C_enlarge=2.0, N=100_000, seed=0):
    """Monte Carlo mean-oscillation vs horizontal-gradient integrals.

    One ``_ball_sample`` at the enlarged radius R = C_enlarge * r, its two
    balls reused for every test function; ``nonfinite`` counts the rows
    whose residual in its one membership solve is not finite.  Each integral
    is a ball's volume times a sample mean over that ball's own stratum: the
    mean oscillation over the radius-r ball, the horizontal gradient over
    the radius-R ball.  The per-function ratio is the empirical constant.
    """
    I, ((inner_pts, vol_in, _), (outer_pts, vol_out, _)), nonfinite = _ball_sample(
        system, frame, x, r, C_enlarge * r, N, seed)
    if not (len(inner_pts) and len(outer_pts)):
        raise EmptySampleError("empty ball sample; enlarge N")
    reports = []
    for f in fs:
        f_fn, *grad_fns = system.horizontal_fns(f)
        vals_in = f_fn(inner_pts)
        lhs = vol_in * float(np.abs(vals_in - vals_in.mean()).mean())
        rhs = vol_out * sum(float(np.abs(r * g(outer_pts)).mean()) for g in grad_fns)
        reports.append({
            "lhs": lhs,
            "rhs": rhs,
            "ratio": (lhs / rhs) if rhs > 0 else 0.0,
            "inner_count": len(inner_pts),
            "outer_count": len(outer_pts),
            "nonfinite": nonfinite,
            "I": I,
            "seed": seed,
        })
    return reports
