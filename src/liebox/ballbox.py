"""Frame determinants, maximal-frame selection and ball-box experiments.

Frame determinants are exact (Fraction arithmetic) at rational points; the
selection rule scores |det| * r^(total degree) and keeps the winner, with
ties broken by enumeration order.  The experiments are Monte Carlo or
chart-inversion harnesses built on the chart and membership machinery; every
sampling routine takes an explicit seed and reports it back.  The doubling
and Poincare harnesses draw their points through one sampler,
``_ball_sample``: one uniform stream and one membership solve per call.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import min_norm_solve
from .metric import ball_membership, chart_leg_count, control_endpoints, membership_mask
from .approxexp import box_norm, e_map_batch, invert_chart
from .approxexp import e_map  # noqa: F401  (the perfbench tracer patches ballbox.e_map)
from .words import rational_point


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


def _exact_columns(frame, x):
    """Exact column maps at the rational point of x, each evaluated on first use."""
    xf = rational_point(x)
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
    is taken at ``words.rational_point(x)``, which lies within 1e-12 of x in
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


def newton_invert(frame, I, x, r, y, eps):
    """Single-target ``invert_chart`` with the box gauge of the solve.

    Converged means a residual of at most 1e-8 * r.
    """
    I = frame.check_index_tuple(I)
    H, res = invert_chart(frame, I, x, r, [y])
    h = H[0]
    bn = float(box_norm(h, [frame.degree(i) for i in I]))
    return {"h": h, "residual": float(res[0]), "converged": bool(res[0] <= 1e-8 * r),
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
    c * eps^s * r; each is inverted through the chart (``invert_chart``) and
    counted as covered when the solve converges (residual at most 1e-8 * r)
    strictly inside the eps-box.
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
    Y = frame.eval_columns(range(1, frame.q + 1), np.asarray(x, dtype=float))
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


def _ball_sample(system, frame, x, r, R, N, seed):
    """Seeded uniform points in the radius-R ball's box, with both ball masks.

    The frame is the maximal one at radius r.  One membership solve runs at
    R, and the radius-r mask is read off it by the chart's dilation
    (``metric.membership_mask``).  Returns the frame, the points, the box
    volume, the radius-r and radius-R masks, and the count of rows whose
    residual is not finite: they fail both masks, and counting them keeps a
    numerical breakdown from passing as a small ball.
    """
    I = select_maximal(frame, x, r).I
    lo, hi = _bounding_box(frame, I, x, R)
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(N, system.n))
    outer, H, res = ball_membership(system, frame, I, x, R, pts)
    inner = membership_mask(frame, I, R, H, res, r)
    nonfinite = int((~np.isfinite(res)).sum())
    return I, pts, float(np.prod(hi - lo)), inner, outer, nonfinite


def doubling_ratio(system, frame, x, r, N=100_000, seed=0):
    """Monte Carlo volume ratio of the radius-2r and radius-r balls.

    One ``_ball_sample`` at R = 2r, with the maximal frame selected once at
    radius r and reused.  ``nonfinite`` counts the rows whose residual in
    its one membership solve is not finite.
    """
    I, _, _, inner, outer, nonfinite = _ball_sample(system, frame, x, r, 2 * r, N, seed)
    k2, k1 = int(outer.sum()), int(inner.sum())
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
        "nonfinite": nonfinite,
        "I": I,
        "r": float(r),
        "seed": seed,
    }


def poincare_suite(system, frame, fs, x, r, C_enlarge=2.0, N=100_000, seed=0):
    """Monte Carlo mean-oscillation vs horizontal-gradient integrals.

    One ``_ball_sample`` at the enlarged radius R = C_enlarge * r, its two
    masks reused for every test function; ``nonfinite`` counts the rows
    whose residual in its one membership solve is not finite.  Both
    integrals are box-volume * accepted-fraction * sample mean; the
    per-function ratio is the empirical constant.
    """
    I, pts, box_vol, mask_in, mask_out, nonfinite = _ball_sample(
        system, frame, x, r, C_enlarge * r, N, seed)
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

