"""Upper-bound estimators for the three control distances.

All three estimators construct feasible paths, so every returned value is a
certified upper bound; none of them can prove a lower bound.  The flow-arc
distance searches over sequences of single-generator arcs, the control
distance over piecewise-constant generator mixtures, and the weighted frame
distance over mixtures of all commutators with degree-weighted speeds.
Gauss-Newton shooting (with finite-difference Jacobians evaluated as one
vectorized batch) finds feasible paths.  The arc estimator reports its best
shooting solution; the control and weighted estimators then tighten theirs
by a bisection over the scale with projection-constrained re-solves.
Cross-seeding guarantees the admissible-class orderings: an arc path is
imported into the control pool, a control path into the weighted pool.
Paths flow exactly on triangular fields and by ``flows.RK4_STEPS``-step RK4
legs on any other field; the feasibility tolerance, bisection depth and
iteration caps are module constants.

The volume harnesses' ball membership lives here too: ``ball_membership``
inverts the chart once, and ``membership_mask`` is the one acceptance rule.
Its unread ``system`` argument stays because the perfbench tracer reads the
sample points at position 5.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .approxexp import box_norm, c_map_legs, invert_chart
from .approxexp import e_map_batch  # noqa: F401  (the perfbench tracer patches metric.e_map_batch)
from .linalg import min_norm_solve

FEAS_TOL = 1e-9
# Bisection probes per control or weighted distance estimate (the arc
# estimator has no bisection), and random arc templates after the canonical
# ones in ``fl_distance``.
_BISECT_ITERS = 40
_RANDOM_TEMPLATES = 4


@dataclass
class DistanceEstimate:
    kind: str
    value: float
    status: str  # "ok" or "budget_exhausted"
    certificate: dict | None
    trace: list = field(default_factory=list)

    def ok(self):
        return self.status == "ok"


# -- batched path endpoint maps -------------------------------------------------


def arc_endpoints(system, letters, T, x):
    """Endpoints of arc paths: flow each letter for its (signed) time.

    ``T`` has shape (N, len(letters)); returns (N, n).
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    Y = np.broadcast_to(np.asarray(x, dtype=float), (T.shape[0], system.n)).copy()
    for i, j in enumerate(letters):
        Y = system.flow_batch(j, T[:, i], Y)
    return Y


def control_endpoints(system, U, x, keys):
    """Endpoints of piecewise-constant control paths over the given fields.

    ``keys`` are letters or words; ``U`` has shape (N, segments, len(keys)):
    unnormalized coefficients; each segment lasts 1/segments and is one
    mixture flow.
    """
    U = np.asarray(U, dtype=float)
    N, k, _ = U.shape
    Y = np.broadcast_to(np.asarray(x, dtype=float), (N, system.n)).copy()
    for seg in range(k):
        Y = system.mixture_flow_batch(keys, U[:, seg, :], 1.0 / k, Y)
    return Y


# -- Gauss-Newton shooting -------------------------------------------------------


def _gauss_newton(endpoint_batch, theta0, target, tol, max_iter=20, proj=None):
    """Minimize |endpoint(theta) - target| by damped Gauss-Newton.

    ``endpoint_batch`` maps an array of parameter vectors (B, dim) to
    endpoints (B, n); the Jacobian comes from one forward-difference batch.
    ``proj`` (optional) re-projects theta after every step.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if proj is not None:
        theta = proj(theta)
    dim = theta.size
    res = target - endpoint_batch(theta[None, :])[0]
    best = float(np.linalg.norm(res))
    for _ in range(max_iter):
        if best <= tol:
            break
        deltas = 1e-6 * np.maximum(1.0, np.abs(theta))
        batch = np.tile(theta, (dim + 1, 1))
        for i in range(dim):
            batch[i + 1, i] += deltas[i]
        E = endpoint_batch(batch)
        res = target - E[0]
        J = (E[1:] - E[0]) / deltas[:, None]
        step, *_ = np.linalg.lstsq(J.T, res, rcond=None)
        # damped update: all halvings evaluated as one batch, best wins
        cands = np.stack([theta + step * (0.5**k) for k in range(6)])
        if proj is not None:
            cands = np.stack([proj(c) for c in cands])
        rs = np.linalg.norm(endpoint_batch(cands) - target, axis=1)
        k = int(np.argmin(rs))
        if rs[k] < best:
            theta, best = cands[k], float(rs[k])
        else:
            break
    return theta, best


# -- the flow-arc estimator -------------------------------------------------------


def _feasibility_tol(dx):
    """Endpoint residual at which a path counts as reaching a target dx away."""
    return FEAS_TOL * (1.0 + dx) + 1e-8


def _arc_templates(system, max_segments, rng):
    """Deduplicated arc templates and how many of them are canonical.

    The canonical templates come first; the random ones that repeat none of
    them follow, so the count is taken before the random ones are added.
    """
    seqs = []
    for j in range(1, system.m + 1):
        seqs.append((j,))
    for j in range(1, system.m + 1):
        for k in range(1, system.m + 1):
            if j == k:
                continue
            base = []
            while len(base) < max_segments:
                base.extend([j, k])
            for L in range(2, max_segments + 1):
                seqs.append(tuple(base[:L]))
    # every letter in turn, so that a generic target of a model with m > 2
    # generators has a template; for m = 2 these repeat the pairs above
    cycle = [1 + i % system.m for i in range(max_segments)]
    for L in range(2, max_segments + 1):
        seqs.append(tuple(cycle[:L]))
    n_canonical = len(set(seqs))
    for _ in range(_RANDOM_TEMPLATES):
        L = int(rng.integers(2, max_segments + 1))
        seqs.append(tuple(int(a) for a in rng.integers(1, system.m + 1, size=L)))
    return list(dict.fromkeys(seqs)), n_canonical  # dedupe, preserve order


def _arc_inits(letters, dx_norm, rng, s_max):
    mu = len(letters)
    inits = [np.zeros(mu)]
    scales = sorted({dx_norm ** (1.0 / ell) for ell in range(1, s_max + 1)})
    for sc in scales:
        inits.append(rng.normal(size=mu) * 0.5 * sc)
        if mu >= 4 and mu % 2 == 0:
            pattern = np.array([sc if i < mu // 2 else -sc for i in range(mu)])
            inits.append(pattern)
    return inits


def fl_distance(system, x, y, max_segments=8, seed=0, seed_paths=()):
    """Arc-path distance estimate: min sum of arc times over feasible paths.

    A feasible path is a sequence of single-generator arcs from x to y; its
    value is the total flowed time (arc times at unit speed).  The reported
    value is the smallest among the paths Gauss-Newton shooting reached from
    the arc templates and from ``seed_paths``, and the trace holds that one
    value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = float(np.linalg.norm(y - x))
    tol = _feasibility_tol(dx)
    if dx <= tol:
        return DistanceEstimate("fl", 0.0, "ok", {"form": "legs", "legs": []})
    rng = np.random.default_rng(seed)
    candidates = []
    templates, n_canonical = _arc_templates(system, max_segments, rng)
    for ti, letters in enumerate(templates):
        if len(candidates) >= 8 or (ti >= n_canonical and len(candidates) >= 3):
            break
        ep = lambda T, L=letters: arc_endpoints(system, L, T, x)
        for theta0 in _arc_inits(letters, dx, rng, system.s):
            theta, res = _gauss_newton(ep, theta0, y, tol)
            if res <= tol:
                candidates.append((float(np.abs(theta).sum()), letters, theta))
    for cert in seed_paths:
        if cert and cert.get("form") == "legs" and cert["legs"]:
            letters = tuple(abs(j) for j, _ in cert["legs"])
            theta0 = np.array([t if j > 0 else -t for j, t in cert["legs"]])
            ep = lambda T, L=letters: arc_endpoints(system, L, T, x)
            theta, res = _gauss_newton(ep, theta0, y, tol)
            if res <= tol:
                candidates.append((float(np.abs(theta).sum()), letters, theta))
    if not candidates:
        return DistanceEstimate("fl", math.inf, "budget_exhausted", None)
    candidates.sort(key=lambda c: c[0])
    best_val, best_letters, best_theta = candidates[0]
    legs = [
        (int(j) if t >= 0 else -int(j), abs(float(t)))
        for j, t in zip(best_letters, best_theta)
        if abs(t) > 1e-14
    ]
    return DistanceEstimate(
        "fl", best_val, "ok", {"form": "legs", "legs": legs}, [(best_val, True)]
    )


# -- control-path estimators -------------------------------------------------------


def _cc_value(U):
    return float(np.linalg.norm(U, axis=-1).max())


def _segment_scales(U, degrees):
    """Per segment, the smallest r with sum_j (u_j / r^deg_j)^2 <= 1.

    Vectorized bisection; the map r -> sum is strictly decreasing, and
    membership at level m has the closed form sum_j u_j^2 / m^(2 deg_j) <= 1
    used by the projection below.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    degs = np.asarray(degrees, dtype=float)
    U2 = U * U
    out = np.zeros(U.shape[0])
    active = U2.sum(axis=1) > 0
    if not active.any():
        return out
    A = U2[active]
    hi = (np.abs(U[active]) ** (1.0 / degs)).max(axis=1) * (len(degs) + 1.0)
    lo = np.zeros_like(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g = (A / mid[:, None] ** (2 * degs)).sum(axis=1)
        grow = g > 1.0
        lo = np.where(grow, mid, lo)
        hi = np.where(grow, hi, mid)
    out[active] = hi
    return out


def _rho_value(U, degrees):
    return float(_segment_scales(U.reshape(-1, U.shape[-1]), degrees).max())


def _project_segments(U, degrees, m, kind):
    """Scale each over-limit segment onto the level-m admissible set."""
    U = U.copy()
    if kind == "rho":
        degs = np.asarray(degrees, dtype=float)
        gm = (U * U / m ** (2 * degs)).sum(axis=1)
    else:
        gm = (U * U).sum(axis=1) / m**2
    over = gm > 1.0
    if over.any():
        U[over] *= (1.0 / np.sqrt(gm[over]))[:, None]
    return U


def _legs_to_controls(legs, k, d):
    """Spread arc legs over k equal-duration segments, one generator per leg."""
    total = sum(t for _, t in legs)
    if total <= 0:
        return np.zeros((k, d))
    shares = [max(1, round(k * t / total)) for _, t in legs]
    while sum(shares) > k:
        shares[int(np.argmax(shares))] -= 1
    while sum(shares) < k:
        shares[int(np.argmax([t for _, t in legs]))] += 1
    U = np.zeros((k, d))
    seg = 0
    for (j, t), s in zip(legs, shares):
        for _ in range(s):
            U[seg, abs(j) - 1] = (k * t / s) * (1 if j > 0 else -1)
            seg += 1
    return U


def _control_estimate(
    kind, system, keys, degrees, value_fn, x, y, segments, seed, seed_certs,
    imported_value,
):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = float(np.linalg.norm(y - x))
    tol = _feasibility_tol(dx)
    d = len(keys)
    if dx <= tol:
        return DistanceEstimate(
            kind, 0.0, "ok", {"form": "controls", "segments": segments,
                              "controls": np.zeros((segments, d)).tolist()}
        )
    shape = (segments, d)

    def ep(batch):
        return control_endpoints(system, batch.reshape(-1, *shape), x, keys)

    rng = np.random.default_rng(seed)
    inits = [np.asarray(c, dtype=float) for c in seed_certs]
    # constant-control min-norm start toward the target direction
    cols = np.stack([system.batch_fn(key)(x[None, :])[0] for key in keys], axis=1)
    b0, _, _ = min_norm_solve(cols, y - x)
    inits.append(np.tile(b0, (segments, 1)))
    inits.append(rng.normal(size=shape) * 0.3 * (dx + dx ** (1.0 / max(degrees))))
    candidates = []
    for U0 in inits:
        theta, res = _gauss_newton(ep, U0.reshape(-1), y, tol)
        if res <= tol:
            U = theta.reshape(shape)
            candidates.append((value_fn(U), U))
    trace = []
    if not candidates and imported_value is None:
        return DistanceEstimate(kind, math.inf, "budget_exhausted", None)
    if candidates:
        candidates.sort(key=lambda c: c[0])
        best_val, best_U = candidates[0]
        lo, hi = 0.0, best_val
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            if mid <= 0:
                break

            def proj(th, m=mid):
                return _project_segments(
                    th.reshape(shape), degrees, m, kind
                ).reshape(-1)

            theta, res = _gauss_newton(
                ep, proj(best_U.reshape(-1) * (mid / best_val)), y, tol,
                max_iter=4, proj=proj,
            )
            feasible = res <= tol
            trace.append((mid, feasible))
            if feasible:
                U = theta.reshape(shape)
                hi = value_fn(U)
                best_U, best_val = U, hi
            else:
                lo = mid
            if hi - lo <= 1e-3 * hi:
                break
        cert = {"form": "controls", "segments": segments, "controls": best_U.tolist()}
        value = best_val
    else:
        cert, value = None, math.inf
    if imported_value is not None and imported_value[0] < value:
        value, cert = imported_value
    return DistanceEstimate(kind, value, "ok", cert, trace)


def cc_distance(system, x, y, segments=8, seed=0, fl_cert=None):
    """Control-distance estimate over piecewise-constant generator mixtures.

    Any arc certificate passed as ``fl_cert`` is admissible here, so its
    value enters the candidate pool; the reported bound never exceeds it.
    """
    keys = tuple(range(1, system.m + 1))
    degrees = (1,) * system.m
    seeds = []
    imported = None
    if fl_cert and fl_cert.get("form") == "legs" and fl_cert["legs"]:
        seeds.append(_legs_to_controls(fl_cert["legs"], segments, system.m))
        imported = (
            sum(t for _, t in fl_cert["legs"]),
            {"form": "legs", "legs": fl_cert["legs"]},
        )
    return _control_estimate(
        "cc", system, keys, degrees, _cc_value, x, y, segments, seed, seeds, imported
    )


def rho_distance(system, frame, x, y, segments=8, seed=0, cc_cert=None, cc_value=None):
    """Weighted-frame distance estimate over all commutator directions.

    A control certificate embeds with identical value (the generators are
    the degree-one frame members), so the weighted estimate never exceeds
    the control one.
    """
    degrees = frame.degrees
    seeds = []
    imported = None
    if cc_cert is not None and cc_cert.get("form") == "controls":
        U = np.zeros((segments, frame.q))
        Uc = np.asarray(cc_cert["controls"], dtype=float)
        if Uc.shape[0] == segments:
            U[:, : system.m] = Uc
            seeds.append(U)
    if cc_value is not None and math.isfinite(cc_value):
        imported = (cc_value, cc_cert)
    return _control_estimate(
        "rho", system, frame.words, degrees, lambda U: _rho_value(U, degrees),
        x, y, segments, seed, seeds, imported,
    )


def estimate_all(system, frame, x, y, seed=0):
    """fl, cc and rho estimates with the cross-seeding that fixes ordering."""
    fl = fl_distance(system, x, y, seed=seed)
    cc = cc_distance(
        system, x, y, seed=seed, fl_cert=fl.certificate if fl.ok() else None,
    )
    rho = rho_distance(
        system, frame, x, y, seed=seed,
        cc_cert=cc.certificate if cc.ok() else None,
        cc_value=cc.value if cc.ok() else None,
    )
    return fl, cc, rho


# -- fast ball membership (volume harnesses) ------------------------------------------


def chart_leg_count(frame, I):
    """Number of single-generator legs of the chart of frame I."""
    return sum(len(c_map_legs(frame.word(i), 1.0)) for i in I)


def ball_membership(system, frame, I, x, r, pts):
    """Vectorized membership test for the radius-r ball.

    Inverts the almost-exponential chart at scale r (``invert_chart``) and
    accepts a target when the recovered box coordinate certifies an
    admissible path: the chart decomposes into M single-generator arcs of
    time at most |h|_I * r, so |h|_I <= 1/M certifies arc distance at most r.
    An arc path is admissible for every class, so the same rule is a valid
    one-sided test for the weighted and the control ball; rejected points may
    still lie in the ball.  A row is accepted only with residual at most
    1e-8 + 1e-6 * r.  The acceptance rule is ``membership_mask`` at R = r.
    """
    H, res = invert_chart(frame, I, x, r, pts)
    return membership_mask(frame, I, r, H, res, r), H, res


def membership_mask(frame, I, R, H, res, r):
    """Acceptance mask of the radius-r ball from a membership solve at R >= r.

    ``H`` and ``res`` are the box coordinates and residuals that
    ``ball_membership`` returned at radius R.  The chart dilates exactly:
    E_r(h) = E_R(delta_{r/R} h), with delta_lam multiplying h_k by
    lam**l_k, because the leg times |h_k|**(1/l_k) * r depend on h and r only
    through that product.  The radius-r coordinates of a row are therefore
    delta_{R/r} H, with the same chart point and residual, and their box gauge
    is R/r times that of H.  A row is accepted when its residual is at most
    1e-8 + 1e-6 * r and that gauge is at most 1/M, M the chart's leg count.
    """
    boxn = box_norm(H, [frame.degree(i) for i in I]) * (R / r)
    tol = 1e-8 + 1e-6 * r
    return (res <= tol) & (boxn <= 1.0 / chart_leg_count(frame, I))


def fefferman_phong_check(system, x, directions, scales, s, seed=0):
    """Sup of d_hat / |x-y|^(1/s) per Euclidean scale, over fixed directions.

    The same direction set is reused at every scale so the per-scale suprema
    are comparable; bounded variation across scales is the check.
    """
    x = np.asarray(x, dtype=float)
    rows = []
    for delta in scales:
        worst = 0.0
        for u in directions:
            u = np.asarray(u, dtype=float)
            y = x + delta * u / np.linalg.norm(u)
            est = fl_distance(system, x, y, seed=seed)
            if est.ok():
                worst = max(worst, est.value / delta ** (1.0 / s))
            else:
                worst = math.inf
        rows.append((float(delta), worst))
    return rows
