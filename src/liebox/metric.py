"""Upper-bound estimators for the three control distances.

All three estimators construct feasible paths, so every returned value is a
certified upper bound; none of them can prove a lower bound.  The flow-arc
distance searches over sequences of single-generator arcs, the control
distance over piecewise-constant generator mixtures, and the weighted frame
distance over mixtures of all commutators with degree-weighted speeds.
Gauss-Newton shooting (with finite-difference Jacobians evaluated as one
vectorized batch) finds feasible paths: ``_shoot`` solves from each start and
keeps the feasible ones, and ``_best`` reports the first smallest.  Each
estimator seeds the next by its estimate, which guarantees the
admissible-class orderings: ``cc_distance(..., fl=)`` shoots from the arc
path and imports its value, and ``rho_distance(..., cc=)`` does the same with
the control path.  Paths flow exactly on triangular fields and by the
adaptive ``flows.dopri5`` on any other field, where a path that leaves the
domain box ends at NaN and is never feasible.  Endpoints must be finite
(``ValueError`` otherwise); the feasibility tolerance and iteration caps are
module constants.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .approxexp import ball_membership, e_map_batch  # noqa: F401  (the perfbench tracer patches both)
from .linalg import min_norm_solve

FEAS_TOL = 1e-9
# Gauss-Newton iterations per shooting solve, and random arc templates after
# the canonical ones in ``fl_distance``.
_GN_ITERS = 20
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


def _gauss_newton(endpoint_batch, theta0, target, tol):
    """Minimize |endpoint(theta) - target| by damped Gauss-Newton.

    ``endpoint_batch`` maps an array of parameter vectors (B, dim) to
    endpoints (B, n); the Jacobian comes from one forward-difference batch.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    dim = theta.size
    res = target - endpoint_batch(theta[None, :])[0]
    best = float(np.linalg.norm(res))
    for _ in range(_GN_ITERS):
        if not best > tol:  # feasible, or a start off the domain box (NaN)
            break
        deltas = 1e-6 * np.maximum(1.0, np.abs(theta))
        batch = np.tile(theta, (dim + 1, 1))
        for i in range(dim):
            batch[i + 1, i] += deltas[i]
        E = endpoint_batch(batch)
        res = target - E[0]
        J = (E[1:] - E[0]) / deltas[:, None]
        if not math.isfinite(J.sum()):  # lstsq fails on a NaN or inf entry
            break
        step, *_ = np.linalg.lstsq(J.T, res, rcond=None)
        # damped update: all halvings evaluated as one batch, best wins;
        # a candidate off the domain box (NaN) never does: fmin maps it to inf
        cands = np.stack([theta + step * (0.5**k) for k in range(6)])
        rs = np.fmin(np.linalg.norm(endpoint_batch(cands) - target, axis=1), np.inf)
        k = int(np.argmin(rs))
        if rs[k] < best:
            theta, best = cands[k], float(rs[k])
        else:
            break
    return theta, best


def _shoot(ep, starts, y, tol, value, cert):
    """(value(theta), cert(theta)) of each start whose solve reaches y, in order."""
    pool = []
    for theta0 in starts:
        theta, res = _gauss_newton(ep, theta0, y, tol)
        if res <= tol:
            pool.append((value(theta), cert(theta)))
    return pool


def _best(kind, pool):
    """The first smallest (value, certificate) of the pool, traced as the one
    value reported; ``budget_exhausted`` when the pool is empty."""
    if not pool:
        return DistanceEstimate(kind, math.inf, "budget_exhausted", None)
    value, cert = min(pool, key=lambda c: c[0])
    return DistanceEstimate(kind, value, "ok", cert, [(value, True)])


# -- the flow-arc estimator -------------------------------------------------------


def _feasibility_tol(dx):
    """Endpoint residual at which a path counts as reaching a target dx away."""
    return FEAS_TOL * (1.0 + dx) + 1e-8


def _pair(x, y):
    """x and y as arrays, their Euclidean distance and feasibility tolerance.

    A non-finite coordinate raises ``ValueError`` before any solve.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"distance endpoints must be finite, got {x} and {y}")
    dx = float(np.linalg.norm(y - x))
    return x, y, dx, _feasibility_tol(dx)


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
    x, y, dx, tol = _pair(x, y)
    if dx <= tol:
        return DistanceEstimate("fl", 0.0, "ok", {"form": "legs", "legs": []})

    def shoot(letters, starts):
        def legs(T):
            return {"form": "legs", "legs": [
                (int(j) if t >= 0 else -int(j), abs(float(t)))
                for j, t in zip(letters, T) if abs(t) > 1e-14]}

        ep = lambda T: arc_endpoints(system, letters, T, x)
        return _shoot(ep, starts, y, tol, lambda T: float(np.abs(T).sum()), legs)

    rng = np.random.default_rng(seed)
    pool = []
    templates, n_canonical = _arc_templates(system, max_segments, rng)
    for ti, letters in enumerate(templates):
        if len(pool) >= 8 or (ti >= n_canonical and len(pool) >= 3):
            break
        pool += shoot(letters, _arc_inits(letters, dx, rng, system.s))
    for cert in seed_paths:
        if cert and cert.get("form") == "legs" and cert["legs"]:
            letters = tuple(abs(j) for j, _ in cert["legs"])
            pool += shoot(letters, [[t if j > 0 else -t for j, t in cert["legs"]]])
    return _best("fl", pool)


# -- control-path estimators -------------------------------------------------------


def _segment_scales(U, degrees):
    """Per segment, the smallest r with sum_j (u_j / r^deg_j)^2 <= 1.

    Vectorized bisection; the map r -> sum is strictly decreasing.
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


def _control_estimate(kind, system, keys, degrees, value_fn, x, y, segments, seed, seeds,
                      imported):
    """The best of the paths shot from ``seeds``, the min-norm constant control
    and one random start, and of the ``imported`` (value, certificate) pairs,
    which follow the shooting solutions: a shooting solution wins a tie."""
    x, y, dx, tol = _pair(x, y)
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
    # the constant min-norm control toward the target direction, then a random start
    cols = np.stack([system.batch_fn(key)(x[None, :])[0] for key in keys], axis=1)
    b0, _, _ = min_norm_solve(cols, y - x)
    starts = seeds + [np.tile(b0, (segments, 1)),
                      rng.normal(size=shape) * 0.3 * (dx + dx ** (1.0 / max(degrees)))]
    pool = _shoot(ep, [U.reshape(-1) for U in starts], y, tol,
                  lambda U: value_fn(U.reshape(shape)),
                  lambda U: {"form": "controls", "segments": segments,
                             "controls": U.reshape(shape).tolist()})
    return _best(kind, pool + imported)


def cc_distance(system, x, y, segments=8, seed=0, fl=None):
    """Control-distance estimate over piecewise-constant generator mixtures.

    The arc path of an ``fl`` estimate is admissible here, so its legs seed
    one shooting start and their total time enters the candidate pool; the
    reported bound never exceeds it.  The reported value is the smallest in
    that pool, which also holds the paths shot from the min-norm constant
    control and one random start; the trace holds that one value.
    """
    seeds, imported = [], []
    if fl is not None and fl.ok() and fl.certificate["legs"]:
        legs = fl.certificate["legs"]
        seeds.append(_legs_to_controls(legs, segments, system.m))
        # the certificate's own legs: fl.value also counts the dropped tiny legs
        imported.append((sum(t for _, t in legs), fl.certificate))
    return _control_estimate("cc", system, tuple(range(1, system.m + 1)), (1,) * system.m,
                             lambda U: float(np.linalg.norm(U, axis=-1).max()),
                             x, y, segments, seed, seeds, imported)


def rho_distance(system, frame, x, y, segments=8, seed=0, cc=None):
    """Weighted-frame distance estimate over all commutator directions.

    A ``cc`` estimate's path embeds with identical value (the generators are
    the degree-one frame members), so it enters the candidate pool and, when
    it is a control path of ``segments`` segments, seeds one shooting start:
    the weighted estimate never exceeds the control one.
    """
    seeds, imported = [], []
    if cc is not None and cc.ok():
        cert = cc.certificate
        imported.append((cc.value, cert))
        if cert["form"] == "controls" and len(cert["controls"]) == segments:
            U = np.zeros((segments, frame.q))
            U[:, : system.m] = cert["controls"]
            seeds.append(U)
    return _control_estimate("rho", system, frame.words, frame.degrees,
                             lambda U: float(_segment_scales(U, frame.degrees).max()),
                             x, y, segments, seed, seeds, imported)


def estimate_all(system, frame, x, y, seed=0):
    """fl, cc and rho estimates, each seeded by the one before it, which
    fixes the ordering rho <= cc <= fl."""
    fl = fl_distance(system, x, y, seed=seed)
    cc = cc_distance(system, x, y, seed=seed, fl=fl)
    return fl, cc, rho_distance(system, frame, x, y, seed=seed, cc=cc)


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
