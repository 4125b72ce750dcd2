"""Approximate exponentials of commutators and the almost-exponential chart.

The group-commutator map composes signed generator flows; its recursion
produces, for a word of length l, a list of 2^l - 2 + 2 flow legs (1 leg at
l = 1).  The almost-exponential map chains one approximate exponential per
frame entry, with the radius folded into the leg times: a scaled commutator
r^l Y flown for parameter h uses leg times |h|^(1/l) * r over the original
generators, which is exactly the scaled-generator composition.
``e_map_batch`` is the one chart; ``e_map`` is one of its rows,
``jacobian_e`` its central-difference Jacobian and ``invert_chart`` its one
inverse.  Its legs are exact on triangular fields and ``flows.RK4_STEPS``-step
RK4 otherwise.  ``invert_chart`` steps by forward substitution on the
leading-order Jacobian when the frame is lower-triangular, as exponential
coordinates of the second kind are on stratified groups, and by a batched
``solve`` (``pinv`` when singular) otherwise.  ``exp_ap`` and ``c_map``
compose adaptive DOPRI5 legs, the reference the chart is tested on.
"""

import numpy as np

from .vfield import all_words
from .words import check_integers, check_word

# Quasi-Newton iterations of ``invert_chart`` for a row that never settles.
_INVERT_ITERS = 50


def c_map_legs(letters, tau):
    """Flow legs (signed letter, time), first-applied first.

    Base case is the single flow; the recursive case conjugates the shorter
    map by the first generator's flow.
    """
    letters = tuple(letters)
    if len(letters) == 1:
        return [(letters[0], tau)]
    inner = c_map_legs(letters[1:], tau)
    inv = invert_legs(inner)
    first = letters[0]
    return [(first, tau)] + inner + [(first, -tau)] + inv


def invert_legs(legs):
    return [(j, -t) for j, t in reversed(legs)]


def c_map(system, tau, letters, x):
    """Group-commutator composition of generator flows at parameter tau >= 0."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    letters = check_word(letters, alphabet=system.m)
    return system.compose_flows(c_map_legs(letters, tau), x)


def exp_ap_legs(t, w):
    """Legs of the approximate exponential at (possibly negative) time t."""
    ell = len(w)
    tau = abs(t) ** (1.0 / ell)
    legs = c_map_legs(w, tau)
    return legs if t >= 0 else invert_legs(legs)


def exp_ap(system, t, w, x):
    """Approximate exponential of the nested commutator of ``w`` at time t."""
    w = check_word(w, alphabet=system.m)
    return system.compose_flows(exp_ap_legs(t, w), x)


class CommutatorFrame:
    """The commutator family of a system: words, degrees, coefficient maps."""

    def __init__(self, system):
        self.system = system
        self.words = all_words(system.m, system.s)
        self.q = len(self.words)
        self.degrees = tuple(len(w) for w in self.words)
        self.maps = tuple(system.commutator_coeffs(w) for w in self.words)

    def degree(self, j):
        return self.degrees[j - 1]

    def word(self, j):
        return self.words[j - 1]

    def map(self, j):
        return self.maps[j - 1]

    def eval_columns(self, indices, x):
        """Matrix with columns Y_{i}(x) for i in ``indices`` (floats)."""
        return np.stack([self.map(i)(x) for i in indices], axis=1)

    def check_index_tuple(self, I):
        I = check_integers(I, "frame indices")
        if len(I) != self.system.n:
            raise ValueError(f"need {self.system.n} indices, got {len(I)}")
        if any(not 1 <= i <= self.q for i in I):
            raise ValueError(f"index outside 1..{self.q}: {I}")
        return I

    def ell(self, I):
        return sum(self.degree(i) for i in I)


def box_norm(h, degrees):
    """max_k |h_k|**(1/ell_k) over the last axis of h, the anisotropic box gauge."""
    degs = np.asarray(degrees, dtype=float)
    return _column_max(np.abs(h) ** (1.0 / degs))


def e_map(frame, I, x, r, h):
    """Almost-exponential chart at one point h: one row of ``e_map_batch``.

    The last frame entry is applied to x first.  Scaling: entry k of degree
    l contributes legs at times |h_k|**(1/l) * r over the original
    generators, the inverse branch when h_k < 0.  A field that is not
    triangular (x d/dx, say) flows by ``flows.RK4_STEPS`` = 32-step RK4 per
    leg: on x d/dx at r = 1 the error is 3e-11 at h = 0.3 and 3e-8 at h = 1
    (DOPRI5: 2e-11, 1e-10).
    """
    I = frame.check_index_tuple(I)
    if not 0 < r <= 1:
        raise ValueError("radius must be in (0, 1]")
    H = np.asarray(h, dtype=float)[None]
    return tuple(float(v) for v in e_map_batch(frame, I, x, r, H)[0])


def e_map_batch(frame, I, x, r, H):
    """Vectorized chart over H of shape (N, n).

    Legs are ``VectorFieldSystem.flow_batch``: exact for triangular fields,
    ``flows.RK4_STEPS``-step RK4 otherwise.
    """
    I = frame.check_index_tuple(I)
    system = frame.system
    H = np.asarray(H, dtype=float)
    Y = np.broadcast_to(np.asarray(x, dtype=float), H.shape).copy()
    for k in range(len(I) - 1, -1, -1):
        w = frame.word(I[k])
        ell = len(w)
        hk = H[:, k]
        if ell == 1:
            Y = system.flow_batch(w[0], hk * r, Y)
            continue
        tau = np.abs(hk) ** (1.0 / ell) * r
        for branch, legs in (
            (hk >= 0, c_map_legs(w, 1.0)),
            (hk < 0, invert_legs(c_map_legs(w, 1.0))),
        ):
            if not branch.any():
                continue
            sub = Y[branch]
            tb = tau[branch]
            for j, unit_t in legs:
                sub = system.flow_batch(j, unit_t * tb, sub)
            Y[branch] = sub
    return Y


def jacobian_e(frame, I, x, r, h):
    """Jacobian of ``e_map`` at h, column k stepped by 1e-5 * max(1, |h_k|), and its det.

    Central differences: all 2n shifted points go through one
    ``e_map_batch`` call.
    """
    I = frame.check_index_tuple(I)
    if not 0 < r <= 1:  # as in e_map; e_map_batch takes r > 1 for doubling's 2r
        raise ValueError("radius must be in (0, 1]")
    h = np.asarray(h, dtype=float)
    n = h.size
    d = 1e-5 * np.maximum(1.0, np.abs(h))
    shift = d[:, None] * np.eye(n)
    P = e_map_batch(frame, I, x, r, np.concatenate([h + shift, h - shift]))
    J = ((P[:n] - P[n:]) / (2 * d)[:, None]).T
    return J, float(np.linalg.det(J))


def invert_chart(frame, I, x, r, Y):
    """Quasi-Newton solves of e_map(h) = y from h = 0, one row per target.

    The Jacobian is the leading-order column matrix r^{l_k} Y_{i_k} taken at
    the current chart point, plus a 1e-12 ridge, and every step is capped at
    0.5 in max norm.  When the frame is lower-triangular (component i of
    Y_{i_k} is the zero polynomial for every i < k, as at the maximal frame
    of every built-in model) each step is n vectorized forward-substitution
    steps.  Otherwise, or when a diagonal entry of the batch is exactly 0,
    the step is a batched ``solve``, and ``pinv`` when that batch is
    singular.  Each row stops on its own: once the undamped step it just
    took is at the floating-point floor (max |dH| <= 1e-12), its residual is
    evaluated once more at the new H and the row leaves the batch.  Rows
    that never reach the floor (slow or non-finite rows) run all
    ``_INVERT_ITERS`` iterations.  Returns the solutions H and the residuals
    |y - e_map(H)|; each caller applies its own acceptance rule.
    """
    I = frame.check_index_tuple(I)
    system = frame.system
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    N, n = Y.shape
    columns = [(r ** frame.degree(i), system.batch_fn(frame.word(i))) for i in I]
    triangular = all(frame.map(I[k])[i].is_zero() for k in range(n) for i in range(k))
    H, res = np.empty((N, n)), np.empty(N)
    # the live rows, compact: their index, chart coordinates and targets
    live, HL, YL = np.arange(N), np.zeros((N, n)), Y
    settled = np.zeros(N, dtype=bool)
    for it in range(_INVERT_ITERS + 1):
        E = e_map_batch(frame, I, x, r, HL)
        R = YL - E
        done = settled | (it == _INVERT_ITERS)
        if done.any():
            H[live[done]] = HL[done]
            res[live[done]] = np.linalg.norm(R[done], axis=1)
            keep = ~done
            live, HL, YL, E, R = live[keep], HL[keep], YL[keep], E[keep], R[keep]
            if not live.size:
                break
        cols = [s * fn(E) for s, fn in columns]
        dH = _chart_step(cols, R, triangular)
        cap = np.maximum(_column_max(np.abs(dH)), 1e-300)
        dH *= np.minimum(1.0, 0.5 / cap)[:, None]
        HL += dH
        settled = cap <= 1e-12
    return H, res


def _chart_step(cols, R, triangular):
    """Solve J dH = R for every row, J the column arrays ``cols`` plus a 1e-12 ridge."""
    n = len(cols)
    diag = [cols[i][:, i] + 1e-12 for i in range(n)]
    if triangular and all(d.all() for d in diag):
        dH = np.empty_like(R)
        for i in range(n):
            acc = R[:, i]
            for k in range(i):
                acc = acc - cols[k][:, i] * dH[:, k]
            dH[:, i] = acc / diag[i]
        return dH
    J = np.stack(cols, axis=2) + 1e-12 * np.eye(n)
    try:
        return np.linalg.solve(J, R[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return (np.linalg.pinv(J) @ R[..., None])[..., 0]


def _column_max(A):
    """Max over the last axis of A as a fold over its columns (NaN propagates)."""
    out = A[..., 0]
    for k in range(1, A.shape[-1]):
        out = np.maximum(out, A[..., k])
    return out


def scaled_columns(frame, I, x, r):
    """Leading-order Jacobian columns r^{l_k} Y_{i_k}(x)."""
    I = frame.check_index_tuple(I)
    cols = [frame.map(i)(x) * r ** frame.degree(i) for i in I]
    return np.stack(cols, axis=1)

