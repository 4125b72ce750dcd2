"""Approximate exponentials of commutators and the almost-exponential chart.

The group-commutator map composes signed generator flows, 3 * 2^(l-1) - 2
legs for a word of length l by its recursion.  The almost-exponential map
chains one approximate exponential per frame entry, with the radius folded
into the leg times: a scaled commutator r^l Y flown for parameter h
uses leg times |h|^(1/l) * r over the original generators, which is exactly
the scaled-generator composition.  For h < 0 the legs are inverted.
``e_map_batch`` is the one chart; ``e_map`` is one of its rows,
``jacobian_e`` its central-difference Jacobian, ``invert_chart`` its one
inverse and ``chart_leg_count`` its number of legs.  The volume harnesses'
ball membership is built on these: ``ball_membership`` inverts the chart
once, and ``membership_mask`` is the one acceptance rule, box gauge at most
1/M for the M legs.  Its unread ``system`` argument stays because the
perfbench tracer reads the sample points at position 5.

Each (frame, I) runs one straight-line chart function, generated on first
use and kept on the frame.  An entry whose letters are all triangular
fields is one exact polynomial step: ``branch_maps`` composes its forward
legs and their inverse into one polynomial map over (x, tau) each
(``Poly.substitute`` of each letter's ``PolyMap.flow_map``), and the columns
gain the half-sum plus, times the sign of h, the half-difference of the two
displacements.  Any other entry is one call of the arc evaluator
(``arc_path_batch``: exact Lie series for a triangular letter, one
``flows.dopri5`` call, NaN rows off the box, for any other; the system's
only flow path), one time column per leg; the inverse
legs run the forward letters from the second on and then the first again,
so a zero-time leg (which leaves a finite in-box row unchanged) pads both
signs to one letter sequence.  A row with a non-finite h comes back all NaN.

``invert_chart`` steps by forward substitution on the leading-order Jacobian
when the frame is lower-triangular, as exponential coordinates of the second
kind are on stratified groups; that step is generated beside the chart, in
its record (``_step_source``).  The one fallback, for other frames and for a
zero diagonal entry, is a batched ``solve`` (``pinv`` when singular) on the
system's cached batch evaluators (``batch_fn``).  Its first iteration, at
h = 0, runs the chart on one row.  ``exp_ap`` and ``c_map`` are single rows
of the arc evaluator (``compose_flows``).
"""

from fractions import Fraction

import numpy as np

from .poly import Poly, PolyMap, exec_source
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
        # built on first use: each index tuple's chart, ballbox's candidate table
        self.tables = {}

    def degree(self, j):
        return self.degrees[j - 1]

    def word(self, j):
        return self.words[j - 1]

    def map(self, j):
        return self.maps[j - 1]

    def eval_columns(self, indices, x):
        """Matrix with columns Y_{i}(x) for i in ``indices``, each one row of
        the system's cached batch evaluator of the word."""
        fn, x = self.system.batch_fn, np.asarray(x, dtype=float)
        return np.stack([fn(self.word(i))(x) for i in indices], axis=1)

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

    The last frame entry is applied to x first, at leg times |h_k|**(1/l) * r.
    """
    I = frame.check_index_tuple(I)
    if not 0 < r <= 1:
        raise ValueError("radius must be in (0, 1]")
    H = np.asarray(h, dtype=float)[None]
    return tuple(float(v) for v in e_map_batch(frame, I, x, r, H)[0])


def chart_leg_count(frame, I):
    """Number of single-generator legs of the chart of frame I."""
    return sum(len(c_map_legs(frame.word(i), 1.0)) for i in I)


def e_map_batch(frame, I, x, r, H):
    """Vectorized chart over H of shape (N, n); a row with a non-finite h is NaN.

    Entry k takes tau_k once.  With only triangular letters it moves every
    row by its composed branch polynomials at tau_k (``_composed_entry``).
    Any other entry is one arc path over every row, leg i at time
    p_i * tau_k (h_k >= 0) or q_i * tau_k (h_k < 0).  For l >= 2 a
    zero-time leg joins its forward and inverse legs; it leaves a finite row
    in the domain box unchanged and makes an off-box or non-finite row NaN.
    """
    I = frame.check_index_tuple(I)
    return _chart(frame, I)[0](x, r, np.asarray(H, dtype=float))


def _chart(frame, I):
    """(compiled chart, Newton step or None, [(degree, evaluator) of each
    Y_{i_k}]) of frame I, one generated source built on first use and kept on
    the frame; the step (``_step_source``) exists for a lower-triangular frame."""
    if I in frame.tables:
        return frame.tables[I]
    system, n = frame.system, frame.system.n
    cols = "".join(f"x{i}, " for i in range(n))
    # column-major P: the columns x0.. are contiguous views, which the
    # composed entries move in place and an arc path rewrites through P
    lines = ["def _chart(x, r, H):",
             "    P = np.broadcast_to(np.asarray(x, dtype=float), H.shape).T.copy().T",
             f"    {cols}= P.T"]
    for k in range(n - 1, -1, -1):
        w = frame.word(I[k])
        if all(system.field(j).is_triangular() for j in w):
            lines += _composed_entry(system, w, k)
            continue
        lines += [f"    tau = np.abs(H[:, {k}]) ** {1.0 / len(w)!r} * r",
                  f"    forward = H[:, {k}] >= 0"]
        legs = c_map_legs(w, 1.0)
        pad = [(w[0], 0.0)] if len(w) > 1 else []
        times = ", ".join(f"{p!r} * tau" if p == q else f"np.where(forward, {p!r}, {q!r}) * tau"
                          for (_, p), (_, q) in zip(legs + pad, pad + invert_legs(legs)))
        letters = tuple(j for j, _ in legs + pad)
        lines.append(f"    P[:] = arcs({letters!r}, np.stack([{times}], axis=1), P)")
    # one column at a time: cheaper than np.stack on few rows and on many
    lines += ["    out = np.empty(H.shape)"] + [f"    out[:, {i}] = x{i}" for i in range(n)]
    lines += ["    if not np.isfinite(H).all():",
              "        out[~np.isfinite(H).all(axis=1)] = np.nan",
              "    return out"]
    triangular = all(frame.map(I[k])[i].is_zero() for k in range(n) for i in range(k))
    lines += _step_source(frame, I) if triangular else ["_step = None"]
    columns = [(frame.degree(i), system.batch_fn(frame.word(i))) for i in I]
    chart, step = exec_source(lines + ["_f = _chart, _step"], arcs=system.arc_path_batch)
    frame.tables[I] = chart, step, columns
    return frame.tables[I]


def _step_source(frame, I):
    """Lines of ``_step(E, R, r)``, one capped quasi-Newton step of
    ``invert_chart`` on a lower-triangular frame: the columns
    c{k}_{i} = r**l_k * Y_{i_k}[i](E) for i >= k, each summed from 0.0 in
    its batch evaluator's order (zero ones too: 0 * inf is NaN), forward
    substitution with the 1e-12 ridge, and the 0.5 cap in max norm.  Returns
    (dH, cap), or None when a ridged diagonal entry is exactly 0."""
    n = frame.system.n
    lines = ["def _step(E, R, r):"] + [f"    x{i} = E[:, {i}]" for i in range(n)]
    diag = []
    for k, j in enumerate(I):
        for i in range(k, n):
            terms = " + ".join(["0.0"] + frame.map(j)[i]._batch_terms())
            lines.append(f"    c{k}_{i} = r ** {frame.degree(j)} * ({terms})")
        lines.append(f"    d{k} = c{k}_{k} + 1e-12")
        # a constant column entry is a float, which has no .all()
        constant = not any(any(e) for e in frame.map(j)[k].terms)
        diag.append(f"d{k} != 0.0" if constant else f"d{k}.all()")
    lines += [f"    if not ({' and '.join(diag)}):", "        return None"]
    for i in range(n):
        acc = "".join(f" - c{k}_{i} * h{k}" for k in range(i))
        lines.append(f"    h{i} = (R[:, {i}]{acc}) / d{i}")
    lines.append("    cap = np.abs(h0)")
    lines += [f"    cap = np.maximum(cap, np.abs(h{i}))" for i in range(1, n)]
    lines += ["    cap = np.maximum(cap, 1e-300)",
              "    s = np.minimum(1.0, 0.5 / cap)",
              "    dH = np.empty(R.shape)"]
    lines += [f"    dH[:, {i}] = h{i} * s" for i in range(n)]
    return lines + ["    return dH, cap"]


def branch_maps(system, w):
    """The forward legs ``c_map_legs(w, tau)`` and their ``invert_legs``, each
    composed exactly into one PolyMap over (x, tau), tau the last variable.

    Every letter of ``w`` must be a triangular field, whose flow is the exact
    polynomial ``flow_map``; leg (j, c * tau) substitutes the map so far for x
    and c * tau for T in the flow of letter j.
    """
    n = system.n
    tau = Poly.var(n + 1, n)
    legs = c_map_legs(w, 1)
    out = []
    for branch in (legs, invert_legs(legs)):
        X = [Poly.var(n + 1, i) for i in range(n)]
        for j, c in branch:
            X = [p.substitute(X + [tau.scale(c)]) for p in system.field(j).flow_map()]
        out.append(PolyMap(X))
    return out


def _composed_entry(system, w, k):
    """Lines moving the columns by entry k's composed branch maps: with s the
    sign of h_k as +-1 (its sign bit), x_i += A_i + s*B_i, A and B the halves
    of the sum and the difference of the two branches' displacements, which
    read only the columns before i; tau's powers t1, t2, .. by repeated
    products."""
    forward, inverse = branch_maps(system, w)
    ident = [Poly.var(system.n + 1, i) for i in range(system.n)]
    A = [((p + q).scale(Fraction(1, 2)) - x) for p, q, x in zip(forward, inverse, ident)]
    B = [(p - q).scale(Fraction(1, 2)) for p, q in zip(forward, inverse)]
    top = max((e[-1] for p in A + B for e in p.terms), default=1)
    root = f" ** {1.0 / len(w)!r}" if len(w) > 1 else ""
    lines = [f"    t1 = np.abs(H[:, {k}]){root} * r",
             f"    s = np.copysign(1.0, H[:, {k}])"]
    lines += [f"    t{d} = t{d - 1} * t1" for d in range(2, top + 1)]
    for i in reversed(range(system.n)):
        a, b = _tau_source(A[i]), _tau_source(B[i])
        parts = ([a] if a else []) + ([f"s*({b})"] if b else [])
        if parts:
            lines.append(f"    x{i} += {' + '.join(parts)}")
    return lines


def _tau_source(p):
    """Source of a Poly over (x, tau): each power d >= 1 of tau as t{d} times
    its coefficient's terms; the empty string for the zero Poly."""
    groups = []
    for d, g in enumerate(p.split_last()):
        if g.terms:
            terms = g._batch_terms()
            groups.append(f"t{d}" if terms == ["1.0"] else f"t{d}*({' + '.join(terms)})")
    return " + ".join(groups)


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
    of every built-in model) each step is the frame's generated step
    (``_step_source``), n forward-substitution steps.  Otherwise, or when a
    diagonal entry of the batch is exactly 0, the step is a batched
    ``solve``, and ``pinv`` when that batch is singular.  Every row starts
    at h = 0, so the first iteration runs the chart and columns on one row.
    Each row stops on its own: once the undamped step it just took is at the
    floating-point floor (max |dH| <= 1e-12), its residual is evaluated once
    more at the new H and the row leaves the batch.  Rows that never reach
    the floor (slow or non-finite rows) run all ``_INVERT_ITERS``
    iterations.  Leaving rows are gathered and the live arrays compacted by
    ``take``; a batch that settles whole returns its arrays as they are.
    Returns the solutions H and the residuals |y - e_map(H)| (``_row_norm``);
    each caller applies its own acceptance rule.
    """
    I = frame.check_index_tuple(I)
    _, step, columns = _chart(frame, I)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    N, n = Y.shape
    H, res = np.empty((N, n)), np.empty(N)
    # the live rows, compact: their index, chart coordinates and targets
    live, HL, YL = np.arange(N), np.zeros((N, n)), Y
    settled = np.zeros(N, dtype=bool)
    for it in range(_INVERT_ITERS + 1):
        E = e_map_batch(frame, I, x, r, HL if it else HL[:1])
        R = YL - E
        done = settled | (it == _INVERT_ITERS)
        if live.size == N and done.all():
            return HL, _row_norm(R)
        if done.any():
            gone, keep = np.flatnonzero(done), np.flatnonzero(~done)
            H[live[gone]], res[live[gone]] = HL.take(gone, 0), _row_norm(R.take(gone, 0))
            if not keep.size:
                break
            live, HL, YL, E, R = (a.take(keep, 0) for a in (live, HL, YL, E, R))
        out = step(E, R, r) if step else None
        dH, cap = out or _chart_step([r ** d * fn(E) for d, fn in columns], R)
        HL += dH
        settled = cap <= 1e-12
    return H, res


def _chart_step(cols, R):
    """Solve J dH = R for every row, J the column arrays ``cols`` plus a 1e-12
    ridge, by a batched ``solve`` (``pinv`` when singular); returns dH capped
    at 0.5 in max norm and its max norm before the cap (at least 1e-300)."""
    J = np.stack(cols, axis=2) + 1e-12 * np.eye(len(cols))
    try:
        dH = np.linalg.solve(J, R[..., None])[..., 0]
    except np.linalg.LinAlgError:
        dH = (np.linalg.pinv(J) @ R[..., None])[..., 0]
    cap = np.maximum(_column_max(np.abs(dH)), 1e-300)
    return dH * np.minimum(1.0, 0.5 / cap)[:, None], cap


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


def _row_norm(R):
    """np.linalg.norm(R, axis=1), bitwise: numpy sums a row of fewer than 8
    entries in column order, as here (and longer rows pairwise)."""
    if R.shape[1] >= 8:
        return np.linalg.norm(R, axis=1)
    return np.sqrt(sum((R[:, k] * R[:, k] for k in range(1, R.shape[1])), R[:, 0] * R[:, 0]))


def _column_max(A):
    """Max over the last axis of A as a fold over its columns (NaN propagates)."""
    out = A[..., 0]
    for k in range(1, A.shape[-1]):
        out = np.maximum(out, A[..., k])
    return out
