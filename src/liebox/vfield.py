"""Polynomial vector-field systems: exact commutators and numeric flows.

A system holds m polynomial fields on R^n plus a step bound s; the nested
commutator coefficients f_w for every word up to length s are computed
eagerly and exactly from the permutation-coefficient formula.  Flows are the
only numeric operation, and every flow is a row of a generated path
evaluator: ``arc_path_batch`` (one per system) or a control path evaluator
(one per key tuple).  In them a triangular field (or the control lift of a
constant-control mixture of them) flows exactly by its terminating Lie
series, any other by the batched adaptive ``flows.dopri5``.  One leg over
many rows (``flow_batch``, ``mixture_flow_batch``) and legs from one point
(``compose_flows``, ``flow``) are calls of those evaluators.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from . import flows
from .poly import Poly, PolyMap, control_mixture, directional_derivative, exec_source, lie_bracket
from .words import apply_perm, check_integers, check_word, pi_support, rational_point


def all_words(m, max_len, min_len=1):
    """Words over {1..m} ordered by (length, lexicographic)."""
    out = []
    for ell in range(min_len, max_len + 1):
        out.extend(itertools.product(range(1, m + 1), repeat=ell))
    return out


class VectorFieldSystem:
    """m polynomial fields on R^n with the commutator family up to step s."""

    def __init__(self, fields, step, name="custom"):
        self.fields = tuple(fields)
        self.m = len(self.fields)
        self.n = self.fields[0].n
        if any(f.n != self.n for f in self.fields):
            raise ValueError("field dimensions disagree")
        self.s = int(step)
        self.name = name
        self.words = all_words(self.m, self.s)
        self._fw = {}
        for w in self.words:
            self._fw[w] = self._build_commutator(w)
        self._batch_fns = {}
        self._flows = {}
        self._horizontal_fns = {}

    # -- exact symbolic layer ------------------------------------------------

    def field(self, j):
        """Generator field for a letter; negative j means the reversed field."""
        if not 1 <= abs(j) <= self.m:
            raise ValueError(f"field index {j} outside 1..{self.m}")
        f = self.fields[abs(j) - 1]
        return -f if j < 0 else f

    def horizontal_derivative(self, j, g):
        """Derivative of a Poly or PolyMap along generator j."""
        return directional_derivative(self.field(j), g)

    def _build_commutator(self, w):
        w = check_word(w, alphabet=self.m)
        acc = PolyMap([Poly.zero(self.n) for _ in range(self.n)])
        for p, sgn in pi_support(len(w)):
            pw = apply_perm(p, w)
            acc = acc + self.apply_word(pw[:-1], self.fields[pw[-1] - 1]).scale(sgn)
        return acc

    def commutator_coeffs(self, w):
        """Exact coefficient map f_w of the nested commutator of the word."""
        w = check_word(w, alphabet=self.m)
        if len(w) > self.s:
            raise ValueError(f"|w|={len(w)} exceeds step {self.s}")
        return self._fw[w]

    def nested_bracket_oracle(self, w):
        """Right-nested fold of the plain Lie bracket; the independent route."""
        w = check_word(w, alphabet=self.m)
        g = self.fields[w[-1] - 1]
        for j in reversed(w[:-1]):
            g = lie_bracket(self.fields[j - 1], g)
        return g

    def apply_word(self, w, psi):
        """Iterated derivative X_{w_1} ... X_{w_k} psi, all letters applied."""
        for j in reversed(w):
            psi = directional_derivative(self.fields[j - 1], psi)
        return psi

    def sharp_word(self, w, psi):
        """Signed sum of iterated derivatives realizing the Lie-derivative form."""
        w = check_word(w, alphabet=self.m)
        acc = Poly.zero(self.n) if isinstance(psi, Poly) else None
        if acc is None:
            raise TypeError("sharp_word acts on scalar Poly")
        for p, sgn in pi_support(len(w)):
            acc = acc + self.apply_word(apply_perm(p, w), psi).scale(sgn)
        return acc

    def word_derivative(self, w, psi):
        """First-order action f_w . grad psi of the nested commutator."""
        return directional_derivative(self.commutator_coeffs(w), psi)

    def ad(self, Z, w):
        """ad_Z applied to the commutator of ``w``, as an exact map.

        ``Z`` is a signed letter or a PolyMap; the map is
        (f_Z . grad) f_w - (f_w . grad) f_Z.
        """
        fz = Z if isinstance(Z, PolyMap) else self.field(Z)
        fw = self.commutator_coeffs(w)
        return directional_derivative(fz, fw) - directional_derivative(fw, fz)

    # -- numeric layer ---------------------------------------------------------

    def _key_map(self, key):
        """Coefficient map of a word, the field of a signed letter, or the
        control lift of a 1-tuple of keys (no word has that shape)."""
        if key in self._fw:
            return self._fw[key]
        if isinstance(key, tuple):
            return control_mixture([self._key_map(k) for k in key[0]])
        return self.field(key)

    def batch_fn(self, key, pmap=None):
        fn = self._batch_fns.get(key)
        if fn is None:
            if pmap is None:
                pmap = self._key_map(key)
            fn = pmap.compile_batch()
            self._batch_fns[key] = fn
        return fn

    def horizontal_fns(self, f):
        """Batch evaluators of the Poly f and of X_1 f, ..., X_m f, compiled once per f."""
        key = (f.nvars, frozenset(f.terms.items()))
        if key not in self._horizontal_fns:
            self._horizontal_fns[key] = [f.compile_batch()] + [
                self.horizontal_derivative(j, f).compile_batch() for j in range(1, self.m + 1)]
        return self._horizontal_fns[key]

    def _adaptive(self, key, T, P):
        """DOPRI5 flow of a non-triangular letter, or lift ``(keys,)``, over the
        rows of P; returns the state columns, those after the d controls.

        A lift's row whose controls u exceed 1 in max norm s flows u / s for
        time s * T: the same path, so large controls do not leave the domain
        box, and rows with max|u| <= 1 are bitwise kept.  The controls stay
        out of the error norm.  ``flows.dopri5`` is looked up at each call,
        so a rebinding of it (the perfbench tracer's) is seen.
        """
        d = P.shape[1] - self.n
        s = np.abs(P[:, :d]).max(axis=1, initial=1.0)
        Y = np.concatenate([P[:, :d] / s[:, None], P[:, d:]], axis=1)
        return flows.dopri5(self.batch_fn(key), T * s, Y, controls=d)[:, d:]

    def _leg_source(self, key):
        """Lines flowing the columns x0.. of the array ``P`` in place for the
        times ``T`` by the flow of ``key``: a letter moves all n columns, a
        lift ``(keys,)`` reads its d controls from x0..x{d-1} and moves the
        state x{d}.. after them.

        A triangular field runs its exact Lie series (``flow_source``) on
        the columns, which must be views of P's; any other field is one call
        of ``adaptive`` (``_adaptive``, in the generated function's scope),
        written back into P's state columns.
        """
        pmap = self._key_map(key)
        if pmap.is_triangular():
            return pmap.flow_source()
        return [f"P[:, {pmap.n - self.n}:] = adaptive({key!r}, T, P)"]

    def arc_path_batch(self, letters, T, x):
        """Endpoints of arc paths from x: signed letter ``letters[i]`` flowed
        for time ``T[:, i]``, first letter first; ``T`` has shape
        (N, len(letters)), returns (N, n).

        One generated evaluator per system, built on first use: a branch per
        letter runs its ``_leg_source``, at -T for a negative letter.
        """
        fn = self._flows.get("arcs")
        if fn is None:
            lines = ["def _f(letters, TT, x):",
                     "    TT = np.atleast_2d(np.asarray(TT, dtype=float))",
                     f"    P = np.empty((len(TT), {self.n}))",
                     f"    {''.join(f'x{i}, ' for i in range(self.n))}= P.T",
                     "    P[:] = x",
                     "    for i, j in enumerate(letters):",
                     "        T = TT[:, i] if j > 0 else -TT[:, i]"]
            for j in range(1, self.m + 1):
                lines.append(f"        {'el' if j > 1 else ''}if abs(j) == {j}:")
                lines += [f"            {s}" for s in self._leg_source(j)]
            lines += ["        else:",
                      f"            raise ValueError(f'field index {{j}} outside 1..{self.m}')",
                      "    return P"]
            fn = self._flows["arcs"] = exec_source(lines, adaptive=self._adaptive)
        return fn(letters, T, x)

    def _control_path(self, keys):
        """Generated evaluator ``(U, x, T) -> endpoints`` of the control paths
        over the key tuple ``keys``, built on first use: each of the
        ``U.shape[1]`` segments lasts ``T`` and runs the lift's
        ``_leg_source`` with the segment's controls in the leading columns."""
        fn = self._flows.get(("controls", keys))
        if fn is None:
            d, n = len(keys), self.n
            lines = ["def _f(U, x, T):",
                     f"    P = np.empty((len(U), {d + n}))",
                     f"    {''.join(f'x{i}, ' for i in range(d + n))}= P.T",
                     f"    P[:, {d}:] = x",
                     "    for seg in range(U.shape[1]):",
                     f"        P[:, :{d}] = U[:, seg]"]
            lines += [f"        {s}" for s in self._leg_source((keys,))]
            lines.append(f"    return P[:, {d}:]")
            fn = self._flows["controls", keys] = exec_source(lines, adaptive=self._adaptive)
        return fn

    def control_path_batch(self, keys, U, x):
        """Endpoints of piecewise-constant control paths from x over the
        fields of ``keys`` (letters or words): ``U`` has shape
        (N, segments, len(keys)), each segment lasts 1/segments and is one
        mixture flow; returns (N, n).  One generated evaluator per key tuple.
        """
        U = np.asarray(U, dtype=float)
        return self._control_path(tuple(keys))(U, x, 1.0 / U.shape[1])

    def flow_batch(self, j, T, Y):
        """Flow of a signed generator letter for times T over rows of Y: one
        leg of ``arc_path_batch``.

        ``T`` is a scalar or has one entry per row.  Exact on a triangular
        field, adaptive (``flows.dopri5``: NaN rows off the domain box) on
        any other.  The sign is folded into T first, so a scalar time stays a
        stride-0 column, which numpy's loops treat as the scalar it is.
        """
        if j < 0:
            j, T = -j, -np.asarray(T, dtype=float)
        Y = np.asarray(Y, dtype=float)
        T = np.broadcast_to(np.asarray(T, dtype=float), Y.shape[:-1])
        return self.arc_path_batch((j,), T[:, None], Y)

    def mixture_flow_batch(self, keys, U, T, Y):
        """Flow of the mixture sum_j U[:, j] X_{keys[j]} for times T over rows of Y.

        ``keys`` are letters or words, ``U`` holds one row of constant
        controls per row of ``Y`` and ``T`` is a scalar or has one entry per
        row.  The controls become leading variables of one lifted field
        (``control_mixture``), flowed as one segment of ``control_path_batch``.
        """
        U = np.asarray(U, dtype=float)[:, None, :]
        return self._control_path(tuple(keys))(U, Y, np.asarray(T, dtype=float))

    def flow(self, j, t, x):
        """Flow of a signed letter from one point: ``compose_flows`` of one leg."""
        return self.compose_flows([(j, t)], x)

    def compose_flows(self, legs, x):
        """Flow legs (signed letter, time) from x, first leg first: one row of
        ``arc_path_batch``.  Raises ``DomainEscapeError`` when the endpoint is
        non-finite or outside the domain box, which an exact leg may leave on
        the way (an adaptive leg that leaves it makes the endpoint NaN)."""
        letters, T = [j for j, _ in legs], [[t for _, t in legs]]
        y = tuple(map(float, self.arc_path_batch(letters, T, x)[0]))
        if not all(abs(v) <= flows.DOMAIN_BOX for v in y):
            raise flows.DomainEscapeError(
                f"flow legs {legs} end at {y}, outside the box +-{flows.DOMAIN_BOX}")
        return y

    # -- limit and expansion checks ---------------------------------------------

    def bracket_via_flows(self, w, psi, x, t):
        """Finite-time commutator quotient from composed generator flows.

        Composes, for every permutation in the support, the flows of the
        permuted word (first letter flowed first) and forms the signed sum
        of psi at the endpoints, divided by t**l.
        """
        w = check_word(w, alphabet=self.m)
        psi_fn = psi.compile_scalar()
        acc = 0.0
        for p, sgn in pi_support(len(w)):
            pw = apply_perm(p, w)
            y = self.compose_flows([(j, t) for j in pw], x)
            acc += sgn * psi_fn(y)
        return acc / t ** len(w)

    def bracket_limit_order(self, w, psi, x, ts):
        """Quotients against the exact value plus a fitted convergence order.

        Errors at or below 1e-12 are excluded from the fit; if fewer than
        two samples remain the order is reported as inf (converged below the
        measurement floor everywhere).
        """
        exact = float(self.word_derivative(w, psi).eval_exact(rational_point(x)))
        quotients = [self.bracket_via_flows(w, psi, x, t) for t in ts]
        errors = [abs(q - exact) for q in quotients]
        return {
            "exact": exact,
            "ts": list(ts),
            "quotients": quotients,
            "errors": errors,
            "slope": _log_slope(ts, errors, 1e-12),
        }

    def _pullback_gradient(self, psi_fn, Z, s, p):
        """Gradient of psi(e^{-sZ} .) at p by central differences."""
        delta = 1e-6
        grad = []
        for i in range(self.n):
            pp = list(p)
            pp[i] += delta
            up = psi_fn(self.flow(Z, -s, pp))
            pp[i] -= 2 * delta
            dn = psi_fn(self.flow(Z, -s, pp))
            grad.append((up - dn) / (2 * delta))
        return grad

    def conjugated_derivative_check(self, Z, w, psi, y):
        """Residual of the flow-conjugation derivative identity at time t = 0.1.

        Left side: central difference, of step h = 1e-4, in t of  F(s) =
        (f_w . grad)(psi o e^{-sZ}) evaluated at e^{sZ}y.  Right side: the
        ad-field acting the same way at time t.  Smooth models make both
        sides well defined; the residual should vanish at second order in h.
        """
        t, h = 0.1, 1e-4
        w = check_word(w, alphabet=self.m)
        psi_fn = psi.compile_scalar()
        fw_fn = self.batch_fn(w, self.commutator_coeffs(w))

        def F(s):
            p = self.flow(Z, s, y)
            grad = self._pullback_gradient(psi_fn, Z, s, p)
            v = fw_fn(np.asarray(p))
            return sum(a * b for a, b in zip(v, grad))

        lhs = (F(t + h) - F(t - h)) / (2 * h)
        g_fn = self.ad(Z, w).compile_batch()
        p = self.flow(Z, t, y)
        grad = self._pullback_gradient(psi_fn, Z, t, p)
        rhs = sum(a * b for a, b in zip(g_fn(np.asarray(p)), grad))
        return float(abs(lhs - rhs))

    def taylor_composed_flows(self, psi, jseq, x, t, ell):
        """Expansion of psi along composed generator flows, plus remainder.

        The partial sum runs over iterated-derivative multi-indices of total
        order < ell, with the first flowed generator differentiating psi
        innermost.  Returns (partial sum, actual value, remainder).
        """
        jseq = tuple(jseq)
        q = len(jseq)
        xf = rational_point(x)
        partial = 0.0
        for ks in itertools.product(range(ell), repeat=q):
            if sum(ks) > ell - 1:
                continue
            g = psi
            for j, k in zip(jseq, ks):
                for _ in range(k):
                    g = directional_derivative(self.fields[j - 1], g)
            coeff = t ** sum(ks) / math.prod(math.factorial(k) for k in ks)
            partial += coeff * float(g.eval_exact(xf))
        y = self.compose_flows([(j, t) for j in reversed(jseq)], x)
        actual = psi.compile_scalar()(y)
        return partial, actual, abs(actual - partial)

    def taylor_remainder_order(self, psi, jseq, x, ts, ell):
        rems = [self.taylor_composed_flows(psi, jseq, x, t, ell)[2] for t in ts]
        return rems, _log_slope(ts, rems, 1e-13)


def _log_slope(ts, errors, floor):
    """Least-squares slope of log error against log t, over the errors above
    ``floor``; inf when fewer than two remain."""
    pts = [(math.log(t), math.log(e)) for t, e in zip(ts, errors) if e > floor]
    if len(pts) < 2:
        return math.inf
    xs = np.array([a for a, _ in pts])
    ys = np.array([b for _, b in pts])
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(sol[0])


# -- model registry ------------------------------------------------------------


def _heisenberg():
    x = Poly.var(3, 0)
    y = Poly.var(3, 1)
    one = Poly.const(3, 1)
    zero = Poly.zero(3)
    f1 = PolyMap([one, zero, y.scale(Fraction(-1, 2))])
    f2 = PolyMap([zero, one, x.scale(Fraction(1, 2))])
    return VectorFieldSystem([f1, f2], step=2, name="heisenberg")


def _grushin():
    x = Poly.var(2, 0)
    one = Poly.const(2, 1)
    zero = Poly.zero(2)
    return VectorFieldSystem(
        [PolyMap([one, zero]), PolyMap([zero, x])], step=2, name="grushin"
    )


def _engel():
    x = Poly.var(4, 0)
    one = Poly.const(4, 1)
    zero = Poly.zero(4)
    f1 = PolyMap([one, zero, zero, zero])
    f2 = PolyMap([zero, one, x, (x * x).scale(Fraction(1, 2))])
    return VectorFieldSystem([f1, f2], step=3, name="engel")


def _martinet():
    x = Poly.var(3, 0)
    one = Poly.const(3, 1)
    zero = Poly.zero(3)
    f1 = PolyMap([one, zero, zero])
    f2 = PolyMap([zero, one, (x * x).scale(Fraction(1, 2))])
    return VectorFieldSystem([f1, f2], step=3, name="martinet")


def _flat(n):
    comps = []
    for j in range(n):
        comps.append(
            PolyMap([Poly.const(n, 1) if i == j else Poly.zero(n) for i in range(n)])
        )
    return VectorFieldSystem(comps, step=1, name=f"flat{n}")


MODEL_BUILDERS = {
    "heisenberg": _heisenberg,
    "grushin": _grushin,
    "engel": _engel,
    "martinet": _martinet,
    "flat2": lambda: _flat(2),
    "flat3": lambda: _flat(3),
}

def load_model(name_or_path):
    """Built-in model by name, or a JSON model file by path."""
    if name_or_path in MODEL_BUILDERS:
        return MODEL_BUILDERS[name_or_path]()
    with open(name_or_path) as fh:
        obj = json.load(fh)
    return system_from_json(obj)


def system_from_json(obj):
    n, m, s = check_integers((obj["n"], obj["m"], obj["s"]), "n, m and s")
    if min(n, m, s) < 1:
        raise ValueError(f"n, m and s must be at least 1, got {n}, {m} and {s}")
    fields = []
    for comps in obj["fields"]:
        if len(comps) != n:
            raise ValueError("field component count != n")
        fields.append(PolyMap([Poly.from_json_terms(n, c) for c in comps]))
    if len(fields) != m:
        raise ValueError("field count != m")
    return VectorFieldSystem(fields, step=s, name=obj.get("name", "file"))
