"""Polynomial vector-field systems: exact commutators and numeric flows.

A system holds m polynomial fields on R^n plus a step bound s; the nested
commutator coefficients f_w for every word up to length s are computed
eagerly and exactly from the permutation-coefficient formula.  Flows are the
only numeric operation: single trajectories run the adaptive integrator at
the configured tolerances, and batched generator flows and constant-control
mixture flows are exact for triangular fields.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import flows
from .poly import Poly, PolyMap, control_mixture, directional_derivative, lie_bracket
from .words import apply_perm, check_word, pi_support


@dataclass
class FlowConfig:
    rtol: float = 1e-10
    atol: float = 1e-10
    box: float = 10.0
    max_steps: int = 100_000


def all_words(m, max_len, min_len=1):
    """Words over {1..m} ordered by (length, lexicographic)."""
    out = []
    for ell in range(min_len, max_len + 1):
        out.extend(itertools.product(range(1, m + 1), repeat=ell))
    return out


class VectorFieldSystem:
    """m polynomial fields on R^n with the commutator family up to step s."""

    def __init__(self, fields, step, name="custom", config=None):
        self.fields = tuple(fields)
        self.m = len(self.fields)
        self.n = self.fields[0].n
        if any(f.n != self.n for f in self.fields):
            raise ValueError("field dimensions disagree")
        self.s = int(step)
        self.name = name
        self.config = config or FlowConfig()
        self.words = all_words(self.m, self.s)
        self._fw = {}
        for w in self.words:
            self._fw[w] = self._build_commutator(w)
        self._scalar_fns = {}
        self._batch_fns = {}
        self._exact_flows = {}

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
            g = self.fields[pw[-1] - 1]
            for j in reversed(pw[:-1]):
                g = directional_derivative(self.fields[j - 1], g)
            acc = acc + g.scale(sgn)
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

    def bracket_pair(self, u, v):
        """Coefficient map of [X_u, X_v] built from the two cached maps."""
        fu, fv = self.commutator_coeffs(u), self.commutator_coeffs(v)
        return lie_bracket(fu, fv)

    def ad(self, Z, w, x=None):
        """ad_Z applied to the commutator of ``w``: exact map, or vector at x.

        ``Z`` is a signed letter or a PolyMap; the map is
        (f_Z . grad) f_w - (f_w . grad) f_Z, exact.  With ``x`` given, the
        map is evaluated exactly at the (rationalized) point.
        """
        fz = Z if isinstance(Z, PolyMap) else self.field(Z)
        fw = self.commutator_coeffs(w)
        out = directional_derivative(fz, fw) - directional_derivative(fw, fz)
        if x is None:
            return out
        xf = [Fraction(v).limit_denominator(10**12) for v in x]
        return out.eval_exact(xf)

    # -- numeric layer ---------------------------------------------------------

    def _scalar_fn(self, key, pmap):
        fn = self._scalar_fns.get(key)
        if fn is None:
            fn = pmap.compile_scalar()
            self._scalar_fns[key] = fn
        return fn

    def _key_map(self, key):
        """Coefficient map of a word, or the field of a signed letter."""
        return self._fw[key] if key in self._fw else self.field(key)

    def batch_fn(self, key, pmap=None):
        fn = self._batch_fns.get(key)
        if fn is None:
            if pmap is None:
                pmap = self._key_map(key)
            fn = pmap.compile_batch()
            self._batch_fns[key] = fn
        return fn

    def flow_batch(self, j, T, Y, steps=4):
        """Flow of a signed generator letter for times T over rows of Y.

        ``T`` is a scalar or has one entry per row.  A triangular field
        flows exactly (its terminating Lie series, compiled at first use);
        any other field falls back to fixed-step RK4 with ``steps`` steps.
        """
        if j < 0:
            j, T = -j, -np.asarray(T, dtype=float)
        if j not in self._exact_flows:
            f = self.field(j)
            self._exact_flows[j] = (
                f.compile_flow_batch() if f.is_triangular() else None
            )
        exact = self._exact_flows[j]
        if exact is None:
            return flows.rk4_batch(self.batch_fn(j), T, Y, steps=steps)
        return exact(np.asarray(T, dtype=float), np.asarray(Y, dtype=float))

    def mixture_flow_batch(self, keys, U, T, Y, steps=4):
        """Flow of the mixture sum_j U[:, j] X_{keys[j]} for times T over rows of Y.

        ``keys`` are letters or words, ``U`` holds one row of constant
        controls per row of ``Y`` and ``T`` is a scalar or has one entry per
        row.  Triangular fields flow exactly: the controls become leading
        variables of one triangular lifted field (``control_mixture``) whose
        Lie series is compiled at first use.  Any other field falls back to
        fixed-step RK4 with ``steps`` steps.
        """
        keys = tuple(keys)
        if keys not in self._exact_flows:
            lift = control_mixture([self._key_map(k) for k in keys])
            self._exact_flows[keys] = (
                lift.compile_flow_batch() if lift.is_triangular() else None
            )
        exact = self._exact_flows[keys]
        U = np.asarray(U, dtype=float)
        if exact is None:
            fns = [self.batch_fn(k) for k in keys]

            def fld(P):
                acc = U[:, 0, None] * fns[0](P)
                for j in range(1, len(fns)):
                    acc = acc + U[:, j, None] * fns[j](P)
                return acc

            return flows.rk4_batch(fld, T, Y, steps=steps)
        P = np.concatenate([U, np.asarray(Y, dtype=float)], axis=-1)
        return exact(np.asarray(T, dtype=float), P)[..., len(keys):]

    def flow(self, field, t, x, fast=False, steps=32):
        """Point of the flow of a generator (signed letter) or a PolyMap.

        ``fast`` switches to fixed-step RK4 for optimizer loops; default is
        the adaptive integrator at the configured tolerances.
        """
        if isinstance(field, PolyMap):
            fn = field.compile_scalar()
        else:
            j = abs(field)
            fn = self._scalar_fn(j, self.field(j))
            if field < 0:
                t = -t
        if fast:
            return flows.rk4(fn, t, x, steps=steps)
        c = self.config
        return flows.dopri5(
            fn, t, x, rtol=c.rtol, atol=c.atol, box=c.box, max_steps=c.max_steps
        )

    def compose_flows(self, legs, x):
        """Apply flow legs (signed letter, time) in sequence, first leg first."""
        y = tuple(float(v) for v in x)
        for j, t in legs:
            y = self.flow(j, t, y)
        return y

    # -- limit and expansion checks ---------------------------------------------

    def bracket_via_flows(self, w, psi, x, t):
        """Finite-time commutator quotient from composed generator flows.

        Composes, for every permutation in the support, the flows of the
        permuted word (first letter flowed first) and forms the signed sum
        of psi at the endpoints, divided by t**l.
        """
        w = check_word(w, alphabet=self.m)
        psi_fn = psi.compile_scalar() if isinstance(psi, Poly) else psi
        acc = 0.0
        for p, sgn in pi_support(len(w)):
            pw = apply_perm(p, w)
            y = self.compose_flows([(j, t) for j in pw], x)
            acc += sgn * psi_fn(y)
        return acc / t ** len(w)

    def bracket_limit_order(self, w, psi, x, ts, floor=1e-12):
        """Quotients against the exact value plus a fitted convergence order.

        Errors at or below ``floor`` are excluded from the fit; if fewer than
        two samples remain the order is reported as inf (converged below the
        measurement floor everywhere).
        """
        exact = float(self.word_derivative(w, psi).eval_exact(
            [Fraction(v).limit_denominator(10**12) for v in x]
        ))
        quotients = [self.bracket_via_flows(w, psi, x, t) for t in ts]
        errors = [abs(q - exact) for q in quotients]
        pts = [(math.log(t), math.log(e)) for t, e in zip(ts, errors) if e > floor]
        if len(pts) < 2:
            slope = math.inf
        else:
            slope = _lsq_slope(pts)
        return {
            "exact": exact,
            "ts": list(ts),
            "quotients": quotients,
            "errors": errors,
            "slope": slope,
        }

    def _pullback_gradient(self, psi_fn, Z, s, p, delta=1e-6):
        """Gradient of psi(e^{-sZ} .) at p by central differences."""
        grad = []
        for i in range(self.n):
            pp = list(p)
            pp[i] += delta
            up = psi_fn(self.flow(Z, -s, pp))
            pp[i] -= 2 * delta
            dn = psi_fn(self.flow(Z, -s, pp))
            grad.append((up - dn) / (2 * delta))
        return grad

    def conjugated_derivative_check(self, Z, w, psi, y, t=0.1, h=1e-4):
        """Residual of the flow-conjugation derivative identity at time t.

        Left side: central difference in t of  F(s) = (f_w . grad)(psi o
        e^{-sZ}) evaluated at e^{sZ}y.  Right side: the ad-field acting the
        same way at time t.  Smooth models make both sides well defined; the
        residual should vanish at second order in h.
        """
        w = check_word(w, alphabet=self.m)
        psi_fn = psi.compile_scalar()
        fw = self.commutator_coeffs(w)
        fw_fn = fw.compile_scalar()

        def F(s):
            p = self.flow(Z, s, y)
            grad = self._pullback_gradient(psi_fn, Z, s, p)
            v = fw_fn(p)
            return sum(a * b for a, b in zip(v, grad))

        lhs = (F(t + h) - F(t - h)) / (2 * h)
        g = self.ad(Z, w)
        g_fn = g.compile_scalar()
        p = self.flow(Z, t, y)
        grad = self._pullback_gradient(psi_fn, Z, t, p)
        rhs = sum(a * b for a, b in zip(g_fn(p), grad))
        return abs(lhs - rhs)

    def taylor_composed_flows(self, psi, jseq, x, t, ell):
        """Expansion of psi along composed generator flows, plus remainder.

        The partial sum runs over iterated-derivative multi-indices of total
        order < ell, with the first flowed generator differentiating psi
        innermost.  Returns (partial sum, actual value, remainder).
        """
        jseq = tuple(jseq)
        q = len(jseq)
        xf = [Fraction(v).limit_denominator(10**12) for v in x]
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

    def taylor_remainder_order(self, psi, jseq, x, ts, ell, floor=1e-13):
        rems = [self.taylor_composed_flows(psi, jseq, x, t, ell)[2] for t in ts]
        pts = [(math.log(t), math.log(r)) for t, r in zip(ts, rems) if r > floor]
        return rems, (_lsq_slope(pts) if len(pts) >= 2 else math.inf)


def _lsq_slope(pts):
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

# anisotropic dilation weights of the built-in homogeneous models, used by
# test oracles (doubling ratios, distance homogeneity)
DILATION_WEIGHTS = {
    "heisenberg": (1, 1, 2),
    "grushin": (1, 2),
    "engel": (1, 1, 2, 3),
    "martinet": (1, 1, 3),
    "flat2": (1, 1),
    "flat3": (1, 1, 1),
}


def load_model(name_or_path, config=None):
    """Built-in model by name, or a JSON model file by path."""
    if name_or_path in MODEL_BUILDERS:
        sys = MODEL_BUILDERS[name_or_path]()
        if config is not None:
            sys.config = config
        return sys
    with open(name_or_path) as fh:
        obj = json.load(fh)
    return system_from_json(obj, config=config)


def system_from_json(obj, config=None):
    n = int(obj["n"])
    fields = []
    for comps in obj["fields"]:
        if len(comps) != n:
            raise ValueError("field component count != n")
        fields.append(PolyMap([Poly.from_json_terms(n, c) for c in comps]))
    if len(fields) != int(obj["m"]):
        raise ValueError("field count != m")
    return VectorFieldSystem(
        fields, step=int(obj["s"]), name=obj.get("name", "file"), config=config
    )


def system_to_json(system):
    return {
        "name": system.name,
        "n": system.n,
        "m": system.m,
        "s": system.s,
        "fields": [
            [p.to_json_terms() for p in f.components] for f in system.fields
        ],
    }
