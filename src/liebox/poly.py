"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are exponent tuples, coefficients are Fractions (ints are accepted
and normalized).  This is the carrier for vector-field coefficients, scalar
test functions and the operator witness model, so differentiation, products
and evaluation must all be exact (``eval_exact``).  Every float evaluation
goes through one generated vectorized evaluator per polynomial or map
(``compile_batch``, over arrays of shape (..., nvars)); ``compile_scalar``
is one row of it.  The flows of triangular fields and of their
constant-control mixtures come from their terminating Lie series, which
``PolyMap.flow_map`` holds as an exact map over (x, T): ``flow_source``
emits it as in-place column updates for the path evaluators of
``VectorFieldSystem``, and ``Poly.substitute`` composes such maps exactly.
"""

from fractions import Fraction
from operator import add

import numpy as np

from .words import SparseSum, as_fraction, check_integers


class Poly(SparseSum):
    """Polynomial in ``nvars`` variables; ``terms`` maps exponents to coeffs."""

    __slots__ = ("nvars",)

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        self.terms = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, c in items:
                exps = check_integers(exps, "exponents")
                if len(exps) != self.nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps}")
                self._add(exps, as_fraction(c))

    def _like(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return Poly(self.nvars)

    @staticmethod
    def _key_product(a, b):
        return tuple(map(add, a, b))

    __mul__ = SparseSum._product

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: as_fraction(c)})

    @classmethod
    def var(cls, nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    def diff(self, i):
        """Exact partial derivative with respect to variable ``i``."""
        out = Poly(self.nvars)
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out.terms[tuple(ne)] = c * e[i]
        return out

    def substitute(self, values):
        """Exact composition: variable i replaced by the Poly ``values[i]``.

        The values share one variable count, which the result takes; each
        power of a value is multiplied out once.
        """
        values = tuple(values)
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        out = Poly(values[0].nvars)
        one = {(0,) * out.nvars: 1}
        powers = [[v] for v in values]  # powers[i][k - 1] is values[i]**k
        for e, c in self.terms.items():
            term = None
            for v, pw, k in zip(values, powers, e):
                if k:
                    while len(pw) < k:
                        pw.append(pw[-1] * v)
                    term = pw[k - 1] if term is None else term * pw[k - 1]
            for key, v in (one if term is None else term.terms).items():
                out._add(key, c * v)
        return out

    def split_last(self):
        """Coefficients of the powers 0.. of the last variable, Polys over the others."""
        groups = [[] for _ in range(1 + max((e[-1] for e in self.terms), default=0))]
        for e, c in self.terms.items():
            groups[e[-1]].append((e[:-1], c))
        return [Poly(self.nvars - 1, g) for g in groups]

    def eval_exact(self, point):
        """Exact evaluation at a point of Fractions/ints."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= as_fraction(x) ** k
            total += v
        return total

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(
                f"x{i}" if k == 1 else f"x{i}**{k}"
                for i, k in enumerate(e)
                if k
            )
            c = self.terms[e]
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def _batch_terms(self):
        """Source of each term for the vectorized evaluators, in sorted order;
        a unit coefficient is left out of a monomial (1.0*v == v exactly)."""
        terms = []
        for e, c in sorted(self.terms.items()):
            mono = [f"x{i}" if k == 1 else f"x{i}**{k}" for i, k in enumerate(e) if k]
            terms.append("*".join(mono if c == 1 and mono else [repr(float(c))] + mono))
        return terms

    def compile_batch(self):
        """Vectorized evaluator over arrays of shape (..., nvars)."""
        lines = ["def _f(P):", "    out = np.zeros(P.shape[:-1], dtype=float)"]
        lines += _unpack_lines(self.nvars)
        lines += [f"    out += {t}" for t in self._batch_terms()]
        lines.append("    return out")
        return exec_source(lines)

    def compile_scalar(self):
        """Float evaluator ``f(point) -> float``: one row of ``compile_batch``."""
        batch = self.compile_batch()
        return lambda p: float(batch(np.asarray(p, dtype=float)))

    def to_json_terms(self):
        return [
            {"exps": list(e), "coeff": str(c)}
            for e, c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json_terms(cls, nvars, terms):
        return cls(nvars, [(t["exps"], t["coeff"]) for t in terms])


class PolyMap:
    """Vector of polynomials, one per ambient coordinate."""

    __slots__ = ("n", "components", "_flow_map")

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("empty polynomial map")
        nv = comps[0].nvars
        if any(p.nvars != nv for p in comps):
            raise ValueError("component variable counts differ")
        self.components = comps
        self.n = nv
        self._flow_map = None

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __len__(self):
        return len(self.components)

    def __add__(self, other):
        return PolyMap([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return PolyMap([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return PolyMap([-a for a in self.components])

    def scale(self, c):
        return PolyMap([p.scale(c) for p in self.components])

    def is_zero(self):
        return all(p.is_zero() for p in self.components)

    def __eq__(self, other):
        return isinstance(other, PolyMap) and self.components == other.components

    def eval_exact(self, point):
        return tuple(p.eval_exact(point) for p in self.components)

    def __repr__(self):
        return "(" + ", ".join(repr(p) for p in self.components) + ")"

    def compile_batch(self):
        """One vectorized evaluator writing all components into (..., n)."""
        lines = [
            "def _f(P):",
            f"    out = np.zeros(P.shape[:-1] + ({len(self)},), dtype=float)",
        ]
        lines += _unpack_lines(self.n)
        for i, p in enumerate(self.components):
            terms = p._batch_terms()
            if terms:
                lines.append(f"    o = out[..., {i}]")
                lines += [f"    o += {t}" for t in terms]
        lines.append("    return out")
        return exec_source(lines)

    def is_triangular(self):
        """Whether component i involves only the coordinates before i.

        Such a field is nilpotent as a derivation, so its Lie series
        terminates and its flow is a polynomial in (x, t).
        """
        return all(
            not any(e[i:]) for i, p in enumerate(self.components) for e in p.terms
        )

    def flow_map(self):
        """The exact flow exp(T X) of a triangular field, as a map over (x, T).

        Component i is x_i plus the terminating Lie series
        sum_{k>=1} T^k/k! X^k(x_i) (repeated ``directional_derivative``),
        which reads only the coordinates before i; T is the last of the n + 1
        variables.  Built once per map.
        """
        if self._flow_map is None:
            if not self.is_triangular():
                raise ValueError("Lie series of a non-triangular field need not terminate")
            comps = []
            for i in range(self.n):
                terms, g, k = [], Poly.var(self.n, i), 0
                while not g.is_zero():
                    terms += [(e + (k,), c) for e, c in g.terms.items()]
                    k += 1
                    g = directional_derivative(self, g).scale(Fraction(1, k))
                comps.append(Poly(self.n + 1, terms))
            self._flow_map = PolyMap(comps)
        return self._flow_map

    def flow_source(self):
        """Lines flowing the columns x0.. in place by exp(T X), X triangular.

        Column i gains the T^k coefficients of ``flow_map`` in Horner form in
        T; they read only the columns before i, so the lines run from the
        last column down.  ``T`` is a scalar or one time per row.
        """
        lines = []
        for i in reversed(range(self.n)):
            series = [" + ".join(g._batch_terms()) for g in self.flow_map()[i].split_last()[1:]]
            if series:
                expr = series[-1]
                for c in reversed(series[:-1]):
                    expr = f"{c} + T*({expr})"
                lines.append(f"x{i} += T" if expr == "1.0" else f"x{i} += T*({expr})")
        return lines


def control_mixture(maps):
    """The field sum_j u_j F_j on R^(d+n), the d controls u placed before x.

    The control components are zero, so the controls stay constant along the
    flow, and component d+i is sum_j u_j F_j[i] with F_j's exponents shifted
    past the controls.  The lift is triangular exactly when every F_j is, so
    ``flow_source`` flows a constant-control mixture exactly.
    """
    d, n = len(maps), maps[0].n
    unit = [tuple(int(k == j) for k in range(d)) for j in range(d)]
    comps = [Poly.zero(d + n) for _ in range(d)]
    comps += [
        Poly(d + n, [
            (unit[j] + e, c) for j, f in enumerate(maps) for e, c in f[i].terms.items()
        ])
        for i in range(n)
    ]
    return PolyMap(comps)


def _unpack_lines(nvars):
    return [f"    x{i} = P[..., {i}]" for i in range(nvars)]


def exec_source(lines, **names):
    """The function ``_f`` that ``lines`` define, with numpy and ``names`` in scope."""
    ns = {"np": np, **names}
    exec("\n".join(lines), ns)
    return ns["_f"]


def directional_derivative(field, g):
    """Derivative of ``g`` along the vector field: sum_i field_i * dg/dx_i.

    ``g`` may be a Poly (returns a Poly) or a PolyMap (componentwise).
    """
    if isinstance(g, PolyMap):
        return PolyMap([directional_derivative(field, comp) for comp in g])
    out = Poly.zero(g.nvars)
    for i, fi in enumerate(field):
        if not fi.is_zero():
            out = out + fi * g.diff(i)
    return out


def lie_bracket(f, g):
    """Standard bracket of two polynomial fields: (f . grad) g - (g . grad) f."""
    return directional_derivative(f, g) - directional_derivative(g, f)
