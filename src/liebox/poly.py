"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are exponent tuples, coefficients are Fractions (ints are accepted
and normalized).  This is the carrier for vector-field coefficients, scalar
test functions and the operator witness model, so differentiation, products
and evaluation must all be exact.  Numeric hot loops (ODE flows, Monte Carlo
batches) use compiled forms instead, generated once per polynomial, and the
flows of triangular fields and of their constant-control mixtures are
compiled from their terminating Lie series.
"""

from fractions import Fraction

import numpy as np

from .words import as_fraction, check_integers


class Poly:
    """Polynomial in ``nvars`` variables; ``terms`` maps exponents to coeffs."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        self.terms = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, c in items:
                exps = check_integers(exps, "exponents")
                if len(exps) != self.nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps}")
                c = as_fraction(c) if not isinstance(c, Fraction) else c
                if c != 0:
                    acc = self.terms.get(exps, Fraction(0)) + c
                    if acc == 0:
                        self.terms.pop(exps, None)
                    else:
                        self.terms[exps] = acc

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

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        out = Poly(self.nvars)
        out.terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.terms.get(e, Fraction(0)) + c
            if acc == 0:
                out.terms.pop(e, None)
            else:
                out.terms[e] = acc
        return out

    def __neg__(self):
        out = Poly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        out = Poly(self.nvars)
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc = out.terms.get(e, Fraction(0)) + ca * cb
                if acc == 0:
                    out.terms.pop(e, None)
                else:
                    out.terms[e] = acc
        return out

    __rmul__ = __mul__

    def scale(self, c):
        c = as_fraction(c)
        out = Poly(self.nvars)
        if c != 0:
            out.terms = {e: c * v for e, v in self.terms.items()}
        return out

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

    def __call__(self, point):
        total = 0.0
        for e, c in self.terms.items():
            v = float(c)
            for x, k in zip(point, e):
                if k:
                    v *= float(x) ** k
            total += v
        return total

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

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

    def _scalar_expr(self):
        bits = []
        for e, c in sorted(self.terms.items()):
            factors = [repr(float(c))]
            for i, k in enumerate(e):
                factors.extend([f"x{i}"] * k)
            bits.append("*".join(factors))
        return " + ".join(bits) if bits else "0.0"

    def compile_scalar(self):
        """Plain-Python float evaluator ``f(point) -> float``; fast path."""
        unpack = ", ".join(f"x{i}" for i in range(self.nvars))
        src = f"def _f(p):\n    {unpack}, = p\n    return {self._scalar_expr()}\n"
        if self.nvars == 0:
            src = f"def _f(p):\n    return {self._scalar_expr()}\n"
        ns = {}
        exec(src, ns)
        return ns["_f"]

    def _batch_terms(self):
        """Source of each term for the vectorized evaluators, in sorted order."""
        return [
            "*".join([repr(float(c))] + [
                f"x{i}" if k == 1 else f"x{i}**{k}" for i, k in enumerate(e) if k
            ])
            for e, c in sorted(self.terms.items())
        ]

    def compile_batch(self):
        """Vectorized evaluator over arrays of shape (..., nvars)."""
        lines = ["def _f(P):", "    out = np.zeros(P.shape[:-1], dtype=float)"]
        lines += _unpack_lines(self.nvars)
        lines += [f"    out += {t}" for t in self._batch_terms()]
        lines.append("    return out")
        return _exec_source(lines)

    def to_json_terms(self):
        return [
            {"exps": list(e), "coeff": str(c)}
            for e, c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json_terms(cls, nvars, terms):
        return cls(nvars, [(t["exps"], Fraction(t["coeff"])) for t in terms])


class PolyMap:
    """Vector of polynomials, one per ambient coordinate."""

    __slots__ = ("n", "components")

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("empty polynomial map")
        nv = comps[0].nvars
        if any(p.nvars != nv for p in comps):
            raise ValueError("component variable counts differ")
        self.components = comps
        self.n = nv

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

    def __call__(self, point):
        return np.array([p(point) for p in self.components], dtype=float)

    def __repr__(self):
        return "(" + ", ".join(repr(p) for p in self.components) + ")"

    def compile_scalar(self):
        fns = [p.compile_scalar() for p in self.components]
        def _f(point, _fns=tuple(fns)):
            return tuple(g(point) for g in _fns)
        return _f

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
        return _exec_source(lines)

    def is_triangular(self):
        """Whether component i involves only the coordinates before i.

        Such a field is nilpotent as a derivation, so its Lie series
        terminates and its flow is a polynomial in (x, t).
        """
        return all(
            not any(e[i:]) for i, p in enumerate(self.components) for e in p.terms
        )

    def compile_flow_batch(self):
        """Exact batched flow ``(T, P) -> exp(T X)(P)`` of a triangular field.

        Component i is the terminating Lie series sum_k T^k/k! X^k(x_i),
        built by repeated ``directional_derivative`` and evaluated by Horner
        in T; ``T`` is a scalar or has shape P.shape[:-1].
        """
        if not self.is_triangular():
            raise ValueError("Lie series of a non-triangular field need not terminate")
        lines = ["def _f(T, P):", "    out = P.copy()"] + _unpack_lines(self.n)
        for i in range(self.n):
            series, g = [], Poly.var(self.n, i)
            while True:
                g = directional_derivative(self, g).scale(Fraction(1, len(series) + 1))
                if g.is_zero():
                    break
                series.append(" + ".join(g._batch_terms()))
            if series:
                expr = series[-1]
                for c in reversed(series[:-1]):
                    expr = f"{c} + T*({expr})"
                lines.append(f"    out[..., {i}] += T*({expr})")
        lines.append("    return out")
        return _exec_source(lines)


def control_mixture(maps):
    """The field sum_j u_j F_j on R^(d+n), the d controls u placed before x.

    The control components are zero, so the controls stay constant along the
    flow, and component d+i is sum_j u_j F_j[i] with F_j's exponents shifted
    past the controls.  The lift is triangular exactly when every F_j is, so
    ``compile_flow_batch`` flows a constant-control mixture exactly.
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


def _exec_source(lines):
    ns = {"np": np}
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
