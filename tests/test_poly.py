import random
from fractions import Fraction

import numpy as np
import pytest

from liebox.poly import Poly, PolyMap, control_mixture, directional_derivative, lie_bracket
from liebox.vfield import MODEL_BUILDERS, VectorFieldSystem


def random_poly(rng, nvars, nterms=4, max_exp=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return Poly(nvars, terms)


def test_ring_axioms_spot():
    rng = random.Random(0)
    for _ in range(25):
        a, b, c = (random_poly(rng, 3) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - a).is_zero()


def test_substitute_commutes_with_exact_evaluation():
    """Substituting then evaluating equals evaluating the values then the
    polynomial, at seeded random rational points."""
    rng = random.Random(27)
    for _ in range(60):
        k, m = rng.randint(1, 3), rng.randint(1, 3)
        p = random_poly(rng, k, nterms=rng.randint(0, 4))
        values = [random_poly(rng, m, nterms=rng.randint(0, 3), max_exp=2) for _ in range(k)]
        q = p.substitute(values)
        assert q.nvars == m and all(c != 0 for c in q.terms.values())
        for _ in range(3):
            z = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
            assert q.eval_exact(z) == p.eval_exact([v.eval_exact(z) for v in values])
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    assert (x * x - y).substitute([y + x, x]) == y * y + x * y.scale(2) + x * x - x
    with pytest.raises(ValueError, match="need 2 values"):
        (x * y).substitute([x])


def test_diff_product_rule():
    rng = random.Random(1)
    for _ in range(20):
        a, b = random_poly(rng, 2), random_poly(rng, 2)
        for i in range(2):
            assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


def test_eval_exact_and_float_agree():
    rng = random.Random(2)
    for _ in range(20):
        p = random_poly(rng, 3)
        pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(3)]
        exact = p.eval_exact(pt)
        approx = p.compile_scalar()([float(x) for x in pt])
        assert abs(float(exact) - approx) < 1e-9 * (1 + abs(exact))


def test_compiled_forms_match():
    rng = random.Random(3)
    for _ in range(15):
        p = random_poly(rng, 3)
        fs = p.compile_scalar()
        fb = p.compile_batch()
        pts = np.array([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(8)])
        batch = fb(pts)
        assert batch.shape == (8,)
        for row, val in zip(pts, batch):
            direct = float(p.eval_exact([Fraction(v) for v in row]))
            assert abs(fs(tuple(row)) - direct) < 1e-12 * (1 + abs(direct))
            assert abs(val - direct) < 1e-12 * (1 + abs(direct))


def test_constant_and_zero_compile():
    z = Poly.zero(2)
    c = Poly.const(2, Fraction(3, 2))
    assert z.compile_scalar()((1.0, 2.0)) == 0.0
    assert c.compile_scalar()((1.0, 2.0)) == 1.5
    arr = np.zeros((4, 2))
    assert np.allclose(c.compile_batch()(arr), 1.5)


def test_json_round_trip():
    p = Poly(2, {(1, 0): Fraction(1, 3), (0, 2): -2})
    q = Poly.from_json_terms(2, p.to_json_terms())
    assert p == q


@pytest.mark.parametrize("coeff", [0.1, 2.0, True, None])
def test_json_rejects_inexact_coefficients(coeff):
    with pytest.raises(TypeError, match="expected exact rational"):
        Poly.from_json_terms(2, [{"exps": [1, 0], "coeff": coeff}])


def test_directional_derivative_and_bracket():
    # Heisenberg-type fields in 3 vars: f1 = (1, 0, -y/2), f2 = (0, 1, x/2)
    x = Poly.var(3, 0)
    y = Poly.var(3, 1)
    one = Poly.const(3, 1)
    zero = Poly.zero(3)
    f1 = PolyMap([one, zero, y.scale(Fraction(-1, 2))])
    f2 = PolyMap([zero, one, x.scale(Fraction(1, 2))])
    psi = Poly.var(3, 2)
    assert directional_derivative(f1, psi) == y.scale(Fraction(-1, 2))
    br = lie_bracket(f1, f2)
    assert br == PolyMap([zero, zero, one])
    # antisymmetry and Jacobi for the standard bracket
    assert lie_bracket(f2, f1) == -br
    jac = (
        lie_bracket(f1, lie_bracket(f2, br))
        + lie_bracket(f2, lie_bracket(br, f1))
        + lie_bracket(br, lie_bracket(f1, f2))
    )
    assert jac.is_zero()


@pytest.mark.parametrize("exps", [(1.5, 0), (True, 0), (1.0, 0)])
def test_poly_rejects_non_integer_exponents(exps):
    with pytest.raises(ValueError, match="exponents must be integers"):
        Poly(2, {exps: 1})


def test_poly_accepts_numpy_int_exponents():
    p = Poly(2, {(np.int64(1), 0): 1})
    assert p == Poly.var(2, 0) and all(type(e) is int for e in next(iter(p.terms)))


def test_polymap_validation():
    with pytest.raises(ValueError):
        PolyMap([])
    with pytest.raises(ValueError):
        PolyMap([Poly.zero(2), Poly.zero(3)])


def test_fused_polymap_batch_is_bitwise_stacked_components():
    rng = random.Random(5)
    nrng = np.random.default_rng(5)
    for n in (1, 2, 4):
        for _ in range(8):
            comps = [random_poly(rng, n, nterms=rng.randint(0, 5)) for _ in range(n)]
            pm = PolyMap(comps)
            fused = pm.compile_batch()
            for shape in ((n,), (7, n), (3, 5, n)):
                pts = nrng.uniform(-2, 2, size=shape)
                ref = np.stack([p.compile_batch()(pts) for p in comps], axis=-1)
                got = fused(pts)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


def test_triangular_fields_and_exact_flow_compile():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    one, zero = Poly.const(2, 1), Poly.zero(2)
    assert PolyMap([one, x * x]).is_triangular()
    assert PolyMap([zero, zero]).is_triangular()
    for pm in (PolyMap([x, zero]), PolyMap([y, zero]), PolyMap([one, y])):
        assert not pm.is_triangular()
        with pytest.raises(ValueError):
            pm.flow_map()
    # x' = 1, y' = x^2: y(t) = y + x^2 t + x t^2 + t^3 / 3
    system = VectorFieldSystem([PolyMap([one, x * x])], step=1)
    P = np.array([[0.5, -1.0], [-2.0, 3.0]])
    T = np.array([0.3, -1.5])
    got = system.flow_batch(1, T, P)
    x0, y0 = P[:, 0], P[:, 1]
    want = np.stack([x0 + T, y0 + x0**2 * T + x0 * T**2 + T**3 / 3], axis=1)
    assert np.allclose(got, want, rtol=0, atol=1e-14)
    assert np.array_equal(system.flow_batch(1, 0.0, P), P)
    # the one-letter mixture with unit control is the letter's flow
    assert np.array_equal(system.mixture_flow_batch((1,), np.ones((2, 1)), T, P), got)


def _copy_then_update_flow(pm):
    """Reference exact flow: a copy of P, then every component in ascending
    order gains T times its Lie series read off the untouched input, with a
    ``1.0*`` before unit-coefficient terms."""
    def terms(p):
        return [
            "*".join([repr(float(c))] + [
                f"x{i}" if k == 1 else f"x{i}**{k}" for i, k in enumerate(e) if k
            ])
            for e, c in sorted(p.terms.items())
        ]

    lines = ["def _f(T, P):", "    out = P.copy()"]
    lines += [f"    x{i} = P[..., {i}]" for i in range(pm.n)]
    for i in range(pm.n):
        series, g = [], Poly.var(pm.n, i)
        while True:
            g = directional_derivative(pm, g).scale(Fraction(1, len(series) + 1))
            if g.is_zero():
                break
            series.append(" + ".join(terms(g)))
        if series:
            expr = series[-1]
            for c in reversed(series[:-1]):
                expr = f"{c} + T*({expr})"
            lines.append(f"    out[..., {i}] += T*({expr})")
    lines.append("    return out")
    ns = {"np": np}
    exec("\n".join(lines), ns)
    return ns["_f"]


def test_exact_flow_is_bitwise_the_copy_then_update_source():
    """The generated path evaluators behind ``flow_batch`` (every letter, both
    signs) and ``mixture_flow_batch`` (the lift of all letters) give the
    same floats as the copy-then-update flow, NaN and inf included.  On the
    line d/dx the column x0 is contiguous, where numpy's loops keep the NaN
    of a scalar time and of a time array apart."""
    line = VectorFieldSystem([PolyMap([Poly.const(1, 1)])], step=1)
    nrng = np.random.default_rng(21)
    for system in [build() for build in MODEL_BUILDERS.values()] + [line]:
        keys = tuple(range(1, system.m + 1))
        refs = [_copy_then_update_flow(system.field(j)) for j in keys]
        lift = _copy_then_update_flow(control_mixture(system.fields))
        Y = nrng.uniform(-3, 3, size=(64, system.n))
        U = nrng.uniform(-3, 3, size=(64, system.m))
        for P in (Y, U):
            P[nrng.random(P.shape) < 0.1] = 0.0
            P[:4, 0] = np.nan, np.inf, -np.inf, -0.0
        T = nrng.uniform(-2, 2, size=64)
        T[nrng.random(64) < 0.2] = 0.0
        T[4:8] = np.nan, np.inf, -np.inf, -0.0
        UY = np.concatenate([U, Y], axis=1)
        with np.errstate(all="ignore"):
            for t in (T, 0.7, 0.0, -1.25, -np.nan):
                for j, ref in zip(keys, refs):
                    want = ref(t, Y).tobytes()
                    assert system.flow_batch(j, t, Y).tobytes() == want, (system.name, j, t)
                    back = system.flow_batch(-j, -np.asarray(t), Y)
                    assert back.tobytes() == want, (system.name, -j, t)
                got = system.mixture_flow_batch(keys, U, t, Y)
                assert got.tobytes() == lift(t, UY)[:, system.m:].tobytes(), (system.name, t)
            # one row, scalar time
            for j, ref in zip(keys, refs):
                assert system.flow_batch(j, T[0], Y[:1]).tobytes() == ref(T[0], Y[:1]).tobytes()
            got = system.mixture_flow_batch(keys, U[:1], T[0], Y[:1])
            assert got.tobytes() == lift(T[0], UY[:1])[:, system.m:].tobytes()


def test_batch_terms_leave_out_unit_coefficients():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    p = x * y + x.scale(Fraction(1, 2)) + Poly.const(2, 1) - y * y
    assert p._batch_terms() == ["1.0", "-1.0*x1**2", "0.5*x0", "x0*x1"]
