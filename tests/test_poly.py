import random
from fractions import Fraction

import numpy as np
import pytest

from liebox.poly import Poly, PolyMap, control_mixture, directional_derivative, lie_bracket


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
            pm.compile_flow_batch()
    # x' = 1, y' = x^2: y(t) = y + x^2 t + x t^2 + t^3 / 3
    flow = PolyMap([one, x * x]).compile_flow_batch()
    P = np.array([[0.5, -1.0], [-2.0, 3.0]])
    T = np.array([0.3, -1.5])
    got = flow(T, P)
    x0, y0 = P[:, 0], P[:, 1]
    want = np.stack([x0 + T, y0 + x0**2 * T + x0 * T**2 + T**3 / 3], axis=1)
    assert np.allclose(got, want, rtol=0, atol=1e-14)
    assert np.array_equal(flow(0.0, P), P)


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
    """In-place columns from the last down, and bare unit-coefficient terms,
    give the same floats as the copy-then-update flow, NaN and inf included."""
    from liebox.vfield import MODEL_BUILDERS

    maps = []
    for build in MODEL_BUILDERS.values():
        system = build()
        maps += [system.field(j) for j in range(1, system.m + 1)]
        maps.append(control_mixture(system.fields))
    nrng = np.random.default_rng(21)
    for pm in maps:
        assert pm.is_triangular()
        flow, ref = pm.compile_flow_batch(), _copy_then_update_flow(pm)
        P = nrng.uniform(-3, 3, size=(64, pm.n))
        P[nrng.random(P.shape) < 0.1] = 0.0
        P[:4, 0] = np.nan, np.inf, -np.inf, -0.0
        T = nrng.uniform(-2, 2, size=64)
        T[nrng.random(64) < 0.2] = 0.0
        T[4:8] = np.nan, np.inf, -np.inf, -0.0
        with np.errstate(all="ignore"):
            for t in (T, 0.7, 0.0, -1.25):
                got, want = flow(t, P), ref(t, P)
                assert got.tobytes() == want.tobytes(), (pm, t)
            assert flow(T[0], P[0]).tobytes() == ref(T[0], P[0]).tobytes()


def test_batch_terms_leave_out_unit_coefficients():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    p = x * y + x.scale(Fraction(1, 2)) + Poly.const(2, 1) - y * y
    assert p._batch_terms() == ["1.0", "-1.0*x1**2", "0.5*x0", "x0*x1"]
