import math
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebox import flows
from liebox.approxexp import CommutatorFrame, e_map_batch
from liebox.poly import Poly, PolyMap, lie_bracket
from liebox.vfield import (
    MODEL_BUILDERS,
    VectorFieldSystem,
    all_words,
    load_model,
    system_from_json,
)
from liebox.words import rational_point

HEIS = load_model("heisenberg")
GRUSHIN = load_model("grushin")
ENGEL = load_model("engel")
MARTINET = load_model("martinet")
FLAT2 = load_model("flat2")
ALL = [HEIS, GRUSHIN, ENGEL, MARTINET, FLAT2]
# the built-in heisenberg and grushin models, written out as model files
HEIS_JSON = {"name": "heisenberg", "n": 3, "m": 2, "s": 2, "fields": [
    [[{"exps": [0, 0, 0], "coeff": "1"}], [], [{"exps": [0, 1, 0], "coeff": "-1/2"}]],
    [[], [{"exps": [0, 0, 0], "coeff": "1"}], [{"exps": [1, 0, 0], "coeff": "1/2"}]],
]}
GRUSHIN_JSON = {"name": "grushin", "n": 2, "m": 2, "s": 2, "fields": [
    [[{"exps": [0, 0], "coeff": "1"}], []],
    [[], [{"exps": [1, 0], "coeff": "1"}]],
]}


def poly_var(system, i):
    return Poly.var(system.n, i)


def test_horizontal_derivative_heisenberg():
    z = poly_var(HEIS, 2)
    got = HEIS.horizontal_derivative(1, z)
    assert got == Poly.var(3, 1).scale(Fraction(-1, 2))  # -y/2
    const = Poly.const(3, 5)
    assert HEIS.horizontal_derivative(2, const).is_zero()


def test_horizontal_derivative_grushin():
    y = poly_var(GRUSHIN, 1)
    assert GRUSHIN.horizontal_derivative(2, y) == Poly.var(2, 0)  # x


def test_commutator_coeffs_known_values():
    f12 = HEIS.commutator_coeffs((1, 2))
    assert f12 == PolyMap([Poly.zero(3), Poly.zero(3), Poly.const(3, 1)])
    assert HEIS.commutator_coeffs((1, 1)).is_zero()
    assert GRUSHIN.commutator_coeffs((1, 2)) == PolyMap(
        [Poly.zero(2), Poly.const(2, 1)]
    )


def test_commutator_matches_bracket_oracle_everywhere():
    for system in ALL:
        for w in all_words(system.m, system.s):
            assert system.commutator_coeffs(w) == system.nested_bracket_oracle(w), (
                system.name,
                w,
            )


def test_pair_bracket_antisymmetry():
    for system in (HEIS, ENGEL, MARTINET):
        words = all_words(system.m, system.s - 1)
        for u in words:
            for v in words:
                if len(u) + len(v) > system.s:
                    continue
                fu, fv = system.commutator_coeffs(u), system.commutator_coeffs(v)
                assert lie_bracket(fu, fv) == -lie_bracket(fv, fu)


def test_coefficient_level_jacobi():
    for system in (HEIS, ENGEL):
        f = system.commutator_coeffs
        from liebox.poly import lie_bracket

        for u, v, w in [((1,), (2,), (1,)), ((1,), (1,), (2,)), ((2,), (1,), (2,))]:
            cyc = (
                lie_bracket(f(u), lie_bracket(f(v), f(w)))
                + lie_bracket(f(v), lie_bracket(f(w), f(u)))
                + lie_bracket(f(w), lie_bracket(f(u), f(v)))
            )
            assert cyc.is_zero()


def test_sharp_equals_first_order_action():
    # the signed iterated-derivative form agrees with f_w . grad on smooth models
    test_psis = {
        3: [Poly.var(3, 0), Poly.var(3, 2), Poly.var(3, 0) * Poly.var(3, 1)],
        2: [Poly.var(2, 0), Poly.var(2, 1) * Poly.var(2, 1)],
        4: [Poly.var(4, 3), Poly.var(4, 2) * Poly.var(4, 0)],
    }
    for system in (HEIS, GRUSHIN, ENGEL):
        for w in all_words(system.m, system.s):
            for psi in test_psis[system.n]:
                assert system.sharp_word(w, psi) == system.word_derivative(w, psi), (
                    system.name,
                    w,
                )


def test_ad_equals_prepended_word():
    # ad along a generator matches the commutator of the extended word
    for system in (HEIS, ENGEL, MARTINET):
        for j in range(1, system.m + 1):
            for w in all_words(system.m, system.s - 1):
                assert system.ad(j, w) == system.commutator_coeffs((j,) + w), (
                    system.name,
                    j,
                    w,
                )


def test_ad_nilpotency_heisenberg():
    assert HEIS.ad(1, (1, 2)).is_zero()


def test_flow_constant_and_affine():
    assert np.allclose(FLAT2.flow(1, 0.7, (0.0, 0.0)), (0.7, 0.0))
    assert np.allclose(HEIS.flow(1, 0.5, (0.0, 0.0, 0.0)), (0.5, 0.0, 0.0))
    # linear field x d/dx: closed form e^t * x0
    lin = VectorFieldSystem(
        [PolyMap([Poly.var(1, 0)])], step=1, name="linear1d"
    )
    got = lin.flow(1, 0.8, (1.3,))
    assert abs(got[0] - 1.3 * math.exp(0.8)) < 1e-9


def test_flow_reversibility_all_models():
    for system in ALL:
        x0 = tuple(0.1 * (i + 1) for i in range(system.n))
        for j in range(1, system.m + 1):
            for t in (0.3, 1.0):
                y = system.flow(j, t, x0)
                back = system.flow(j, -t, y)
                err = max(abs(a - b) for a, b in zip(back, x0))
                assert err <= 10 * flows.DOPRI5_ATOL, (system.name, j, t, err)


def test_flow_domain_escape():
    with pytest.raises(flows.DomainEscapeError):
        HEIS.flow(1, 25.0, (0.0, 0.0, 0.0))


def test_fast_flow_matches_adaptive_on_nilpotent_models():
    for system in (HEIS, GRUSHIN, ENGEL, MARTINET):
        x0 = tuple(0.2 for _ in range(system.n))
        for j in range(1, system.m + 1):
            a = system.flow(j, 0.37, x0)
            b = flows.rk4(system.batch_fn(j), 0.37, x0, steps=8)
            assert max(abs(u - v) for u, v in zip(a, b)) < 1e-12


def test_bracket_via_flows_heisenberg_exact():
    z = poly_var(HEIS, 2)
    for t in (0.1, 0.03, 0.01):
        q = HEIS.bracket_via_flows((1, 2), z, (0.0, 0.0, 0.0), t)
        assert abs(q - 1.0) < 1e-7


def test_bracket_via_flows_commuting_zero():
    psi = Poly.var(2, 0) * Poly.var(2, 1)
    for t in (0.2, 0.05):
        q = FLAT2.bracket_via_flows((1, 2), psi, (0.3, -0.2), t)
        assert abs(q) < 1e-9


def test_bracket_limit_order_engel_word3():
    # genuine first-order convergence on a word of length 3
    psi = Poly.var(4, 3) + Poly.var(4, 3) * Poly.var(4, 3)
    x = (0.05, 0.1, 0.02, 0.3)
    ts = [0.1 * (0.6**k) for k in range(6)]
    rep = ENGEL.bracket_limit_order((1, 1, 2), psi, x, ts)
    assert abs(rep["quotients"][-1] - rep["exact"]) < 0.05 * abs(rep["exact"])
    assert rep["slope"] == math.inf or rep["slope"] > 0.8


def test_conjugated_derivative_identity():
    z = poly_var(HEIS, 2)
    res = HEIS.conjugated_derivative_check(1, (2,), z, (0.1, 0.2, 0.0))
    assert res < 1e-6
    y = poly_var(GRUSHIN, 1)
    res2 = GRUSHIN.conjugated_derivative_check(2, (1,), y, (0.4, 0.1))
    assert res2 < 1e-6
    # commuting case: both sides vanish
    psi = Poly.var(2, 0)
    res3 = FLAT2.conjugated_derivative_check(1, (2,), psi, (0.0, 0.0))
    assert res3 < 1e-9


def test_taylor_constant_fields_exact_tail():
    psi = Poly.var(2, 0) * Poly.var(2, 0) * Poly.var(2, 1)
    partial, actual, rem = FLAT2.taylor_composed_flows(psi, (1,), (0.2, 0.4), 0.3, 4)
    assert rem < 1e-12  # order beyond deg psi: tail vanishes


def test_taylor_single_affine_flow_order():
    psi = Poly.var(3, 2) * Poly.var(3, 2)
    ts = [0.2 * (0.5**k) for k in range(6)]
    rems, slope = HEIS.taylor_remainder_order(psi, (2,), (0.5, 0.1, 0.3), ts, ell=2)
    assert 1.8 < slope < 2.2


def test_taylor_two_flows_order_at_least_three():
    psi = Poly.var(3, 2) * Poly.var(3, 2)
    ts = [0.2 * (0.5**k) for k in range(6)]
    rems, slope = HEIS.taylor_remainder_order(psi, (1, 2), (0.5, 0.1, 0.3), ts, ell=3)
    assert slope == math.inf or slope > 2.8


def test_model_json_round_trip():
    again = system_from_json(HEIS_JSON)
    assert again.n == 3 and again.m == 2 and again.s == 2
    for a, b in zip(again.fields, HEIS.fields):
        assert a == b
    for w in all_words(2, 2):
        assert again.commutator_coeffs(w) == HEIS.commutator_coeffs(w)


def test_registry_names():
    for name in ("heisenberg", "grushin", "engel", "martinet", "flat2", "flat3"):
        assert name in MODEL_BUILDERS
    with pytest.raises(FileNotFoundError):
        load_model("nosuchmodel")


def test_batch_flow_matches_scalar():
    fn = HEIS.batch_fn(1)
    X0 = np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.3]])
    T = np.array([0.5, -0.25])
    got = flows.rk4_batch(fn, T, X0, steps=4)
    for i in range(2):
        ref = HEIS.flow(1, T[i], X0[i])
        assert np.allclose(got[i], ref, atol=1e-12)


def test_bracket_limit_order_heisenberg_generic():
    # nonlinear test function off the nilpotent-exact instance: genuine slope 1
    psi = Poly.var(3, 2) + Poly.var(3, 2) * Poly.var(3, 2)
    ts = [0.1 * (0.6**k) for k in range(6)]
    rep = HEIS.bracket_limit_order((1, 2), psi, (0.3, 0.2, 0.1), ts)
    assert abs(rep["slope"] - 1.0) < 0.2


def test_ad_evaluated_at_point():
    vec = ENGEL.ad(1, (1, 2)).eval_exact(rational_point((0.5, 0.1, 0.0, 0.0)))
    oracle = ENGEL.commutator_coeffs((1, 1, 2)).eval_exact(
        (Fraction(1, 2), Fraction(1, 10), 0, 0)
    )
    assert tuple(vec) == oracle


def test_load_model_from_file(tmp_path):
    import json

    path = tmp_path / "model.json"
    path.write_text(json.dumps(GRUSHIN_JSON))
    loaded = load_model(str(path))
    assert loaded.m == 2 and loaded.n == 2 and loaded.s == 2
    assert loaded.commutator_coeffs((1, 2)) == GRUSHIN.commutator_coeffs((1, 2))


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_exact_batch_flow_matches_rk4(name):
    system = load_model(name)
    rng = np.random.default_rng(17)
    X0 = rng.uniform(-1, 1, size=(64, system.n))
    T = rng.uniform(-1.5, 1.5, size=64)
    for j in range(1, system.m + 1):
        assert system.field(j).is_triangular()
        ref = flows.rk4_batch(system.batch_fn(j), T, X0, steps=8)
        assert np.abs(system.flow_batch(j, T, X0) - ref).max() <= 1e-12
        assert np.abs(system.flow_batch(-j, -T, X0) - ref).max() <= 1e-12
        assert np.abs(system.flow_batch(j, -0.7, X0) - flows.rk4_batch(
            system.batch_fn(j), -0.7, X0, steps=8)).max() <= 1e-12


def _counting_dopri5(monkeypatch):
    """Patch ``flows.dopri5`` to record the row count of every call."""
    calls = []
    dopri5 = flows.dopri5

    def counting(fb, T, Y0, **kwargs):
        calls.append(len(Y0))
        return dopri5(fb, T, Y0, **kwargs)

    monkeypatch.setattr(flows, "dopri5", counting)
    return calls


LIN = VectorFieldSystem([PolyMap([Poly.var(1, 0)])], step=1, name="linear1d")
# X1 = d/dx, X2 = (y, x): X2 is not triangular
XY = VectorFieldSystem(
    [PolyMap([Poly.const(2, 1), Poly.zero(2)]), PolyMap([Poly.var(2, 1), Poly.var(2, 0)])],
    step=2, name="xy",
)


def test_non_triangular_field_flows_by_dopri5(monkeypatch):
    assert not LIN.field(1).is_triangular()
    X0 = np.array([[1.3], [-0.4]])
    T = np.array([0.8, -0.5])
    ref = flows.dopri5(LIN.batch_fn(1), T, X0)
    calls = _counting_dopri5(monkeypatch)
    got = LIN.flow_batch(1, T, X0)
    assert calls == [2]
    assert np.array_equal(got, ref)
    assert np.allclose(got[:, 0], X0[:, 0] * np.exp(T), rtol=1e-9, atol=0)
    frame = CommutatorFrame(LIN)
    E = e_map_batch(frame, (1,), (1.0,), 0.5, np.array([[0.4], [-0.2]]))
    assert calls == [2, 2]
    assert np.allclose(E[:, 0], np.exp(0.5 * np.array([0.4, -0.2])), rtol=1e-10)


def test_e_map_batch_overflow_is_a_nan_row():
    # the chart e^{h/2} on the line leaves the domain box long before it
    # could overflow: that row is NaN, the others are untouched, and nothing warns
    frame = CommutatorFrame(LIN)
    H = np.array([[1e6], [0.4], [-0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = e_map_batch(frame, (1,), (1.0,), 0.5, H)
    assert np.isnan(E[0, 0])
    assert np.array_equal(E[1:], e_map_batch(frame, (1,), (1.0,), 0.5, H[1:]))


def test_dopri5_marks_failed_rows_nan(monkeypatch):
    fb = LIN.batch_fn(1)
    Y0 = np.array([[1.0], [1.0], [11.0], [1.0], [1.0], [0.5]])
    T = np.array([3.0, np.nan, 0.0, np.inf, 0.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Y = flows.dopri5(fb, T, Y0)
    # row 0 leaves the box at t = ln 10, rows 1 and 3 have a non-finite T,
    # row 2 starts outside the box
    assert np.isnan(Y[:4, 0]).all()
    assert Y[4, 0] == 1.0 and abs(Y[5, 0] - 0.5 * math.exp(0.5)) <= 1e-9
    # a row still short of its T at the step cap
    monkeypatch.setattr(flows, "DOPRI5_MAX_STEPS", 2)
    Y = flows.dopri5(fb, np.array([2.0, 1e-3]), np.array([[0.1], [0.1]]))
    assert np.isnan(Y[0, 0]) and np.isfinite(Y[1, 0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), rows=st.integers(1, 9), system=st.sampled_from([LIN, XY]))
def test_dopri5_row_equals_one_row_call_bitwise(seed, rows, system):
    rng = np.random.default_rng(seed)
    X0 = rng.uniform(-1, 1, size=(rows, system.n))
    T = rng.uniform(-1, 1, size=rows)
    for j in range(1, system.m + 1):
        Y = system.flow_batch(j, T, X0)
        for i in range(rows):
            assert np.array_equal(Y[i], system.flow_batch(j, T[i], X0[i:i + 1])[0])
            assert Y[i].tolist() == list(system.flow(j, T[i], X0[i]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(system=st.sampled_from([LIN, XY]), t=st.floats(-1.0, 1.0), seed=st.integers(0, 2**16))
def test_dopri5_forward_then_back_returns_start(system, t, seed):
    X0 = np.random.default_rng(seed).uniform(-1, 1, size=(4, system.n))
    for j in range(1, system.m + 1):
        back = system.flow_batch(-j, t, system.flow_batch(j, t, X0))
        assert np.abs(back - X0).max() <= 10 * flows.DOPRI5_ATOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(MODEL_BUILDERS)),
    j=st.sampled_from([1, 2, -1, -2]),
    t=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_exact_flow_forward_then_back_returns_start(name, j, t, seed):
    system = load_model(name)
    X0 = np.random.default_rng(seed).uniform(-1, 1, size=(4, system.n))
    back = system.flow_batch(-j, t, system.flow_batch(j, t, X0))
    assert np.abs(back - X0).max() <= 1e-12


@pytest.mark.parametrize("field", [0, 3, -3])
def test_flow_rejects_letter_outside_alphabet(field):
    with pytest.raises(ValueError):
        HEIS.flow(field, 0.1, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("system", [load_model(name) for name in sorted(MODEL_BUILDERS)] + [XY],
                         ids=lambda s: s.name)
def test_compose_flows_is_bitwise_the_per_leg_loop(system):
    # negative letters and zero-time legs, against one flow_batch call per leg
    rng = np.random.default_rng(31)
    for k in (1, 2, 5, 9):
        letters = rng.integers(1, system.m + 1, size=k) * rng.choice([-1, 1], size=k)
        times = rng.normal(size=k) * 0.4
        times[rng.random(k) < 0.3] = 0.0
        x = rng.uniform(-0.5, 0.5, system.n)
        ref = x[None]
        for j, t in zip(letters, times):
            ref = system.flow_batch(int(j), t, ref)
        legs = [(int(j), float(t)) for j, t in zip(letters, times)]
        assert system.compose_flows(legs, x) == tuple(ref[0].tolist())


def test_compose_flows_checks_only_the_endpoint():
    # an exact path may leave the box on the way and come back
    assert HEIS.compose_flows([(1, 25.0), (1, -25.0)], (0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)
    with pytest.raises(flows.DomainEscapeError):
        HEIS.compose_flows([(1, 25.0), (2, 1.0)], (0.0, 0.0, 0.0))
    # an adaptive leg that leaves the box makes the endpoint NaN, even if a
    # later leg would bring it back
    with pytest.raises(flows.DomainEscapeError):
        LIN.compose_flows([(1, 3.0), (1, -3.0)], (1.0,))
    assert HEIS.compose_flows([], (0.1, 0.2, 0.3)) == (0.1, 0.2, 0.3)


def _mixture_rk4(system, keys, U, T, Y, steps):
    """Reference: the mixture field as one closure, integrated by RK4."""
    fns = [system.batch_fn(k) for k in keys]

    def fld(P):
        acc = U[:, 0, None] * fns[0](P)
        for j in range(1, len(fns)):
            acc = acc + U[:, j, None] * fns[j](P)
        return acc

    return flows.rk4_batch(fld, T, Y, steps=steps)


def _mixture_keys(system):
    return [tuple(range(1, system.m + 1)), tuple(CommutatorFrame(system).words)]


def test_mixture_flow_heisenberg_closed_form():
    rng = np.random.default_rng(5)
    X0 = rng.uniform(-1, 1, size=(50, 3))
    U = rng.uniform(-2, 2, size=(50, 3))
    T = rng.uniform(-1.5, 1.5, size=50)
    got = HEIS.mixture_flow_batch((1, 2, (1, 2)), U, T, X0)
    (x, y, z), (a, b, c) = X0.T, U.T
    ref = np.stack([x + T * a, y + T * b, z + T * c + T * (x * b - y * a) / 2], axis=1)
    assert np.abs(got - ref).max() <= 1e-14


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_mixture_flow_one_hot_is_generator_flow(name):
    system = load_model(name)
    rng = np.random.default_rng(23)
    X0 = rng.uniform(-1, 1, size=(32, system.n))
    T = rng.uniform(-1.5, 1.5, size=32)
    keys = tuple(range(1, system.m + 1))
    for j in keys:
        U = np.zeros((32, system.m))
        U[:, j - 1] = 1.0
        got = system.mixture_flow_batch(keys, U, T, X0)
        assert np.abs(got - system.flow_batch(j, T, X0)).max() <= 1e-13


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_mixture_flow_matches_fine_rk4(name):
    system = load_model(name)
    rng = np.random.default_rng(29)
    X0 = rng.uniform(-1, 1, size=(32, system.n))
    T = rng.uniform(-0.5, 0.5, size=32)
    for keys in _mixture_keys(system):
        U = rng.uniform(-1, 1, size=(32, len(keys)))
        ref = _mixture_rk4(system, keys, U, T, X0, steps=64)
        assert np.abs(system.mixture_flow_batch(keys, U, T, X0) - ref).max() <= 1e-10


def test_non_triangular_mixture_flows_by_dopri5(monkeypatch):
    # x d/dx on the line, alone and mixed with the constant field d/dx: one
    # dopri5 call on the control lift per mixture flow
    lin = VectorFieldSystem(
        [PolyMap([Poly.var(1, 0)]), PolyMap([Poly.const(1, 1)])],
        step=1, name="linear1d",
    )
    rng = np.random.default_rng(31)
    X0 = rng.uniform(-1, 1, size=(6, 1))
    calls = _counting_dopri5(monkeypatch)
    for keys in ((1,), (1, 2)):
        U = rng.uniform(-1, 1, size=(6, len(keys)))
        got = lin.mixture_flow_batch(keys, U, 0.25, X0)
        assert calls == [6]
        ref = _mixture_rk4(lin, keys, U, 0.25, X0, steps=4096)
        assert np.abs(got - ref).max() <= 1e-10
        calls.clear()
    U = rng.uniform(-1, 1, size=(6, 1))
    got = lin.mixture_flow_batch((1,), U, 0.25, X0)
    assert np.allclose(got[:, 0], X0[:, 0] * np.exp(0.25 * U[:, 0]), rtol=1e-10)
    # the lift of the mixture of letters (1, 2) is cached apart from the word 12
    P = rng.uniform(-1, 1, size=(6, 2))
    XY.mixture_flow_batch((1, 2), rng.uniform(-1, 1, size=(6, 2)), 0.25, P)
    fw = XY.commutator_coeffs((1, 2))
    assert np.array_equal(XY.batch_fn((1, 2))(P), fw.compile_batch()(P))


def test_non_triangular_mixture_scales_large_controls():
    # 20 X1 for time 0.05 is X1 for time 1: the control is no coordinate of the box
    got = XY.mixture_flow_batch((1, 2), [[20.0, 0.0]], 0.05, [[0.0, 0.0]])
    assert np.abs(got - [[1.0, 0.0]]).max() <= 1e-10
    # rows with max |u| <= 1 are bitwise those of a batch without the large rows
    rng = np.random.default_rng(37)
    U = rng.uniform(-1, 1, size=(8, 2))
    U[::2] *= 15.0
    X0 = rng.uniform(-0.5, 0.5, size=(8, 2))
    T = rng.uniform(-0.3, 0.3, size=8)
    got = XY.mixture_flow_batch((1, 2), U, T, X0)
    assert np.isfinite(got).all()
    small = np.abs(U).max(axis=1) <= 1.0
    alone = XY.mixture_flow_batch((1, 2), U[small], T[small], X0[small])
    assert np.array_equal(got[small], alone)
    ref = _mixture_rk4(XY, (1, 2), U, T, X0, steps=4096)
    assert np.abs(got - ref).max() <= 1e-9


def test_non_triangular_mixture_steps_as_its_field():
    # the control components of the lift carry no error, so the mixture
    # 0 X1 + 1 X2 takes the steps of X2 alone and ends on its flow bitwise
    rng = np.random.default_rng(41)
    X0 = rng.uniform(-0.5, 0.5, size=(12, 2))
    T = rng.uniform(-0.8, 0.8, size=12)
    U = np.tile([0.0, 1.0], (12, 1))
    assert np.array_equal(XY.mixture_flow_batch((1, 2), U, T, X0), XY.flow_batch(2, T, X0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(MODEL_BUILDERS)),
    frame_words=st.booleans(),
    t=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_mixture_flow_forward_then_back_returns_start(name, frame_words, t, seed):
    system = load_model(name)
    keys = _mixture_keys(system)[frame_words]
    rng = np.random.default_rng(seed)
    X0 = rng.uniform(-1, 1, size=(4, system.n))
    U = rng.uniform(-1, 1, size=(4, len(keys)))
    there = system.mixture_flow_batch(keys, U, t, X0)
    back = system.mixture_flow_batch(keys, U, -t, there)
    assert np.abs(back - X0).max() <= 1e-12
