import itertools
import math

import numpy as np
import pytest

from liebox import flows
from liebox.approxexp import (
    CommutatorFrame,
    box_norm,
    c_map,
    c_map_legs,
    e_map,
    e_map_batch,
    exp_ap,
    exp_ap_legs,
    invert_legs,
    jacobian_e,
)
from liebox.ballbox import select_maximal
from liebox.poly import Poly, PolyMap
from liebox.vfield import VectorFieldSystem, load_model

HEIS = load_model("heisenberg")
GRUSHIN = load_model("grushin")
ENGEL = load_model("engel")
FLAT3 = load_model("flat3")

HEIS_FRAME = CommutatorFrame(HEIS)
GRUSHIN_FRAME = CommutatorFrame(GRUSHIN)
FLAT3_FRAME = CommutatorFrame(FLAT3)

# frame index layout: words ordered by (length, lex); for m=2, s=2 that is
# 1:(1,) 2:(2,) 3:(1,1) 4:(1,2) 5:(2,1) 6:(2,2)
HEIS_MAXIMAL = (1, 2, 4)
GRUSHIN_AT_A = (1, 2)
GRUSHIN_AT_0 = (1, 4)


def test_c_map_leg_counts():
    assert len(c_map_legs((1,), 0.1)) == 1
    assert len(c_map_legs((1, 2), 0.1)) == 4
    assert len(c_map_legs((1, 2, 2), 0.1)) == 10


def test_c_map_single_letter_is_flow():
    x = (0.1, -0.2, 0.3)
    assert np.allclose(c_map(HEIS, 0.4, (1,), x), HEIS.flow(1, 0.4, x))


def test_c_map_commuting_returns_start():
    x = (0.3, -0.1, 0.2)
    y = c_map(FLAT3, 0.5, (1, 2), x)
    assert max(abs(a - b) for a, b in zip(x, y)) <= 10 * flows.DOPRI5_ATOL


def test_c_map_heisenberg_vertical():
    for s in (0.05, 0.1, 0.2):
        y = c_map(HEIS, s, (1, 2), (0.0, 0.0, 0.0))
        assert abs(y[0]) < 1e-8
        assert abs(y[1]) < 1e-8
        assert abs(y[2] - s * s) < 1e-8


def test_exp_ap_single_letter():
    x = (0.2, 0.1, 0.0)
    assert np.allclose(exp_ap(HEIS, 0.3, (1,), x), HEIS.flow(1, 0.3, x))
    assert np.allclose(exp_ap(HEIS, -0.3, (1,), x), HEIS.flow(1, -0.3, x))


def _dopri5_legs(system, legs, x):
    """Independent reference: each leg by ``flows.dopri5`` on the field's evaluator.

    The integration is adaptive even on triangular fields, so it does not
    share the exact Lie-series flows the library composes.
    """
    Y = np.asarray(x, dtype=float)[None]
    for j, t in legs:
        Y = flows.dopri5(system.batch_fn(abs(j)), t if j > 0 else -t, Y)
    return Y[0]


def _exp_ap_round_trip(system, t, w, x):
    """exp_ap at t against its DOPRI5 legs, then the DOPRI5 legs at -t back."""
    y = _dopri5_legs(system, exp_ap_legs(t, w), x)
    assert np.abs(np.subtract(exp_ap(system, t, w, x), y)).max() <= 10 * flows.DOPRI5_ATOL
    back = _dopri5_legs(system, exp_ap_legs(-t, w), y)
    return np.abs(back - np.asarray(x)).max()


def test_exp_ap_compositional_inverse():
    x = (0.1, 0.2, -0.1)
    for t in (0.3, -0.3, 0.01):
        assert _exp_ap_round_trip(HEIS, t, (1, 2), x) <= 10 * flows.DOPRI5_ATOL


def test_exp_ap_heisenberg_vertical_both_signs():
    for t in (0.04, 0.01):
        y = exp_ap(HEIS, t, (1, 2), (0.0, 0.0, 0.0))
        assert np.allclose(y, (0.0, 0.0, t), atol=1e-8)
        ym = exp_ap(HEIS, -t, (1, 2), (0.0, 0.0, 0.0))
        assert np.allclose(ym, (0.0, 0.0, -t), atol=1e-8)


def test_exp_ap_first_order_correctness_engel():
    # deviation of exp_ap(t) from x + t f_w(x)
    ts = [0.1 * 0.6**k for k in range(6)]
    x = np.array([0.2, 0.1, 0.05, 0.0])
    fx = ENGEL.batch_fn((1, 2))(x)
    errs = [float(np.linalg.norm(np.asarray(exp_ap(ENGEL, t, (1, 2), x)) - x - t * fx))
            for t in ts]
    pts = [(math.log(t), math.log(e)) for t, e in zip(ts, errs) if e > 1e-13]
    assert len(pts) >= 4
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope > 1.2  # strictly better than first order


def test_box_norm_cases():
    assert box_norm((0.3, -0.5), (1, 1)) == 0.5
    assert abs(box_norm((0.04,), (2,)) - 0.2) < 1e-15
    assert abs(box_norm((0.1, 0.001), (1, 3)) - 0.1) < 1e-12
    assert box_norm((0.04,), (2,)) < 0.21
    assert not box_norm((0.04,), (2,)) < 0.2
    H = np.array([[0.3, -0.5], [0.1, 0.001], [0.0, 0.0]])
    assert np.array_equal(box_norm(H, (1, 3)), [box_norm(h, (1, 3)) for h in H])


def test_e_map_at_zero_and_single_direction():
    x = (0.0, 0.0, 0.0)
    assert np.allclose(e_map(HEIS_FRAME, HEIS_MAXIMAL, x, 0.5, (0, 0, 0)), x)
    r, h3 = 0.5, 0.3
    y = e_map(HEIS_FRAME, HEIS_MAXIMAL, x, r, (0.0, 0.0, h3))
    assert np.allclose(y, (0.0, 0.0, h3 * r * r), atol=1e-8)


def test_e_map_first_order_frame_reduces_to_flows():
    x = (0.1, -0.2, 0.05)
    r = 0.4
    h = (0.2, -0.3, 0.0)
    y = e_map(HEIS_FRAME, HEIS_MAXIMAL, x, r, h)
    ref = HEIS.flow(1, h[0] * r, HEIS.flow(2, h[1] * r, x))
    assert np.allclose(y, ref, atol=1e-9)


def test_e_map_rejects_bad_radius():
    with pytest.raises(ValueError):
        e_map(HEIS_FRAME, HEIS_MAXIMAL, (0, 0, 0), 1.5, (0, 0, 0))


def test_jacobian_leading_columns_heisenberg():
    x = (0.0, 0.0, 0.0)
    r = 0.5
    J, det = jacobian_e(HEIS_FRAME, HEIS_MAXIMAL, x, r, (0.0, 0.0, 0.0))
    lead = HEIS_FRAME.eval_columns(HEIS_MAXIMAL, x) * [
        r ** HEIS_FRAME.degree(i) for i in HEIS_MAXIMAL]
    for k in range(3):
        num = np.linalg.norm(J[:, k] - lead[:, k])
        den = np.linalg.norm(lead[:, k])
        assert num <= 1e-4 * den + 1e-9
    assert abs(det - r**4) <= 1e-4 * r**4


def test_jacobian_grushin_maximal_det():
    x = (1.0, 0.0)
    r = 0.4
    J, det = jacobian_e(GRUSHIN_FRAME, GRUSHIN_AT_A, x, r, (0.0, 0.0))
    assert abs(det - r * r) <= 1e-4 * r * r
    J0, det0 = jacobian_e(GRUSHIN_FRAME, GRUSHIN_AT_0, (0.0, 0.0), r, (0.0, 0.0))
    assert abs(det0 - r**3) <= 1e-4 * r**3


def test_jacobian_flat_diagonal():
    J, det = jacobian_e(FLAT3_FRAME, (1, 2, 3), (0.0, 0.0, 0.0), 0.3, (0.1, 0.0, -0.2))
    assert np.allclose(J, 0.3 * np.eye(3), atol=1e-9)
    assert abs(det - 0.3**3) < 1e-9


def test_jacobian_comparability_small_box():
    rng = np.random.default_rng(5)
    for frame, I, x, r in (
        (HEIS_FRAME, HEIS_MAXIMAL, (0.0, 0.0, 0.0), 0.5),
        (GRUSHIN_FRAME, GRUSHIN_AT_A, (1.0, 0.0), 0.4),
    ):
        degrees = [frame.degree(i) for i in I]
        _, det0 = jacobian_e(frame, I, x, r, [0.0] * len(I))
        for _ in range(12):
            u = rng.uniform(-1, 1, size=len(I))
            h = [0.2 ** d * v for d, v in zip(degrees, u)]
            _, det = jacobian_e(frame, I, x, r, h)
            assert 0.5 <= det / det0 <= 2.0


def _dopri5_chart(frame, I, x, r, h):
    """Independent chart reference: the DOPRI5 legs of one approximate
    exponential per frame entry, last entry first."""
    y = np.asarray(x, dtype=float)
    for k in range(len(I) - 1, -1, -1):
        w = frame.word(I[k])
        y = _dopri5_legs(frame.system, exp_ap_legs(h[k] * r ** len(w), w), y)
    return y


CHART_CASES = (
    ("heisenberg", (0.0, 0.0, 0.0)),
    ("grushin", (1.0, 0.0)),
    ("engel", (0.0, 0.0, 0.0, 0.0)),
    ("martinet", (0.0, 0.0, 0.0)),
)


def test_e_map_batch_matches_scalar():
    r = 0.5
    for name, x in CHART_CASES:
        frame = CommutatorFrame(load_model(name))
        I = select_maximal(frame, x, r).I
        rng = np.random.default_rng(11)
        H = rng.uniform(-0.3, 0.3, size=(24, len(x)))
        Y = e_map_batch(frame, I, x, r, H)
        for i in range(H.shape[0]):
            ref = _dopri5_chart(frame, I, x, r, H[i])
            assert np.allclose(Y[i], ref, atol=1e-10), (name, i)
            assert np.allclose(e_map(frame, I, x, r, H[i]), ref, atol=1e-10), (name, i)


def _two_branch_chart(frame, I, x, r, H):
    """Reference chart: a degree-1 leg at h * r and, for each sign of h_k,
    a gather of its rows, a flow over ``c_map_legs`` or its ``invert_legs``
    and a scatter back."""
    system = frame.system
    Y = np.broadcast_to(np.asarray(x, dtype=float), H.shape).copy()
    for k in range(len(I) - 1, -1, -1):
        w = frame.word(I[k])
        hk = H[:, k]
        if len(w) == 1:
            Y = system.flow_batch(w[0], hk * r, Y)
            continue
        tau = np.abs(hk) ** (1.0 / len(w)) * r
        legs = c_map_legs(w, 1.0)
        for branch, branch_legs in ((hk >= 0, legs), (hk < 0, invert_legs(legs))):
            if branch.any():
                sub, tb = Y[branch], tau[branch]
                for j, t in branch_legs:
                    sub = system.flow_batch(j, t * tb, sub)
                Y[branch] = sub
    return Y


# X1 = d/dx flows exactly, X2 = (y, x) by DOPRI5; frame 5 is the word (2, 1)
XY_FRAME = CommutatorFrame(VectorFieldSystem(
    [PolyMap([Poly.const(2, 1), Poly.zero(2)]), PolyMap([Poly.var(2, 1), Poly.var(2, 0)])],
    step=2, name="xy",
))


@pytest.mark.parametrize("frame, I, x", [
    *((CommutatorFrame(load_model(name)), None, x) for name, x in CHART_CASES),
    (CommutatorFrame(load_model("grushin")), None, (0.0, 0.0)),
    (XY_FRAME, (1, 5), (0.1, 0.2)),
    (XY_FRAME, (2, 4), (0.1, 0.2)),
])
def test_e_map_batch_matches_two_branch_chart_bitwise(frame, I, x):
    r = 0.5
    I = I or select_maximal(frame, x, r).I
    rng = np.random.default_rng(13)
    H = rng.uniform(-1, 1, size=(300, len(x)))
    H[rng.random(H.shape) < 0.2] = 0.0
    for col in H.T:
        assert (col == 0).any() and (col > 0).any() and (col < 0).any()
    Y = e_map_batch(frame, I, x, r, H)
    assert np.array_equal(Y, _two_branch_chart(frame, I, x, r, H), equal_nan=True)


def test_inverse_legs_shift_forward_letters():
    for ell in range(1, 7):
        for w in itertools.product((1, 2, 3), repeat=ell):
            F = c_map_legs(w, 1.0)
            assert [j for j, _ in invert_legs(F)] == [j for j, _ in F][1:] + [w[0]]


def test_jacobian_e_matches_dopri5_differences():
    r = 0.5
    for name, x in CHART_CASES:
        frame = CommutatorFrame(load_model(name))
        I = select_maximal(frame, x, r).I
        degrees = [frame.degree(i) for i in I]
        rng = np.random.default_rng(12)
        for _ in range(4):
            h = np.array([0.2**d * v for d, v in zip(degrees, rng.uniform(-1, 1, len(I)))])
            cols = []
            for k in range(len(I)):
                e = np.zeros(len(I))
                e[k] = 1e-5 * max(1.0, abs(h[k]))
                up = _dopri5_chart(frame, I, x, r, h + e)
                dn = _dopri5_chart(frame, I, x, r, h - e)
                cols.append((up - dn) / (2 * e[k]))
            J_ref = np.stack(cols, axis=1)
            det_ref = np.linalg.det(J_ref)
            J, det = jacobian_e(frame, I, x, r, h)
            assert np.allclose(J, J_ref, rtol=0, atol=1e-9), (name, h)
            assert abs(det - det_ref) <= 1e-9 * abs(det_ref), (name, h, det, det_ref)


@pytest.mark.parametrize("I", [(1.9, 2, 4.2), (1.0, 2, 4), (True, 2, 4)])
def test_frame_rejects_non_integer_indices(I):
    with pytest.raises(ValueError, match="frame indices must be integers"):
        HEIS_FRAME.check_index_tuple(I)


def test_frame_accepts_numpy_int_indices():
    I = HEIS_FRAME.check_index_tuple(np.array(HEIS_MAXIMAL))
    assert I == HEIS_MAXIMAL and all(type(i) is int for i in I)


@pytest.mark.parametrize("chart", (e_map, jacobian_e))
@pytest.mark.parametrize("r", (0.0, 1.5))
def test_scalar_chart_rejects_radius_outside_unit_interval(chart, r):
    with pytest.raises(ValueError):
        chart(HEIS_FRAME, HEIS_MAXIMAL, (0.0, 0.0, 0.0), r, (0.1, 0.0, 0.0))


def test_chart_on_non_triangular_field_is_one_dopri5_call(monkeypatch):
    # x d/dx has no terminating Lie series, so the chart leg is adaptive:
    # one flows.dopri5 call per chart, whatever the number of rows
    lin = VectorFieldSystem([PolyMap([Poly.var(1, 0)])], step=1, name="linear1d")
    frame = CommutatorFrame(lin)
    calls = []
    dopri5 = flows.dopri5

    def counting(fb, T, Y0):
        calls.append(len(Y0))
        return dopri5(fb, T, Y0)

    monkeypatch.setattr(flows, "dopri5", counting)
    for h in (0.3, 1.0):
        exact = 1.3 * math.exp(h)
        y = e_map(frame, (1,), (1.3,), 1.0, (h,))
        assert y[0] == dopri5(lin.batch_fn(1), h, [[1.3]])[0, 0]
        assert abs(y[0] - exact) <= 1e-9
        _, det = jacobian_e(frame, (1,), (1.3,), 1.0, (h,))
        assert abs(det - exact) <= 1e-6 * exact
    assert calls == [1, 2, 1, 2]


def test_invert_legs_round_trip():
    legs = c_map_legs((1, 2, 2), 0.2)
    x = (0.05, 0.1, 0.0, 0.02)
    y = ENGEL.compose_flows(legs, x)
    back = ENGEL.compose_flows(invert_legs(legs), y)
    assert max(abs(a - b) for a, b in zip(back, x)) < 1e-9


def test_exp_ap_inverse_all_models():
    from liebox.vfield import load_model, all_words

    for name in ("heisenberg", "grushin", "engel", "martinet"):
        system = load_model(name)
        x = tuple(0.1 for _ in range(system.n))
        seen_lengths = set()
        for w in all_words(system.m, system.s):
            if len(w) in seen_lengths:
                continue
            seen_lengths.add(len(w))
            for t in (0.5, -0.3):
                err = _exp_ap_round_trip(system, t, w, x)
                assert err <= 10 * flows.DOPRI5_ATOL, (name, w, t, err)


def _leg_loop_chart(frame, I, x, r, H):
    """Reference chart: one ``flow_batch`` call per leg, on a fresh time
    array np.where(h_k >= 0, p, q) * tau_k each."""
    system = frame.system
    Y = np.broadcast_to(np.asarray(x, dtype=float), H.shape).copy()
    for k in range(len(I) - 1, -1, -1):
        w = frame.word(I[k])
        tau = np.abs(H[:, k]) ** (1.0 / len(w)) * r
        forward = H[:, k] >= 0
        legs = c_map_legs(w, 1.0)
        pad = [(w[0], 0.0)] if len(w) > 1 else []
        for (j, p), (_, q) in zip(legs + pad, pad + invert_legs(legs)):
            Y = system.flow_batch(j, np.where(forward, p, q) * tau, Y)
    return Y


@pytest.mark.parametrize("r", (1.0, 2.0))
@pytest.mark.parametrize("name, x", [
    ("engel", (0.2, -0.1, 0.3, 0.05)),
    ("martinet", (0.4, 0.1, -0.2)),
])
def test_compiled_chart_is_bitwise_the_leg_loop_off_origin(name, x, r):
    """Off-origin centres at the unit radius and doubling's outer radius 2,
    with rows holding NaN, +-inf and exact zeros."""
    frame = CommutatorFrame(load_model(name))
    I = select_maximal(frame, x, 1.0).I
    rng = np.random.default_rng(17)
    H = rng.uniform(-1, 1, size=(200, len(x)))
    H[rng.random(H.shape) < 0.2] = 0.0
    H[:4] = np.array([np.nan, np.inf, -np.inf, 0.0])[:, None]
    H[4:8, 1] = np.nan, np.inf, -np.inf, -0.0
    H[8:12, -1] = np.nan, np.inf, -np.inf, 1e300
    with np.errstate(all="ignore"):
        Y = e_map_batch(frame, I, x, r, H)
        ref = _leg_loop_chart(frame, I, x, r, H)
    assert np.isnan(Y[0]).all() and np.isfinite(Y[12:]).all()
    assert Y.tobytes() == ref.tobytes()


def test_chart_is_compiled_once_per_frame_and_index_tuple(monkeypatch):
    import liebox.approxexp as approxexp

    built = []
    exec_source = approxexp.exec_source

    def counting(lines, **names):
        built.append(lines[0])
        return exec_source(lines, **names)

    monkeypatch.setattr(approxexp, "exec_source", counting)
    frame, x, h = CommutatorFrame(HEIS), (0.0, 0.0, 0.0), (0.1, -0.2, 0.05)
    y = e_map(frame, HEIS_MAXIMAL, x, 0.5, h)
    jacobian_e(frame, np.array(HEIS_MAXIMAL), x, 0.5, h)
    e_map_batch(frame, HEIS_MAXIMAL, x, 1.0, np.zeros((5, 3)))
    approxexp.invert_chart(frame, HEIS_MAXIMAL, x, 0.5, [y])
    assert len(built) == 1
    e_map_batch(frame, (1, 2, 5), x, 0.5, np.zeros((2, 3)))
    assert len(built) == 2
    other = CommutatorFrame(HEIS)
    assert e_map(other, HEIS_MAXIMAL, x, 0.5, h) == y
    assert len(built) == 3
