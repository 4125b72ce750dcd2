import math

import numpy as np
import pytest

from liebox import approxexp, ballbox, flows, metric, vfield
from liebox.acceptance import heisenberg_distance
from liebox.approxexp import (
    CommutatorFrame,
    ball_membership,
    chart_leg_count,
    e_map_batch,
    invert_chart,
    membership_mask,
)
from liebox.metric import (
    cc_distance,
    estimate_all,
    fefferman_phong_check,
    fl_distance,
    rho_distance,
)
from liebox.poly import Poly, PolyMap
from liebox.vfield import VectorFieldSystem, load_model

HEIS = load_model("heisenberg")
HEIS_FRAME = CommutatorFrame(HEIS)
HEIS_I = (1, 2, 4)
ORIGIN = (0.0, 0.0, 0.0)


def test_zero_distance():
    for fn in (fl_distance, cc_distance):
        est = fn(HEIS, ORIGIN, ORIGIN)
        assert est.ok() and est.value == 0.0


def test_single_arc_upper_bound():
    y = HEIS.flow(1, 0.3, ORIGIN)
    est = fl_distance(HEIS, ORIGIN, y)
    assert est.ok()
    assert est.value <= 0.3 * (1 + 1e-6)
    assert est.value >= 0.29  # Euclidean lower bound on this straight move


def test_cc_straight_horizontal():
    y = HEIS.flow(2, 0.25, ORIGIN)
    est = cc_distance(HEIS, ORIGIN, y)
    assert est.ok()
    assert est.value <= 0.25 * (1 + 1e-5) + 1e-8


def test_vertical_scaling_slope_half():
    deltas = [1e-1, 1e-2, 1e-3, 1e-4]
    vals = []
    for dz in deltas:
        est = fl_distance(HEIS, ORIGIN, (0.0, 0.0, dz))
        assert est.ok()
        vals.append(est.value)
    xs = [math.log(d) for d in deltas]
    ys = [math.log(v) for v in vals]
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - 0.5) <= 0.1


def test_ordering_on_sampled_pairs():
    rng = np.random.default_rng(3)
    for i in range(6):
        a = tuple(rng.uniform(-0.2, 0.2, 3))
        b = tuple(rng.uniform(-0.2, 0.2, 3))
        fl, cc, rho = estimate_all(HEIS, HEIS_FRAME, a, b, seed=i)
        assert fl.ok() and cc.ok() and rho.ok()
        assert cc.value <= fl.value + 1e-6
        assert rho.value <= cc.value + 1e-6


def test_rho_vertical_beats_cc():
    dz = 0.01
    fl = fl_distance(HEIS, ORIGIN, (0, 0, dz))
    cc = cc_distance(HEIS, ORIGIN, (0, 0, dz), fl=fl)
    rho = rho_distance(HEIS, HEIS_FRAME, ORIGIN, (0, 0, dz), cc=cc)
    assert rho.value <= math.sqrt(dz) + 1e-6  # single weighted frame move
    assert rho.value <= cc.value + 1e-6


def reverse_certificate(cert):
    """Arc certificate of the reversed path: same value, endpoints swapped."""
    if cert is None:
        return None
    return {"form": "legs", "legs": [(-j, t) for j, t in reversed(cert["legs"])]}


def test_symmetry_with_reversed_seed():
    rng = np.random.default_rng(5)
    for i in range(3):
        a = tuple(rng.uniform(-0.2, 0.2, 3))
        b = tuple(rng.uniform(-0.2, 0.2, 3))
        fwd = fl_distance(HEIS, a, b, seed=i)
        back = fl_distance(
            HEIS, b, a, seed=i, seed_paths=[reverse_certificate(fwd.certificate)]
        )
        fwd2 = fl_distance(
            HEIS, a, b, seed=i, seed_paths=[reverse_certificate(back.certificate)]
        )
        assert back.value <= fwd.value + 2e-6
        assert fwd2.value <= back.value + 2e-6


def test_triangle_by_concatenation():
    rng = np.random.default_rng(7)
    x = tuple(rng.uniform(-0.1, 0.1, 3))
    y = tuple(rng.uniform(-0.1, 0.1, 3))
    z = tuple(rng.uniform(-0.1, 0.1, 3))
    d_xy = fl_distance(HEIS, x, y, max_segments=4)
    d_yz = fl_distance(HEIS, y, z, max_segments=4)
    concat = {
        "form": "legs",
        "legs": list(d_xy.certificate["legs"]) + list(d_yz.certificate["legs"]),
    }
    d_xz = fl_distance(HEIS, x, z, max_segments=8, seed_paths=[concat])
    assert d_xz.value <= d_xy.value + d_yz.value + 3e-6


def test_monotone_in_segment_budget():
    y = (0.05, 0.1, 0.02)
    v4 = fl_distance(HEIS, ORIGIN, y, max_segments=4).value
    v8 = fl_distance(HEIS, ORIGIN, y, max_segments=8).value
    assert v8 <= v4 + 1e-9


def test_budget_exhausted_status():
    # one field in the plane: the second coordinate is unreachable
    one = Poly.const(2, 1)
    zero = Poly.zero(2)
    sys1 = VectorFieldSystem([PolyMap([one, zero])], step=1, name="line")
    est = fl_distance(sys1, (0.0, 0.0), (0.0, 1.0))
    assert est.status == "budget_exhausted"
    assert est.value == math.inf


def test_cc_dilation_homogeneity():
    p = (0.08, 0.05, 0.01)
    lam = 2.0
    dil = (lam * p[0], lam * p[1], lam * lam * p[2])
    v1 = cc_distance(HEIS, ORIGIN, p, seed=0).value
    v2 = cc_distance(HEIS, ORIGIN, dil, seed=0).value
    assert abs(v2 / v1 - lam) <= 0.05 * lam


def test_fefferman_phong_bounded():
    directions = [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (1.0, 1.0, 1.0),
    ]
    scales = [1e-3, 1e-2, 1e-1]
    rows = fefferman_phong_check(HEIS, ORIGIN, directions, scales, s=2, seed=0)
    sups = [v for _, v in rows]
    assert all(math.isfinite(v) for v in sups)
    assert max(sups) / min(sups) < 3.0


def test_fp_ratio_vanishes_along_horizontal():
    # straight single-generator pairs: estimate ~ Euclidean, ratio ~ sqrt(delta)
    delta = 1e-2
    y = HEIS.flow(1, delta, ORIGIN)
    est = fl_distance(HEIS, ORIGIN, y)
    ratio = est.value / delta**0.5
    assert ratio <= 1.2 * delta**0.5


# (fl = cc, rho) on the first criterion-13 pairs
CRITERION_13_PAIRS = [
    (0.6950925963414254, 0.407274432688765),
    (0.7575893533804712, 0.24647376851761746),
    (1.960237531179851, 0.45460989292415205),
]


def test_distance_values_pinned_on_criterion_13_pairs():
    rng = np.random.default_rng(13)
    for i, (d_fl, d_rho) in enumerate(CRITERION_13_PAIRS):
        a = tuple(rng.uniform(-0.2, 0.2, 3))
        b = tuple(rng.uniform(-0.2, 0.2, 3))
        fl, cc, rho = estimate_all(HEIS, HEIS_FRAME, a, b, seed=i)
        assert fl.ok() and cc.ok() and rho.ok()
        for est, want in ((fl, d_fl), (cc, d_fl), (rho, d_rho)):
            assert est.value == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("a, b, seed", [
    ((0.08, -0.14), (-0.28, -0.29), 0),
    ((0.19, 0.25), (0.06, 0.14), 0),
    ((0.03, 0.26), (0.19, -0.3), 0),
    # a regression case: fixed-step legs missed this target by 2.6e-8 (tolerance 1.16e-8)
    ((0.02617, 0.26104), (0.18951, -0.29836), 2),
], ids=["a0-b0", "a1-b1", "a2-b2", "a3-b3"])
def test_fl_certificate_on_non_triangular_field_reaches_target(a, b, seed):
    # X2 = (y, x) is not triangular, so the arcs are adaptive DOPRI5 legs; an
    # independent replay of the certificate, each leg by 4,096-step RK4,
    # must land on the target within the tolerance it was accepted at
    system = _xy_system()
    assert not system.field(2).is_triangular()
    est = fl_distance(system, a, b, seed=seed)
    assert est.ok()
    end = np.array([a], dtype=float)
    for j, t in est.certificate["legs"]:
        end = flows.rk4_batch(system.batch_fn(abs(j)), t if j > 0 else -t, end, steps=4096)
    dx = float(np.linalg.norm(np.subtract(b, a)))
    assert np.linalg.norm(end[0] - b) <= metric._feasibility_tol(dx)


@pytest.mark.parametrize("bad", [(np.inf, 0.0, 0.0), (np.nan, 0.0, 0.0)])
def test_distances_reject_non_finite_endpoints(monkeypatch, bad):
    def no_solve(*args):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(metric, "_gauss_newton", no_solve)
    for fn in (fl_distance, cc_distance, lambda s, x, y: rho_distance(s, HEIS_FRAME, x, y)):
        for x, y in ((ORIGIN, bad), (bad, ORIGIN)):
            with pytest.raises(ValueError, match="finite"):
                fn(HEIS, x, y)
    with pytest.raises(ValueError, match="finite"):
        estimate_all(HEIS, HEIS_FRAME, ORIGIN, bad)


@pytest.mark.parametrize("a, b", [(ORIGIN, (0.0, 0.0, 1e200)),
                                  ((-1e308, 0.0, 0.0), (1e308, 0.0, 0.0))])
def test_distances_reject_endpoints_whose_distance_overflows(monkeypatch, a, b):
    # |b - a| is inf: the same-point early return must not report 0
    def no_solve(*args):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(metric, "_gauss_newton", no_solve)
    for fn in (fl_distance, cc_distance, lambda s, x, y: rho_distance(s, HEIS_FRAME, x, y)):
        with pytest.raises(ValueError, match="finite"):
            fn(HEIS, a, b)


def test_distances_against_exact_heisenberg_distance():
    # first 20 criterion-13 pairs; fl/exact measured 1.105-1.226
    rng = np.random.default_rng(13)
    for i in range(20):
        a = tuple(rng.uniform(-0.2, 0.2, 3))
        b = tuple(rng.uniform(-0.2, 0.2, 3))
        fl, cc, _ = estimate_all(HEIS, HEIS_FRAME, a, b, seed=i)
        exact = heisenberg_distance(a, b)
        assert exact <= cc.value * (1 + 1e-9)
        assert cc.value <= fl.value + 1e-6
        assert fl.value / exact <= 1.25


# fl_distance(seed=i) for pairs i = 0, 1, 2 drawn from default_rng(rng seed)
# in [-0.3, 0.3]^n: (value, certificate legs)
FL_PINS = {
    "grushin": (31, [
        (1.0487851894998843,
         [(1, 0.11369731556071845), (2, 0.6831259602897495), (-1, 0.2519619136494162)]),
        (0.6807109838159094, [(-1, 0.37573011785319427), (-2, 0.3049808659627152)]),
        (1.4682581404861768,
         [(1, 0.17825071092206704), (2, 0.8787217364934015), (-1, 0.41128569307070834)]),
    ]),
    "engel": (32, [
        (2.7912748481198943,
         [(1, 0.8542490590596916), (-2, 0.03921047791682488), (1, 0.47629316927709453),
          (2, 0.34300727442356427), (-1, 1.01471959366185), (-2, 0.06379527378086948)]),
        (0.5362094479412824,
         [(-1, 0.023120651978502948), (2, 0.3354358721198034), (-1, 0.11420626191011628),
          (-2, 0.06344666193285985)]),
        (3.434079897356136,
         [(-1, 0.7188758485568908), (2, 0.23883526662376844), (1, 1.55049826080998),
          (2, 0.21262745659895074), (-1, 0.7132430647665463)]),
    ]),
    "martinet": (33, [
        (3.1415844590472553,
         [(-1, 1.1006856051193048), (-2, 0.5208374058543946), (1, 0.9870499950409858),
          (2, 0.5330114530325699)]),
        (1.8020666231509863,
         [(1, 0.5566213821375303), (-2, 0.36263232099443415), (-1, 0.7007823812047921),
          (2, 0.1820305388142297)]),
        (0.672334643944642,
         [(1, 0.08257977610375736), (2, 0.27651230529353765), (1, 0.31324256254734706)]),
    ]),
}


@pytest.mark.parametrize("name", sorted(FL_PINS))
def test_fl_values_pinned_off_heisenberg(name):
    system = load_model(name)
    rng_seed, pins = FL_PINS[name]
    rng = np.random.default_rng(rng_seed)
    for i, (value, legs) in enumerate(pins):
        a = rng.uniform(-0.3, 0.3, system.n)
        b = rng.uniform(-0.3, 0.3, system.n)
        est = fl_distance(system, a, b, seed=i)
        assert est.value == pytest.approx(value, rel=1e-9)
        got = est.certificate["legs"]
        assert [j for j, _ in got] == [j for j, _ in legs]
        assert [t for _, t in got] == pytest.approx([t for _, t in legs], rel=1e-9)
        assert est.trace == [(est.value, True)]


def test_fl_reaches_generic_flat3_targets():
    # no template alternating two letters reaches a target that moves all three
    # coordinates; the cyclic template 1, 2, 3 does, at the L1 displacement
    flat3 = load_model("flat3")
    rng = np.random.default_rng(103)
    for _ in range(10):
        a = rng.uniform(-0.3, 0.3, 3)
        b = rng.uniform(-0.3, 0.3, 3)
        est = fl_distance(flat3, a, b, seed=0)
        assert est.status == "ok"
        assert abs(est.value - np.abs(b - a).sum()) <= 1e-7


def test_arc_templates_count_canonical_before_random():
    # seeds 1 and 2 draw a random template that repeats a canonical one; the
    # canonical count must not shrink with it
    canonical, n = metric._arc_templates(HEIS, 8, np.random.default_rng(0))
    assert n == 16
    for seed in (1, 2):
        templates, n = metric._arc_templates(HEIS, 8, np.random.default_rng(seed))
        assert n == 16 and templates[:n] == canonical[:n]
        assert len(templates) < n + metric._RANDOM_TEMPLATES


def test_cc_and_rho_report_their_best_shooting_solve(monkeypatch):
    # one Gauss-Newton solve per start: the imported arc legs (when given),
    # the min-norm constant control and the random start
    solves = []
    gauss_newton = metric._gauss_newton

    def counted(*args, **kwargs):
        solves.append(args)
        return gauss_newton(*args, **kwargs)

    monkeypatch.setattr(metric, "_gauss_newton", counted)
    a, b = (0.05, -0.1, 0.02), (-0.08, 0.04, 0.01)
    fl = fl_distance(HEIS, a, b, seed=1)
    assert fl.ok()
    for seed_by, starts in ((fl, 3), (None, 2)):
        solves.clear()
        cc = cc_distance(HEIS, a, b, seed=1, fl=seed_by)
        assert len(solves) == starts
        assert cc.ok() and cc.trace == [(cc.value, True)]
    rho = rho_distance(HEIS, HEIS_FRAME, a, b, seed=1, cc=cc)
    assert rho.ok() and rho.trace == [(rho.value, True)]


@pytest.mark.parametrize("name, rng_seed", [
    *((name, FL_PINS[name][0]) for name in sorted(FL_PINS)), ("flat3", 103)])
def test_distance_ordering_off_heisenberg(name, rng_seed):
    system = load_model(name)
    frame = CommutatorFrame(system)
    rng = np.random.default_rng(rng_seed)
    for i in range(3):
        a = rng.uniform(-0.3, 0.3, system.n)
        b = rng.uniform(-0.3, 0.3, system.n)
        fl, cc, rho = estimate_all(system, frame, a, b, seed=i)
        assert fl.ok() and cc.ok() and rho.ok()
        assert cc.value <= fl.value + 1e-6
        assert rho.value <= cc.value + 1e-6


def test_gauss_newton_stops_on_a_non_finite_jacobian():
    # the endpoint map leaves its domain above 0.5, so the first forward
    # difference from 0.5 - 1e-7 is NaN and the solve keeps its start
    def endpoint(theta):
        return np.where(theta > 0.5, np.nan, theta)

    start = 0.5 - 1e-7
    theta, res = metric._gauss_newton(endpoint, [start], np.array([2.0]), 1e-8)
    assert theta.tolist() == [start]
    assert res == pytest.approx(1.5000001, abs=1e-12)
    assert not res <= 1e-8


# -- approxexp: chart inversion and ball membership ----------------------------------


def test_ball_membership_roundtrip_and_dilation():
    rng = np.random.default_rng(11)
    r = 0.25
    M = chart_leg_count(HEIS_FRAME, HEIS_I)
    Hin = rng.uniform(-1, 1, size=(200, 3)) * (0.5 / M) ** np.array([1.0, 1.0, 2.0])
    pts_in = e_map_batch(HEIS_FRAME, HEIS_I, ORIGIN, r, Hin)
    mask, H, res = ball_membership(HEIS, HEIS_FRAME, HEIS_I, ORIGIN, r, pts_in)
    assert mask.all()
    assert np.abs(H - Hin).max() < 1e-10

    pts_out = rng.uniform(0.5, 1.0, size=(100, 3))
    mask_out, _, _ = ball_membership(HEIS, HEIS_FRAME, HEIS_I, ORIGIN, r, pts_out)
    assert not mask_out.any()

    pts = rng.uniform(-0.1, 0.1, size=(500, 3))
    m1, _, _ = ball_membership(HEIS, HEIS_FRAME, HEIS_I, ORIGIN, r, pts)
    lam = 2.0
    dil = pts * np.array([lam, lam, lam * lam])
    m2, _, _ = ball_membership(HEIS, HEIS_FRAME, HEIS_I, ORIGIN, lam * r, dil)
    assert (m1 == m2).all()


def _xy_system():
    """X1 = (1, 0), X2 = (y, x): X2 is not triangular, and neither is frame (1, 2)."""
    one, zero = Poly.const(2, 1), Poly.zero(2)
    return VectorFieldSystem(
        [PolyMap([one, zero]), PolyMap([Poly.var(2, 1), Poly.var(2, 0)])],
        step=2, name="xy",
    )


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_ball_membership_singular_fallback_solves_each_row(monkeypatch):
    # a non-triangular frame: every step is a batched solve, pinv when it raises
    system = _xy_system()
    frame, I, x = CommutatorFrame(system), (1, 2), (0.3, 0.1)
    rng = np.random.default_rng(12)
    r = 0.25
    M = chart_leg_count(frame, I)
    Hin = rng.uniform(-1, 1, size=(5, 2)) * (0.5 / M)
    pts = np.vstack([e_map_batch(frame, I, x, r, Hin), [[0.9, 0.9]]])
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    ref, H_ref, _ = ball_membership(system, frame, I, x, r, pts)
    assert solves

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "solve", singular)
    pinvs = _count_calls(monkeypatch, np.linalg, "pinv")
    mask, H, _ = ball_membership(system, frame, I, x, r, pts)
    assert pinvs
    assert mask.shape == (6,)
    assert (mask == ref).all() and mask[:5].all() and not mask[5]
    assert np.abs(H[:5] - H_ref[:5]).max() < 1e-10


def _membership_fixed_iterations(system, frame, I, x, r, pts, max_iter=8):
    """Reference: every row runs all ``max_iter`` quasi-Newton iterations."""
    n = system.n
    H = np.zeros((len(pts), n))
    ridge = 1e-12 * np.eye(n)
    for _ in range(max_iter):
        E = e_map_batch(frame, I, x, r, H)
        cols = [
            (r ** frame.degree(i)) * system.batch_fn(frame.word(i))(E) for i in I
        ]
        J = np.stack(cols, axis=2) + ridge
        dH = np.linalg.solve(J, (pts - E)[..., None])[..., 0]
        cap = np.maximum(np.abs(dH).max(axis=1), 1e-300)
        H = H + dH * np.minimum(1.0, 0.5 / cap)[:, None]
    res = np.linalg.norm(pts - e_map_batch(frame, I, x, r, H), axis=1)
    degs = np.array([frame.degree(i) for i in I], dtype=float)
    boxn = (np.abs(H) ** (1.0 / degs)).max(axis=1)
    tol = 1e-8 + 1e-6 * r
    return (res <= tol) & (boxn <= 1.0 / chart_leg_count(frame, I)), H, res


@pytest.mark.parametrize("name", ["heisenberg", "grushin", "engel", "martinet"])
def test_ball_membership_matches_fixed_iteration_loop(name):
    system = load_model(name)
    frame = CommutatorFrame(system)
    x = (0.0,) * system.n
    for r in (0.25, 0.5):
        I = ballbox.select_maximal(frame, x, r).I
        lo, hi = ballbox._bounding_box(frame, I, x, 2 * r)
        tol = 1e-8 + 1e-6 * r
        for seed in (101, 5):
            pts = np.random.default_rng(seed).uniform(lo, hi, size=(20_000, system.n))
            mask, H, res = ball_membership(system, frame, I, x, r, pts)
            ref, H_ref, res_ref = _membership_fixed_iterations(
                system, frame, I, x, r, pts
            )
            assert np.array_equal(mask, ref)
            assert np.abs(H - H_ref).max() <= 1e-12
            assert np.array_equal(res <= tol, res_ref <= tol)


MAXIMAL_CASES = pytest.mark.parametrize("name, x", [
    ("heisenberg", (0.0, 0.0, 0.0)),
    ("grushin", (0.0, 0.0)),
    ("grushin", (1.0, 0.0)),
    ("engel", (0.0, 0.0, 0.0, 0.0)),
    ("martinet", (0.0, 0.0, 0.0)),
    ("flat3", (0.0, 0.0, 0.0)),
], ids=["heisenberg", "grushin-origin", "grushin-1-0", "engel", "martinet", "flat3"])


@MAXIMAL_CASES
def test_invert_chart_forward_substitution_matches_solve_loop(name, x, monkeypatch):
    """On a triangular maximal frame the solve is forward substitution, and it
    agrees with the batched-solve loop."""
    system = load_model(name)
    frame = CommutatorFrame(system)
    r = 0.25
    I = ballbox.select_maximal(frame, x, r).I
    lo, hi = ballbox._bounding_box(frame, I, x, 2 * r)
    pts = np.random.default_rng(7).uniform(lo, hi, size=(4_000, system.n))
    with monkeypatch.context() as patch:
        solves = _count_calls(patch, np.linalg, "solve")
        H, res = invert_chart(frame, I, x, r, pts)
    assert not solves
    # one generated step at the sample points: a wrong step would still converge
    cols = [r ** frame.degree(i) * system.batch_fn(frame.word(i))(pts) for i in I]
    J = np.stack(cols, axis=2) + 1e-12 * np.eye(system.n)
    R = np.random.default_rng(8).uniform(-1, 1, size=pts.shape)
    step, cap = approxexp._chart(frame, I)[1](pts, R, r)
    solved = np.linalg.solve(J, R[..., None])[..., 0]
    assert np.allclose(cap, np.abs(solved).max(axis=1), rtol=1e-10, atol=0)
    assert np.allclose(step, solved * np.minimum(1.0, 0.5 / cap)[:, None], rtol=1e-10, atol=0)
    _, H_ref, res_ref = _membership_fixed_iterations(
        system, frame, I, x, r, pts, max_iter=approxexp._INVERT_ITERS
    )
    assert np.abs(H - H_ref).max() <= 1e-12
    assert np.abs(res - res_ref).max() <= 1e-12


def test_heisenberg_doubling_makes_no_batched_solve(monkeypatch):
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    rep = ballbox.doubling_ratio(HEIS, HEIS_FRAME, ORIGIN, 0.25, N=20_000, seed=101)
    assert rep["inner_count"] > 0 and not solves


def test_invert_chart_zero_diagonal_falls_back_to_pinv(monkeypatch):
    # X2 = x d/dy vanishes on x = 0: at the centre the ridged diagonal entry
    # r * x + 1e-12 is exactly 0, so the first step is singular
    frame, I, x, r = CommutatorFrame(load_model("grushin")), (1, 2), (-1e-12, 0.0), 1.0
    Hin = np.random.default_rng(3).uniform(-0.3, 0.3, size=(8, 2))
    Y = e_map_batch(frame, I, x, r, Hin)
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    pinvs = _count_calls(monkeypatch, np.linalg, "pinv")
    H, res = invert_chart(frame, I, x, r, Y)
    assert solves and pinvs
    assert np.isfinite(H).all() and (res <= 1e-8 * r).all()


def test_invert_chart_non_triangular_frame_solves(monkeypatch):
    system = _xy_system()
    frame, I, x, r = CommutatorFrame(system), (1, 2), (0.3, 0.1), 0.5
    Hin = np.random.default_rng(4).uniform(-0.4, 0.4, size=(8, 2))
    Y = e_map_batch(frame, I, x, r, Hin)
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    H, res = invert_chart(frame, I, x, r, Y)
    assert solves
    assert (res <= 1e-12).all() and np.abs(H - Hin).max() < 1e-10


@MAXIMAL_CASES
def test_membership_mask_by_dilation_matches_direct_solve(name, x):
    """One solve at R gives the radius-r mask of a direct solve at r, bitwise."""
    system = load_model(name)
    frame = CommutatorFrame(system)
    for r in (0.25, 0.5):
        I = ballbox.select_maximal(frame, x, r).I
        for scale in (1.5, 2.0, 3.0):
            R = scale * r
            lo, hi = ballbox._bounding_box(frame, I, x, R)
            for seed in (101, 5):
                pts = np.random.default_rng(seed).uniform(lo, hi, size=(20_000, system.n))
                _, H, res = ball_membership(system, frame, I, x, R, pts)
                direct = ball_membership(system, frame, I, x, r, pts)[0]
                assert direct.any()
                assert np.array_equal(membership_mask(frame, I, R, H, res, r), direct)


# -- the generated path evaluators and Gauss-Newton against their reference loops --


def _arc_loop(system, letters, T, x):
    """Reference: one ``flow_batch`` call per leg."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    Y = np.broadcast_to(np.asarray(x, dtype=float), (T.shape[0], system.n)).copy()
    for i, j in enumerate(letters):
        Y = system.flow_batch(j, T[:, i], Y)
    return Y


def _control_loop(system, U, x, keys):
    """Reference: one ``mixture_flow_batch`` call per segment."""
    U = np.asarray(U, dtype=float)
    N, k, _ = U.shape
    Y = np.broadcast_to(np.asarray(x, dtype=float), (N, system.n)).copy()
    for seg in range(k):
        Y = system.mixture_flow_batch(keys, U[:, seg, :], 1.0 / k, Y)
    return Y


PATH_SYSTEMS = pytest.mark.parametrize(
    "name", ["heisenberg", "grushin", "engel", "martinet", "xy"])


def _path_system(name):
    return _xy_system() if name == "xy" else load_model(name)


def _bad_rows(A, rng):
    """A copy of A with a NaN, a +inf and a -inf entry, each in a random row."""
    A = A.copy()
    for v in (np.nan, np.inf, -np.inf):
        A[rng.integers(len(A))].flat[rng.integers(A[0].size)] = v
    return A


@PATH_SYSTEMS
def test_arc_endpoints_match_the_per_leg_loop_bitwise(name):
    system = _path_system(name)
    rng = np.random.default_rng(51)
    x0 = rng.uniform(-0.3, 0.3, system.n)
    for letters in [(1,), (2, -1), (-2, 1, -1, 2, 1), (1, 2) * 4]:
        T = rng.normal(size=(9, len(letters))) * 0.4
        X = x0 + rng.uniform(-0.2, 0.2, size=(9, system.n))
        with np.errstate(invalid="ignore", over="ignore"):
            for t, x in ((T, x0), (T[:1], x0), (T[0], x0), (_bad_rows(T, rng), x0),
                         (T, _bad_rows(X, rng))):
                got = metric.arc_endpoints(system, letters, t, x)
                assert np.array_equal(got, _arc_loop(system, letters, t, x), equal_nan=True)
    with pytest.raises(ValueError, match="outside"):
        metric.arc_endpoints(system, (1, 3), np.ones((2, 2)), x0)


@PATH_SYSTEMS
def test_control_endpoints_match_the_per_segment_loop_bitwise(name):
    system = _path_system(name)
    frame = CommutatorFrame(system)
    rng = np.random.default_rng(52)
    x0 = rng.uniform(-0.3, 0.3, system.n)
    for keys in (tuple(range(1, system.m + 1)), tuple(frame.words)):
        for segments in (1, 8):
            U = rng.normal(size=(9, segments, len(keys))) * 0.5
            X = x0 + rng.uniform(-0.2, 0.2, size=(9, system.n))
            with np.errstate(invalid="ignore", over="ignore"):
                for u, x in ((U, x0), (U[:1], x0), (_bad_rows(U, rng), x0),
                             (U, _bad_rows(X, rng))):
                    got = metric.control_endpoints(system, u, x, keys)
                    want = _control_loop(system, u, x, keys)
                    assert np.array_equal(got, want, equal_nan=True)


def test_path_evaluators_are_built_once(monkeypatch):
    # one arc evaluator per system and one control evaluator per key tuple,
    # whatever the templates, seeds and segment counts
    built = _count_calls(monkeypatch, vfield, "exec_source")
    system = load_model("heisenberg")
    frame = CommutatorFrame(system)
    a = (0.05, -0.1, 0.02)
    sizes = []
    for seed in range(4):
        b = tuple(np.random.default_rng(seed).uniform(-0.2, 0.2, 3))
        fl = fl_distance(system, a, b, seed=seed)
        for segments in (4, 8):
            cc = cc_distance(system, a, b, segments=segments, seed=seed, fl=fl)
            rho_distance(system, frame, a, b, segments=segments, seed=seed, cc=cc)
        sizes.append(len(system._flows))
        assert len(built) == 3
    assert sizes == [sizes[0]] * 4
    assert {"arcs", ("controls", (1, 2)), ("controls", tuple(frame.words))} <= set(system._flows)


def _gauss_newton_reference(endpoint_batch, theta0, target, tol):
    """The Gauss-Newton loop with a tiled difference batch, a Python loop of
    steps, the halvings stacked one by one and np.linalg.norm."""
    theta = np.asarray(theta0, dtype=float).copy()
    dim = theta.size
    res = target - endpoint_batch(theta[None, :])[0]
    best = float(np.linalg.norm(res))
    for _ in range(metric._GN_ITERS):
        if not best > tol:
            break
        deltas = 1e-6 * np.maximum(1.0, np.abs(theta))
        batch = np.tile(theta, (dim + 1, 1))
        for i in range(dim):
            batch[i + 1, i] += deltas[i]
        E = endpoint_batch(batch)
        res = target - E[0]
        J = (E[1:] - E[0]) / deltas[:, None]
        if not math.isfinite(J.sum()):
            break
        step, *_ = np.linalg.lstsq(J.T, res, rcond=None)
        cands = np.stack([theta + step * (0.5**k) for k in range(6)])
        rs = np.fmin(np.linalg.norm(endpoint_batch(cands) - target, axis=1), np.inf)
        k = int(np.argmin(rs))
        if rs[k] < best:
            theta, best = cands[k], float(rs[k])
        else:
            break
    return theta, best


def _same_solve(ep, theta0, target, tol):
    theta, res = metric._gauss_newton(ep, theta0, target, tol)
    theta_ref, res_ref = _gauss_newton_reference(ep, theta0, target, tol)
    assert np.array_equal(theta, theta_ref, equal_nan=True)
    assert res == res_ref or (math.isnan(res) and math.isnan(res_ref))
    return theta, res


@pytest.mark.parametrize("name", ["heisenberg", "xy"])
def test_gauss_newton_matches_the_reference_loop_bitwise(name):
    system = _path_system(name)
    rng = np.random.default_rng(53)
    x = rng.uniform(-0.2, 0.2, system.n)
    y = x + rng.uniform(-0.2, 0.2, system.n)
    tol = metric._feasibility_tol(float(np.linalg.norm(y - x)))
    letters = (1, 2, 1, 2)
    arcs = lambda T: metric.arc_endpoints(system, letters, T, x)
    keys, shape = (1, 2), (4, 2)
    controls = lambda U: metric.control_endpoints(system, U.reshape(-1, *shape), x, keys)
    for ep, dim in ((arcs, 4), (controls, 8)):
        for _ in range(3):
            theta, res = _same_solve(ep, rng.normal(size=dim) * 0.3, y, tol)
        # from a solution: the start is already feasible, and the solve keeps it
        assert res <= tol
        assert _same_solve(ep, theta, y, tol)[0].tolist() == theta.tolist()
        theta, res = _same_solve(ep, np.full(dim, np.nan), y, tol)
        assert math.isnan(res)


def test_gauss_newton_stops_on_a_non_finite_jacobian_as_the_reference():
    endpoint = lambda theta: np.where(theta > 0.5, np.nan, theta)
    theta, _ = _same_solve(endpoint, [0.5 - 1e-7], np.array([2.0]), 1e-8)
    assert theta.tolist() == [0.5 - 1e-7]


def test_heisenberg_distance_known_values():
    # horizontal: the Euclidean length, here and after a left translation
    assert heisenberg_distance((0.0, 0.0, 0.0), (0.3, -0.4, 0.0)) == pytest.approx(0.5, rel=1e-15)
    a = (0.1, 0.2, 0.3)
    b = (a[0] + 0.3, a[1] + 0.4, a[2] + 0.5 * (a[0] * 0.4 - a[1] * 0.3))
    assert heisenberg_distance(a, b) == pytest.approx(0.5, rel=1e-12)
    # vertical: sqrt(4 pi |z|), and the same from any point above or below
    assert heisenberg_distance((0.0, 0.0, 0.0), (0.0, 0.0, 0.01)) == pytest.approx(
        math.sqrt(0.04 * math.pi), rel=1e-15)
    assert heisenberg_distance((0.2, -0.1, 0.5), (0.2, -0.1, 0.49)) == pytest.approx(
        math.sqrt(0.04 * math.pi), rel=1e-15)
    # phi = pi: |z| / r^2 = pi / 8, and the geodesic is r pi / 2 long
    assert heisenberg_distance((0.0, 0.0, 0.0), (0.2, 0.0, 0.04 * math.pi / 8)) == pytest.approx(
        0.1 * math.pi, rel=1e-12)
