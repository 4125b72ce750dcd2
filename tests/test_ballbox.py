import math
from fractions import Fraction

import numpy as np
import pytest

import liebox.ballbox as ballbox
import liebox.metric as metric
from liebox.approxexp import CommutatorFrame
from liebox.ballbox import (
    HormanderError,
    ad_coefficient_bound,
    doubling_ratio,
    express_in_frame,
    frame_candidates,
    inclusion_check,
    invert_chart,
    lambda_I,
    lambda_vector,
    maximality_stability,
    newton_invert,
    nu,
    poincare_check,
    sample_rho_targets,
    select_maximal,
)
from liebox.poly import Poly, PolyMap
from liebox.vfield import MODEL_BUILDERS, VectorFieldSystem, load_model

HEIS = load_model("heisenberg")
GRUSHIN = load_model("grushin")
FLAT3 = load_model("flat3")
ENGEL = load_model("engel")
MARTINET = load_model("martinet")
HEIS_FRAME = CommutatorFrame(HEIS)
GRUSHIN_FRAME = CommutatorFrame(GRUSHIN)
FLAT3_FRAME = CommutatorFrame(FLAT3)
ENGEL_FRAME = CommutatorFrame(ENGEL)
MARTINET_FRAME = CommutatorFrame(MARTINET)
ORIGIN3 = (0.0, 0.0, 0.0)
# (system, frame, center) at radius 0.5, eps 0.3, c 0.05
CHART_CASES = {
    "heisenberg": (HEIS, HEIS_FRAME, ORIGIN3),
    "engel": (ENGEL, ENGEL_FRAME, (0.0, 0.0, 0.0, 0.0)),
}


def test_lambda_known_values():
    assert lambda_I(HEIS_FRAME, (1, 2, 4), ORIGIN3) == 1
    assert lambda_I(HEIS_FRAME, (1, 1, 4), ORIGIN3) == 0  # repeated column
    for a in (Fraction(1, 2), 2, Fraction(-3, 4)):
        assert lambda_I(GRUSHIN_FRAME, (1, 2), (a, 0)) == a


def test_lambda_vector_scaling_exact():
    rows1 = lambda_vector(HEIS_FRAME, ORIGIN3, 1.0)
    top = max(rows1, key=lambda t: t[2])
    assert top[2] == 1.0
    # entries scale exactly as r^ell(I)
    r = 0.3
    rows_r = {I: s for I, _, s in lambda_vector(HEIS_FRAME, ORIGIN3, r)}
    for I, lam, s1 in rows1:
        assert rows_r[I] == pytest.approx(s1 * r ** HEIS_FRAME.ell(I), rel=1e-12)


def test_nu_positive_on_grushin_grid():
    grid = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    assert nu(GRUSHIN_FRAME, grid) > 0


def test_select_maximal_heisenberg():
    for x, r in ((ORIGIN3, 0.5), ((0.3, -0.2, 0.1), 0.2)):
        triple = select_maximal(HEIS_FRAME, x, r)
        assert triple.I == (1, 2, 4)
        assert triple.eta_maximal


def test_select_maximal_grushin():
    t = select_maximal(GRUSHIN_FRAME, (1.0, 0.0), 0.1)
    assert t.I == (1, 2)  # |a| r^2 beats r^3 for r << |a|
    t0 = select_maximal(GRUSHIN_FRAME, (0.0, 0.0), 0.1)
    assert t0.I == (1, 4)  # generator pair degenerates at the origin


def test_select_maximal_hormander_violation():
    one = Poly.const(2, 1)
    zero = Poly.zero(2)
    line = VectorFieldSystem([PolyMap([one, zero])], step=1, name="line")
    frame = CommutatorFrame(line)
    with pytest.raises(HormanderError):
        select_maximal(frame, (0.0, 0.0), 0.5)


def test_newton_invert_recovers_box_point():
    I = (1, 2, 4)
    r = 0.5
    h_true = (0.1, -0.05, 0.02)
    from liebox.approxexp import e_map

    y = e_map(HEIS_FRAME, I, ORIGIN3, r, h_true)
    out = newton_invert(HEIS_FRAME, I, ORIGIN3, r, y, eps=0.3)
    assert out["converged"]
    assert np.allclose(out["h"], h_true, atol=1e-7)


def _chart_targets(name, count, seed=9):
    system, frame, x = CHART_CASES[name]
    I = select_maximal(frame, x, 0.5).I
    scale = 0.05 * 0.3**system.s * 0.5
    return frame, I, x, sample_rho_targets(system, frame, x, scale, count, seed)


@pytest.mark.parametrize("name", sorted(CHART_CASES))
def test_invert_chart_rows_match_single_target_solves(name):
    frame, I, x, Y = _chart_targets(name, 12)
    H, res, ok = invert_chart(frame, I, x, 0.5, Y)
    assert H.shape == Y.shape and res.shape == ok.shape == (12,)
    assert ok.all()
    for k, y in enumerate(Y):
        out = newton_invert(frame, I, x, 0.5, y, eps=0.3)
        assert np.array_equal(out["h"], H[k])
        assert out["converged"] == ok[k]


def test_invert_chart_target_at_center_is_zero():
    for name in sorted(CHART_CASES):
        _, frame, x = CHART_CASES[name]
        I = select_maximal(frame, x, 0.5).I
        H, res, ok = invert_chart(frame, I, x, 0.5, [x])
        assert not H.any() and res[0] == 0.0 and ok[0]


def test_invert_chart_singular_batch_falls_back_per_row(monkeypatch):
    frame, I, x, Y = _chart_targets("heisenberg", 6)
    ref = invert_chart(frame, I, x, 0.5, Y)
    solve = np.linalg.solve

    def batch_singular(A, b):
        if np.ndim(A) > 2:
            raise np.linalg.LinAlgError("forced")
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", batch_singular)
    H, res, ok = invert_chart(frame, I, x, 0.5, Y)
    assert np.array_equal(H, ref[0]) and np.array_equal(ok, ref[2])


@pytest.mark.parametrize("name", sorted(CHART_CASES))
def test_inclusion_check_matches_single_target_loop(name, monkeypatch):
    system, frame, x = CHART_CASES[name]
    I = select_maximal(frame, x, 0.5).I
    args = (system, frame, I, x, 0.5)
    batched = inclusion_check(*args, eps=0.3, c=0.05, samples=200, seed=9)
    one = ballbox.invert_chart

    def per_target(frame, I, x, r, Y):
        rows = [one(frame, I, x, r, [y]) for y in Y]
        return tuple(np.concatenate(parts) for parts in zip(*rows))

    monkeypatch.setattr(ballbox, "invert_chart", per_target)
    looped = inclusion_check(*args, eps=0.3, c=0.05, samples=200, seed=9)
    for key in ("solved_fraction", "worst_box_norm", "collisions"):
        assert batched[key] == looped[key]
    assert batched["solved_fraction"] == 1.0 and batched["collisions"] == 0


def test_inclusion_check_heisenberg():
    rep = inclusion_check(
        HEIS, HEIS_FRAME, (1, 2, 4), ORIGIN3, 0.5, eps=0.3, c=0.05,
        samples=50, seed=0, collision_pairs=100,
    )
    assert rep["solved_fraction"] == 1.0
    assert rep["collisions"] == 0


def test_inclusion_flat_linear_recovery():
    rep = inclusion_check(
        FLAT3, FLAT3_FRAME, (1, 2, 3), ORIGIN3, 0.5, eps=0.3, c=0.05,
        samples=30, seed=1,
    )
    assert rep["solved_fraction"] == 1.0


def test_express_in_frame_cases():
    out0 = express_in_frame(HEIS_FRAME, (0.0, 0.0, 0.0), ORIGIN3)
    assert np.allclose(out0["coefficients"], 0.0)
    # vertical vector: min-norm splits across the two dependent length-2 columns
    out = express_in_frame(HEIS_FRAME, (0.0, 0.0, 1.0), ORIGIN3)
    assert out["in_span"]
    b = out["coefficients"]
    assert abs(b[3] - 0.5) < 1e-10 and abs(b[4] + 0.5) < 1e-10
    assert np.allclose([b[0], b[1], b[2], b[5]], 0.0, atol=1e-10)
    # generator direction is independent: indicator comes back
    out1 = express_in_frame(HEIS_FRAME, HEIS_FRAME.map(1)(np.zeros(3)), ORIGIN3)
    assert abs(out1["coefficients"][0] - 1.0) < 1e-10


def test_express_residual_small_on_grids():
    rng = np.random.default_rng(2)
    for frame, n in ((HEIS_FRAME, 3), (GRUSHIN_FRAME, 2)):
        for _ in range(10):
            x = rng.uniform(-1, 1, n)
            v = rng.standard_normal(n)
            out = express_in_frame(frame, v, x)
            assert out["residual"] <= 1e-8


def test_ad_coefficient_bound():
    rep = ad_coefficient_bound(
        HEIS, HEIS_FRAME, 1, (1, 2), (0.1, 0.2, 0.0), np.linspace(-0.3, 0.3, 7)
    )
    assert rep["max_sup_norm"] < 1e-12  # step-2 nilpotent: ad vanishes
    engel = load_model("engel")
    eframe = CommutatorFrame(engel)
    rep2 = ad_coefficient_bound(
        engel, eframe, 1, (1, 2), (0.1, 0.0, 0.0, 0.0), np.linspace(-0.2, 0.2, 5)
    )
    assert rep2["max_residual"] <= 1e-8
    assert rep2["max_sup_norm"] <= 2.0


def test_doubling_ratio_flat3():
    rep = doubling_ratio(FLAT3, FLAT3_FRAME, ORIGIN3, 0.25, N=60_000, seed=3)
    assert abs(rep["ratio"] - 8.0) <= 0.12 * 8.0


def test_doubling_ratio_heisenberg():
    rep = doubling_ratio(HEIS, HEIS_FRAME, ORIGIN3, 0.25, N=150_000, seed=4)
    assert abs(rep["ratio"] - 16.0) <= 0.15 * 16.0


def test_doubling_ratio_grushin_origin():
    rep = doubling_ratio(GRUSHIN, GRUSHIN_FRAME, (0.0, 0.0), 0.25, N=100_000, seed=5)
    assert abs(rep["ratio"] - 8.0) <= 0.15 * 8.0


def test_poincare_constant_function_zero():
    f = Poly.const(3, 2)
    rep = poincare_check(HEIS, HEIS_FRAME, f, ORIGIN3, 0.25, N=40_000, seed=6)
    assert rep["lhs"] == 0.0
    assert rep["ratio"] == 0.0


def test_poincare_linear_function_stable():
    f = Poly.var(3, 0)
    r1 = poincare_check(HEIS, HEIS_FRAME, f, ORIGIN3, 0.25, N=120_000, seed=7)
    r2 = poincare_check(HEIS, HEIS_FRAME, f, ORIGIN3, 0.25, N=120_000, seed=8)
    assert r1["rhs"] > 0 and math.isfinite(r1["ratio"])
    assert r1["nonfinite"] == r2["nonfinite"] == 0
    assert abs(r1["ratio"] - r2["ratio"]) <= 0.1 * max(r1["ratio"], r2["ratio"])


def test_maximality_stability():
    rep = maximality_stability(HEIS, HEIS_FRAME, (0.2, 0.1, 0.0), 0.3, seed=9)
    assert rep["same_fraction"] == 1.0


def test_inclusion_rejects_eps_beyond_box():
    with pytest.raises(ValueError):
        inclusion_check(
            HEIS, HEIS_FRAME, (1, 2, 4), ORIGIN3, 0.5, eps=1.5, samples=5
        )


@pytest.mark.parametrize("system, frame, counts", [
    (HEIS, HEIS_FRAME, (6048, 395)),
    (GRUSHIN, GRUSHIN_FRAME, (11794, 1481)),
    (ENGEL, ENGEL_FRAME, (4696, 35)),
])
def test_doubling_counts_pinned(system, frame, counts):
    rep = doubling_ratio(system, frame, (0.0,) * system.n, 0.25, N=20_000, seed=101)
    assert (rep["outer_count"], rep["inner_count"]) == counts
    assert rep["nonfinite"] == 0


def test_doubling_counts_pinned_martinet():
    rep = doubling_ratio(MARTINET, MARTINET_FRAME, ORIGIN3, 0.25, N=20_000, seed=101)
    assert (rep["outer_count"], rep["inner_count"]) == (9091, 278)
    assert rep["nonfinite"] == 0


def test_poincare_counts_pinned_heisenberg():
    rep = poincare_check(HEIS, HEIS_FRAME, Poly.var(3, 0), ORIGIN3, 0.5,
                         N=20_000, seed=5)
    assert (rep["inner_count"], rep["outer_count"]) == (347, 6081)
    assert rep["nonfinite"] == 0


def _select_maximal_all_exact(frame, x, r):
    """Reference: an exact determinant for every candidate, first best kept."""
    scores = [
        (I, float(abs(lambda_I(frame, I, x))) * r ** frame.ell(I))
        for I in frame_candidates(frame)
    ]
    best = max(s for _, s in scores)
    return next(I for I, s in scores if s == best), best, scores


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_select_maximal_matches_all_exact_scan(name):
    system = load_model(name)
    frame = CommutatorFrame(system)
    rng = np.random.default_rng(17)
    points = [(0.0,) * system.n, (0.5,) + (0.0,) * (system.n - 1)]
    points += [tuple(rng.uniform(-1, 1, system.n)) for _ in range(3)]
    for x in points:
        for r in (0.01, 0.25, 1.0):
            I, score, scores = _select_maximal_all_exact(frame, x, r)
            triple = select_maximal(frame, x, r)
            assert triple.I == I and repr(triple.score) == repr(score)
            assert triple.candidates == len(scores)
            assert 1 <= triple.exact_dets <= triple.candidates


def test_select_maximal_tie_keeps_first():
    # the columns of the words 12 and 21 are opposite, so (1, 2, 4) and
    # (1, 2, 5) tie at every point and radius
    _, score, scores = _select_maximal_all_exact(HEIS_FRAME, ORIGIN3, 0.5)
    assert [I for I, s in scores if s == score] == [(1, 2, 4), (1, 2, 5)]
    assert select_maximal(HEIS_FRAME, ORIGIN3, 0.5).I == (1, 2, 4)


def _invert_all_halvings(frame, I, x, r, Y):
    """Reference: every row evaluates all 10 step halvings each iteration."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    k, n = Y.shape
    tol = 1e-8 * r
    halvings = 0.5 ** np.arange(10)

    def E(H):
        return ballbox.e_map_batch(frame, I, x, r, H.reshape(-1, n), steps=6)

    H = np.zeros((k, n))
    R = Y - E(H)
    res = np.linalg.norm(R, axis=1)
    live = np.ones(k, dtype=bool)
    for _ in range(50):
        rows = np.flatnonzero(live & (res > tol))
        if not rows.size:
            break
        h = H[rows]
        d = 1e-6 * np.maximum(1.0, np.abs(h).max(axis=1))
        shift = d[:, None, None] * np.eye(n)
        P = E(np.stack([h[:, None] + shift, h[:, None] - shift], axis=1))
        P = P.reshape(-1, 2, n, n)
        J = ((P[:, 0] - P[:, 1]) / (2 * d)[:, None, None]).transpose(0, 2, 1)
        step = np.linalg.solve(J, R[rows][..., None])[..., 0]
        cand = h[:, None] + step[:, None] * halvings[:, None]
        Rc = Y[rows, None] - E(cand).reshape(cand.shape)
        rc = np.linalg.norm(Rc, axis=2)
        better = rc < res[rows, None]
        live[rows] = moved = better.any(axis=1)
        take, pick = rows[moved], better.argmax(axis=1)[moved]
        H[take], R[take], res[take] = cand[moved, pick], Rc[moved, pick], rc[moved, pick]
    return H, res, res <= tol


def test_invert_chart_full_step_first_matches_all_halvings():
    cases = [_chart_targets(name, 60) for name in sorted(CHART_CASES)]
    # chart h -> e^{h} on the line: the full Newton step overshoots far
    # targets, so the shorter halvings decide; y = -1 is unreachable
    lin = VectorFieldSystem([PolyMap([Poly.var(1, 0)])], step=1, name="linear1d")
    y = [[50.0], [3.0], [1.5], [0.5], [-1.0], [1.0]]
    cases.append((CommutatorFrame(lin), (1,), (1.0,), np.array(y)))
    for frame, I, x, Y in cases:
        got = invert_chart(frame, I, x, 0.5, 40 * Y)
        ref = _invert_all_halvings(frame, I, x, 0.5, 40 * Y)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def test_nonfinite_row_is_counted(monkeypatch):
    default_rng = np.random.default_rng

    class OneNanSample:
        """The seeded stream, with sample point 7 made non-finite."""

        def __init__(self, seed):
            self.rng = default_rng(seed)

        def uniform(self, *args, **kwargs):
            pts = self.rng.uniform(*args, **kwargs)
            pts[7] = np.nan
            return pts

    monkeypatch.setattr(ballbox.np.random, "default_rng", OneNanSample)
    rep = doubling_ratio(HEIS, HEIS_FRAME, ORIGIN3, 0.25, N=20_000, seed=101)
    assert rep["nonfinite"] == 1
    rep = poincare_check(HEIS, HEIS_FRAME, Poly.var(3, 0), ORIGIN3, 0.25,
                         N=20_000, seed=101)
    assert rep["nonfinite"] == 1
