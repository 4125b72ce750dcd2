import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import liebox.ballbox as ballbox
import liebox.metric as metric
from liebox.approxexp import CommutatorFrame, e_map, invert_chart
from liebox.ballbox import (
    HormanderError,
    ad_coefficient_bound,
    doubling_ratio,
    express_in_frame,
    frame_candidates,
    inclusion_check,
    lambda_I,
    newton_invert,
    poincare_suite,
    sample_rho_targets,
    select_maximal,
)
from liebox.poly import Poly, PolyMap
from liebox.vfield import MODEL_BUILDERS, VectorFieldSystem, load_model
from liebox.words import rational_point

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


def test_select_maximal_heisenberg():
    for x, r in ((ORIGIN3, 0.5), ((0.3, -0.2, 0.1), 0.2)):
        triple = select_maximal(HEIS_FRAME, x, r)
        assert triple.I == (1, 2, 4)


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
    y = e_map(HEIS_FRAME, I, ORIGIN3, r, h_true)
    out = newton_invert(HEIS_FRAME, I, ORIGIN3, r, y, eps=0.3)
    assert out["converged"]
    assert np.allclose(out["h"], h_true, atol=1e-7)


@pytest.mark.parametrize("eps", [0.0, -0.1, 1.5, math.nan])
def test_newton_invert_rejects_eps_outside_unit_interval(eps):
    y = e_map(HEIS_FRAME, (1, 2, 4), ORIGIN3, 0.5, (0.1, -0.05, 0.02))
    with pytest.raises(ValueError, match=r"eps must be in \(0, 1\]"):
        newton_invert(HEIS_FRAME, (1, 2, 4), ORIGIN3, 0.5, y, eps=eps)


def _chart_targets(name, count, seed=9):
    system, frame, x = CHART_CASES[name]
    I = select_maximal(frame, x, 0.5).I
    scale = 0.05 * 0.3**system.s * 0.5
    return frame, I, x, sample_rho_targets(system, frame, x, scale, count, seed)


@pytest.mark.parametrize("name", sorted(CHART_CASES))
def test_invert_chart_rows_match_single_target_solves(name):
    frame, I, x, Y = _chart_targets(name, 12)
    H, res = invert_chart(frame, I, x, 0.5, Y)
    assert H.shape == Y.shape and res.shape == (12,)
    assert (res <= 1e-8 * 0.5).all()
    for k, y in enumerate(Y):
        out = newton_invert(frame, I, x, 0.5, y, eps=0.3)
        assert np.array_equal(out["h"], H[k])
        assert out["residual"] == res[k] and out["converged"]


def test_invert_chart_target_at_center_is_zero():
    for name in sorted(CHART_CASES):
        _, frame, x = CHART_CASES[name]
        I = select_maximal(frame, x, 0.5).I
        H, res = invert_chart(frame, I, x, 0.5, [x])
        assert not H.any() and res[0] == 0.0


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
        samples=50, seed=0,
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
    out1 = express_in_frame(HEIS_FRAME, HEIS_FRAME.eval_columns([1], ORIGIN3)[:, 0], ORIGIN3)
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
    rep = poincare_suite(HEIS, HEIS_FRAME, [f], ORIGIN3, 0.25, N=40_000, seed=6)[0]
    assert rep["lhs"] == 0.0
    assert rep["ratio"] == 0.0


def test_poincare_linear_function_stable():
    f = Poly.var(3, 0)
    r1 = poincare_suite(HEIS, HEIS_FRAME, [f], ORIGIN3, 0.25, N=120_000, seed=7)[0]
    r2 = poincare_suite(HEIS, HEIS_FRAME, [f], ORIGIN3, 0.25, N=120_000, seed=8)[0]
    assert r1["rhs"] > 0 and math.isfinite(r1["ratio"])
    assert r1["nonfinite"] == r2["nonfinite"] == 0
    assert abs(r1["ratio"] - r2["ratio"]) <= 0.1 * max(r1["ratio"], r2["ratio"])


def test_inclusion_rejects_eps_beyond_box():
    with pytest.raises(ValueError):
        inclusion_check(
            HEIS, HEIS_FRAME, (1, 2, 4), ORIGIN3, 0.5, eps=1.5, samples=5
        )


@pytest.mark.parametrize("system, frame, counts", [
    (HEIS, HEIS_FRAME, (3027, 3021)),
    (GRUSHIN, GRUSHIN_FRAME, (5920, 5874)),
    (ENGEL, ENGEL_FRAME, (2385, 2311)),
])
def test_doubling_counts_pinned(system, frame, counts):
    rep = doubling_ratio(system, frame, (0.0,) * system.n, 0.25, N=20_000, seed=101)
    assert (rep["outer_count"], rep["inner_count"]) == counts
    assert rep["nonfinite"] == 0


def test_doubling_counts_pinned_martinet():
    rep = doubling_ratio(MARTINET, MARTINET_FRAME, ORIGIN3, 0.25, N=20_000, seed=101)
    assert (rep["outer_count"], rep["inner_count"]) == (4583, 4508)
    assert rep["nonfinite"] == 0


def test_poincare_counts_pinned_heisenberg():
    rep = poincare_suite(HEIS, HEIS_FRAME, [Poly.var(3, 0)], ORIGIN3, 0.5,
                         N=20_000, seed=5)[0]
    assert (rep["inner_count"], rep["outer_count"]) == (3006, 3075)
    assert rep["nonfinite"] == 0


def test_engel_doubling_within_five_stderr():
    # with one box for both balls this seed read 76.37 +- 10.01 (5.2 sigma)
    rep = doubling_ratio(ENGEL, ENGEL_FRAME, (0.0,) * 4, 0.25, N=20_000, seed=3396813856)
    assert abs(rep["ratio"] - 128.0) <= 5 * rep["stderr"]


@pytest.mark.parametrize("system, frame", [
    (HEIS, HEIS_FRAME), (GRUSHIN, GRUSHIN_FRAME), (ENGEL, ENGEL_FRAME),
    (MARTINET, MARTINET_FRAME),
])
def test_inner_ball_gets_its_own_box(system, frame):
    # the inner stratum fills a fixed share of its box, not 2^-Q of the outer one
    for seed in (101, 3396813856):
        rep = doubling_ratio(system, frame, (0.0,) * system.n, 0.25, N=20_000, seed=seed)
        assert rep["inner_count"] >= 20_000 / 10


def _fraction_det(rows):
    """Exact determinant by Gaussian elimination over Fractions."""
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(len(rows)):
        p = next((i for i in range(k, len(rows)) if rows[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / rows[k][k]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return det


def _select_maximal_all_exact(frame, x, radii):
    """Reference: an exact score |det| * r**ell for every tuple of
    ``combinations(range(1, q + 1), n)``, first best kept, per radius:
    [(I, score rounded to float, exact scores)]."""
    cols = [Y.eval_exact(rational_point(x)) for Y in frame.maps]
    tuples = itertools.combinations(range(frame.q), frame.system.n)
    dets = [(tuple(i + 1 for i in I), abs(_fraction_det(zip(*(cols[i] for i in I)))))
            for I in tuples]
    out = []
    for r in radii:
        scores = [(I, d * Fraction(r) ** frame.ell(I)) for I, d in dets]
        best = max(s for _, s in scores)
        out.append((next(I for I, s in scores if s == best), float(best), scores))
    return out


def _generic_affine():
    """A generic affine model with small integer coefficients: m = 3, s = 3,
    n = 4, q = 39 words, of which 15 are distinct columns."""
    v = [Poly.var(4, i) for i in range(4)]
    c = lambda a: Poly.const(4, a)
    return VectorFieldSystem([
        PolyMap([c(-2) - v[1].scale(2) + v[0], -v[0], -v[1],
                 c(1) - v[3].scale(3) + v[2].scale(3) - v[1].scale(3)]),
        PolyMap([c(3) - v[2].scale(2) + v[1] + v[0], v[3], c(2),
                 c(3) + v[2].scale(2) + v[0].scale(3)]),
        PolyMap([v[2] + v[1].scale(3), c(-3) + v[3] - v[2].scale(3),
                 v[3].scale(2) + v[1].scale(3), v[0].scale(3)]),
    ], step=3, name="generic")


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_select_maximal_matches_all_exact_scan(name):
    system = load_model(name)
    frame = CommutatorFrame(system)
    rng = np.random.default_rng(17)
    points = [(0.0,) * system.n, (0.5,) + (0.0,) * (system.n - 1)]
    points += [tuple(rng.uniform(-1, 1, system.n)) for _ in range(18)]
    radii = (0.01, 0.25, 0.5, 1.0, 2.0)
    for x in points:
        for r, (I, score, _) in zip(radii, _select_maximal_all_exact(frame, x, radii)):
            triple = select_maximal(frame, x, r)
            assert triple.I == I and repr(triple.score) == repr(score)
            assert triple.candidates == len(frame_candidates(frame))


def test_select_maximal_generic_model_matches_all_exact_scan():
    # 82,251 tuples over all 39 words, 1,365 over the 15 distinct columns
    frame = CommutatorFrame(_generic_affine())
    assert math.comb(frame.q, 4) == 82_251
    x, radii = (0.0,) * 4, (0.1, 0.5)
    full = _select_maximal_all_exact(frame, x, radii)
    for r, (I, score, _), want in zip(radii, full, [(1, 2, 3, 6), (23, 24, 27, 33)]):
        triple = select_maximal(frame, x, r)
        assert triple.I == I == want and repr(triple.score) == repr(score)
        assert triple.candidates == math.comb(15, 4)
    assert abs(full[0][1] - 0.00189) < 1e-15 and full[1][1] == 310.90625


def test_lambda_I_matches_fraction_elimination_on_every_candidate():
    # a rational point with distinct denominators per coordinate exercises the
    # integer columns with their denominators cleared
    frame = CommutatorFrame(_generic_affine())
    x = (0.3, -0.2, 0.1, 0.7)
    cols = [Y.eval_exact(rational_point(x)) for Y in frame.maps]
    dets = [lambda_I(frame, I, x) for I in frame_candidates(frame)]
    assert len(dets) == 1365 and sum(d != 0 for d in dets) > 1000
    for I, d in zip(frame_candidates(frame), dets):
        assert d == _fraction_det(zip(*(cols[i - 1] for i in I)))


def test_select_maximal_tie_keeps_first():
    # the columns of the words 12 and 21 are opposite, so (1, 2, 4) and
    # (1, 2, 5) tie at every point and radius
    [(_, score, scores)] = _select_maximal_all_exact(HEIS_FRAME, ORIGIN3, [0.5])
    assert [I for I, s in scores if s == score] == [(1, 2, 4), (1, 2, 5)]
    assert select_maximal(HEIS_FRAME, ORIGIN3, 0.5).I == (1, 2, 4)


def test_frame_candidates_drop_zero_and_twin_columns():
    # X1 = d1, X2 = d2 + x0 d3, X3 = d3 + x1 d4 at step 3: of q = 39 words,
    # 32 have the zero map and 21 = -12, 32 = -23, leaving 5 distinct columns
    v = [Poly.var(4, i) for i in range(4)]
    one, zero = Poly.const(4, 1), Poly.zero(4)
    system = VectorFieldSystem([PolyMap([one, zero, zero, zero]),
                                PolyMap([zero, one, v[0], zero]),
                                PolyMap([zero, zero, one, v[1]])], step=3)
    frame = CommutatorFrame(system)
    cands = frame_candidates(frame)
    assert [frame.word(i) for i in sorted({i for I in cands for i in I})] == [
        (1,), (2,), (3,), (1, 2), (2, 3)]
    assert len(cands) == math.comb(5, 4)
    triple = select_maximal(frame, (0.0,) * 4, 0.5)
    assert (triple.I, triple.score, triple.candidates) == ((1, 2, 3, 9), 1 / 32, 5)


def test_log10_score_is_exact_where_the_float_score_underflows():
    # heisenberg picks (1, 2, 4) with |det| = 1 at the origin: score r^4
    tiny = select_maximal(CommutatorFrame(HEIS), (0.0, 0.0, 0.0), 1e-90)
    assert tiny.score == 0.0 and abs(tiny.log10_score + 360) <= 1e-12
    for system, x in ((HEIS, (0.3, -0.2, 0.1)), (GRUSHIN, (0.5, 0.0)),
                      (load_model("engel"), (0.3, -0.2, 0.1, 0.0))):
        one = select_maximal(CommutatorFrame(system), x, 1.0)
        assert abs(one.log10_score - math.log10(one.score)) <= 1e-12


def test_frame_candidates_beam_above_the_cap(monkeypatch):
    # with the cap below C(15, 4), the beam keeps the max(2n, n + 4) = 8 distinct
    # columns of largest norm at (0.1, ..., 0.1): no zero map and no +- twin
    frame = CommutatorFrame(_generic_affine())
    distinct = sorted({i for I in frame_candidates(frame) for i in I})
    monkeypatch.setattr(ballbox, "MAX_CANDIDATES", 100)
    cands = frame_candidates(frame)
    assert len(distinct) == 15 and len(cands) == math.comb(8, 4)
    kept = sorted({i for I in cands for i in I})
    assert len(kept) == 8 and not any(frame.map(i).is_zero() for i in kept)
    assert not any(frame.degree(i) == frame.degree(j)
                   and frame.map(i) in (frame.map(j), -frame.map(j))
                   for a, i in enumerate(kept) for j in kept[a + 1:])
    norms = np.linalg.norm(frame.eval_columns(range(1, frame.q + 1), np.full(4, 0.1)), axis=0)
    assert min(norms[i - 1] for i in kept) >= max(
        norms[j - 1] for j in distinct if j not in kept)
    # above the cap the result is the best of the beam's tuples
    triple = select_maximal(frame, (0.0,) * 4, 0.5)
    assert triple.candidates == 70 and triple.I in cands


def test_invert_chart_far_targets_on_non_triangular_chart():
    # chart h -> e^{h/2} (adaptive DOPRI5) on the line.  The far targets lie
    # outside the +-10 domain box: the positive ones walk h until the chart
    # leaves the box and ends non-finite, y = -40 is unreachable (the chart
    # stays positive), and nothing overflows or warns on the way
    lin = VectorFieldSystem([PolyMap([Poly.var(1, 0)])], step=1, name="linear1d")
    frame, r = CommutatorFrame(lin), 0.5
    far = 40 * np.array([50.0, 3.0, 1.5, 0.5, -1.0, 1.0])
    near = np.array([2.0, 4.0, 8.0])
    Y = np.concatenate([far, near])[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H, res = invert_chart(frame, (1,), (1.0,), r, Y)
    up = far > 0
    assert not np.isfinite(res[:6][up]).any() and res[:6][~up] > 1.0
    # the chart is increasing, so a small residual pins its one root
    assert (res[6:] <= 1e-8 * r).all()
    assert np.abs(H[6:, 0] - 2 * np.log(near)).max() < 1e-3


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
    rep = poincare_suite(HEIS, HEIS_FRAME, [Poly.var(3, 0)], ORIGIN3, 0.25,
                         N=20_000, seed=101)[0]
    assert rep["nonfinite"] == 1


def test_candidate_table_is_built_once_per_frame(monkeypatch):
    calls = []

    def counting(frame):
        calls.append(frame)
        return frame_candidates(frame)

    monkeypatch.setattr(ballbox, "frame_candidates", counting)
    frame = CommutatorFrame(ENGEL)
    picks = [select_maximal(frame, x, r).I
             for x in ((0.0,) * 4, (0.2, -0.1, 0.3, 0.05)) for r in (0.1, 0.5, 1.0)]
    assert calls == [frame]
    other = CommutatorFrame(ENGEL)
    assert [select_maximal(other, x, r).I
            for x in ((0.0,) * 4, (0.2, -0.1, 0.3, 0.05)) for r in (0.1, 0.5, 1.0)] == picks
    assert calls == [frame, other]


def test_poincare_suite_compiles_each_test_function_once_per_system(monkeypatch):
    compiled = []
    compile_batch = Poly.compile_batch

    def counting(p):
        compiled.append(p)
        return compile_batch(p)

    monkeypatch.setattr(Poly, "compile_batch", counting)
    system = load_model("heisenberg")
    frame = CommutatorFrame(system)
    x, y = Poly.var(3, 0), Poly.var(3, 1)
    args = (system, frame, [x, x * y], ORIGIN3, 0.25)
    first = poincare_suite(*args, N=2_000, seed=4)
    assert len(compiled) == 2 * (1 + system.m)
    # an equal polynomial built anew reuses the evaluators
    assert poincare_suite(system, frame, [Poly.var(3, 0) * Poly.var(3, 1)], ORIGIN3, 0.25,
                          N=2_000, seed=4) == first[1:]
    assert poincare_suite(*args, N=2_000, seed=4) == first
    assert len(compiled) == 2 * (1 + system.m)
    poincare_suite(load_model("heisenberg"), frame, [x], ORIGIN3, 0.25, N=2_000, seed=4)
    assert len(compiled) == 3 * (1 + system.m)
