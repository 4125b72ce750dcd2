"""The acceptance checks: one callable per criterion, shared by CLI and tests.

Each criterion function returns (passed, details).  Tolerances are fixed
here, not configurable: these are the exit criteria of the build.
"""

import math
import os
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from .approxexp import CommutatorFrame, c_map, jacobian_e
from .ballbox import doubling_ratio, inclusion_check, lambda_I, poincare_suite
from .freelie import (check_F, check_J2, check_baker, check_generalized_jacobi,
                      check_giochetto, check_jacobi)
from .linalg import (lambda_sweep, matrix_with_spectrum, min_norm_solve,
                     tychonoff_error_components, tychonoff_solve)
from .metric import estimate_all, fefferman_phong_check
from .ncpoly import NCPoly, is_trivial
from .poly import Poly
from .vfield import all_words, load_model
from .words import pi_table

ORDER3_SIGNS = {(1, 2, 3): 1, (1, 3, 2): -1, (2, 3, 1): -1, (3, 2, 1): 1}
ORDER4_SIGNS = {
    (1, 2, 3, 4): 1, (1, 2, 4, 3): -1, (1, 3, 4, 2): -1, (1, 4, 3, 2): 1,
    (2, 3, 4, 1): -1, (2, 4, 3, 1): 1, (3, 4, 2, 1): 1, (4, 3, 2, 1): -1,
}


@dataclass
class CriterionResult:
    """One criterion's outcome.  ``elapsed`` is wall time, the budget's clock;
    ``cpu_s`` is this process's CPU time, and ``load_before``/``load_after``
    the host's 1-minute load average around the run (nan where the platform
    has none), so a wall time can be read against how loaded the host was."""

    number: int
    name: str
    passed: bool
    elapsed: float
    details: dict
    cpu_s: float = math.nan
    load_before: float = math.nan
    load_after: float = math.nan

    def summary(self):
        return (
            f"ACCEPTANCE {self.number:02d} {self.name}: "
            f"{'PASS' if self.passed else 'FAIL'} ({self.elapsed:.1f}s, "
            f"cpu {self.cpu_s:.1f}s, load {self.load_before:.2f}->{self.load_after:.2f})"
        )


def criterion_01_pi_tables():
    t3 = pi_table(3)
    t4 = pi_table(4)
    ok = t3.nonzero == ORDER3_SIGNS and t4.nonzero == ORDER4_SIGNS
    return ok, {"order3_nonzero": len(t3.nonzero), "order4_nonzero": len(t4.nonzero)}


def identity_instances(family, max_degree, alphabet):
    """The instances ``liebox identities`` sweeps for one family."""
    if family == "otto":
        return [
            ("otto", v, w)
            for v in all_words(alphabet, max_degree - 1)
            for w in all_words(alphabet, max_degree - len(v))
        ]
    if family == "j2":
        return [("j2", v, None) for v in all_words(alphabet, max_degree, 2)]
    if family == "f":
        out = []
        for ell in range(2, min(max_degree, 5) + 1):
            for p in range(1, ell):
                for b in product(range(3), repeat=p):
                    if 1 <= sum(b) <= max(1, max_degree - ell):
                        out.append(("f", (ell, p, b), None))
        return out
    if family == "baker":
        return [("baker", None, None)]
    if family == "giochetto":
        return [
            ("giochetto", v, (w,))
            for v in all_words(alphabet, max_degree - 1, 2)
            for w in range(1, alphabet + 1)
        ]
    raise ValueError(f"unknown identity family {family!r}")


def run_identity(item):
    """One instance's row: (instance, argument, residual is zero, residual terms)."""
    family, a, b = item
    if family == "otto":
        res = check_generalized_jacobi(a, b)
        return (str(a), str(b), res.is_zero(), len(res))
    if family == "j2":
        res = check_J2(a)
        return (str(a), "", res.is_zero(), len(res))
    if family == "f":
        ell, p, bb = a
        res = check_F(ell, p, bb)
        return (f"l={ell},p={p},b={bb}", "", res.residual.is_zero(), len(res.residual))
    if family == "baker":
        rep = check_baker()
        bad = [k for k, v in rep.items() if not v.is_zero()]
        return ("baker", "", not bad, len(bad))
    res = check_giochetto(a, b)
    return (str(a), str(b), res.is_zero(), len(res))


def criterion_02_generalized_jacobi():
    pairs = [run_identity(it) for it in identity_instances("otto", 6, 3)]
    singles = [run_identity(it) for it in identity_instances("j2", 6, 3)]
    failed = sum(not row[2] for row in pairs)
    j2_failed = sum(not row[2] for row in singles)
    return failed == j2_failed == 0, {
        "pair_instances": len(pairs), "pair_failures": failed,
        "single_instances": len(singles), "single_failures": j2_failed,
    }


def criterion_03_F_family():
    zero_ok = True
    count = 0
    for ell in range(2, 6):
        for p in range(1, ell):
            for b in product(range(5), repeat=p):
                if not 1 <= sum(b) <= 4:
                    continue
                for w in ((), (ell + 1,)):
                    count += 1
                    if not check_F(ell, p, b, w=w).residual.is_zero():
                        zero_ok = False
    # the p = ell boundary must break
    boundary = check_F(3, 3, (1, 1, 1))
    boundary_ok = boundary.known_failure and not boundary.residual.is_zero()
    return zero_ok and boundary_ok, {
        "zero_instances": count,
        "boundary_nonzero": not boundary.residual.is_zero(),
    }


def criterion_04_baker():
    report = check_baker()
    bad = [k for k, v in report.items() if not v.is_zero()]
    return not bad, {"identities": sorted(report), "failures": bad}


def criterion_05_witness():
    rng = np.random.default_rng(42)
    nontrivial_ok = 0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        terms = {}
        for _ in range(int(rng.integers(1, 4))):
            w = tuple(int(a) for a in rng.integers(1, m + 1, size=p))
            c = int(rng.integers(1, 10))
            terms[w] = terms.get(w, 0) + c
        P = NCPoly(m, {w: c for w, c in terms.items() if c})
        if P.is_zero():
            P = NCPoly(m, {(1,) * p: 1})
        flag, cert = is_trivial(P)
        if (
            not flag
            and cert is not None
            and P.terms.get(cert.collapsed_word) == cert.value
        ):
            nontrivial_ok += 1
    residuals = [
        (3, check_jacobi((1,), (2,), (3,))),
        (4, check_jacobi((1, 2), (3,), (4,))),
        (3, check_generalized_jacobi((1, 2), (3,))),
        (3, check_J2((1, 2, 3))),
        (2, check_J2((1, 2, 1, 2))),
        (4, check_F(3, 2, (1, 1), w=(4,)).residual),
    ]
    trivial_ok = all(is_trivial(NCPoly.from_wordsum(ws, m))[0] for m, ws in residuals)
    ok = nontrivial_ok == 20 and trivial_ok
    return ok, {"nontrivial_certified": nontrivial_ok, "residuals_trivial": trivial_ok}


def criterion_06_bracket_limit():
    heis = load_model("heisenberg")
    psi = Poly.var(3, 2)
    ts = list(np.geomspace(1e-3, 1e-1, 7))
    rep = heis.bracket_limit_order((1, 2), psi, (0.0, 0.0, 0.0), ts)
    converged = max(abs(q - 1.0) for q in rep["quotients"]) <= 1e-6
    slope_ok = math.isfinite(rep["slope"]) and 0.8 <= rep["slope"] <= 1.2
    return converged and slope_ok, {
        "max_quotient_error": max(abs(q - 1.0) for q in rep["quotients"]),
        "errors": rep["errors"],
        "slope": rep["slope"],
        "converged": converged,
        "slope_in_band": slope_ok,
    }


def criterion_07_approx_exponential():
    heis = load_model("heisenberg")
    worst = 0.0
    for s in (0.05, 0.1, 0.2):
        y = c_map(heis, s, (1, 2), (0.0, 0.0, 0.0))
        err = max(abs(y[0]), abs(y[1]), abs(y[2] - s * s))
        worst = max(worst, err)
    return worst <= 1e-8, {"worst_error": worst}


def criterion_08_jacobian_structure():
    worst_col = worst_det = 0.0
    for name, I, x, r in (
        ("heisenberg", (1, 2, 4), (0.0, 0.0, 0.0), 0.5),
        ("grushin", (1, 2), (1.0, 0.0), 0.4),
    ):
        system = load_model(name)
        frame = CommutatorFrame(system)
        J, det = jacobian_e(frame, I, x, r, [0.0] * system.n)
        lead = frame.eval_columns(I, x) * [r ** frame.degree(i) for i in I]
        for k in range(system.n):
            rel = np.linalg.norm(J[:, k] - lead[:, k]) / np.linalg.norm(lead[:, k])
            worst_col = max(worst_col, rel)
        target = float(abs(lambda_I(frame, I, x))) * r ** frame.ell(I)
        worst_det = max(worst_det, abs(abs(det) - target) / target)
    ok = worst_col <= 1e-4 and worst_det <= 1e-4
    return ok, {"worst_column_rel": worst_col, "worst_det_rel": worst_det}


def criterion_09_comparability_inclusion():
    heis = load_model("heisenberg")
    frame = CommutatorFrame(heis)
    I, x, r = (1, 2, 4), (0.0, 0.0, 0.0), 0.5
    rng = np.random.default_rng(9)
    degrees = [frame.degree(i) for i in I]
    _, det0 = jacobian_e(frame, I, x, r, [0.0] * 3)
    ratios = []
    for _ in range(40):
        u = rng.uniform(-1, 1, size=3)
        h = [0.2**d * v for d, v in zip(degrees, u)]
        _, det = jacobian_e(frame, I, x, r, h)
        ratios.append(det / det0)
    comparable = all(0.5 <= q <= 2.0 for q in ratios)
    rep = inclusion_check(
        heis, frame, I, x, r, eps=0.3, c=0.05, samples=200, seed=9
    )
    ok = comparable and rep["solved_fraction"] == 1.0
    return ok, {
        "det_ratio_min": min(ratios), "det_ratio_max": max(ratios),
        "solved_fraction": rep["solved_fraction"],
        "max_residual": rep["max_residual"],
        "collisions": rep["collisions"],
    }


def criterion_10_doubling():
    specs = (
        ("heisenberg", (0.0, 0.0, 0.0), 16.0),
        ("grushin", (0.0, 0.0), 8.0),
    )
    rows = []
    ok = True
    for name, x, target in specs:
        system = load_model(name)
        frame = CommutatorFrame(system)
        for seed in (101, 202):
            rep = doubling_ratio(system, frame, x, 0.25, N=1_000_000, seed=seed)
            rows.append(
                {"model": name, "seed": seed, "ratio": rep["ratio"],
                 "stderr": rep["stderr"], "target": target}
            )
            if abs(rep["ratio"] - target) > 0.15 * target:
                ok = False
    return ok, {"rows": rows}


def poincare_suite_functions():
    x = Poly.var(3, 0)
    y = Poly.var(3, 1)
    z = Poly.var(3, 2)
    return [
        x, y, z, x * x, x * y, y * z,
        x + y.scale(2) - z, x * x - y * y, x * z, x * x * x,
    ]


def criterion_11_poincare():
    heis = load_model("heisenberg")
    frame = CommutatorFrame(heis)
    suite = poincare_suite_functions()
    maxima = []
    for seed in (11, 22, 33):
        reports = poincare_suite(
            heis, frame, suite, (0.0, 0.0, 0.0), 0.5, C_enlarge=2.0,
            N=200_000, seed=seed,
        )
        ratios = [rep["ratio"] for rep in reports]
        if not all(math.isfinite(q) for q in ratios):
            return False, {"error": "non-finite ratio"}
        maxima.append(max(ratios))
    spread = (max(maxima) - min(maxima)) / max(maxima)
    ok = spread <= 0.10
    return ok, {"suite_maxima": maxima, "relative_spread": spread,
                "empirical_constant": max(maxima)}


def criterion_12_tychonoff():
    rng = np.random.default_rng(12)
    lams = np.geomspace(1e-6, 1e-2, 9)
    slopes = []
    for _ in range(20):
        sigmas = np.sort(rng.uniform(0.1, 2.0, size=3))[::-1]
        A, U, V = matrix_with_spectrum(rng, 6, 9, sigmas)
        b = U @ rng.standard_normal(3)
        rows = lambda_sweep(A, b, lams)
        xs = [math.log(l) for l, _ in rows]
        ys = [math.log(e) for _, e in rows]
        slopes.append(float(np.polyfit(xs, ys, 1)[0]))
    slopes_ok = all(abs(s - 2.0) <= 0.1 for s in slopes)
    worst_mismatch = 0.0
    for _ in range(10):
        sigmas = np.sort(rng.uniform(0.2, 3.0, size=3))[::-1]
        A, U, V = matrix_with_spectrum(rng, 6, 5, sigmas)
        beta = rng.standard_normal(3)
        b = U @ beta
        x_ls, _, _ = min_norm_solve(A, b)
        for lam in (1e-2, 1e-3, 1e-4):
            x_lam = tychonoff_solve(A, b, lam)
            expected = np.linalg.norm(tychonoff_error_components(sigmas, beta, lam))
            worst_mismatch = max(
                worst_mismatch, abs(np.linalg.norm(x_ls - x_lam) - expected)
            )
    ok = slopes_ok and worst_mismatch <= 1e-10
    return ok, {
        "slope_min": min(slopes), "slope_max": max(slopes),
        "component_mismatch": worst_mismatch,
    }


def _heisenberg_phase(ratio):
    """Root phi in [0, 2 pi) of (phi - sin phi) / (8 sin^2(phi/2)) = ratio."""
    lo, hi = 0.0, 2.0 * math.pi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (mid - math.sin(mid)) / (8.0 * math.sin(0.5 * mid) ** 2) < ratio:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def heisenberg_distance(a, b):
    """Exact Carnot-Caratheodory distance on the ``heisenberg`` model, the
    truth criterion 13 holds the distance estimates against.

    Left-invariance gives d(a, b) = d(0, a^-1 b).  With r = |(x, y)| > 0 the
    geodesic turns through the root phi of (phi - sin phi) / (8 sin^2(phi/2))
    = |z| / r^2 and has length r (phi/2) / sin(phi/2); on the z-axis the
    length is sqrt(4 pi |z|).  Reference: Agrachev, Barilari, Boscain, A
    Comprehensive Introduction to Sub-Riemannian Geometry (CUP 2019).
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    dz = b[2] - a[2] - 0.5 * (a[0] * b[1] - a[1] * b[0])
    r = math.hypot(dx, dy)
    if r == 0.0:
        return math.sqrt(4.0 * math.pi * abs(dz))
    if dz == 0.0:
        return r
    phi = _heisenberg_phase(abs(dz) / (r * r))
    return r * (0.5 * phi) / math.sin(0.5 * phi)


def criterion_13_distance_properties():
    heis = load_model("heisenberg")
    frame = CommutatorFrame(heis)
    rng = np.random.default_rng(13)
    violations = 0
    ratios = {"fl": [], "cc": []}  # estimate / exact distance, reported only
    for i in range(100):
        a = tuple(rng.uniform(-0.2, 0.2, 3))
        b = tuple(rng.uniform(-0.2, 0.2, 3))
        fl, cc, rho = estimate_all(heis, frame, a, b, seed=i)
        exact = heisenberg_distance(a, b)
        ratios["fl"].append(fl.value / exact)
        ratios["cc"].append(cc.value / exact)
        if not (fl.ok() and cc.ok() and rho.ok()):
            violations += 1
            continue
        if cc.value > fl.value + 1e-6 or rho.value > cc.value + 1e-6:
            violations += 1
    directions = [
        (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
        (0.0, 0.0, -1.0), (1.0, 1.0, 1.0), (1.0, -1.0, 2.0),
    ]
    rows = fefferman_phong_check(
        heis, (0.0, 0.0, 0.0), directions, [1e-4, 1e-3, 1e-2, 1e-1], s=2, seed=13
    )
    sups = [v for _, v in rows]
    fp_ok = all(math.isfinite(v) for v in sups) and max(sups) / min(sups) < 3.0
    ok = violations == 0 and fp_ok
    details = {
        "ordering_violations": violations,
        "fp_sups": sups,
        "fp_variation": max(sups) / min(sups) if all(map(math.isfinite, sups)) else math.inf,
    }
    for kind, r in ratios.items():
        details[f"{kind}_exact_median"] = float(np.median(r))
        details[f"{kind}_exact_max"] = max(r)
    return ok, details


# (number, name, callable, time budget in seconds)
CRITERIA = [
    (1, "pi-tables-order-3-4", criterion_01_pi_tables, 1.0),
    (2, "generalized-jacobi-exhaustive", criterion_02_generalized_jacobi, 60.0),
    (3, "F-family-sweep", criterion_03_F_family, 300.0),
    (4, "baker-identities", criterion_04_baker, 1.0),
    (5, "witness-triviality", criterion_05_witness, 30.0),
    (6, "bracket-limit-slope", criterion_06_bracket_limit, 10.0),
    (7, "approx-exponential-exactness", criterion_07_approx_exponential, 5.0),
    (8, "jacobian-structure", criterion_08_jacobian_structure, 10.0),
    (9, "comparability-and-inclusion", criterion_09_comparability_inclusion, 120.0),
    (10, "doubling-ratios", criterion_10_doubling, 300.0),
    (11, "poincare-suite", criterion_11_poincare, 300.0),
    (12, "tychonoff-convergence", criterion_12_tychonoff, 10.0),
    (13, "distance-properties", criterion_13_distance_properties, 600.0),
]


def _load_average():
    try:
        return os.getloadavg()[0]
    except (AttributeError, OSError):  # no load average on this platform
        return math.nan


def run_criterion(number, name, fn, budget):
    load_before = _load_average()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    passed, details = fn()
    elapsed = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    if elapsed > budget:
        passed = False
        details = dict(details, over_budget=f"{elapsed:.1f}s > {budget:.0f}s")
    return CriterionResult(number, name, passed, elapsed, details,
                           cpu_s, load_before, _load_average())


def run_criteria(numbers=None, emit=print):
    results = []
    for number, name, fn, budget in CRITERIA:
        if numbers and number not in numbers:
            continue
        result = run_criterion(number, name, fn, budget)
        results.append(result)
        if emit:
            emit(result.summary())
    return results
