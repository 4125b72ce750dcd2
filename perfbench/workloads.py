"""The four benchmark workloads: seeded inputs, library calls, output checks.

A workload is a ``setup`` (models, frames and the first compiling call of
each evaluator) and a ``round``: a fixed amount of work whose inputs are
drawn from (seed, round index) only, so a round can be replayed exactly.
Each library call inside a round is one op, timed on its own and checked
after the clock stops.  The workloads split the layers so that every
planned optimisation has one workload that runs its mechanism and one that
bypasses it:

* volume-mc: doubling and Poincare harnesses, large-N array work in
  ``poly``/``flows``/``approxexp``/``ball_membership``;
* distance-sweep: ``estimate_all`` on Heisenberg pairs, the same layers on
  9-17-row batches inside Gauss-Newton, checked against the exact distance;
* exact-algebra: ``Fraction``/dict work in ``words``/``freelie``/``ncpoly``,
  no numpy path at all;
* chart-scalar: ``inclusion_check`` and the criterion-09 Jacobian loop, the
  per-target tuple RK4/DOPRI5 path that no other workload reaches.
"""

import math
import time
import traceback
from array import array
from itertools import product

import numpy as np

import oracle

# A 5-sigma band on the doubling ratio: its stderr comes from the counts of
# the same call, and Engel's inner count is small enough that a fixed
# percentage band would pass or fail with the seed.
DOUBLING_SIGMAS = 5.0


def derive(seed, *keys):
    """Library seed for one op, drawn from the workload seed and op keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def pick(seed, acceptance, k, *keys):
    """The acceptance seeds when no seed is given, derived seeds otherwise."""
    if seed is None:
        return acceptance[k % len(acceptance)]
    return derive(seed, k, *keys)


class OpLog:
    """The ops of a run as parallel columns, a few dozen bytes per op, so
    that the benchmark's own bookkeeping barely moves peak memory.

    ``kind`` (an index into ``kinds``), ``start`` (perf_counter at the
    call), ``seconds``, ``work`` (items counted by the workload's
    throughput), ``checked`` (outputs checked) and ``failed`` (outputs that
    failed their check); ``notes`` holds the notes of the failures only.
    """

    def __init__(self):
        self.kinds = []
        self.kind = array("b")
        self.start, self.seconds = array("d"), array("d")
        self.work, self.checked, self.failed = array("q"), array("q"), array("q")
        self.notes = []

    def __len__(self):
        return len(self.kind)

    def add(self, kind, start, seconds, work, checked, notes):
        if kind not in self.kinds:
            self.kinds.append(kind)
        self.kind.append(self.kinds.index(kind))
        self.start.append(start)
        self.seconds.append(seconds)
        self.work.append(work)
        self.checked.append(checked)
        self.failed.append(len(notes))
        self.notes.extend(notes)

    def kind_name(self, i):
        return self.kinds[self.kind[i]]


class Recorder:
    """Runs ops: times the call, then checks its output off the clock.

    ``check(out)`` returns (work items, checked outputs, failure notes), one
    note per failed output.  An exception from the library counts as one
    failed output.  Both callables run before ``run`` returns, so they may
    close over loop variables.  ``between()``, when given, runs before each
    op, off the clock.  Time spent in ``ref``'s passes during an op (see
    ``refclock``) is taken out of the op's time.
    """

    def __init__(self, tracer=None, between=None, ref=None):
        self.ops = OpLog()
        self.tracer = tracer
        self.between = between
        self.ref = ref
        self.extra = {}  # per-workload samples, e.g. distance ratios

    def _off_clock(self):
        return 0.0 if self.ref is None else self.ref.spent

    def run(self, kind, call, check):
        if self.between is not None:
            self.between()
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        off0 = self._off_clock()
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:  # a library failure is a measured outcome
            dt = time.perf_counter() - t0 - (self._off_clock() - off0)
            self.ops.add(kind, t0, dt, 0, 1, [f"{kind}: {traceback.format_exc()}"])
            return
        dt = time.perf_counter() - t0 - (self._off_clock() - off0)
        work, checked, notes = check(out)
        self.ops.add(kind, t0, dt, work, checked, notes)


def compile_evaluators(system, frame):
    """First call of every batch evaluator the harnesses look up."""
    probe = np.zeros((1, system.n))
    for key in list(range(1, system.m + 1)) + list(frame.words):
        system.batch_fn(key)(probe)


def load(lb, name):
    system = lb.vfield.load_model(name)
    frame = lb.approxexp.CommutatorFrame(system)
    compile_evaluators(system, frame)
    return system, frame


# -- volume-mc ------------------------------------------------------------------


def suite_functions(lb, n):
    """The criterion-11 test functions with z read as the last coordinate.

    For n = 3 this is exactly ``acceptance.poincare_suite_functions()``.
    """
    v = [lb.poly.Poly.var(n, i) for i in range(n)]
    x, y, z = v[0], v[1], v[-1]
    return v + [x * x, x * y, y * z, x + y.scale(2) - z, x * x - y * y, x * z, x * x * x]


class VolumeMC:
    name = "volume-mc"
    unit = "points/s"
    alias = "mc_points_per_s"
    latency_kinds = ("doubling", "poincare")
    nominal_round_s = 9.0
    N = 20_000
    # (model, centre, doubling radius, 2^Q)
    MODELS = (
        ("heisenberg", (0.0, 0.0, 0.0), 0.25, 16.0),
        ("grushin", (0.0, 0.0), 0.25, 8.0),
        ("engel", (0.0, 0.0, 0.0, 0.0), 0.25, 128.0),
    )

    def setup(self, lb):
        return [load(lb, name) + (suite_functions(lb, len(x)),)
                for name, x, _, _ in self.MODELS]

    def round(self, lb, state, seed, k, rec):
        ballbox = lb.ballbox
        for j, ((name, x, r, target), (system, frame, _)) in enumerate(zip(self.MODELS, state)):
            s = pick(seed, (101, 202), k, j, 0)
            rec.run(
                "doubling",
                lambda: ballbox.doubling_ratio(system, frame, x, r, N=self.N, seed=s),
                lambda rep: self._check_doubling(name, rep, target),
            )
        for j, ((name, x, _, _), (system, frame, suite)) in enumerate(zip(self.MODELS, state)):
            s = pick(seed, (11, 22, 33), k, j, 1)
            rec.run(
                "poincare",
                lambda: ballbox.poincare_suite(
                    system, frame, suite, x, 0.5, C_enlarge=2.0, N=self.N, seed=s),
                lambda reps: self._check_poincare(name, reps),
            )

    def _check_doubling(self, name, rep, target):
        notes = []
        ratio, se = rep["ratio"], rep["stderr"]
        if not (math.isfinite(ratio) and math.isfinite(se)):
            notes.append(f"{name} doubling: non-finite ratio {ratio} +- {se}")
        elif abs(ratio - target) > DOUBLING_SIGMAS * se:
            notes.append(f"{name} doubling: ratio {ratio:.3f} +- {se:.3f} far from {target}")
        return 2 * rep["N"], 1, notes

    def _check_poincare(self, name, reps):
        notes = []
        for i, rep in enumerate(reps):
            if not (rep["lhs"] > 0 and rep["rhs"] > 0 and math.isfinite(rep["ratio"])):
                notes.append(f"{name} poincare f{i}: lhs {rep['lhs']} rhs {rep['rhs']}")
        return 2 * self.N, len(reps), notes


# -- distance-sweep ------------------------------------------------------------------


class DistanceSweep:
    name = "distance-sweep"
    unit = "pairs/s"
    alias = "pairs_per_s"
    latency_kinds = ("pair",)
    nominal_round_s = 10.0
    PAIRS = 3
    FP_SCALES = (1e-4, 1e-3, 1e-2, 1e-1)
    FP_DIRECTION = (1.0, 1.0, 1.0)  # one of the criterion's six

    def setup(self, lb):
        bad = oracle.self_test()
        if bad:
            raise RuntimeError(f"distance oracle self-test failed: {bad}")
        return load(lb, "heisenberg")

    def pairs(self, seed, k):
        """The first P pairs of the criterion-13 stream, each moved by a
        left translation drawn from (seed, round, pair); none without a seed.

        Left translation is an isometry that keeps the frame, so the exact
        distance and nearly all of the solver's work stay as they are: every
        round and every seed gets new inputs and the same work.  Fresh pairs
        would make the work of a run depend on its seed, and on how many
        rounds fit into it, by 10-20 %.
        """
        pts = np.random.default_rng(13).uniform(-0.2, 0.2, size=(self.PAIRS, 2, 3))
        out = []
        for i in range(self.PAIRS):
            a, b = tuple(pts[i, 0]), tuple(pts[i, 1])
            if seed is not None:
                g = tuple(np.random.default_rng(derive(seed, k, i, 4)).uniform(-0.2, 0.2, 3))
                a, b = oracle.left_translate(g, a), oracle.left_translate(g, b)
            out.append((i, a, b))
        return out

    def round(self, lb, state, seed, k, rec):
        system, frame = state
        metric = lb.metric
        for i, a, b in self.pairs(seed, k):
            rec.run(
                "pair",
                lambda: metric.estimate_all(system, frame, a, b, seed=i),
                lambda est: self._check_pair(a, b, est, rec.extra),
            )
        # fixed work: a seeded direction changes the sweep's cost by up to
        # 1.7x, and a translation would change its targets (x0 + delta u)
        u, x0 = self.FP_DIRECTION, (0.0, 0.0, 0.0)
        rec.run(
            "fefferman-phong",
            lambda: metric.fefferman_phong_check(
                system, x0, [u], list(self.FP_SCALES), s=2, seed=13),
            lambda rows: self._check_fp(x0, u, rows, metric.FEAS_TOL),
        )

    @staticmethod
    def _below_truth(kind, value, cert, a, b):
        """Note when a certified upper bound is below the exact distance.

        The certificate's own endpoint y' may miss b by the feasibility
        tolerance, so the bound is held to d(a, b) - d(y', b).
        """
        if cert is None:
            return [f"{kind}: no certificate"]
        end = oracle.certificate_endpoint(a, cert)
        miss = oracle.heisenberg_distance(end, b)
        exact = oracle.heisenberg_distance(a, b)
        if max(abs(p - q) for p, q in zip(end, b)) > 1e-6:
            return [f"{kind}: certificate ends at {end}, target {b}"]
        if value < exact - miss - 1e-12:
            return [f"{kind}: {value} below exact {exact} (endpoint miss {miss})"]
        return []

    def _check_pair(self, a, b, est, extra):
        fl, cc, rho = est
        if not (fl.ok() and cc.ok() and rho.ok()):
            return 1, 1, [f"pair {a}->{b}: status {fl.status}/{cc.status}/{rho.status}"]
        notes = []
        if cc.value > fl.value + 1e-6 or rho.value > cc.value + 1e-6:
            notes.append(f"pair {a}->{b}: order rho {rho.value} cc {cc.value} fl {fl.value}")
        notes += self._below_truth("fl", fl.value, fl.certificate, a, b)
        notes += self._below_truth("cc", cc.value, cc.certificate, a, b)
        exact = oracle.heisenberg_distance(a, b)
        extra.setdefault("cc_ratio", []).append(cc.value / exact)
        extra.setdefault("fl_ratio", []).append(fl.value / exact)
        return 1, 1, notes

    def _check_fp(self, x0, u, rows, feas_tol):
        """fl at each scale against the exact distance to x0 + delta u/|u|.

        fefferman_phong_check returns no certificate, so the endpoint miss is
        bounded from fl_distance's feasibility tolerance: a miss of at most
        tol per coordinate costs at most sqrt(2) tol + sqrt(4 pi tol (1 + delta)).
        """
        notes = []
        unit = np.asarray(u) / np.linalg.norm(u)
        for delta, sup in rows:
            if not math.isfinite(sup):
                notes.append(f"fp {u} at {delta}: no feasible arc path")
                continue
            exact = oracle.heisenberg_distance(x0, tuple(delta * unit))
            tol = feas_tol * (1.0 + delta) + 1e-8
            slack = math.sqrt(2) * tol + math.sqrt(4 * math.pi * tol * (1 + delta))
            fl = sup * math.sqrt(delta)  # one direction: the sup is fl itself
            if fl < exact - slack:
                notes.append(f"fp {u} at {delta}: fl {fl} below exact {exact}")
        return 0, len(rows), notes


# -- exact-algebra --------------------------------------------------------------------


def _words(max_len, alphabet, min_len=1):
    for ell in range(min_len, max_len + 1):
        yield from product(range(1, alphabet + 1), repeat=ell)


class ExactAlgebra:
    name = "exact-algebra"
    unit = "checks/s"
    alias = "checks_per_s"
    latency_kinds = ("identity", "witness")
    nominal_round_s = 6.0
    ORDER3 = {(1, 2, 3): 1, (1, 3, 2): -1, (2, 3, 1): -1, (3, 2, 1): 1}
    ORDER4 = {
        (1, 2, 3, 4): 1, (1, 2, 4, 3): -1, (1, 3, 4, 2): -1, (1, 4, 3, 2): 1,
        (2, 3, 4, 1): -1, (2, 4, 3, 1): 1, (3, 4, 2, 1): 1, (4, 3, 2, 1): -1,
    }
    # two random polynomials per degree.  The cost of is_trivial grows
    # steeply with how often a letter repeats (a one-letter degree-6 word
    # alone polarizes for ~12 s), so degrees 5 and 6 arrange a fixed letter
    # multiset; a free draw would make a round's cost depend on the seed.
    # The table is drawn once per run, so that every round does the same
    # work and the library's caches stop growing after the first round.
    TABLE_DEGREES = (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6)
    MULTISETS = {5: (1, 1, 2, 2, 3), 6: (1, 1, 2, 2, 3, 3)}

    def setup(self, lb):
        return None

    def table(self, lb, seed):
        rng = np.random.default_rng(42 if seed is None else seed)
        out = []
        for d in self.TABLE_DEGREES:
            m = 3 if d in self.MULTISETS else int(rng.integers(1, 4))
            terms = {}
            for _ in range(2 if d in self.MULTISETS else int(rng.integers(1, 4))):
                if d in self.MULTISETS:
                    w = tuple(int(a) for a in rng.permutation(self.MULTISETS[d]))
                else:
                    w = tuple(int(a) for a in rng.integers(1, m + 1, size=d))
                terms[w] = terms.get(w, 0) + int(rng.integers(1, 10))
            out.append(lb.ncpoly.NCPoly(m, terms))
        return out

    def round(self, lb, state, seed, k, rec):
        words, freelie, ncpoly = lb.words, lb.freelie, lb.ncpoly
        for ell in range(1, 7):
            rec.run("pi-table", lambda: words.pi_table(ell),
                    lambda t: self._check_pi(words, ell, t))
        zero = lambda ws: (1, 1, [] if ws.is_zero() else [f"nonzero residual {ws}"])
        for v in _words(5, 3):
            for w in _words(6 - len(v), 3):
                rec.run("identity", lambda: freelie.check_generalized_jacobi(v, w), zero)
        for v in _words(6, 3, min_len=2):
            rec.run("identity", lambda: freelie.check_J2(v), zero)
        for ell in range(2, 6):
            for p in range(1, ell):
                for b in product(range(5), repeat=p):
                    if 1 <= sum(b) <= 4:
                        for w in ((), (ell + 1,)):
                            rec.run("identity",
                                    lambda: freelie.check_F(ell, p, b, w=w).residual, zero)
        rec.run(
            "identity", lambda: freelie.check_F(3, 3, (1, 1, 1)),
            lambda f: (1, 1, [] if f.known_failure and not f.residual.is_zero()
                       else ["F(3,3) boundary residual vanished"]),
        )
        rec.run(
            "identity", freelie.check_baker,
            lambda rep: (len(rep), len(rep), [f"baker {n}" for n, v in rep.items() if not v.is_zero()]),
        )
        for P in self.table(lb, seed):
            rec.run("witness", lambda: ncpoly.is_trivial(P),
                    lambda res: self._check_witness(P, res))
        for m, residual in (
            (3, lambda: freelie.check_jacobi((1,), (2,), (3,))),
            (4, lambda: freelie.check_jacobi((1, 2), (3,), (4,))),
            (3, lambda: freelie.check_generalized_jacobi((1, 2), (3,))),
            (3, lambda: freelie.check_J2((1, 2, 3))),
            (4, lambda: freelie.check_F(3, 2, (1, 1), w=(4,)).residual),
        ):
            rec.run("witness", lambda: ncpoly.is_trivial(ncpoly.NCPoly.from_wordsum(residual(), m)),
                    lambda res: (1, 1, [] if res[0] else ["known-trivial residual certified"]))

    def _check_pi(self, words, ell, table):
        notes = []
        nonzero = table.nonzero
        if ell == 3 and nonzero != self.ORDER3 or ell == 4 and nonzero != self.ORDER4:
            notes.append(f"pi table {ell}: wrong signs")
        if len(nonzero) != 2 ** (ell - 1):
            notes.append(f"pi table {ell}: {len(nonzero)} nonzero entries")
        bad = [p for p, v in table.entries.items() if words.pi_coefficient(p) != v]
        if bad:
            notes.append(f"pi table {ell}: recursion disagrees at {bad[:3]}")
        return 0, 1, notes

    @staticmethod
    def _check_witness(P, res):
        flag, cert = res
        if flag or cert is None:
            return 1, 1, [f"nontrivial {P} reported trivial"]
        if P.terms.get(cert.collapsed_word) != cert.value:
            return 1, 1, [f"{P}: certificate word {cert.collapsed_word} value {cert.value}"]
        return 1, 1, []


# -- chart-scalar ---------------------------------------------------------------------


class ChartScalar:
    name = "chart-scalar"
    unit = "solves/s"
    alias = "solves_per_s"
    latency_kinds = ("inclusion",)
    nominal_round_s = 5.0
    SAMPLES = 200
    R, EPS, C = 0.5, 0.3, 0.05
    MODELS = (
        ("heisenberg", (0.0, 0.0, 0.0)),
        ("grushin", (1.0, 0.0)),
        ("engel", (0.0, 0.0, 0.0, 0.0)),
        ("martinet", (0.0, 0.0, 0.0)),
    )
    JACOBIANS = 40

    def setup(self, lb):
        state = []
        for name, x in self.MODELS:
            system, frame = load(lb, name)
            for j in range(1, system.m + 1):  # compiles the scalar field
                system.flow(j, 1e-3, x)
            state.append((system, frame))
        return state

    def round(self, lb, state, seed, k, rec):
        ballbox, approxexp = lb.ballbox, lb.approxexp
        for j, ((name, x), (system, frame)) in enumerate(zip(self.MODELS, state)):
            s = pick(seed, (9,), k, j, 0)

            def inclusion():
                I = ballbox.select_maximal(frame, x, self.R).I
                return ballbox.inclusion_check(
                    system, frame, I, x, self.R, eps=self.EPS, c=self.C,
                    samples=self.SAMPLES, seed=s)

            rec.run("inclusion", inclusion, lambda rep: self._check_inclusion(name, rep))
        for j, ((name, x), (system, frame)) in enumerate(zip(self.MODELS, state)):
            rng = np.random.default_rng(pick(seed, (9,), k, j, 1))
            U = rng.uniform(-1, 1, size=(self.JACOBIANS, system.n))

            def jacobians():
                I = ballbox.select_maximal(frame, x, self.R).I
                degrees = [frame.degree(i) for i in I]
                _, det0 = approxexp.jacobian_e(frame, I, x, self.R, [0.0] * system.n)
                return det0, [
                    approxexp.jacobian_e(
                        frame, I, x, self.R, [0.2**d * v for d, v in zip(degrees, u)])[1]
                    for u in U
                ]

            rec.run("jacobian", jacobians, lambda res: self._check_jacobians(name, res))

    def _check_inclusion(self, name, rep):
        samples = rep["samples"]
        solved = round(rep["solved_fraction"] * samples)
        notes = [f"{name}: target not inverted inside the box ({solved}/{samples} were)"
                 ] * (samples - solved)
        if rep["collisions"]:
            notes.append(f"{name}: {rep['collisions']} chart collisions")
        return rep["samples"], rep["samples"] + 1, notes

    @staticmethod
    def _check_jacobians(name, res):
        det0, dets = res
        bad = [d / det0 for d in dets if not 0.5 <= d / det0 <= 2.0]
        notes = [f"{name}: Jacobian ratio {q:.3f} outside [0.5, 2]" for q in bad]
        return 0, len(dets), notes


WORKLOADS = {w.name: w for w in (VolumeMC(), DistanceSweep(), ExactAlgebra(), ChartScalar())}
