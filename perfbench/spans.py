"""Spans around the calls into each liebox layer, installed from outside.

The traced run rebinds the module and class attributes that callers look
up (both ``liebox.approxexp.e_map_batch`` and the copies imported into
``metric`` and ``ballbox``, for example), so no file of the library changes.
Every call through a wrapper records one span: layer id, parent span, op id,
start and end.  Spans stay in flat arrays until the run ends, when calls and
self times are computed from them; rows and outcome counters (accepted rows,
feasible solves, converged Newton runs) are counted per layer as calls return.
"""

import collections
import itertools
import time
from array import array

import numpy as np


def _rows_arg(index):
    """Leading dimension of the batch passed as positional argument ``index``."""

    def rows(args, kwargs):
        return len(args[index])

    return rows


def _count_accepted(counts, out, args, kwargs):
    counts["accepted"] += int(out[0].sum())


def _count_feasible(counts, out, args, kwargs):
    tol = args[3] if len(args) > 3 else kwargs["tol"]
    counts["feasible"] += int(out[1] <= tol)


def _count_converged(counts, out, args, kwargs):
    counts["converged"] += int(bool(out["converged"]))


def _count_bisection(counts, out, args, kwargs):
    counts["probes"] += len(out.trace)
    counts["probes_feasible"] += sum(1 for _, ok in out.trace if ok)


class Tracer:
    """In-memory span store plus per-layer counters.

    A span is (span id, layer id, parent span id, op id, start, end); span
    ids are handed out on entry, so a parent's id is known to its children.
    The op id is -1 outside the timed rounds (set-up).
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.counts = []
        self.cols = tuple(array(t) for t in "qiqqdd")
        self._stack = [-1]
        self._next = itertools.count()
        self.op = -1
        self._patched = []

    def layer(self, name):
        lid = self._ids.get(name)
        if lid is None:
            lid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(collections.Counter())
        return lid

    def wrap(self, fn, name, rows=None, post=None):
        lid = self.layer(name)
        counts = self.counts[lid]
        stack, nxt, clock, tracer = self._stack, self._next, time.perf_counter, self
        a_sid, a_lid, a_par, a_op, a_t0, a_t1 = (c.append for c in self.cols)

        def traced(*args, **kwargs):
            sid = next(nxt)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                a_sid(sid)
                a_lid(lid)
                a_par(parent)
                a_op(tracer.op)
                a_t0(t0)
                a_t1(t1)
            if rows is not None:
                counts["rows"] += rows(args, kwargs)
            if post is not None:
                post(counts, out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def swap(self, owner, attr, new):
        """Set ``owner.attr`` to ``new``; ``restore`` puts the original back."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr, name, rows=None, post=None):
        """Replace ``owner.attr`` by a traced wrapper of itself."""
        self.swap(owner, attr, self.wrap(getattr(owner, attr), name, rows=rows, post=post))

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def arrays(self):
        """Span columns as arrays indexed by span id."""
        sid, lid, parent, op, t0, t1 = (np.frombuffer(c, dtype=c.typecode) for c in self.cols)
        order = np.argsort(sid)
        return lid[order], parent[order], op[order], t0[order], t1[order]

    def layer_times(self, timed):
        """Per layer: calls, self time and inclusive time of the selected spans.

        ``timed`` picks the timed rounds (True) or the set-up (False).  Self
        time is a span's duration minus the time its child spans cover.
        """
        lid, parent, op, t0, t1 = self.arrays()
        dur = t1 - t0
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        keep = (op >= 0) == timed
        n = len(self.names)
        calls = np.bincount(lid[keep], minlength=n)
        self_s = np.bincount(lid[keep], weights=(dur - child)[keep], minlength=n)
        total_s = np.bincount(lid[keep], weights=dur[keep], minlength=n)
        return {name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, name in enumerate(self.names)}

    def reset_counts(self):
        for c in self.counts:
            c.clear()

    def save(self, path):
        lid, parent, op, t0, t1 = self.arrays()
        np.savez(path, names=np.array(self.names), layer=lid, parent=parent, op=op,
                 t0=t0, t1=t1)


def install(tracer, lb):
    """Wrap every traced layer of the freshly imported package ``lb``."""
    p = tracer.patch
    # exact layers
    p(lb.words, "pi_table", "words.pi_table")
    for mod in (lb.words, lb.freelie, lb.vfield):
        p(mod, "pi_support", "words.pi_support")
    p(lb.freelie, "expand_nested", "freelie.expand_nested")
    for attr in ("check_generalized_jacobi", "check_J2", "check_F", "check_jacobi", "check_baker"):
        p(lb.freelie, attr, "freelie.check")
    p(lb.ncpoly, "is_trivial", "ncpoly.is_trivial")
    p(lb.ncpoly, "witness_coefficients", "ncpoly.witness_coefficients")
    # polynomial evaluators: compilation, and the batch callables handed out
    for attr in ("compile_batch", "compile_scalar"):
        p(lb.poly.Poly, attr, "poly.compile")
    batch_eval = {}
    orig_batch_fn = lb.vfield.VectorFieldSystem.batch_fn
    rows0 = _rows_arg(0)

    def batch_fn(system, key, pmap=None):
        fn = orig_batch_fn(system, key, pmap)
        wrapped = batch_eval.get(fn)
        if wrapped is None:
            wrapped = batch_eval[fn] = tracer.wrap(fn, "poly.batch_eval", rows=rows0)
        return wrapped

    tracer.swap(lb.vfield.VectorFieldSystem, "batch_fn", batch_fn)
    # flows and the scalar chart
    p(lb.vfield, "load_model", "vfield.load_model")
    p(lb.vfield.VectorFieldSystem, "compose_flows", "vfield.compose_flows")
    p(lb.flows, "rk4", "flows.rk4")
    p(lb.flows, "dopri5", "flows.dopri5")
    p(lb.flows, "rk4_batch", "flows.rk4_batch", rows=_rows_arg(2))
    for mod in (lb.approxexp, lb.ballbox):
        p(mod, "e_map", "approxexp.e_map")
    for mod in (lb.approxexp, lb.metric, lb.ballbox):
        p(mod, "e_map_batch", "approxexp.e_map_batch", rows=_rows_arg(4))
    p(lb.approxexp, "jacobian_e", "approxexp.jacobian_e")
    # membership, distances and the linear algebra under them
    for mod in (lb.metric, lb.ballbox):
        p(mod, "ball_membership", "metric.ball_membership", rows=_rows_arg(5),
          post=_count_accepted)
        p(mod, "control_endpoints", "metric.control_endpoints", rows=_rows_arg(1))
    p(lb.metric, "arc_endpoints", "metric.arc_endpoints", rows=_rows_arg(2))
    p(lb.metric, "_gauss_newton", "metric._gauss_newton", post=_count_feasible)
    p(lb.metric, "fl_distance", "metric.fl_distance")
    p(lb.metric, "cc_distance", "metric.cc_distance", post=_count_bisection)
    p(lb.metric, "rho_distance", "metric.rho_distance")
    p(lb.metric, "estimate_all", "metric.estimate_all")
    p(lb.metric, "fefferman_phong_check", "metric.fefferman_phong_check")
    for mod in (lb.linalg, lb.metric, lb.ballbox):
        p(mod, "min_norm_solve", "linalg.min_norm_solve")
    # ball-box harnesses
    p(lb.ballbox, "select_maximal", "ballbox.select_maximal")
    p(lb.ballbox, "newton_invert", "ballbox.newton_invert", post=_count_converged)
    p(lb.ballbox, "sample_rho_targets", "ballbox.sample_rho_targets")
    for attr in ("doubling_ratio", "poincare_suite", "inclusion_check"):
        p(lb.ballbox, attr, f"ballbox.{attr}")
