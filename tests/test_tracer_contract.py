"""The per-layer tracer of ``perfbench/spans.py`` against the library.

The tracer rebinds library attributes by name and reads rows and outcomes
from fixed argument positions and return shapes, so a rename or a reshaped
call breaks traced benchmark runs only.  This test installs it in-process on
the modules the benchmark imports, runs one small call per traced layer of
the chart, inclusion, doubling, Poincare and distance paths, and checks that
the layers they reach recorded calls and rows.  A second test does the same for
the exact layers, with the calls and result shapes the exact-algebra
workload makes and reads.
"""

import importlib
import importlib.util
import pathlib
import types

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ("words", "freelie", "ncpoly", "poly", "flows", "vfield", "linalg",
           "approxexp", "metric", "ballbox")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_counts_every_reached_layer():
    spans = _load_spans()
    lb = types.SimpleNamespace(
        **{m: importlib.import_module(f"liebox.{m}") for m in MODULES})
    originals = (lb.approxexp.e_map, lb.ballbox.e_map_batch,
                 lb.vfield.VectorFieldSystem.batch_fn, lb.poly.Poly.compile_batch)
    tracer = spans.Tracer()
    try:
        spans.install(tracer, lb)
        tracer.op = 0
        system = lb.vfield.load_model("heisenberg")
        frame = lb.approxexp.CommutatorFrame(system)
        x, r, I = (0.0, 0.0, 0.0), 0.5, (1, 2, 4)
        lb.approxexp.e_map(frame, I, x, r, (0.1, -0.2, 0.05))
        lb.approxexp.jacobian_e(frame, I, x, r, (0.1, -0.2, 0.05))
        rep = lb.ballbox.inclusion_check(system, frame, I, x, r, eps=0.3, samples=10,
                                         seed=3)
        assert rep["solved_fraction"] == 1.0
        membership = tracer.counts[tracer.layer("metric.ball_membership")]
        calls0 = tracer.layer_times(True)["metric.ball_membership"][0]
        rows0 = membership["rows"]
        lb.ballbox.doubling_ratio(system, frame, x, 0.25, N=200, seed=5)
        doubling_calls = tracer.layer_times(True)["metric.ball_membership"][0] - calls0
        doubling_rows = membership["rows"] - rows0
        calls0, rows0 = calls0 + doubling_calls, rows0 + doubling_rows
        fs = [lb.poly.Poly.var(3, 0), lb.poly.Poly.var(3, 2)]
        lb.ballbox.poincare_suite(system, frame, fs, x, 0.25, N=200, seed=5)
        poincare_calls = tracer.layer_times(True)["metric.ball_membership"][0] - calls0
        poincare_rows = membership["rows"] - rows0
        lb.metric.estimate_all(system, frame, x, (0.05, 0.02, 0.01), seed=1)
        times = tracer.layer_times(True)
        counts = {name: tracer.counts[tracer.layer(name)] for name in tracer.names}
    finally:
        tracer.restore()
    for name in ("vfield.load_model", "approxexp.e_map", "approxexp.jacobian_e",
                 "ballbox.inclusion_check", "ballbox.sample_rho_targets",
                 "ballbox.select_maximal", "ballbox.doubling_ratio",
                 "ballbox.poincare_suite",
                 "metric.estimate_all", "metric.fl_distance", "metric.cc_distance",
                 "metric.rho_distance", "metric._gauss_newton"):
        assert times[name][0] > 0, name
    for name in ("approxexp.e_map_batch", "metric.ball_membership",
                 "metric.control_endpoints", "metric.arc_endpoints", "poly.batch_eval"):
        assert times[name][0] > 0, name
        assert counts[name]["rows"] > 0, name
    assert counts["metric.ball_membership"]["accepted"] > 0
    # one membership solve per doubling ratio and per Poincare suite, whatever
    # the number of test functions: the inner mask is read off it
    assert (doubling_calls, doubling_rows) == (1, 200)
    assert (poincare_calls, poincare_rows) == (1, 200)
    assert "feasible" in counts["metric._gauss_newton"]
    # each control estimate traces the one value it reports, which is feasible
    cc_calls = times["metric.cc_distance"][0]
    assert counts["metric.cc_distance"]["probes"] == cc_calls
    assert counts["metric.cc_distance"]["probes_feasible"] == cc_calls
    # the chart runs on exact flows: no adaptive leg is reached
    assert times.get("flows.dopri5", (0,))[0] == 0
    assert times.get("vfield.compose_flows", (0,))[0] == 0
    assert originals == (lb.approxexp.e_map, lb.ballbox.e_map_batch,
                         lb.vfield.VectorFieldSystem.batch_fn, lb.poly.Poly.compile_batch)


def test_tracer_counts_the_exact_layers():
    spans = _load_spans()
    lb = types.SimpleNamespace(
        **{m: importlib.import_module(f"liebox.{m}") for m in MODULES})
    traced = ((lb.words, "pi_table"), (lb.freelie, "pi_support"),
              (lb.freelie, "expand_nested"), (lb.freelie, "check_F"),
              (lb.ncpoly, "is_trivial"), (lb.ncpoly, "witness_coefficients"))
    originals = [getattr(owner, attr) for owner, attr in traced]
    NCPoly = lb.ncpoly.NCPoly
    tracer = spans.Tracer()
    try:
        spans.install(tracer, lb)
        tracer.op = 0
        assert len(lb.words.pi_table(4).nonzero) == 8
        assert lb.freelie.check_generalized_jacobi((1, 2), (3,)).is_zero()
        assert lb.freelie.check_J2((1, 2, 3)).is_zero()
        f = lb.freelie.check_F(3, 2, (1, 1), w=(4,))
        assert f.residual.is_zero() and not f.known_failure
        P = NCPoly(2, {(1, 2): 1, (2, 1): -1})
        flag, cert = lb.ncpoly.is_trivial(P)
        assert not flag and P.terms.get(cert.collapsed_word) == cert.value
        residual = lb.freelie.check_jacobi((1,), (2,), (3,))
        assert lb.ncpoly.is_trivial(NCPoly.from_wordsum(residual, 3)) == (True, None)
        # pieces are polarized lazily: the commutator's piece certifies P
        # before the queued X3^6 polarization is witnessed
        witness_calls = tracer.layer_times(True)["ncpoly.witness_coefficients"][0]
        flag, _ = lb.ncpoly.is_trivial(NCPoly(3, {(1, 2): 1, (2, 1): -1, (3,) * 6: 1}))
        assert not flag
        times = tracer.layer_times(True)
    finally:
        tracer.restore()
    for name in ("words.pi_table", "freelie.check", "ncpoly.is_trivial",
                 "ncpoly.witness_coefficients"):
        assert times[name][0] > 0, name
    assert times["freelie.check"][0] == 4
    assert times["ncpoly.witness_coefficients"][0] - witness_calls == 1
    assert [getattr(owner, attr) for owner, attr in traced] == originals
