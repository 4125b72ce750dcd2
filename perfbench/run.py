"""liebox benchmark: one seeded workload per run, metrics on stdout.

    python3 perfbench/run.py --workload volume-mc --seed 7 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.  A run
repeats rounds of fixed seeded work for about ``--seconds``, one op at a
time (closed loop, one process, BLAS/OpenMP threads capped at min(2, cpus)).
Untraced runs report the end-to-end metrics of ``BENCHMARK.json``: the
set-up time in seconds (median of set-ups spread over the run) and the
op and round times in ``ref`` units, each divided by the time of a fixed
reference loop run from a timer during and around the op (see
``refclock``), so that drift in the speed of a shared host cancels; the raw
seconds are printed beside them.  Traced
runs (``--trace 1``) wrap every layer, run a fixed number of rounds so that
counts repeat exactly, replay the same rounds untraced to measure the
tracing overhead, and report the per-layer metrics.  Every op's output is
checked; the last stdout line is the JSON result, and the exit code is 1
when a check failed, 2 when the benchmark cannot run.  A full report (and
the spans of a traced run) goes to ``perfbench/out/``.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MODULES = ("words", "freelie", "ncpoly", "poly", "flows", "vfield", "linalg",
           "approxexp", "metric", "ballbox")
SETUP_REPS = 15


class Unrunnable(Exception):
    """The checkout cannot be benchmarked (missing source or spec)."""


def cap_threads():
    cap = str(max(1, min(2, len(os.sched_getaffinity(0)))))
    for var in THREAD_VARS:
        os.environ[var] = cap
    return cap


def git_commit():
    """Commit of the checkout read from .git without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    """The machine and build a result was measured on."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS}, "git_commit": git_commit(),
    }


def import_liebox():
    """Fresh import of the library from ``src/``; earlier copies are dropped."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "liebox", "__init__.py")):
        raise Unrunnable(f"no liebox sources under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "liebox" or m.startswith("liebox.")]:
        del sys.modules[name]
    lb = types.SimpleNamespace(
        **{m: importlib.import_module(f"liebox.{m}") for m in MODULES})
    if not os.path.abspath(lb.words.__file__).startswith(src + os.sep):
        raise Unrunnable(f"liebox imported from {lb.words.__file__}, not {src}")
    return lb


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise Unrunnable(f"missing {path}")
    with open(path) as fh:
        return json.load(fh)


def set_up(workload, tracer=None):
    """One timed set-up: fresh import, tracing if asked, workload state."""
    import spans

    t0 = time.perf_counter()
    lb = import_liebox()
    if tracer is not None:
        spans.install(tracer, lb)
    state = workload.setup(lb)
    return time.perf_counter() - t0, lb, state


def spare_setup(workload, ref=None):
    """Time one more set-up, then put back the library copy the rounds use.

    Set-ups taken at intervals through the run see the same changes in
    machine speed as the rounds, rather than only those of the first second.
    Reference passes (``ref``) that interrupt the set-up are not counted.
    """
    def ours():
        return {m: mod for m, mod in sys.modules.items()
                if m == "liebox" or m.startswith("liebox.")}

    kept = ours()
    off0 = 0.0 if ref is None else ref.spent
    seconds, _, _ = set_up(workload)
    seconds -= 0.0 if ref is None else ref.spent - off0
    for name in ours():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()  # free the spare copy now, so peak memory does not depend on when
    return seconds


def run_rounds(workload, lb, state, seed, rec, seconds=None, count=None):
    """Exactly ``count`` rounds, or rounds while the next one is due to end
    by ``seconds`` plus half a round (at least one)."""
    rounds = []
    start = time.perf_counter()
    k = 0
    while True:
        t0, c0, n0 = time.perf_counter(), time.process_time(), len(rec.ops)
        workload.round(lb, state, seed, k, rec)
        rounds.append({"wall_s": time.perf_counter() - t0,
                       "cpu_s": time.process_time() - c0,
                       "first_op": n0, "ops": len(rec.ops) - n0})
        k += 1
        if count is not None and k >= count:
            break
        if count is None and time.perf_counter() - start + 0.5 * rounds[-1]["wall_s"] > seconds:
            break
    return rounds


def end_to_end(workload, setup_times, rounds, ops, rec, ref):
    """Gated figures in reference units, raw seconds beside them.

    An op's ``ref`` time is its wall time over the mean reference pass
    time during and around it (checks, reference passes and spare set-ups
    run off the clock).  Rounds repeat the same mix of ops (models,
    harnesses, identity families, translated pairs), so each op of a round
    is first taken as its median over the rounds: ``wall`` is the sum of
    these, ``op_p50`` their median over the latency ops.  A plain median
    over all ops would sit in the gap between two kinds of op and jump with
    the noise of single ops.  ``op_p50_ref`` is printed, not gated: the
    median op of exact-algebra is a 0.3 ms identity check, and the relative
    speed of such checks moves with the host by more than the reference.
    """
    import numpy as np

    start, raw = np.asarray(ops.start), np.asarray(ops.seconds)
    norm = raw / ref.per_op(start, start + raw)
    slots = {}  # an op's place in its round -> its indices over the rounds
    for r in rounds:
        for j in range(r["ops"]):
            slots.setdefault(j, []).append(r["first_op"] + j)
    lat = [j for j, idx in slots.items() if ops.kind_name(idx[0]) in workload.latency_kinds]

    def per_slot(times):
        return {j: float(np.median(times[idx])) for j, idx in slots.items()}

    norm_slot, raw_slot = per_slot(norm), per_slot(raw)
    work, attempted, failed = sum(ops.work), sum(ops.checked), sum(ops.failed)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_ref": sum(norm_slot.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = {  # raw seconds and workload-specific names, printed only
        "wall_s": (sum(raw_slot.values()), "s"),
        "items_per_s": (work / raw.sum(), workload.unit),
        workload.alias: (work / raw.sum(), workload.unit),
        "op_p50_ref": (statistics.median(norm_slot[j] for j in lat), "ref"),
        "op_p50_s": (statistics.median(raw_slot[j] for j in lat), "s"),
        "ref_pass_s": (statistics.median(ref.pass_seconds()), "s"),
        "failed_frac": (failed / attempted, "ratio"),
        "ops": (len(ops), "count"),
        "rounds": (len(rounds), "count"),
    }
    lat_ops = [i for j in lat for i in slots[j]]
    if len(lat_ops) >= 100:  # at least ten samples beyond the 90th percentile
        named["op_p90_s"] = (statistics.quantiles(raw[lat_ops].tolist(), n=10)[-1], "s")
        named["op_p90_ref"] = (statistics.quantiles(norm[lat_ops].tolist(), n=10)[-1], "ref")
    for key, label in (("cc_ratio", "dist_upper_ratio_p50"), ("fl_ratio", "fl_upper_ratio_p50")):
        if rec.extra.get(key):
            named[label] = (statistics.median(rec.extra[key]), "ratio")
    return values, named


def per_layer(tracer, lb, rounds, replay, rec, hits0):
    """Per-layer figures of the traced rounds.

    ``<layer>.{calls,self_s}`` and the counters cover the timed rounds only;
    ``vfield.load_model.s`` and ``poly.compile.{calls,s}`` are the traced
    set-up, the work that ``setup_s`` measures.
    """
    values = {}
    timed = tracer.layer_times(timed=True)
    for name, (calls, self_s, _) in timed.items():
        counts = tracer.counts[tracer.layer(name)]
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.rows"] = counts["rows"]
        values[f"{name}.accepted"] = counts["accepted"]
        if counts["rows"]:
            values[f"{name}.accept_ratio"] = counts["accepted"] / counts["rows"]
        if calls:
            values[f"{name}.feasible_ratio"] = counts["feasible"] / calls
            values[f"{name}.converged_ratio"] = counts["converged"] / calls
        if counts["probes"]:
            values["metric.cc.bisect_feasible_ratio"] = counts["probes_feasible"] / counts["probes"]
    setup = tracer.layer_times(timed=False)
    values["vfield.load_model.s"] = setup["vfield.load_model"][2]
    values["poly.compile.calls"], _, values["poly.compile.s"] = setup["poly.compile"]
    info = lb.words.pi_coefficient.cache_info()
    hits, misses = info.hits - hits0.hits, info.misses - hits0.misses
    if hits + misses:
        values["words.pi_coefficient.hit_ratio"] = hits / (hits + misses)
    traced = sum(r["wall_s"] for r in rounds)
    values["trace.wall_s"] = traced
    values["trace.unattributed_s"] = traced - sum(self_s for _, self_s, _ in timed.values())
    values["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in rounds)
        / statistics.median(r["wall_s"] for r in replay) - 1.0)
    for key, label in (("cc_ratio", "metric.cc.upper_ratio_p50"),
                       ("fl_ratio", "metric.fl.upper_ratio_p50")):
        if rec.extra.get(key):
            values[label] = statistics.median(rec.extra[key])
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed; omitted, the acceptance seeds are used")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cap = cap_threads()
    import spans  # imports numpy, after the thread caps
    from workloads import WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    try:
        spec = load_spec()
        load_before = os.getloadavg()
        run_t0, run_c0 = time.perf_counter(), time.process_time()
        tracer = spans.Tracer() if args.trace else None
        setup_times = []
        # a traced run sets up in a row and traces the last set-up; an
        # untraced one spreads its set-ups over the run (see spare_setup)
        for rep in range(SETUP_REPS if tracer else 1):
            last = rep == SETUP_REPS - 1
            seconds, lb, state = set_up(workload, tracer if last else None)
            setup_times.append(seconds)
    except Unrunnable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    ref = None
    if tracer is None:
        from refclock import RefClock

        ref = RefClock()
        spacing = args.seconds / SETUP_REPS
        due = [time.perf_counter() + spacing]

        def between():
            if len(setup_times) < SETUP_REPS and time.perf_counter() >= due[0]:
                setup_times.append(spare_setup(workload, ref))
                due[0] += spacing

        rec = Recorder(between=between, ref=ref)
        with ref:
            rounds = run_rounds(workload, lb, state, args.seed, rec, seconds=args.seconds)
        while len(setup_times) < SETUP_REPS:
            setup_times.append(spare_setup(workload))
        replay = []
    else:
        rec = Recorder(tracer)
        hits0 = lb.words.pi_coefficient.cache_info()
        tracer.reset_counts()
        tracer.op = 0  # -1 marked the set-up; from here on, the current op
        count = max(1, round(args.seconds / (2 * workload.nominal_round_s)))
        rounds = run_rounds(workload, lb, state, args.seed, rec, count=count)
        tracer.restore()
        replay_rec = Recorder()
        replay = run_rounds(workload, lb, state, args.seed, replay_rec, count=count)
    ops = rec.ops
    attempted, failed = sum(ops.checked), sum(ops.failed)
    named = {}
    if tracer is None:
        keys = spec["end_to_end"]
        computed, named = end_to_end(workload, setup_times, rounds, ops, rec, ref)
    else:
        keys = spec["per_layer"]
        computed = per_layer(tracer, lb, rounds, replay, rec, hits0)
    # a layer the workload never enters reads 0; an end-to-end metric is always there
    metrics = {m["name"]: {"value": float(computed.get(m["name"], 0.0) if tracer
                                          else computed[m["name"]]), "unit": m["unit"]}
               for m in keys}
    run_wall, run_cpu = time.perf_counter() - run_t0, time.process_time() - run_c0
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "perf_counter_s": run_wall, "process_time_s": run_cpu,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(), **environment(),
    }
    notes = ops.notes
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    kinds = {}
    for i, seconds in enumerate(ops.seconds):
        kinds.setdefault(ops.kind_name(i), []).append(seconds)
    by_kind = {k: {"ops": len(v), "total_s": sum(v), "p50_s": statistics.median(v)}
               for k, v in kinds.items()}
    report = {"env": env, "result": result, "named": named, "rounds": rounds, "ops": by_kind,
              "replay_rounds": replay, "setup_s": setup_times, "failures": notes}
    if ref is not None:
        report["ref_passes"] = {"start_s": [t - run_t0 for t in ref.starts],
                                "pass_s": ref.pass_seconds()}
    if tracer is not None:
        report["layers"] = computed
        tracer.save(stem + "-spans.npz")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} threads {cap}")
    print("env " + json.dumps(env, default=str))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in named.items():
        print(f"metric {name} {value:.6g} {unit}")
    for n in notes[:20]:
        print(f"FAILED {n}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
