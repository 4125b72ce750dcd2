"""One-shot timing of the 13 acceptance criteria, outside the gated workloads.

    python3 perfbench/criteria.py

Runs every criterion once through ``acceptance.run_criterion`` (so budgets
apply exactly as in the test suite) and records, per criterion, pass/fail,
wall time, CPU time and the load average before and after, next to the same
run-environment record as the benchmark.  A failing criterion is recorded as
failing, never skipped.  The report goes to
``perfbench/out/criteria-<commit>.json``; the exit code is 0 even when a
criterion fails, since the record itself is the product.
"""

import json
import os
import sys
import time

import run


def main():
    run.cap_threads()
    try:
        run.import_liebox()
    except run.Unrunnable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from liebox import acceptance

    rows = []
    t_all, c_all = time.perf_counter(), time.process_time()
    for number, name, fn, budget in acceptance.CRITERIA:
        load_before = os.getloadavg()
        t0, c0 = time.perf_counter(), time.process_time()
        res = acceptance.run_criterion(number, name, fn, budget)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rows.append({
            "number": number, "name": name, "passed": bool(res.passed),
            "budget_s": budget, "wall_s": wall, "cpu_s": cpu,
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
            "details": res.details,
        })
        print(f"criterion {number:02d} {name}: {'PASS' if res.passed else 'FAIL'} "
              f"wall {wall:.2f}s cpu {cpu:.2f}s load {load_before[0]:.2f}", flush=True)
    env = {"perf_counter_s": time.perf_counter() - t_all,
           "process_time_s": time.process_time() - c_all, **run.environment()}
    report = {"env": env, "criteria": rows}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    path = os.path.join(run.OUT_DIR, f"criteria-{env['git_commit'][:12]}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
