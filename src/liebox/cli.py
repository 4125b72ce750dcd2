"""Command-line interface: every experiment behind one binary.

Reports are JSON by default (CSV where tabular), always embedding the
resolved configuration and the package version so a report is reproducible
from its own header.  Exit status: 0 when all requested checks pass, 1 when
a check fails, 2 on usage errors (bad or out-of-range flags, unknown model,
bad files, a centre where no frame spans, a ball sample that accepts no
point), each one ``error:`` line.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, acceptance
from .approxexp import CommutatorFrame, box_norm, jacobian_e, e_map
from .ballbox import (EmptySampleError, HormanderError, doubling_ratio, inclusion_check,
                      poincare_suite, select_maximal)
from .flows import DomainEscapeError
from .linalg import lambda_sweep, min_norm_solve
from .metric import cc_distance, fl_distance, rho_distance
from .ncpoly import NCPoly, is_trivial
from .poly import Poly
from .vfield import MODEL_BUILDERS, load_model
from .words import MAX_ORDER, check_word, pi_table


class UsageError(Exception):
    pass


def _require(ok, message):
    """A usage error with ``message`` unless ``ok`` (NaN compares false)."""
    if not ok:
        raise UsageError(message)


# Ranges of numeric flags: (parse, holds, what the value must be).
FINITE = (float, math.isfinite, "a finite number")
POSITIVE = (float, lambda v: 0 < v < math.inf, "a positive finite number")
UNIT = (float, lambda v: 0 < v <= 1, "in (0, 1]")
COUNT = (int, lambda v: v >= 1, "an integer of at least 1")
SEED = (int, lambda v: v >= 0, "a nonnegative integer")


def _number(sp, flag, rng, **kw):
    """Add a numeric flag whose value outside ``rng`` is a usage error naming the flag."""
    kind, holds, what = rng

    def parse(text):
        try:
            if holds(value := kind(text)):
                return value
        except ValueError:
            pass
        raise UsageError(f"{flag} must be {what}, got {text!r}")

    sp.add_argument(flag, type=parse, **kw)


class _Parser(argparse.ArgumentParser):
    """Argparse's own errors as one ``error: --flag <reason>`` line, exit 2."""

    def error(self, message):
        message = re.sub(r"^argument (\S+): ", r"\1 ", message)
        self.exit(2, f"error: {message}\n")


def _parse_point(text, n, flag):
    """A point of R^n given as comma-separated numbers."""
    try:
        x = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated numbers, got {text!r}")
    if len(x) != n:
        raise UsageError(f"{flag} needs {n} values for this model, got {len(x)}")
    _require(all(map(math.isfinite, x)), f"{flag} must be finite, got {text!r}")
    return x


def _parse_ints(text, flag):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated integers, got {text!r}")


def _parse_word(text, system):
    """A word of the model's letters, up to its step: '12' or '1,2'."""
    letters = text.split(",") if "," in text else text
    try:
        w = check_word(map(int, letters), alphabet=system.m)
    except ValueError:
        raise UsageError(f"--word must be letters 1..{system.m}, got {text!r}")
    if len(w) > system.s:
        raise UsageError(f"--word {text!r} is longer than the step {system.s}")
    return w


def _parse_frame(text, frame):
    try:
        return frame.check_index_tuple(_parse_ints(text, "--frame"))
    except ValueError as exc:
        raise UsageError(f"--frame: {exc}")


def _load_system(name):
    try:
        return load_model(name)
    except OSError:
        raise UsageError(
            f"unknown model {name!r}: not a registry name "
            f"({', '.join(sorted(MODEL_BUILDERS))}) nor a readable file"
        )
    # json.JSONDecodeError is a ValueError
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed model file {name!r}: {type(exc).__name__}: {exc}")


def _report(args, command, payload):
    rep = {
        "version": __version__,
        "command": command,
        "config": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func",) and not k.startswith("_")
        },
        **payload,
    }
    if not args.no_timestamp:
        rep["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return rep


def _emit(args, rep, csv_rows=None, csv_header=None):
    """Write the report: JSON, or CSV when requested and rows are tabular."""
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(_finite(rep), indent=2, sort_keys=True, allow_nan=False,
                          default=_json_default)
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite(obj):
    """``obj`` with every non-finite float, at any depth, as "inf", "-inf" or
    "nan", so that the report is strict JSON."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _finite(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return str(float(obj))
    return obj


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return str(obj)  # Fraction and anything else


# -- subcommand handlers --------------------------------------------------------


def cmd_pi_table(args):
    table = pi_table(args.order)
    rows = table.rows()
    rep = _report(args, "pi-table", {
        "order": args.order,
        "nonzero": sum(1 for _, v in rows if v),
        "rows": [{"permutation": p, "coefficient": v} for p, v in rows],
    })
    _emit(args, rep, csv_rows=rows, csv_header=("permutation", "coefficient"))
    return 0


def cmd_identities(args):
    instances = acceptance.identity_instances(args.family, args.max_degree, args.alphabet)
    _require(instances, f"--family {args.family} has no instance at --max-degree "
                        f"{args.max_degree} and --alphabet {args.alphabet}")
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(acceptance.run_identity, instances, chunksize=64))
    else:
        rows = [acceptance.run_identity(it) for it in instances]
    failures = [r for r in rows if not r[2]]
    rep = _report(args, "identities", {
        "family": args.family,
        "instances": len(rows),
        "failures": len(failures),
        "rows": [
            {"lhs": a, "rhs": b, "zero": ok, "residual_terms": nt}
            for a, b, ok, nt in rows
        ],
    })
    _emit(args, rep,
          csv_rows=rows, csv_header=("instance", "arg", "zero", "residual_terms"))
    return 0 if not failures else 1


def cmd_witness(args):
    try:
        with open(args.poly) as fh:
            P = NCPoly.from_json(json.load(fh))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"cannot read polynomial file: {exc}")
    flag, cert = is_trivial(P)
    payload = {"trivial": flag}
    if cert is not None:
        payload["certificate"] = {
            "sigma": list(cert.sigma),
            "value": str(cert.value),
            "collapsed_word": list(cert.collapsed_word),
            "source_signature": list(cert.source_signature),
        }
    rep = _report(args, "witness", payload)
    _emit(args, rep)
    return 0


def cmd_bracket(args):
    system = _load_system(args.model)
    w = _parse_word(args.word, system)
    fw = system.commutator_coeffs(w)
    payload = {
        "word": list(w),
        "coefficients": [p.to_json_terms() for p in fw.components],
    }
    if args.at:
        x = _parse_point(args.at, system.n, "--at")
        payload["at"] = list(x)
        payload["value"] = system.batch_fn(w)(np.asarray(x)).tolist()
    rep = _report(args, "bracket", payload)
    _emit(args, rep)
    return 0


def cmd_flow(args):
    system = _load_system(args.model)
    try:
        system.field(args.field)
    except ValueError as exc:
        raise UsageError(f"--field: {exc}")
    x = _parse_point(args.at, system.n, "--at")
    try:
        y = system.flow(args.field, args.t, x)
    except DomainEscapeError as exc:
        raise UsageError(f"--t {args.t}: {exc}")
    rep = _report(args, "flow", {"point": [float(v) for v in y]})
    _emit(args, rep)
    return 0


def cmd_limit_check(args):
    system = _load_system(args.model)
    w = _parse_word(args.word, system)
    x = _parse_point(args.at, system.n, "--at")
    _require(-1 <= args.psi_var < system.n,
             f"--psi-var must be in -1..{system.n - 1}, got {args.psi_var}")
    psi = Poly.var(system.n, args.psi_var % system.n)
    ts = list(np.geomspace(args.t_min, args.t_max, args.t_count))
    rep_data = system.bracket_limit_order(w, psi, x, ts)
    converged = bool(
        abs(rep_data["quotients"][-1] - rep_data["exact"])
        <= args.tol * max(1.0, abs(rep_data["exact"]))
    )
    rep = _report(args, "limit-check", {
        "exact": rep_data["exact"],
        "ts": rep_data["ts"],
        "quotients": rep_data["quotients"],
        "errors": rep_data["errors"],
        "slope": rep_data["slope"],
        "converged": converged,
    })
    _emit(args, rep)
    return 0 if converged else 1


def cmd_emap(args):
    system = _load_system(args.model)
    frame = CommutatorFrame(system)
    I = _parse_frame(args.frame, frame)
    x = _parse_point(args.center, system.n, "--center")
    h = _parse_point(args.h, system.n, "--h")
    point = e_map(frame, I, x, args.radius, h)
    J, det = jacobian_e(frame, I, x, args.radius, h)
    degrees = [frame.degree(i) for i in I]
    rep = _report(args, "emap", {
        "point": [float(v) for v in point],
        "jacobian": J.tolist(),
        "det": det,
        "box_norm": float(box_norm(h, degrees)) if any(h) else 0.0,
    })
    _emit(args, rep)
    return 0


def cmd_ballbox(args):
    system = _load_system(args.model)
    frame = CommutatorFrame(system)
    x = _parse_point(args.center, system.n, "--center")
    triple = select_maximal(frame, x, args.radius)
    payload = {
        "maximal_frame": list(triple.I),
        "words": ["".join(map(str, frame.word(i))) for i in triple.I],
        "score": triple.score,
        "candidates": triple.candidates,
    }
    if args.check_inclusion:
        rep_inc = inclusion_check(
            system, frame, triple.I, x, args.radius, eps=args.eps,
            c=args.c, samples=args.samples, seed=args.seed,
        )
        payload["inclusion"] = rep_inc
        ok = rep_inc["solved_fraction"] == 1.0 and rep_inc["collisions"] == 0
    else:
        ok = True
    rep = _report(args, "ballbox", payload)
    _emit(args, rep)
    return 0 if ok else 1


def cmd_distance(args):
    system = _load_system(args.model)
    x = _parse_point(getattr(args, "from"), system.n, "--from")
    y = _parse_point(args.to, system.n, "--to")
    est = fl_distance(system, x, y, max_segments=args.segments, seed=args.seed)
    if args.kind != "fl":
        est = cc_distance(
            system, x, y, segments=args.segments, seed=args.seed,
            fl_cert=est.certificate if est.ok() else None,
        )
    if args.kind == "rho":
        est = rho_distance(
            system, CommutatorFrame(system), x, y, segments=args.segments,
            seed=args.seed,
            cc_cert=est.certificate if est.ok() else None,
            cc_value=est.value if est.ok() else None,
        )
    rep = _report(args, "distance", {
        "kind": est.kind,
        "value": est.value,
        "status": est.status,
        "certificate": est.certificate,
        "feasibility_trace": [[r, bool(f)] for r, f in est.trace],
    })
    _emit(args, rep)
    return 0 if est.ok() else 1


def cmd_doubling(args):
    system = _load_system(args.model)
    frame = CommutatorFrame(system)
    x = _parse_point(args.center, system.n, "--center")
    rep_d = doubling_ratio(
        system, frame, x, args.radius, N=args.n, seed=args.seed
    )
    rep = _report(args, "doubling", rep_d)
    _emit(args, rep)
    return 0


def cmd_poincare(args):
    system = _load_system(args.model)
    frame = CommutatorFrame(system)
    x = _parse_point(args.center, system.n, "--center")
    suite = acceptance.poincare_suite_functions()
    if system.n != 3:
        raise UsageError("built-in test functions are for 3-dimensional models")
    _require(-1 <= args.f < len(suite), f"--f must be in -1..{len(suite) - 1}, got {args.f}")
    chosen = suite if args.f < 0 else [suite[args.f]]
    reports = poincare_suite(
        system, frame, chosen, x, args.radius, C_enlarge=args.enlarge,
        N=args.n, seed=args.seed,
    )
    rows = []
    worst = 0.0
    for idx, rep_p in enumerate(reports):
        rows.append({"f_index": idx if args.f < 0 else args.f,
                     "lhs": rep_p["lhs"], "rhs": rep_p["rhs"],
                     "ratio": rep_p["ratio"]})
        worst = max(worst, rep_p["ratio"])
    rep = _report(args, "poincare", {
        "rows": rows, "empirical_constant": worst,
        "nonfinite": reports[0]["nonfinite"],
    })
    _emit(args, rep)
    return 0


def _read_csv_matrix(path):
    try:
        with open(path) as fh:
            rows = [
                [float(v) for v in line] for line in csv.reader(fh) if line
            ]
        M = np.array(rows)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # a non-numeric cell or ragged rows
        raise UsageError(f"malformed matrix file {path}: {exc}")
    _require(M.size > 0, f"malformed matrix file {path}: no rows")
    _require(np.isfinite(M).all(), f"malformed matrix file {path}: non-finite entry")
    return M


def cmd_pinv(args):
    A = _read_csv_matrix(args.matrix)
    b = _read_csv_matrix(args.rhs).reshape(-1)
    _require(b.size == A.shape[0],
             f"--rhs has {b.size} entries for a matrix of {A.shape[0]} rows")
    x, rank, residual = min_norm_solve(A, b)
    payload = {
        "solution": x.tolist(),
        "rank": rank,
        "residual": residual,
    }
    csv_rows = None
    if args.lambda_sweep:
        lams = np.geomspace(args.lam_min, args.lam_max, args.lam_count)
        rows = lambda_sweep(A, b, lams)
        payload["sweep"] = [{"lambda": l, "error": e} for l, e in rows]
        csv_rows = rows
    rep = _report(args, "pinv", payload)
    _emit(args, rep, csv_rows=csv_rows, csv_header=("lambda", "error"))
    return 0


def cmd_suite(args):
    numbers = set(_parse_ints(args.criteria, "--criteria")) if args.criteria else None
    results = acceptance.run_criteria(numbers=numbers, emit=print)
    rep = _report(args, "suite", {
        "results": [
            {"criterion": r.number, "name": r.name, "passed": r.passed,
             "elapsed_s": round(r.elapsed, 2), "cpu_s": round(r.cpu_s, 2),
             "load_before": r.load_before, "load_after": r.load_after,
             "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    })
    if args.out:
        _emit(args, rep)
    return 0 if all(r.passed for r in results) else 1


# -- parser ------------------------------------------------------------------------


def build_parser():
    p = _Parser(
        prog="liebox",
        description="Exact commutator identities and ball-box experiments "
        "on polynomial vector-field models.",
    )
    p.add_argument("--version", action="version", version=f"liebox {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, func, tabular=False, seeded=False):
        sp.set_defaults(func=func)
        if tabular:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, help="write report to this path")
        sp.add_argument("--no-timestamp", action="store_true")
        if seeded:
            _number(sp, "--seed", SEED, default=0)

    sp = sub.add_parser("pi-table", help="coefficient table for one order")
    _number(sp, "--order", (int, lambda v: 1 <= v <= MAX_ORDER, f"in 1..{MAX_ORDER}"),
            required=True)
    common(sp, cmd_pi_table, tabular=True)

    sp = sub.add_parser("identities", help="sweep an identity family")
    sp.add_argument("--family", required=True,
                    choices=("otto", "j2", "f", "baker", "giochetto"))
    _number(sp, "--max-degree", (int, lambda v: v <= MAX_ORDER, f"at most {MAX_ORDER}"),
            default=5)
    sp.add_argument("--alphabet", type=int, default=3)
    _number(sp, "--workers", COUNT, default=1)
    common(sp, cmd_identities, tabular=True)

    sp = sub.add_parser("witness", help="noncommutative triviality test")
    sp.add_argument("--poly", required=True, help="polynomial JSON file")
    common(sp, cmd_witness)

    sp = sub.add_parser("bracket", help="exact commutator coefficients")
    sp.add_argument("--model", required=True)
    sp.add_argument("--word", required=True)
    sp.add_argument("--at", default=None)
    common(sp, cmd_bracket)

    sp = sub.add_parser("flow", help="flow of one generator")
    sp.add_argument("--model", required=True)
    sp.add_argument("--field", type=int, required=True)
    _number(sp, "--t", FINITE, required=True)
    sp.add_argument("--at", required=True)
    common(sp, cmd_flow)

    sp = sub.add_parser("limit-check", help="commutator quotient convergence")
    sp.add_argument("--model", required=True)
    sp.add_argument("--word", required=True)
    sp.add_argument("--at", required=True)
    sp.add_argument("--psi-var", type=int, default=-1,
                    help="coordinate index of the test function (-1: the last)")
    _number(sp, "--t-min", POSITIVE, default=1e-3)
    _number(sp, "--t-max", POSITIVE, default=1e-1)
    _number(sp, "--t-count", COUNT, default=7)
    _number(sp, "--tol", POSITIVE, default=1e-6)
    common(sp, cmd_limit_check)

    sp = sub.add_parser("emap", help="almost-exponential chart point")
    sp.add_argument("--model", required=True)
    sp.add_argument("--frame", required=True, help="comma-separated indices")
    sp.add_argument("--center", required=True)
    _number(sp, "--radius", UNIT, required=True)
    sp.add_argument("--h", required=True)
    common(sp, cmd_emap)

    sp = sub.add_parser("ballbox", help="maximal frame and inclusion check")
    sp.add_argument("--model", required=True)
    sp.add_argument("--center", required=True)
    _number(sp, "--radius", POSITIVE, required=True)
    sp.add_argument("--check-inclusion", action="store_true")
    _number(sp, "--eps", UNIT, default=0.3)
    _number(sp, "--c", POSITIVE, default=0.05)
    _number(sp, "--samples", COUNT, default=200)
    common(sp, cmd_ballbox, seeded=True)

    sp = sub.add_parser("distance", help="path-distance upper bound")
    sp.add_argument("--kind", choices=("fl", "cc", "rho"), required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--from", required=True)
    sp.add_argument("--to", required=True)
    _number(sp, "--segments", COUNT, default=8)
    common(sp, cmd_distance, seeded=True)

    sp = sub.add_parser("doubling", help="Monte Carlo ball-volume doubling")
    sp.add_argument("--model", required=True)
    sp.add_argument("--center", required=True)
    _number(sp, "--radius", POSITIVE, required=True)
    _number(sp, "--n", COUNT, default=100_000)
    common(sp, cmd_doubling, seeded=True)

    sp = sub.add_parser("poincare", help="mean-oscillation inequality harness")
    sp.add_argument("--model", required=True)
    sp.add_argument("--center", required=True)
    _number(sp, "--radius", POSITIVE, required=True)
    _number(sp, "--enlarge", POSITIVE, default=2.0)
    _number(sp, "--n", COUNT, default=100_000)
    sp.add_argument("--f", type=int, default=-1,
                    help="index into the built-in test suite (-1: all)")
    common(sp, cmd_poincare, seeded=True)

    sp = sub.add_parser("pinv", help="min-norm solve and regularization sweep")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--rhs", required=True)
    sp.add_argument("--lambda-sweep", action="store_true")
    _number(sp, "--lam-min", POSITIVE, default=1e-6)
    _number(sp, "--lam-max", POSITIVE, default=1e-2)
    _number(sp, "--lam-count", COUNT, default=9)
    common(sp, cmd_pinv, tabular=True)

    sp = sub.add_parser("suite", help="run the acceptance criteria")
    sp.add_argument("--criteria", default=None,
                    help="comma-separated criterion numbers (default all)")
    common(sp, cmd_suite)

    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, HormanderError, EmptySampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
