import csv
import io
import json

import numpy as np
import pytest

from liebox.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pi_table_csv(capsys):
    code, out, _ = run_cli(capsys, "pi-table", "--order", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["permutation", "coefficient"]
    body = rows[1:]
    assert len(body) == 6
    assert sum(1 for _, v in body if v != "0") == 4


def test_pi_table_json(capsys):
    code, out, _ = run_cli(capsys, "pi-table", "--order", "2", "--no-timestamp")
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "pi-table"
    assert rep["nonzero"] == 2
    assert rep["version"]


def test_identities_baker(capsys):
    code, out, _ = run_cli(capsys, "identities", "--family", "baker")
    assert code == 0
    rep = json.loads(out)
    assert rep["failures"] == 0


def test_identities_j2_small(capsys):
    code, out, _ = run_cli(
        capsys, "identities", "--family", "j2",
        "--max-degree", "4", "--alphabet", "2",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["instances"] == 4 + 8 + 16
    assert rep["failures"] == 0


def test_identities_workers_match(capsys):
    code1, out1, _ = run_cli(
        capsys, "identities", "--family", "otto", "--max-degree", "4",
        "--alphabet", "2", "--no-timestamp",
    )
    code2, out2, _ = run_cli(
        capsys, "identities", "--family", "otto", "--max-degree", "4",
        "--alphabet", "2", "--no-timestamp", "--workers", "2",
    )
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["rows"] == b["rows"]


@pytest.mark.parametrize("argv, instances", [
    (("--family", "f", "--max-degree", "4"), 11),
    (("--family", "giochetto", "--max-degree", "4", "--alphabet", "2"), 24),
])
def test_identities_f_and_giochetto(capsys, argv, instances):
    code, out, _ = run_cli(capsys, "identities", *argv)
    assert code == 0
    rep = json.loads(out)
    assert (rep["instances"], rep["failures"]) == (instances, 0)


@pytest.mark.parametrize("family, bound", [
    ("otto", ("--alphabet", "0")),
    ("j2", ("--alphabet", "-2")),
    ("giochetto", ("--max-degree", "0")),
    ("f", ("--max-degree", "-3")),
    ("otto", ("--max-degree", "0")),
])
def test_identities_without_instances_exit_2(capsys, family, bound):
    code, out, err = run_cli(capsys, "identities", "--family", family, *bound)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --family {family} has no instance") and err.count("\n") == 1


def test_witness_nontrivial(tmp_path, capsys):
    poly = {
        "degree": 2,
        "alphabet": 2,
        "terms": [
            {"word": [1, 2], "coeff": "1"},
            {"word": [2, 1], "coeff": "-1"},
        ],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poly))
    code, out, _ = run_cli(capsys, "witness", "--poly", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["trivial"] is False
    assert rep["certificate"]["sigma"] == [1, 2]
    assert rep["certificate"]["value"] == "1"


def test_witness_bad_file(tmp_path, capsys):
    for name, text in (
        ("syntax.json", "{not json"),
        ("list.json", "[]"),
        ("terms.json", json.dumps({"alphabet": 2, "terms": 5})),
        ("coeff.json", json.dumps({"alphabet": 2, "terms": [{"word": [1, 2], "coeff": None}]})),
        ("letters.json", json.dumps({"degree": 2, "alphabet": 2, "terms": [
            {"word": [1.7, 2], "coeff": "1"}, {"word": [True, 2], "coeff": "1"}]})),
        ("float.json", json.dumps({"alphabet": 2, "terms": [{"word": [1, 2], "coeff": 0.1}]})),
        ("bool.json", json.dumps({"alphabet": 2, "terms": [{"word": [1, 2], "coeff": True}]})),
        ("alphabet.json", json.dumps({"alphabet": 2.7, "terms": [{"word": [1, 2], "coeff": "1"}]})),
        ("zeroden.json", json.dumps({"alphabet": 2, "terms": [{"word": [1, 2], "coeff": "3/0"}]})),
        ("negative.json", json.dumps({"alphabet": -3, "terms": []})),
    ):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "witness", "--poly", str(path))
        assert code == 2 and out == "", name
        assert err.startswith("error: cannot read polynomial file") and err.count("\n") == 1


def test_bracket_value(capsys):
    code, out, _ = run_cli(
        capsys, "bracket", "--model", "heisenberg", "--word", "12",
        "--at", "0,0,0",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == [0.0, 0.0, 1.0]


def test_flow_point(capsys):
    code, out, _ = run_cli(
        capsys, "flow", "--model", "heisenberg", "--field", "1",
        "--t", "0.5", "--at", "0,0,0",
    )
    assert code == 0
    rep = json.loads(out)
    assert np.allclose(rep["point"], [0.5, 0.0, 0.0])


def test_limit_check(capsys):
    code, out, _ = run_cli(
        capsys, "limit-check", "--model", "heisenberg", "--word", "12",
        "--at", "0,0,0",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["converged"] is True
    assert abs(rep["exact"] - 1.0) < 1e-12


def test_emap(capsys):
    code, out, _ = run_cli(
        capsys, "emap", "--model", "heisenberg", "--frame", "1,2,4",
        "--center", "0,0,0", "--radius", "0.5", "--h", "0,0,0.3",
    )
    assert code == 0
    rep = json.loads(out)
    assert np.allclose(rep["point"], [0.0, 0.0, 0.3 * 0.25], atol=1e-8)
    assert abs(rep["det"] - 0.5**4) < 1e-4
    assert abs(rep["box_norm"] - 0.3**0.5) < 1e-12


def test_ballbox_inclusion(capsys):
    code, out, _ = run_cli(
        capsys, "ballbox", "--model", "heisenberg", "--center", "0,0,0",
        "--radius", "0.5", "--check-inclusion",
        "--samples", "20",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["maximal_frame"] == [1, 2, 4]
    assert rep["candidates"] == 1
    assert rep["inclusion"]["solved_fraction"] == 1.0


def test_distance_fl(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--kind", "fl", "--model", "heisenberg",
        "--from", "0,0,0", "--to", "0.3,0,0",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "ok"
    assert abs(rep["value"] - 0.3) < 1e-4
    assert rep["certificate"]["form"] == "legs"
    assert rep["feasibility_trace"]


def test_distance_cc_and_rho(capsys):
    value = {}
    for kind in ("fl", "cc", "rho"):
        code, out, _ = run_cli(
            capsys, "distance", "--kind", kind, "--model", "heisenberg",
            "--from", "0,0,0", "--to", "0.05,0.02,0.01", "--seed", "0",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == kind and rep["status"] == "ok"
        value[kind] = rep["value"]
    assert rep["certificate"]["form"] == "controls"  # rho's
    assert value["rho"] <= value["cc"] <= value["fl"] + 1e-6


def test_doubling_small(capsys):
    code, out, _ = run_cli(
        capsys, "doubling", "--model", "flat2", "--center", "0,0",
        "--radius", "0.25", "--n", "20000", "--seed", "1",
    )
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["ratio"] - 4.0) < 0.5


def test_poincare_single_function(capsys):
    code, out, _ = run_cli(
        capsys, "poincare", "--model", "heisenberg", "--center", "0,0,0",
        "--radius", "0.3", "--n", "30000", "--f", "0",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["rows"][0]["rhs"] > 0
    assert rep["nonfinite"] == 0


def test_pinv_sweep(tmp_path, capsys):
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    b = np.array([[1.0], [0.0]])
    amat = tmp_path / "A.csv"
    rhs = tmp_path / "b.csv"
    np.savetxt(amat, A, delimiter=",")
    np.savetxt(rhs, b, delimiter=",")
    code, out, _ = run_cli(
        capsys, "pinv", "--matrix", str(amat), "--rhs", str(rhs),
        "--lambda-sweep",
    )
    assert code == 0
    rep = json.loads(out)
    assert np.allclose(rep["solution"], [0.5, 0.5], atol=1e-8)
    errs = [row["error"] for row in rep["sweep"]]
    assert errs == sorted(errs)  # error grows with lambda


def test_unknown_model_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "flow", "--model", "nosuch", "--field", "1", "--t", "0.1",
        "--at", "0,0,0",
    )
    assert code == 2
    assert "unknown model" in err


def test_malformed_model_file_exits_2(tmp_path, capsys):
    bad_count = {"name": "bad", "n": 2, "m": 2, "s": 1, "fields": [
        [[{"exps": [0, 0], "coeff": "1"}], []],
    ]}
    bad_exponent = {"name": "bad", "n": 2, "m": 1, "s": 1, "fields": [
        [[{"exps": [1.5, 0], "coeff": "1"}], []],
    ]}
    float_coeff = {"name": "bad", "n": 2, "m": 1, "s": 1, "fields": [
        [[{"exps": [0, 0], "coeff": 0.1}], []],
    ]}
    bool_coeff = {"name": "bad", "n": 2, "m": 1, "s": 1, "fields": [
        [[{"exps": [0, 0], "coeff": True}], []],
    ]}
    field = [[{"exps": [0, 0], "coeff": "1"}], []]
    float_counts = {"name": "bad", "n": 2, "m": 1.9, "s": 1.5, "fields": [field]}
    bool_step = {"name": "bad", "n": 2, "m": 1, "s": True, "fields": [field]}
    zero_step = {"name": "bad", "n": 2, "m": 1, "s": 0, "fields": [field]}
    zero_denominator = {"name": "bad", "n": 2, "m": 1, "s": 1, "fields": [
        [[{"exps": [0, 0], "coeff": "3/0"}], []],
    ]}
    for name, text in (("count.json", json.dumps(bad_count)),
                       ("exponent.json", json.dumps(bad_exponent)),
                       ("float.json", json.dumps(float_coeff)),
                       ("bool.json", json.dumps(bool_coeff)),
                       ("counts.json", json.dumps(float_counts)),
                       ("boolstep.json", json.dumps(bool_step)),
                       ("zerostep.json", json.dumps(zero_step)),
                       ("zeroden.json", json.dumps(zero_denominator)),
                       ("nokey.json", json.dumps({"n": 2})),
                       ("type.json", json.dumps({"n": 2, "m": 1, "s": 1, "fields": 7})),
                       ("syntax.json", "{not json")):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(
            capsys, "flow", "--model", str(path), "--field", "1", "--t", "0.1",
            "--at", "0,0",
        )
        assert code == 2 and out == "", name
        assert err.startswith("error: malformed model file")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("ballbox", "--radius", "0.5"),
    ("doubling", "--radius", "0.25", "--n", "100"),
    ("poincare", "--radius", "0.25", "--n", "100"),
])
def test_no_spanning_frame_exits_2(tmp_path, capsys, argv):
    # X1 = d/dx alone spans no frame of R^3
    line = {"name": "line3", "n": 3, "m": 1, "s": 1,
            "fields": [[[{"exps": [0, 0, 0], "coeff": "1"}], [], []]]}
    path = tmp_path / "line3.json"
    path.write_text(json.dumps(line))
    code, out, err = run_cli(capsys, argv[0], "--model", str(path),
                             "--center", "0,0,0", *argv[1:])
    assert code == 2 and out == ""
    assert err == "error: all frame determinants vanish at (0.0, 0.0, 0.0)\n"


@pytest.mark.parametrize("argv, message", [
    (("doubling", "--center", "9,9,9"), "zero inner-ball count"),
    (("poincare", "--center", "9.5,9.5,9.5"), "empty ball sample"),
])
def test_empty_ball_sample_exits_2(capsys, argv, message):
    # far from the origin each ball is a thin sheared slab in its own box: at
    # 10 rows per box (acceptance about 0.4 %) no point lands in either ball
    code, out, err = run_cli(capsys, argv[0], "--model", "heisenberg", *argv[1:],
                             "--radius", "0.5", "--n", "20")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("flow", "--model", "heisenberg", "--field", "1", "--t", "0.1", "--at", "0,0,0",
      "--format", "csv"), "unrecognized arguments: --format csv"),
    (("suite", "--criteria", "1", "--seed", "1"), "unrecognized arguments: --seed 1"),
    (("distance", "--kind", "nope", "--model", "heisenberg", "--from", "0,0,0",
      "--to", "1,0,0"), "--kind invalid choice"),
    (("flow", "--model", "heisenberg", "--field", "x", "--t", "0.1", "--at", "0,0,0"),
     "--field invalid int value"),
])
def test_argparse_error_is_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith(f"error: {message}") and out.err.count("\n") == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--kind", "nope", "--model", "heisenberg",
              "--from", "0,0,0", "--to", "1,0,0"])
    assert exc.value.code == 2


def test_report_determinism(capsys):
    argv = ["identities", "--family", "j2", "--max-degree", "3",
            "--alphabet", "2", "--no-timestamp"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_suite_selected_criteria(capsys):
    code, out, _ = run_cli(capsys, "suite", "--criteria", "1,4")
    assert code == 0
    assert "ACCEPTANCE 01" in out
    assert "ACCEPTANCE 04" in out


def test_suite_reports_cpu_time_and_load(tmp_path, capsys):
    path = tmp_path / "suite.json"
    code, out, _ = run_cli(capsys, "suite", "--criteria", "1", "--out", str(path))
    assert code == 0
    assert "cpu " in out and "load " in out
    (res,) = json.loads(path.read_text())["results"]
    assert res["cpu_s"] >= 0 and res["elapsed_s"] >= 0
    assert {"load_before", "load_after"} <= set(res)


def test_pinv_non_numeric_cell_exits_2(tmp_path, capsys):
    amat = tmp_path / "bad.csv"
    amat.write_text("a,b\n1,2\n")
    rhs = tmp_path / "b.csv"
    rhs.write_text("1\n0\n")
    code, out, err = run_cli(capsys, "pinv", "--matrix", str(amat), "--rhs", str(rhs))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed matrix file") and err.count("\n") == 1


@pytest.mark.parametrize("matrix, rhs, extra, message", [
    ("", "", (), "malformed matrix file"),
    ("1,2\n3,4\n", "", (), "malformed matrix file"),
    ("1,2\n3,4\n", "1\n2\n3\n", (), "--rhs "),
    ("nan,2\n3,4\n", "1\n2\n", (), "malformed matrix file"),
    ("1,2\n3,4\n", "1\n2\n", ("--lambda-sweep", "--lam-min", "0"), "--lam-min "),
    ("1,2\n3,4\n", "1\n2\n", ("--lambda-sweep", "--lam-max", "-1"), "--lam-max "),
    ("1,2\n3,4\n", "1\n2\n", ("--lambda-sweep", "--lam-count", "0"), "--lam-count "),
])
def test_pinv_bad_input_exits_2(tmp_path, capsys, matrix, rhs, extra, message):
    amat, bvec = tmp_path / "A.csv", tmp_path / "b.csv"
    amat.write_text(matrix)
    bvec.write_text(rhs)
    code, out, err = run_cli(
        capsys, "pinv", "--matrix", str(amat), "--rhs", str(bvec), *extra
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (("flow", "--field", "1", "--t", "0.1", "--at", "0,0"), "--at"),
    (("bracket", "--word", "12", "--at", "0,0,0,0"), "--at"),
    (("limit-check", "--word", "12", "--at", "0"), "--at"),
    (("emap", "--frame", "1,2,3", "--radius", "0.5", "--center", "0,0",
      "--h", "0,0,0"), "--center"),
    (("emap", "--frame", "1,2,3", "--radius", "0.5", "--center", "0,0,0",
      "--h", "0,0"), "--h"),
    (("ballbox", "--radius", "0.5", "--center", "0,0"), "--center"),
    (("doubling", "--radius", "0.25", "--center", "0,0,0,0"), "--center"),
    (("poincare", "--radius", "0.25", "--center", "0"), "--center"),
    (("distance", "--kind", "fl", "--from", "0,0", "--to", "0,0,0"), "--from"),
    (("distance", "--kind", "fl", "--from", "0,0,0", "--to", "0,0"), "--to"),
    (("flow", "--field", "1", "--t", "0.1", "--at", "0,x,0"), "--at"),
])
def test_point_of_wrong_dimension_exits_2(capsys, argv, flag):
    code, out, err = run_cli(capsys, argv[0], "--model", "heisenberg", *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (("bracket", "--word", "1a"), "--word"),
    (("bracket", "--word", "123"), "--word"),
    (("bracket", "--word", "121"), "--word"),
    (("limit-check", "--word", "13", "--at", "0,0,0"), "--word"),
    (("emap", "--frame", "1,2", "--radius", "0.5", "--center", "0,0,0",
      "--h", "0,0,0"), "--frame"),
    (("emap", "--frame", "1,2,9", "--radius", "0.5", "--center", "0,0,0",
      "--h", "0,0,0"), "--frame"),
    (("emap", "--frame", "1,x,4", "--radius", "0.5", "--center", "0,0,0",
      "--h", "0,0,0"), "--frame"),
    (("flow", "--field", "0", "--t", "0.1", "--at", "0,0,0"), "--field"),
    (("flow", "--field", "3", "--t", "0.1", "--at", "0,0,0"), "--field"),
])
def test_bad_index_input_exits_2(capsys, argv, flag):
    code, out, err = run_cli(capsys, argv[0], "--model", "heisenberg", *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}") and err.count("\n") == 1


HEIS_CENTER = ("--model", "heisenberg", "--center", "0,0,0")


@pytest.mark.parametrize("argv, flag", [
    (("emap", *HEIS_CENTER, "--frame", "1,2,4", "--radius", "1.5", "--h", "0.1,0.2,0.01"),
     "--radius"),
    (("ballbox", *HEIS_CENTER, "--radius", "0"), "--radius"),
    (("ballbox", *HEIS_CENTER, "--radius", "0.5", "--check-inclusion", "--samples", "0"),
     "--samples"),
    (("ballbox", *HEIS_CENTER, "--radius", "0.5", "--check-inclusion", "--eps", "2"), "--eps"),
    (("distance", "--kind", "fl", "--model", "heisenberg", "--from", "0,0,0",
      "--to", "0,0,0.01", "--segments", "0"), "--segments"),
    (("poincare", *HEIS_CENTER, "--radius", "0.5", "--n", "2000", "--f", "99"), "--f"),
    (("poincare", *HEIS_CENTER, "--radius", "0.5", "--n", "2000", "--enlarge", "0"),
     "--enlarge"),
    (("doubling", *HEIS_CENTER, "--radius", "0.25", "--n", "0"), "--n"),
    (("limit-check", "--model", "heisenberg", "--word", "12", "--at", "0,0,0",
      "--t-count", "0"), "--t-count"),
    (("pi-table", "--order", "9"), "--order"),
    (("identities", "--family", "otto", "--max-degree", "9"), "--max-degree"),
    (("identities", "--family", "j2", "--max-degree", "3", "--workers", "0"), "--workers"),
    (("limit-check", "--model", "heisenberg", "--word", "12", "--at", "0,0,0",
      "--psi-var", "5"), "--psi-var"),
    (("limit-check", "--model", "heisenberg", "--word", "12", "--at", "0,0,0",
      "--psi-var", "-7"), "--psi-var"),
    (("limit-check", "--model", "heisenberg", "--word", "12", "--at", "0,0,0",
      "--t-min", "0"), "--t-min"),
    (("ballbox", *HEIS_CENTER, "--radius", "0.5", "--check-inclusion", "--c", "-1"), "--c"),
    (("doubling", *HEIS_CENTER, "--radius", "0.25", "--n", "100", "--seed", "-1"), "--seed"),
])
def test_number_out_of_range_exits_2(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (("distance", "--kind", "fl", "--from", "0,0,0", "--to", "inf,0,0"), "--to"),
    (("doubling", "--center", "nan,0,0", "--radius", "0.25", "--n", "2000"), "--center"),
    (("limit-check", "--word", "12", "--at", "0,0,nan"), "--at"),
    (("emap", "--frame", "1,2,4", "--center", "0,0,0", "--radius", "0.5",
      "--h", "nan,0,0"), "--h"),
    (("bracket", "--word", "12", "--at", "nan,0,0"), "--at"),
    (("flow", "--field", "1", "--t", "nan", "--at", "0,0,0"), "--t"),
    # an exact flow that ends outside the domain box
    (("flow", "--field", "1", "--t", "25", "--at", "0,0,0"), "--t"),
    (("limit-check", "--word", "12", "--at", "0,0,0", "--t-max", "inf"), "--t-max"),
    (("limit-check", "--word", "12", "--at", "0,0,0", "--tol", "nan"), "--tol"),
    (("doubling", "--center", "0,0,0", "--radius", "inf"), "--radius"),
    (("ballbox", "--center", "0,0,0", "--radius", "0.5", "--check-inclusion", "--c", "nan"),
     "--c"),
])
def test_non_finite_input_exits_2(capsys, argv, flag):
    code, out, err = run_cli(capsys, argv[0], "--model", "heisenberg", *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def _strict_json(text):
    """Parse ``text`` as JSON that has no Infinity or NaN constant."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_limit_check_report_is_strict_json(capsys):
    # on heisenberg word 12 every quotient error is 0, so the slope is inf
    code, out, _ = run_cli(capsys, "limit-check", "--model", "heisenberg",
                           "--word", "12", "--at", "0,0,0")
    assert code == 0
    assert _strict_json(out)["slope"] == "inf"


def test_suite_out_is_strict_json(tmp_path, capsys):
    # criterion 06 reports slope inf and a numpy bool for "converged"
    path = tmp_path / "r.json"
    run_cli(capsys, "suite", "--criteria", "6", "--out", str(path))
    (res,) = _strict_json(path.read_text())["results"]
    assert res["details"]["slope"] == "inf"
    assert res["details"]["converged"] is True


def test_unreachable_distance_is_strict_json(tmp_path, capsys):
    # one field (1, 0) on the plane never leaves the x axis
    plane = {"name": "plane1", "n": 2, "m": 1, "s": 1,
             "fields": [[[{"exps": [0, 0], "coeff": "1"}], []]]}
    path = tmp_path / "plane1.json"
    path.write_text(json.dumps(plane))
    code, out, _ = run_cli(capsys, "distance", "--kind", "fl", "--model", str(path),
                           "--from", "0,0", "--to", "0,1")
    assert code == 1
    rep = _strict_json(out)
    assert rep["value"] == "inf" and rep["status"] == "budget_exhausted"
