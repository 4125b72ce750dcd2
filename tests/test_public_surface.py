"""No library API that only the tests reach, except the names kept on purpose.

The test lists every top-level function and class of ``src/liebox``, and
every method other than dunders, whose name nothing in ``src/liebox`` or
``perfbench/`` references outside its own body.  A reference is a name, an
attribute, an imported name or a string constant, so the layers the
perfbench tracer patches by name (``flows.rk4``, ``ballbox.newton_invert``)
count as referenced.  Names are matched by identifier, not resolved.  The
list must equal ``KEPT``: a new helper that only its test calls belongs in
the test, and a kept name that gains a library caller leaves ``KEPT``.
README's "Kept without a library caller" section names every ``KEPT`` entry.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# name -> why it stays without a caller in the library or the benchmark
KEPT = {
    # references the tests compare the library against
    "approxexp.exp_ap": "the approximate exponential as composed single flows; "
                        "tests check it against adaptive DOPRI5 legs, and its "
                        "inverse, its signs and its first-order accuracy",
    "vfield.VectorFieldSystem.nested_bracket_oracle": "right-nested plain Lie "
        "brackets, the independent route to commutator_coeffs",
    "vfield.VectorFieldSystem.flow_batch": "the documented one-leg batched "
        "flow of a letter, and the per-leg reference the arc evaluator is "
        "checked against",
    "vfield.VectorFieldSystem.mixture_flow_batch": "the documented one-leg "
        "batched mixture flow, and the per-segment reference the control "
        "evaluator is checked against",
    # paper claims, each reproducing one step of the paper
    "vfield.VectorFieldSystem.sharp_word": "the nested commutator acts as the "
        "pi-signed sum of iterated derivatives",
    "vfield.VectorFieldSystem.conjugated_derivative_check": "the derivative of "
        "a commutator conjugated by a flow is the ad field",
    "vfield.VectorFieldSystem.taylor_remainder_order": "the remainder order of "
        "the Taylor expansion along composed flows",
    "ballbox.ad_coefficient_bound": "bounded frame coefficients of ad_Z X_w "
        "along the flow of Z",
    "linalg.recover_controls": "min-norm horizontal controls along a path",
}


def _names(node):
    """Identifiers referenced anywhere under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _definitions(path):
    """(qualified name, identifier, node) of the top-level defs and methods."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{path.stem}.{node.name}.{sub.name}", sub.name, sub


def unreferenced():
    src = sorted((ROOT / "src" / "liebox").glob("*.py"))
    files = src + sorted((ROOT / "perfbench").glob("*.py"))
    refs = collections.Counter()
    for path in files:
        refs.update(_names(ast.parse(path.read_text())))
    return {
        qual
        for path in src
        for qual, name, node in _definitions(path)
        if refs[name] == collections.Counter(_names(node))[name]
    }


def test_only_kept_names_lack_a_library_caller():
    assert unreferenced() == set(KEPT)


def test_readme_lists_every_kept_name():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Kept without a library caller", 1)[1].split("\n## ", 1)[0]
    missing = [q for q in KEPT if f"`{q.rpartition('.')[2]}`" not in section]
    assert not missing
