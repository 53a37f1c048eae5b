import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affineqe
from affineqe.cli import main

EXP3D_DOC = {
    "dim": 3,
    "coords": ["x1", "x2", "x3"],
    "christoffel": {"1,2^3": "1", "1,3^1": "3", "2,3^2": "4", "3,3^3": "5"},
}

# symbols C/x1 with (C11^1, C11^2, C12^1, C12^2, C22^1, C22^2) = (-1, 1, -2, 3/2, -1, 0)
WALL_X1_DOC = {
    "dim": 2,
    "coords": ["x1", "x2"],
    "christoffel": {"1,1^1": "-1/x1", "1,1^2": "1/x1", "1,2^1": "-2/x1",
                    "1,2^2": "3/(2*x1)", "2,2^1": "-1/x1"},
    "excluded": ["x1"],
}

LINEAR_DOC = {
    "dim": 2,
    "coords": ["x1", "x2"],
    "christoffel": {"1,2^1": "-2*x1", "1,2^2": "-2*x1", "2,2^2": "-2*x1"},
}

CUBIC_DOC = {
    "dim": 2,
    "christoffel": {"1,1^1": "x1^3", "1,2^2": "x1^3/2"},
    "excluded": ["x1^3+1"],
}

WALL_DOC = {
    "dim": 2,
    "coords": ["x1", "x2"],
    "christoffel": {"1,1^1": "3/x1", "1,2^2": "1/x1", "2,2^1": "1/x1"},
    "excluded": ["x1"],
}

# a chart whose symbols are neither constant nor C/x1
NONHOM_DOC = {
    "dim": 2,
    "coords": ["x1", "x2"],
    "christoffel": {"1,1^1": "x1*x2", "1,2^2": "1/(1 + x1^2)"},
    "excluded": [],
}


# flat R^3 deformed by g = x1*x2/2 + x3^2/4: strongly projectively flat with
# non-homogeneous symbols
DEFORM3D_DOC = {
    "dim": 3,
    "coords": ["x1", "x2", "x3"],
    "christoffel": {"1,1^1": "x2", "1,2^1": "x1/2", "1,2^2": "x2/2", "1,3^1": "x3/2",
                    "1,3^3": "x2/2", "2,2^2": "x1", "2,3^2": "x3/2", "2,3^3": "x1/2",
                    "3,3^3": "x3"},
    "excluded": [],
}


@pytest.fixture
def exp3d_path(tmp_path):
    path = tmp_path / "exp3d.json"
    path.write_text(json.dumps(EXP3D_DOC))
    return str(path)


@pytest.fixture
def wall_path(tmp_path):
    path = tmp_path / "wall.json"
    path.write_text(json.dumps(WALL_DOC))
    return str(path)


def test_qe_dim_reports_dimension(exp3d_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["qe-dim", exp3d_path, "--mu", "-3/5", "--basepoint", "0,0,0",
                 "--json", str(out)])
    assert code == 0
    assert "dim = 2" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["results"][0]["dim"] == 2
    assert report["results"][0]["mu"] == "-3/5"


# qe-dim reports pinned byte for byte, rank histories and basis jets included.
# The fixtures were computed on expression-tree constraint rows, so they tie
# the rational-function rows to the tree results.
QE_DIM_PINNED = {
    "qe_dim_exp3d.json": (EXP3D_DOC, ["--mu", "-3/5", "--mu", "0", "--mu", "1",
                                      "--basepoint", "0,0,0"]),
    "qe_dim_wall.json": (WALL_X1_DOC, ["--mu", "-1", "--mu", "1/3", "--mu", "0"]),
    "qe_dim_linear.json": (LINEAR_DOC, ["--mu", "2", "--mu", "-1", "--mu", "0",
                                        "--basepoint", "3/7,-5/11"]),
}


@pytest.mark.parametrize("fixture", sorted(QE_DIM_PINNED))
def test_qe_dim_report_is_pinned(fixture, tmp_path):
    document, flags = QE_DIM_PINNED[fixture]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "report.json"
    assert main(["qe-dim", str(path), *flags, "--json", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / fixture).read_bytes()


# Reports of the symbolic layers pinned byte for byte.  Ricci components and
# deformed symbols are printed trees, so these fixtures pin the trees that the
# expression constructors and simplify_rational build, not only their values.
REPORTS_PINNED = {
    "curvature_exp3d.json": (EXP3D_DOC, ["curvature"]),
    "curvature_wall.json": (WALL_DOC, ["curvature"]),
    "curvature_nonhom.json": (NONHOM_DOC, ["curvature"]),
    "deform_nonhom.json": (NONHOM_DOC, ["deform", "--potential", "x1*x2"]),
    "extend_exp3d.json": (EXP3D_DOC, ["extend", "--phi", "1,1=x3", "--f", "exp(3*x3)",
                                      "--mu", "-3/5"]),
    "extend_wall.json": (WALL_DOC, ["extend", "--phi", "1,1=x2", "--phi", "1,2=1/x1",
                                    "--f", "x1^2*exp(x2)"]),
    # verify's checks read tensor verdicts and the extension chain
    "verify_exp3d.json": (EXP3D_DOC, ["verify"]),
    "verify_wall.json": (WALL_DOC, ["verify"]),
}


@pytest.mark.parametrize("fixture", sorted(REPORTS_PINNED))
def test_symbolic_report_is_pinned(fixture, tmp_path):
    document, (command, *flags) = REPORTS_PINNED[fixture]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "report.json"
    assert main([command, str(path), *flags, "--json", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / fixture).read_bytes()


# wall_dim1_surface(1) deformed by g = exp(x2)/3, as `deform` prints it: its
# solve at (1, 0) and -1 is ranked in floats, rank history (2, 2, 2)
EXP_WALL_DOC = {
    "dim": 2,
    "coords": ["x1", "x2"],
    "christoffel": {"1,2^1": "1/x1 + (1/3)*exp(x2)",
                    "2,2^2": "1/x1 + (1/3)*exp(x2) + (1/3)*exp(x2)"},
    "excluded": ["x1"],
}


def test_exp_log_qe_dim_does_not_import_numpy(tmp_path):
    path = tmp_path / "expwall.json"
    path.write_text(json.dumps(EXP_WALL_DOC))
    src = str(Path(affineqe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; from affineqe.cli import main; "
            f"code = main(['qe-dim', {str(path)!r}, '--mu', '-1', '--basepoint', '1,0']); "
            "print(code, 'numpy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.splitlines() == ["mu = -1: dim = 1", "0 False"]


def _imported_modules(tree):
    """Top-level names of the modules every import statement in ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_in_src_imports_numpy():
    package = Path(affineqe.__file__).parent
    importers = [path.name for path in sorted(package.glob("*.py"))
                 if "numpy" in _imported_modules(ast.parse(path.read_text()))]
    assert importers == []


def test_qe_dim_missing_file_is_input_error(capsys):
    assert main(["qe-dim", "missing.json", "--mu", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_qe_dim_bad_mu_is_input_error(exp3d_path, capsys):
    assert main(["qe-dim", exp3d_path, "--mu", "zebra"]) == 2


def test_curvature_command(exp3d_path, capsys):
    assert main(["curvature", exp3d_path]) == 0
    out = capsys.readouterr().out
    assert "rho_12 = 5" in out
    assert "rho_33 = 10" in out


def test_curvature_of_a_chart_away_from_the_origin(tmp_path, capsys):
    # the chart lives on x1 > 3, outside both unit sampling boxes
    path = tmp_path / "log.json"
    path.write_text(json.dumps({"dim": 2, "coords": ["x1", "x2"],
                                "christoffel": {"1,1^1": "log(x1 - 3)"}, "excluded": []}))
    report = tmp_path / "log_report.json"
    assert main(["curvature", str(path), "--json", str(report)]) == 0
    assert capsys.readouterr().out.startswith("dim 2, curvature numeric-only")
    payload = json.loads(report.read_text())
    assert payload["numeric_only"] == ["flat", "alternating_part_zero"]
    assert payload["flat"] and payload["alternating_part_zero"]


def test_curvature_reports_certified_verdicts_without_a_sampled_list(exp3d_path, tmp_path,
                                                                    capsys):
    report = tmp_path / "report.json"
    assert main(["curvature", exp3d_path, "--json", str(report)]) == 0
    assert capsys.readouterr().out.startswith("dim 3, curvature nonzero")
    assert "numeric_only" not in json.loads(report.read_text())


def test_classify_type_a_null_hessian_pair(capsys):
    params = '{"c11_1": -1, "c11_2": 2, "c12_1": 0, "c12_2": -3, "c22_1": 0, "c22_2": -2}'
    assert main(["classify", "--kind", "typeA", "--params", params, "--mu", "0"]) == 0
    assert capsys.readouterr().out == "mu = 0: predicted 2, computed 2, agree\n"


def test_classify_wall_chart_outside_the_normal_forms(capsys):
    # f = x1^(1/2) solves at mu = -1 although no normal form of the case
    # analysis matches these constants
    params = ('{"c11_1":"-1","c11_2":"1","c12_1":"-2","c12_2":"3/2",'
              '"c22_1":"-1","c22_2":"0"}')
    code = main(["classify", "--kind", "typeB", "--params", params, "--mu", "-1"])
    assert code == 0
    assert "predicted >=1, computed 1, agree" in capsys.readouterr().out


def test_classify_computes_ricci_once(monkeypatch, capsys):
    # the prediction and the solve at every eigenvalue share one model
    from affineqe import geometry

    calls = []
    ricci = geometry.ricci
    monkeypatch.setattr(geometry, "ricci", lambda m: calls.append(m) or ricci(m))
    params = ('{"c11_1":"-1","c11_2":"1","c12_1":"-2","c12_2":"3/2",'
              '"c22_1":"-1","c22_2":"0"}')
    code = main(["classify", "--kind", "typeB", "--params", params,
                 "--mu", "-1", "--mu", "1/3", "--mu", "2"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "mu = -1: predicted >=1, computed 1, agree",
        "mu = 1/3: predicted 0, computed 0, agree",
        "mu = 2: predicted 0, computed 0, agree",
    ]
    assert len(calls) == 1


def test_qe_dim_sums_ricci_once_for_every_mu(monkeypatch, exp3d_path, capsys):
    # the tower symbols and rho sums are built once per manifold, not once per mu
    from affineqe import geometry

    calls = []
    terms = geometry.ricci_terms
    monkeypatch.setattr(geometry, "ricci_terms", lambda *a: calls.append(a) or terms(*a))
    code = main(["qe-dim", exp3d_path, "--mu", "-3/5", "--mu", "0", "--mu", "1",
                 "--basepoint", "0,0,0"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "mu = -3/5: dim = 2"
    assert len(calls) == 9


def test_classify_agreement(capsys):
    code = main(["classify", "--kind", "exp3d", "--mu", "-3/5", "--mu", "0"])
    assert code == 0
    assert "agree" in capsys.readouterr().out


def test_sweep_family3d_never_three(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--family", "family3d", "--mu", "-1/2",
                 "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert 3 not in report["dims_seen"]
    assert report["violations"] == []


def test_sweep_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(["sweep", "--family", "typeB", "--mu", "-1", "--n", "20",
                     "--seed", "7", "--json", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_deform_emits_manifold_document(exp3d_path, tmp_path):
    out = tmp_path / "deformed.json"
    code = main(["deform", exp3d_path, "--potential", "x1*x2", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["strong"] == "zero"
    assert report["manifold"]["dim"] == 3


def test_deform_requires_a_form(exp3d_path):
    assert main(["deform", exp3d_path]) == 2


def test_deform_with_componentwise_form(exp3d_path, tmp_path):
    out = tmp_path / "sheared.json"
    code = main(["deform", exp3d_path, "--omega", "x2,0,0", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["strong"] == "nonzero"
    assert report["manifold"]["christoffel"]["1,1^1"] == "2*x2"


def test_flatten_grid_flag(wall_path):
    assert main(["flatten", wall_path, "--basepoint", "1,0",
                 "--grid", "0.2:1", "--geodesics", "2"]) == 0


@pytest.mark.parametrize("command, basepoint, line", [
    (["qe-dim", "--mu", "-1"], "-1/2,0", "mu = -1: dim = 3"),
    (["qe-dim", "--mu", "-1"], "-0.5,-.25", "mu = -1: dim = 3"),
    (["verify"], "-1/2,-1/3", "solver_stabilized: ok"),
    # the chart's grid reaches 1/80 and the base probe no farther, short of the wall
    (["flatten", "--geodesics", "1"], "-1/20,0", "dim at -1/(m-1): 3 of 3; "
                                                 "strongly projectively flat: True"),
])
def test_negative_basepoint_is_a_value(wall_path, capsys, command, basepoint, line):
    # a leading '-1/2,0' used to read as an unknown option: "expected one argument"
    assert main([command[0], wall_path, *command[1:], "--basepoint", basepoint]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_flatten_wall_chart(wall_path, tmp_path, capsys):
    out = tmp_path / "flat.json"
    code = main(["flatten", wall_path, "--basepoint", "1,0", "--geodesics", "3",
                 "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["flat"] is True
    assert report["chart"]["geodesic_deviation"] < 1e-6


def test_flatten_report_is_pinned(wall_path, tmp_path):
    # A fixed seed gives a byte-identical report.  The floats in the fixture
    # are pinned on CPython with glibc's libm; another libm may move low digits.
    out = tmp_path / "flat.json"
    code = main(["flatten", wall_path, "--seed", "0", "--geodesics", "2",
                 "--json", str(out)])
    assert code == 0
    fixture = Path(__file__).parent / "data" / "flatten_wall_seed0.json"
    assert out.read_bytes() == fixture.read_bytes()


def test_flatten_deformed_space_report_is_pinned(tmp_path):
    # 27 grid points on a 3-dimensional chart; pinned like the wall report
    doc = tmp_path / "deform3d.json"
    doc.write_text(json.dumps(DEFORM3D_DOC))
    out = tmp_path / "flat.json"
    code = main(["flatten", str(doc), "--seed", "0", "--geodesics", "2", "--json", str(out)])
    assert code == 0
    fixture = Path(__file__).parent / "data" / "flatten_deform3d_seed0.json"
    assert out.read_bytes() == fixture.read_bytes()


def test_flatten_overflow_is_input_error(tmp_path, capsys):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(
        {"dim": 2, "christoffel": {"1,1^1": "x1^3", "1,2^2": "x1^3/2"}}))
    code = main(["flatten", str(path), "--basepoint", "1" + "0" * 120 + ",0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_flatten_with_an_overflowing_gradient_is_input_error(tmp_path, capsys):
    # at x1 = 10^100 the guard x1^3 + 1 is finite but its gradient's square is not
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC_DOC))
    code = main(["flatten", str(path), "--basepoint", "1" + "0" * 100 + ",0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("grid", [[], ["--grid", "1e105"]])
def test_flatten_overflow_off_the_integrator_is_input_error(grid, tmp_path, capsys):
    # without --grid the overflow comes from chart_radius, with it from the
    # guard check at the first point of a transport path; the grid is wide
    # enough that its points stay distinct beside x1 = 10^120
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC_DOC))
    code = main(["flatten", str(path), "--basepoint", "1" + "0" * 120 + ",0", *grid])
    assert code == 2
    assert "overflow" in capsys.readouterr().err


def _assert_input_error(code, capsys, says):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and says in err and "Traceback" not in err


# each of these used to end in a traceback, a misleading message or, for
# index 0, a silent write to Phi_31
@pytest.mark.parametrize("entry", ["1,4=x1", "0,1=x1"])
def test_extend_phi_index_out_of_range_is_input_error(entry, exp3d_path, capsys):
    _assert_input_error(main(["extend", exp3d_path, "--phi", entry]), capsys,
                        "indices run from 1 to 3")


def test_extend_conflicting_phi_entries_are_input_error(exp3d_path, capsys):
    # the second entry used to overwrite the first for both slots and exit 0
    _assert_input_error(main(["extend", exp3d_path, "--phi", "1,2=x1", "--phi", "2,1=x2"]),
                        capsys, "conflicting --phi entries '1,2=x1' and '2,1=x2'")


@pytest.mark.parametrize("opening", ["(", "exp("])
def test_deep_nesting_is_input_error(opening, exp3d_path, tmp_path, capsys):
    # 300 levels used to end every command in a RecursionError traceback
    nest = opening * 300 + "x1" + ")" * 300
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({**EXP3D_DOC, "christoffel": {"1,1^1": nest}}))
    _assert_input_error(main(["curvature", str(path)]), capsys, "nesting deeper than 200")
    _assert_input_error(main(["deform", exp3d_path, "--potential", nest]), capsys,
                        "nesting deeper than 200")


# d(1/(x1 - x1)) folds to 0, so these used to judge every identity zero and exit
# 0 (1 on a sampled nonzero with --mu), or print the undeformed chart
@pytest.mark.parametrize("command, flags", [
    ("extend", ["--f", "1/(x1-x1)"]),
    ("extend", ["--f", "1/(x1-x1)", "--mu", "-3/5"]),
    ("extend", ["--f", "exp(x1) + 1/(x2 - x2)"]),
    ("deform", ["--potential", "1/(x1-x1)"]),
])
def test_identically_undefined_function_is_input_error(command, flags, exp3d_path, wall_path,
                                                       capsys):
    path = exp3d_path if command == "extend" else wall_path
    _assert_input_error(main([command, path, *flags]), capsys,
                        "denominator is identically zero")


def test_extend_repeated_phi_entry_is_accepted(exp3d_path, tmp_path, capsys):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert main(["extend", exp3d_path, "--phi", "1,2=x1", "--json", str(once)]) == 0
    assert main(["extend", exp3d_path, "--phi", "1,2=x1", "--phi", "2,1=x1",
                 "--json", str(twice)]) == 0
    assert once.read_bytes() == twice.read_bytes()


# d log(x1 - x1) = 0/0 folds to 0 and a log of a constant differentiates to 0, so
# these used to judge every identity zero and exit 0 (1 with --mu), or deform nothing
@pytest.mark.parametrize("command, flags", [
    ("extend", ["--f", "log(x1-x1)"]),
    ("extend", ["--f", "log(x1-x1)", "--mu", "-3/5"]),
    ("extend", ["--f", "x1 + log(-1)"]),
    ("deform", ["--potential", "log(x1-x1)"]),
])
def test_log_of_a_non_positive_constant_is_input_error(command, flags, exp3d_path, wall_path,
                                                       capsys):
    path = exp3d_path if command == "extend" else wall_path
    _assert_input_error(main([command, path, *flags]), capsys,
                        "log of an identically zero or negative constant")


def test_log_of_a_negative_non_constant_is_still_judged(exp3d_path, capsys):
    assert main(["extend", exp3d_path, "--f", "log(-x1^2 - 1)"]) == 0


def test_overflowing_solve_is_input_error(tmp_path, capsys):
    # rows at x1 = 700 overflow to inf; a rank of them used to be numpy's error or a wrong dim
    path = tmp_path / "over.json"
    path.write_text(json.dumps({"dim": 2, "christoffel": {"1,1^1": "exp(x1)",
                                                          "1,2^2": "x2*exp(x1)"}}))
    _assert_input_error(main(["qe-dim", str(path), "--mu", "1", "--basepoint", "700,0"]),
                        capsys, "float overflow")


OVERFLOW_DOC = {"dim": 2, "christoffel": {"1,1^1": "exp(x1)", "1,2^2": "x2*exp(x1)"}}


@pytest.mark.parametrize("doc, command", [
    (OVERFLOW_DOC, ["qe-dim", "--mu", "1"]), (OVERFLOW_DOC, ["verify"]),
    (OVERFLOW_DOC, ["flatten"]), ({"dim": 2}, ["flatten"]),
    ({"dim": 2}, ["flatten", "--grid", "0.1"])])
def test_basepoint_past_the_float_range_is_input_error(doc, command, tmp_path, capsys):
    # a float solve, chart_radius and box_grid each used to end in an OverflowError traceback
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code = main([command[0], str(path), *command[1:], "--basepoint", "1e400,0"])
    _assert_input_error(code, capsys, "float overflow")


def test_curvature_sampled_only_to_overflow_is_input_error(tmp_path, capsys):
    # the curvature's samples overflow, though rho_21 = -exp(x1 + 400)*exp(x2 + 400) is
    # nonzero everywhere; an inf sample used to count as a zero one, so this printed
    # "curvature numeric-only" and exited 0
    path = tmp_path / "over.json"
    path.write_text(json.dumps({"dim": 2, "christoffel": {
        "1,1^1": "exp(400 + x1)*exp(400 + x2)"}}))
    _assert_input_error(main(["curvature", str(path)]), capsys,
                        "could not be sampled anywhere")


def test_curvature_with_a_constant_past_the_float_range_is_input_error(tmp_path, capsys):
    # 10^400 overflows as the sampled tree compiles, before any point is read
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 2, "christoffel": {"1,1^1": "exp(x2)*1" + "0" * 400}}))
    _assert_input_error(main(["curvature", str(path)]), capsys,
                        "could not be sampled anywhere")


@pytest.mark.parametrize("args", [["--basepoint", "100000000000000000,0"],
                                  ["--basepoint", "1,0", "--grid", "1e-20"]])
def test_flatten_of_a_grid_that_coincides_in_floats_is_input_error(args, tmp_path, capsys):
    # x1 + radius rounds to x1: the 9 grid points were 3 distinct ones and the
    # chart was reported with base errors 0.00e+00 / 0.00e+00
    path = tmp_path / "flat2.json"
    path.write_text(json.dumps({"dim": 2}))
    _assert_input_error(main(["flatten", str(path), *args]), capsys,
                        "grid points coincide in floats")


def test_verify_reports_sampled_checks_as_numeric_only(tmp_path, capsys):
    # the verdicts on this chart are sampled: verify used to print "ok" for them
    path = tmp_path / "log.json"
    path.write_text(json.dumps({"dim": 2, "coords": ["x1", "x2"],
                                "christoffel": {"1,1^1": "log(x1 - 3)"}, "excluded": []}))
    report = tmp_path / "verify.json"
    assert main(["verify", str(path), "--basepoint", "4,0", "--json", str(report)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ricci_split: numeric-only", "curvature_trace: numeric-only", "solver_stabilized: ok",
        "dimension_bound: ok", "extension_identities: numeric-only"]
    payload = json.loads(report.read_text())
    assert all(payload["checks"].values())
    assert payload["numeric_only"] == ["ricci_split", "curvature_trace", "extension_identities"]


@pytest.mark.parametrize("params, says", [('{"bogus": 1}', "unknown parameter 'bogus'"),
                                          ("[1, 2]", "JSON object")])
def test_classify_bad_params_is_input_error(params, says, capsys):
    _assert_input_error(main(["classify", "--kind", "wallDim1", "--params", params,
                              "--mu", "-1"]), capsys, says)


@pytest.mark.parametrize("grid", ["0.1:0", "0.1:-1", "nan", "inf", "0", "-1"])
def test_flatten_bad_grid_is_input_error(grid, wall_path, exp3d_path, capsys):
    # the grid is checked before the solve, on flat and non-flat charts alike
    for path, basepoint in ((wall_path, "1,0"), (exp3d_path, "0,0,0")):
        _assert_input_error(main(["flatten", path, "--basepoint", basepoint,
                                  "--grid", grid]), capsys, "bad --grid")


@pytest.mark.parametrize("command, flag", [("sweep", "--n"), ("flatten", "--geodesics")])
def test_counts_below_one_are_input_errors(command, flag, wall_path, capsys):
    # these used to exit 0 with "0 cells" or a geodesic deviation of 0 from no geodesic
    args = ["--family", "typeB", "--mu", "-1"] if command == "sweep" else [wall_path]
    with pytest.raises(SystemExit) as stop:
        main([command, *args, flag, "-2"])
    assert stop.value.code == 2
    assert "expected a count >= 1" in capsys.readouterr().err


def test_extend_with_metric_check(exp3d_path, capsys):
    code = main(["extend", exp3d_path, "--phi", "1,1=x3", "--f", "exp(3*x3)",
                 "--mu", "-3/5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "quasi-einstein residual" in out
    assert "nonzero" not in out


def test_verify_command(exp3d_path, capsys):
    code = main(["verify", exp3d_path, "--mu", "-3/5", "--mu", "1",
                 "--basepoint", "0,0,0"])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["curvature", "qe-dim", "classify", "sweep", "deform",
                                     "flatten", "extend", "verify"])
def test_seed_help_names_what_it_seeds(command, capsys):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    want = {"sweep": "seed for the random typeA/typeB parameter draws",
            "flatten": "seed for the random geodesic directions"}.get(
        command, "not read by this command")
    assert want in " ".join(capsys.readouterr().out.split())


def test_exp_guard_is_read_in_floats(tmp_path, capsys):
    # used to exit 2 with "exp is not available in exact mode"
    path = tmp_path / "expwall.json"
    path.write_text(json.dumps({"dim": 2, "christoffel": {"1,1^1": "1/(exp(x1) - 2)"},
                                "excluded": ["exp(x1) - 2"]}))
    assert main(["qe-dim", str(path), "--mu", "-1", "--basepoint", "0,0"]) == 0
    assert "mu = -1: dim = 3" in capsys.readouterr().out
    assert main(["flatten", str(path)]) == 0


@pytest.mark.parametrize("command", [["qe-dim", "--mu", "-1"], ["verify"], ["flatten"]])
def test_pole_read_by_no_row_is_input_error(command, tmp_path, capsys):
    # Gamma_11^1 = 1/x1 gives only zero rows: the pole at the basepoint used to go unseen
    path = tmp_path / "pole.json"
    path.write_text(json.dumps({"dim": 2, "christoffel": {"1,1^1": "1/x1"}}))
    code = main([command[0], str(path), *command[1:], "--basepoint", "0,0"])
    _assert_input_error(code, capsys, "pole")


def test_point_on_the_excluded_locus_reads_as_the_pole_message_does(wall_path, capsys):
    # used to print the Fraction reprs: point (Fraction(0, 1), Fraction(0, 1)) lies ...
    code = main(["qe-dim", wall_path, "--mu", "-1", "--basepoint", "0,0"])
    _assert_input_error(code, capsys, "point (0, 0) lies on the excluded locus")


def test_flatten_of_a_symbol_at_the_nesting_cap(tmp_path, capsys):
    # 100 levels of x1 - (...) is 2; its compiled form used to be a SyntaxError traceback
    nest = "x1 - (" * 100 + "2" + ")" * 100
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"dim": 2, "christoffel": {"1,1^1": nest, "1,2^2": "1"}}))
    assert main(["flatten", str(path)]) == 0
    assert "strongly projectively flat: True" in capsys.readouterr().out
