import csv
import functools
import io
import json
import math
import warnings

import pytest

from apvint import cli
from apvint.apv import apv_average, apv_lower, apv_upper
from apvint.cli import (EXIT_DISAGREE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                        build_parser, main)
from apvint.paths import Arc, ComplexPath, Line, path_to_dict, semicircle_path
from apvint.quadrature import QuadConfig, integrate_path

from conftest import COS_FPI_N1, WINDS_TWICE, ZIGZAG, make_spec


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExitCodes:
    def test_three_routes_agree(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1", "--routes", "average,fox,series")
        assert rc == EXIT_OK
        assert "agree" in out

    def test_even_n_vanishes(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "2", "--routes", "average",
                             "--format", "json")
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert abs(doc["routes"]["average"]["value"]) < 1e-10

    def test_pole_margin_violation(self, capsys):
        rc, _, err = run_cli(capsys, "--f", "1/(1+z^2)", "--poles", "i,-i",
                             "-a", "-1", "-b", "1", "--x0", "0", "-n", "0",
                             "--path-eps", "2.0")
        assert rc == EXIT_USAGE
        assert "path-eps" in err

    def test_invalid_expression(self, capsys):
        rc, _, err = run_cli(capsys, "--f", "cos(z", "-a", "-1", "-b", "1", "--x0", "0")
        assert rc == EXIT_USAGE
        assert "expression" in err

    def test_invalid_spec(self, capsys):
        rc, _, _ = run_cli(capsys, "--f", "cos(z)", "-a", "1", "-b", "-1", "--x0", "0")
        assert rc == EXIT_USAGE

    def test_declared_pole_near_interval_accepted(self, capsys):
        # poles +-0.01i, a hundredth of the way from [-1, 1]; closed form as
        # in test_classical's test_poles_close_to_the_axis
        rc, out, _ = run_cli(capsys, "--f", "1/(z^2+0.0001)", "--poles", "0.01i,-0.01i",
                             "-a", "-1", "-b", "1", "--x0", "0.5",
                             "--routes", "average,upper,lower,fox,spf")
        assert rc == EXIT_OK
        assert "routes agree" in out
        rows = {line.split()[0]: float(line.split()[1]) for line in out.splitlines()[2:7]}
        assert list(rows) == ["average", "upper", "lower", "fox", "spf"]
        for value in rows.values():
            assert value == pytest.approx(-628.4617285065624, rel=1e-12)

    def test_unknown_route(self, capsys):
        rc, _, err = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "--routes", "magic")
        assert rc == EXIT_USAGE

    def test_undeclared_pole(self, capsys):
        rc, out, err = run_cli(capsys, "--f", "1/z", "-a", "-1", "-b", "1", "--x0", "0.5")
        assert rc == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: division by zero")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_value_is_not_converged(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "exp(exp(exp(z)))", "-a", "-1", "-b", "3",
                             "--x0", "0", "--routes", "series", "--format", "json")
        assert rc == EXIT_NUMERICAL
        doc = json.loads(out)
        assert doc["routes"]["series"]["converged"] is False
        assert doc["agreement"]["ok"] is False  # a lone NaN agrees with nothing

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lone_nan_route_does_not_agree(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "exp(exp(exp(z)))", "-a", "-1", "-b", "3",
                             "--x0", "0", "--routes", "series")
        assert rc == EXIT_NUMERICAL
        assert "routes agree" not in out

    def test_numpy_warnings_stay_off_stderr(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, "--f", "exp(exp(exp(z)))", "-a", "-1", "-b", "3",
                                   "--x0", "0", "--routes", "average,fox,spf")
        assert rc == EXIT_NUMERICAL
        assert err == ""
        assert "NOT CONVERGED: ['average', 'fox', 'spf']" in out

    def test_unconverged_residue_exits_numerical(self, capsys):
        # the residue on the circle of radius 1/2 does not converge at n = 61,
        # and the one-path routes add it into their value
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1", "--x0", "0",
                             "--routes", "average,upper,lower,series", "-n", "61")
        assert rc == EXIT_NUMERICAL
        assert "routes agree" not in out
        assert "NOT CONVERGED: ['upper', 'lower']" in out

    def test_lone_route_is_not_cross_checked(self, capsys):
        # average alone at n = 61 prints -8616 with err 5.1e6 (the value is
        # -0.01725): with nothing to compare it against, nothing agrees
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1", "--x0", "0",
                             "--routes", "average", "-n", "61")
        assert "routes agree" not in out
        assert out.endswith("one route, not cross-checked\n")

    def test_lone_infinite_value_is_disagreement(self):
        agreement = cli._agreement({"series": {"value": math.inf, "err_estimate": 1e-14}})
        assert agreement["ok"] is False
        assert agreement["worst_pair"] == ["series"]

    def test_nan_difference_is_disagreement(self):
        results = {name: {"value": value, "err_estimate": 1e-14}
                   for name, value in (("average", math.nan), ("fox", 1.0), ("series", 1.0))}
        agreement = cli._agreement(results)
        assert agreement["ok"] is False
        assert math.isnan(agreement["abs_diff"])

    def test_nonconvergence_exit(self, capsys, monkeypatch):
        # at the default tolerances only the forced subdivision cap fails it
        argv = ("--f", "cos(20*z)", "-a", "-1", "-b", "1",
                "--x0", "0", "-n", "1", "--routes", "average")
        rc, _, _ = run_cli(capsys, *argv)
        assert rc == EXIT_OK
        monkeypatch.setattr(cli, "QuadConfig", functools.partial(QuadConfig, max_subdivisions=2))
        rc, _, _ = run_cli(capsys, *argv)
        assert rc == EXIT_NUMERICAL


class TestReports:
    def test_json_round_trip(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1",
                             "--routes", "average,series", "--format", "json")
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc
        assert set(doc) == {"spec", "routes", "agreement"}
        assert doc["routes"]["average"]["value"] == pytest.approx(COS_FPI_N1, abs=1e-8)
        assert doc["agreement"]["ok"] is True

    def test_single_route_json(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1", "--routes", "upper",
                             "--format", "json")
        doc = json.loads(out)
        assert list(doc["routes"]) == ["upper"]

    def test_csv_row_count(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1",
                             "--routes", "average,upper,lower", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["route", "value", "err_estimate", "evals"]
        assert len(rows) == 4

    def test_spf_route(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1", "--routes", "spf,average",
                             "--format", "json")
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["routes"]["spf"]["value"] == pytest.approx(COS_FPI_N1, abs=1e-6)


    def test_every_route_reports_the_same_fields(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1", "--x0", "0",
                             "-n", "1", "--routes", ",".join(cli.ROUTES), "--format", "json")
        assert rc == EXIT_OK
        routes = json.loads(out)["routes"]
        assert list(routes) == list(cli.ROUTES)
        for name, r in routes.items():
            assert set(r) == {"value", "err_estimate", "evals", "converged", "diagnostics",
                              "detail"}, name
            assert r["evals"] > 0 and r["converged"] is True, name
            for q in r["diagnostics"].values():
                assert len(q["value"]) == 2  # complex, as [re, im]
        assert set(routes["average"]["diagnostics"]) == {"int_plus", "int_minus"}
        assert set(routes["upper"]["diagnostics"]) == {"int_plus", "residue"}
        assert set(routes["lower"]["diagnostics"]) == {"int_minus", "residue"}
        assert set(routes["fox"]["detail"]) == {"eps", "radius"}
        assert set(routes["spf"]["detail"]) == {"phi_plus", "phi_minus", "y_samples"}
        assert set(routes["series"]["detail"]) == {"radius"}


class TestPathInputs:
    def test_path_eps(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1", "--path-eps", "0.25",
                             "--routes", "average", "--format", "json")
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["routes"]["average"]["value"] == pytest.approx(COS_FPI_N1, abs=1e-8)

    def test_path_eps_values_are_the_librarys(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "exp(z)", "-a", "-1", "-b", "2",
                             "--x0", "0.5", "-n", "2", "--path-eps", "0.4",
                             "--routes", "average,upper,lower", "--format", "json")
        assert rc == EXIT_OK
        routes = json.loads(out)["routes"]
        spec = make_spec("exp(z)", -1, 2, 0.5, 2)
        for name, route in (("average", apv_average), ("upper", apv_upper),
                            ("lower", apv_lower)):
            assert routes[name]["value"] == route(spec, semicircle_path(spec, 0.4)).value

    def test_path_file(self, capsys, tmp_path):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        path = semicircle_path(spec, 0.4)
        pf = tmp_path / "path.json"
        pf.write_text(json.dumps(path_to_dict(path)))
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1", "--path-file", str(pf),
                             "--routes", "average", "--format", "json")
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["routes"]["average"]["value"] == pytest.approx(COS_FPI_N1, abs=1e-8)

    def test_path_file_below_side_is_mirrored(self, capsys, tmp_path):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        pf = tmp_path / "path.json"
        pf.write_text(json.dumps(path_to_dict(semicircle_path(spec, 0.4).conjugate())))
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1", "--path-file", str(pf),
                             "--routes", "upper,lower", "--format", "json")
        assert rc == EXIT_OK
        routes = json.loads(out)["routes"]
        want = integrate_path(spec, semicircle_path(spec, 0.4)).value
        got = complex(*routes["upper"]["diagnostics"]["int_plus"]["value"])
        assert got == pytest.approx(want, abs=1e-12)
        assert routes["upper"]["value"] == pytest.approx(COS_FPI_N1, abs=1e-8)

    def test_path_file_side_read_from_geometry(self, capsys, tmp_path):
        # an old file whose "side" key contradicts its geometry
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        doc = path_to_dict(semicircle_path(spec, 0.4).conjugate())
        pf = tmp_path / "path.json"
        pf.write_text(json.dumps({**doc, "side": "above"}))
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1", "--path-file", str(pf),
                             "--routes", "average", "--format", "json")
        assert rc == EXIT_OK
        assert json.loads(out)["routes"]["average"]["value"] == pytest.approx(COS_FPI_N1,
                                                                              abs=1e-8)

    def test_path_file_self_crossing(self, capsys, tmp_path):
        pf = tmp_path / "zigzag.json"
        pf.write_text(json.dumps(path_to_dict(ZIGZAG)))
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1", "--path-file", str(pf),
                             "--routes", "average", "--format", "json")
        assert rc == EXIT_OK
        average = json.loads(out)["routes"]["average"]
        assert abs(average["value"] - COS_FPI_N1) <= average["err_estimate"]

    def test_path_file_winding_twice(self, capsys, tmp_path):
        pf = tmp_path / "twice.json"
        pf.write_text(json.dumps(path_to_dict(WINDS_TWICE)))
        rc, out, err = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                               "--x0", "0", "-n", "1", "--path-file", str(pf))
        assert rc == EXIT_USAGE
        assert out == ""
        assert "classified as 'invalid'" in err

    def test_path_file_enclosing_declared_pole(self, capsys, tmp_path):
        bulge = ComplexPath((Line(-2 + 0j, -1.5 + 0j), Arc(0j, 1.5, math.pi, 0.0),
                             Line(1.5 + 0j, 2 + 0j)))
        pf = tmp_path / "bulge.json"
        pf.write_text(json.dumps(path_to_dict(bulge)))
        rc, out, err = run_cli(capsys, "--f", "1/(1+z^2)", "--poles", "i,-i",
                               "-a", "-2", "-b", "2", "--x0", "0.3",
                               "--routes", "average,upper,lower", "--path-file", str(pf))
        assert rc == EXIT_USAGE
        assert out == ""
        assert "encloses declared pole 1j" in err

    def test_missing_path_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        rc, out, err = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1", "--x0", "0",
                               "--path-file", str(missing))
        assert rc == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: --path-file {missing}: FileNotFoundError")

    def test_path_file_without_segments(self, capsys, tmp_path):
        pf = tmp_path / "path.json"
        pf.write_text(json.dumps({"side": "above"}))
        rc, out, err = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1", "--x0", "0",
                               "--path-file", str(pf))
        assert rc == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: --path-file {pf}: KeyError: 'segments'")

    def test_path_eps_reaching_declared_pole(self, capsys):
        rc, _, err = run_cli(capsys, "--f", "1/(1+4*z^2)", "--poles", "0.5i,-0.5i",
                             "-a", "-1", "-b", "1", "--x0", "0", "--path-eps", "0.6")
        assert rc == EXIT_USAGE
        assert "encloses declared pole 0.5j" in err

    def test_path_eps_reaching_declared_pole_unused_by_fox(self, capsys):
        # fox integrates on no contour, so the semicircle that encloses 0.5i is not read
        rc, out, _ = run_cli(capsys, "--f", "1/(1+4*z^2)", "--poles", "0.5i,-0.5i",
                             "-a", "-1", "-b", "1", "--x0", "0", "--path-eps", "0.6",
                             "--routes", "fox")
        assert rc == EXIT_OK
        assert "one route, not cross-checked" in out

    def test_emit_integrand(self, capsys, tmp_path):
        target = tmp_path / "integrand.csv"
        rc, _, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                           "--x0", "0", "-n", "1", "--routes", "average",
                           "--emit-integrand", str(target))
        assert rc == EXIT_OK
        with open(target) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "re", "im"]
        assert len(rows) > 100
