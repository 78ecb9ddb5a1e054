import csv
import functools
import io
import json
import math

import pytest

from apvint import cli
from apvint.cli import (EXIT_DISAGREE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                        build_parser, main)
from apvint.paths import Arc, ComplexPath, Line, path_to_dict, semicircle_path
from apvint.quadrature import QuadConfig, integrate_path

from conftest import COS_FPI_N1, make_spec


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

    def test_region_violation(self, capsys):
        rc, _, err = run_cli(capsys, "--f", "1/(1+z^2)", "--poles", "0.5+0.001i",
                             "-a", "-1", "-b", "1", "--x0", "0")
        assert rc == EXIT_USAGE
        assert "region" in err

    def test_unknown_route(self, capsys):
        rc, _, err = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "--routes", "magic")
        assert rc == EXIT_USAGE

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


class TestPathInputs:
    def test_path_eps(self, capsys):
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1", "--path-eps", "0.25",
                             "--routes", "average", "--format", "json")
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["routes"]["average"]["value"] == pytest.approx(COS_FPI_N1, abs=1e-8)

    def test_path_file(self, capsys, tmp_path):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        path = semicircle_path(spec, 0.4, "above")
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
        pf.write_text(json.dumps(path_to_dict(semicircle_path(spec, 0.4, "below"))))
        rc, out, _ = run_cli(capsys, "--f", "cos(z)", "-a", "-1", "-b", "1",
                             "--x0", "0", "-n", "1", "--path-file", str(pf),
                             "--routes", "upper,lower", "--format", "json")
        assert rc == EXIT_OK
        routes = json.loads(out)["routes"]
        want = integrate_path(spec, semicircle_path(spec, 0.4, "above")).value
        assert complex(*routes["upper"]["report"]["int_plus"]) == pytest.approx(want, abs=1e-12)
        assert routes["upper"]["value"] == pytest.approx(COS_FPI_N1, abs=1e-8)

    def test_path_file_enclosing_declared_pole(self, capsys, tmp_path):
        bulge = ComplexPath((Line(-2 + 0j, -1.5 + 0j), Arc(0j, 1.5, math.pi, 0.0),
                             Line(1.5 + 0j, 2 + 0j)), "above")
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
        assert "path-eps" in err and "0.5j" in err

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
