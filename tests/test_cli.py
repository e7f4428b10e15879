import argparse
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cline_spec, line_poly, map_spec, pj, univariate_coeffs
from cnull import cli, nullcert
from cnull.cli import main
from cnull.errors import NoSolutionWithinCap

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def cli_subparsers() -> dict:
    """The subcommand parsers of cnull, by name."""
    return next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# a complete argument list for each subcommand, by name
VALID_ARGS = {
    "charpoly": ["--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")],
    "certify": ["--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")],
    "verify": ["--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json"), "--cert", "cert.json"],
    "degree": ["--variety", fx("cusp.json")],
    "geomdeg": ["--variety", fx("graph_cubic.json"), "--f", fx("proj23.json")],
    "ploski": ["--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")],
    "gradexp": ["--poly", fx("sum_squares.json")],
    "cycle": [
        "--variety", fx("plane2.json"), "--f", fx("f_x1sq.json"),
        "--components", fx("cycle_axis.json"), "--L", fx("form_x2.json"),
    ],
    "check-bounds": ["--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")],
}


class TestCertifyCommand:
    def test_cusp_certificate(self, capsys):
        code, report = run_json(
            [
                "certify",
                "--variety", fx("cusp.json"),
                "--f", fx("fx.json"),
                "--g", fx("gyx.json"),
            ],
            capsys,
        )
        assert code == 0
        cert = report["result"]["certificate"]
        assert cert["N"] == 2 and cert["verified"]
        assert cert["h"] == [
            {"vars": ["y1", "t"], "terms": [{"c": "1", "e": [0, 0]}]}
        ]

    def test_general_route_records_diagnostics(self, capsys):
        code, report = run_json(
            [
                "certify",
                "--variety", fx("graph_cubic.json"),
                "--f", fx("proj23.json"),
                "--g", fx("g_sq_minus1.json"),
            ],
            capsys,
        )
        assert code == 0
        cert = report["result"]["certificate"]
        assert cert["verified"] and cert["N"] <= 3
        assert "vanishing" in cert["diagnostics"]

    def test_general_route_search_limit_exit_3(self, capsys, monkeypatch):
        def search(*args):
            raise NoSolutionWithinCap("no certificate under the cap")

        monkeypatch.setattr(nullcert, "certify_fallback", search)
        maps = ["--variety", fx("graph_cubic.json"), "--f", fx("proj23.json"), "--g", fx("g_sq_minus1.json")]
        assert main(["certify", *maps]) == 3
        assert "NoSolutionWithinCap" in capsys.readouterr().err

    def test_general_route_failed_hypothesis_exit_2(self, capsys, monkeypatch, tmp_path):
        # f = (t^2, t^3) and g = t + 1: g(0) = 1 on the zero fiber {0}
        def search(*args):
            raise AssertionError("the search ran on a failed hypothesis")

        monkeypatch.setattr(nullcert, "certify_fallback", search)
        f = tmp_path / "f.json"
        f.write_text(json.dumps(map_spec(line_poly([0, 0, 1]), line_poly([0, 0, 0, 1]))))
        g = tmp_path / "g.json"
        g.write_text(json.dumps(map_spec(line_poly([1, 1]))))
        assert main(["certify", "--variety", fx("cline.json"), "--f", str(f), "--g", str(g)]) == 2
        assert "VanishingHypothesisFailed" in capsys.readouterr().err

    def test_strictly_regular_route(self, capsys):
        code, report = run_json(
            [
                "certify",
                "--variety", fx("plane2.json"),
                "--f", fx("f_x1sq.json"),
                "--g", fx("g_x1.json"),
                "--L", fx("form_x2.json"),
                "--cycle", fx("cycle_axis.json"),
            ],
            capsys,
        )
        assert code == 0
        cert = report["result"]["certificate"]
        assert cert["N"] == 2 and cert["theorem"] == "strictly_regular"

    def test_certificate_in_the_form_values_reverifies(self, capsys, tmp_path):
        # g = x1 x2: the expressions use the value of the form x2, saved as aux_forms
        g = tmp_path / "g_x1x2.json"
        g.write_text(json.dumps(map_spec(pj(["x1", "x2"], {(1, 1): 1}))))
        cert = tmp_path / "cert.json"
        maps = ["--variety", fx("plane2.json"), "--f", fx("f_x1sq.json"), "--g", str(g)]
        completion = ["--L", fx("form_x2.json"), "--cycle", fx("cycle_axis.json")]
        code, report = run_json(["certify", *maps, *completion], capsys)
        assert code == 0 and report["result"]["certificate"]["N"] == 2
        assert len(report["result"]["certificate"]["aux_forms"]) == 1
        cert.write_text(json.dumps(report["result"]["certificate"]))
        code, report = run_json(["verify", *maps, "--cert", str(cert)], capsys)
        assert code == 0 and report["result"]["verified"] is True

    def test_vanishing_far_from_the_origin(self, capsys, tmp_path):
        # f = 3x - 10^9 and g = f x^3, whose zero fiber x = 10^9/3 is far out
        f = tmp_path / "f.json"
        f.write_text(json.dumps(map_spec(line_poly([-(10**9), 3]))))
        g = tmp_path / "g.json"
        g.write_text(json.dumps(map_spec(line_poly([0, 0, 0, -(10**9), 3]))))
        argv = ["certify", "--variety", fx("cline.json"), "--f", str(f), "--g", str(g)]
        code, report = run_json(argv, capsys)
        assert code == 0 and report["result"]["certificate"]["N"] == 1

    def test_hypothesis_violation_exit_code(self, capsys, tmp_path):
        bad_g = tmp_path / "g_x2.json"
        bad_g.write_text(json.dumps(map_spec(pj(["x1", "x2"], {(0, 1): 1}))))
        f2 = tmp_path / "f_id.json"
        f2.write_text(
            json.dumps(map_spec(pj(["x1", "x2"], {(1, 0): 1}), pj(["x1", "x2"], {(0, 1): 1})))
        )
        code = main(
            [
                "certify",
                "--variety", fx("plane2.json"),
                "--f", str(f2),
                "--g", str(bad_g),
                "--ell", "1",
            ]
        )
        assert code == 2
        assert "NotInIdeal" in capsys.readouterr().err


class TestVerifyCommand:
    def test_good_certificate(self, capsys, tmp_path):
        cert = {
            "N": 2,
            "theorem": "proper",
            "h": [{"vars": ["y1", "t"], "terms": [{"c": "1", "e": [0, 0]}]}],
            "verified": True,
            "diagnostics": "",
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, report = run_json(
            [
                "verify",
                "--variety", fx("cusp.json"),
                "--f", fx("fx.json"),
                "--g", fx("gyx.json"),
                "--cert", str(path),
            ],
            capsys,
        )
        assert code == 0 and report["result"]["verified"] is True

    def test_corrupted_certificate_is_result_not_error(self, capsys, tmp_path):
        cert = {
            "N": 2,
            "theorem": "proper",
            "h": [{"vars": ["y1", "t"], "terms": [{"c": "2", "e": [0, 0]}]}],
            "verified": True,
            "diagnostics": "",
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, report = run_json(
            [
                "verify",
                "--variety", fx("cusp.json"),
                "--f", fx("fx.json"),
                "--g", fx("gyx.json"),
                "--cert", str(path),
            ],
            capsys,
        )
        assert code == 0 and report["result"]["verified"] is False


class TestOtherCommands:
    def test_geomdeg_graph_cubic(self, capsys):
        code, report = run_json(
            ["geomdeg", "--variety", fx("graph_cubic.json"), "--f", fx("proj23.json")],
            capsys,
        )
        assert code == 0 and report["result"]["geometric_degree"] == 1

    @pytest.mark.parametrize("seed", [56, 68, 83, 85, 86])
    def test_geomdeg_seeds_with_a_node_draw(self, capsys, seed):
        code, report = run_json(
            ["geomdeg", "--variety", fx("graph_cubic.json"), "--f", fx("proj23.json"), "--seed", str(seed)],
            capsys,
        )
        assert code == 0 and report["result"]["geometric_degree"] == 1

    @pytest.mark.parametrize("command", ["geomdeg", "charpoly"])
    def test_map_with_an_escaping_fiber_point_exits_2(self, capsys, tmp_path, command):
        # (x1 (x1 x2 - 1), x2) is not proper: along t1 t2 = 1 it tends to 0
        f = tmp_path / "f.json"
        v2 = ["x1", "x2"]
        f.write_text(json.dumps(map_spec(pj(v2, {(2, 1): 1, (1, 0): -1}), pj(v2, {(0, 1): 1}))))
        argv = [command, "--variety", fx("plane2.json"), "--f", str(f)]
        if command == "charpoly":
            argv += ["--g", fx("g_x1.json")]
        assert main(argv) == 2
        assert "NotProper" in capsys.readouterr().err

    def test_degree(self, capsys):
        code, report = run_json(["degree", "--variety", fx("cusp.json")], capsys)
        assert code == 0 and report["result"]["degree"] == 3

    def test_check_bounds_rows(self, capsys):
        code, report = run_json(
            [
                "check-bounds",
                "--variety", fx("cusp.json"),
                "--f", fx("fx.json"),
                "--g", fx("gyx.json"),
            ],
            capsys,
        )
        assert code == 0
        assert report["result"]["rows"] == [
            {"j": 1, "deg": "-inf", "bound": 0, "ok": True},
            {"j": 2, "deg": 1, "bound": 1, "ok": True},
        ]

    def test_check_bounds_on_a_surface_whose_top_forms_share_a_zero_exits_4(self, capsys):
        # y = x + z^2 through (t, t + s^2, s): the degree ratio 1/2 of g = x is not its exponent 1
        argv = ["check-bounds", "--variety", fx("surface_xz2.json"), "--f", fx("f_surface.json")]
        assert main([*argv, "--g", fx("g_surface_x.json")]) == 4
        assert "share a zero at infinity" in capsys.readouterr().err

    def test_ploski_holds_at_delta(self, capsys):
        code, report = run_json(
            [
                "ploski",
                "--variety", fx("cusp.json"),
                "--f", fx("fx.json"),
                "--g", fx("gyx.json"),
            ],
            capsys,
        )
        assert code == 0
        assert report["result"]["delta"] == {"rational": "1/2", "float": 0.5}
        assert report["result"]["growth_check"]["holds"] is True

    def test_ploski_with_a_constant_g_skips_the_growth_check(self, capsys, tmp_path):
        # g = 7: P = (t - 7)^2 has constant coefficients, so delta = 0 and nothing grows
        g = tmp_path / "g7.json"
        g.write_text(json.dumps(map_spec(pj(["x", "y"], {(0, 0): 7}))))
        argv = ["ploski", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", str(g)]
        code, report = run_json(argv, capsys)
        assert code == 0
        assert report["result"]["delta"] == {"rational": "0", "float": 0.0}
        assert report["result"]["growth_check"] is None

    def test_ploski_below_delta_reports_its_violation(self, capsys):
        # P = t^2 - y on the cusp: q = 1/10 < delta = 1/2, refuted along the direction 1 by a_2
        argv = ["ploski", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json"), "--q", "1/10"]
        code, report = run_json(argv, capsys)
        assert code == 0
        check = report["result"]["growth_check"]
        assert check["holds"] is False and check["witness_C"] is None
        assert check["q"] == {"rational": "1/10", "float": 0.1}
        # on x = r: a_2(r) = -r has degree 2 delta = 1, so some |t| >= r^(1/2) / binom(2, 2)^(1/2)
        assert check["violation"] == {"direction": [{"rational": "1", "float": 1.0}], "j": 2}

    def test_gradexp_under_a_given_theta_reports_no_degrees(self, capsys):
        code, report = run_json(["gradexp", "--poly", fx("sum_squares.json"), "--theta", "1/2"], capsys)
        assert code == 0
        res = report["result"]
        assert res["mu"] is None and res["D"] is None
        assert res["theta"]["rational"] == "1/2" and res["validated"]

    def test_gradexp(self, capsys):
        code, report = run_json(["gradexp", "--poly", fx("sum_squares.json")], capsys)
        assert code == 0
        res = report["result"]
        assert (res["d"], res["mu"], res["D"]) == (2, 1, 1)
        assert res["theta"]["rational"] == "1/2" and res["validated"]

    def test_cycle(self, capsys):
        code, report = run_json(
            [
                "cycle",
                "--variety", fx("plane2.json"),
                "--f", fx("f_x1sq.json"),
                "--components", fx("cycle_axis.json"),
                "--L", fx("form_x2.json"),
            ],
            capsys,
        )
        assert code == 0 and report["result"]["total_degree"] == 2


class TestCliContract:
    def test_byte_identical_reports(self, capsys):
        argv = [
            "charpoly",
            "--variety", fx("cusp.json"),
            "--f", fx("fx.json"),
            "--g", fx("gyx.json"),
            "--oracle",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second and first
        report = json.loads(first)
        assert report["result"]["oracle_match"] is True

    def test_report_provenance_fields(self, capsys):
        _, report = run_json(["degree", "--variety", fx("cusp.json"), "--seed", "7"], capsys)
        assert sorted(report) == ["command", "result", "seed", "tool", "version"]
        assert report["tool"] == "cnull"
        assert report["version"]
        assert report["seed"] == 7

    @pytest.mark.parametrize("command", sorted(cli_subparsers()))
    def test_prec_is_not_an_option(self, command, capsys):
        # the precision ladder picks its own rungs; --prec is an unknown option everywhere
        cli.build_parser().parse_args([command, *VALID_ARGS[command]])
        assert main([command, *VALID_ARGS[command], "--prec", "256"]) == 4
        err = capsys.readouterr().err
        assert "unrecognized arguments: --prec 256" in err and "Traceback" not in err

    def test_missing_file_exit_4(self, capsys):
        assert main(["degree", "--variety", "no-such-file.json"]) == 4

    def test_bad_json_exit_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["degree", "--variety", str(bad)]) == 4

    def test_usage_error_exit_4(self, capsys):
        assert main(["degree"]) == 4

    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2],
            {"vars": ["x"], "terms": 5},
            {"vars": ["x"], "terms": [{"c": "1/0", "e": [2]}]},
            {"vars": ["x"], "terms": [{"c": "1", "e": 2}]},
            {"vars": ["y", "y"], "terms": [{"c": "1", "e": [2, 0]}]},
        ],
    )
    def test_malformed_polynomial_exit_4(self, capsys, tmp_path, doc):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(doc))
        assert main(["gradexp", "--poly", str(path)]) == 4
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "names,pvars", [(["x", "x"], ["t1", "t2"]), (["x1", "x2"], ["t", "t"])], ids=["ambient_vars", "param.vars"]
    )
    def test_repeated_variable_names_exit_4(self, capsys, tmp_path, names, pvars):
        # with no generators, no polynomial in the ambient names is read
        components = [pj(pvars, {(1, 0): 1}), pj(pvars, {(0, 1): 1})]
        path = tmp_path / "variety.json"
        path.write_text(json.dumps({"ambient_vars": names, "dim": 2, "param": {"vars": pvars, "components": components}}))
        assert main(["degree", "--variety", str(path)]) == 4
        assert "repeats a name" in capsys.readouterr().err

    def test_malformed_certificate_exit_4(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"N": "two", "h": []}))
        argv = ["verify", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")]
        assert main(argv + ["--cert", str(path)]) == 4

    @pytest.mark.parametrize("N", [-1, "-1"], ids=["int", "str"])
    def test_negative_certificate_exponent_exit_4(self, capsys, tmp_path, N):
        # the good cusp certificate of TestVerifyCommand, with a negative exponent
        cert = {"N": N, "theorem": "proper", "h": [{"vars": ["y1", "t"], "terms": [{"c": "1", "e": [0, 0]}]}]}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        argv = ["verify", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")]
        assert main(argv + ["--cert", str(path)]) == 4
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,q",
        [
            (["--samples", "0"], None),
            (["--samples", "1", "--seed", "1"], None),
            (["--samples", "1", "--seed", "2"], None),
            (["--samples", "1", "--seed", "3"], None),
            (["--samples", "1", "--seed", "0"], "1/10"),
            (["--samples", "1", "--seed", "4"], "1/10"),
        ],
        ids=["no-samples", "delta-seed1", "delta-seed2", "delta-seed3", "q1/10-seed0", "q1/10-seed4"],
    )
    def test_ploski_reads_neither_samples_nor_seed(self, capsys, extra, q):
        # the growth check is exact: --samples and --seed are accepted and change nothing,
        # where one sample once left a half of the range empty and gave a false verdict
        argv = ["ploski", *VALID_ARGS["ploski"], *(["--q", q] if q else [])]
        code, plain = run_json(argv, capsys)
        assert code == 0
        code, sampled = run_json(argv + extra, capsys)
        assert code == 0
        assert sampled["result"]["growth_check"] == plain["result"]["growth_check"]
        assert sampled["result"]["growth_check"]["holds"] is (q is None)

    def test_bad_rational_option_exit_4(self, capsys):
        argv = ["ploski", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")]
        assert main(argv + ["--q", "1/0"]) == 4

    def test_q_too_large_for_a_float_exit_4(self, capsys):
        argv = ["ploski", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")]
        assert main(argv + ["--q", "1e400"]) == 4
        assert "InvalidInput: q is too large for a float" in capsys.readouterr().err

    def test_gradexp_coefficient_too_large_for_a_float_exit_4(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(pj(["x1", "x2"], {(2, 0): "1e400", (0, 2): 1})), encoding="utf-8")
        assert main(["gradexp", "--poly", str(path)]) == 4
        assert "InvalidInput: a coefficient is too large for a float" in capsys.readouterr().err

    def test_in_process_runs_share_the_parser_but_not_their_options(self, capsys, monkeypatch):
        # the parser is built once per process; each run's repeatable --L list is its own
        form = fx("form_x2.json")
        seen = []
        load_forms = cli._load_forms
        monkeypatch.setattr(cli, "_load_forms", lambda paths, domain: seen.append(list(paths)) or load_forms(paths, domain))
        argv = ["cycle", "--variety", fx("plane2.json"), "--f", fx("f_x1sq.json"), "--components", fx("cycle_axis.json")]
        first = cli.run(argv + ["--L", form])
        assert main(argv + ["--L", form, "--L", form]) == 4  # one form too many on a plane with one component
        third = cli.run(argv + ["--L", form])
        assert "InvalidInput" in capsys.readouterr().err
        assert seen == [[form], [form, form], [form]]
        assert first == third and first["result"]["total_degree"] == 2
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("option", [["--q", "0"], ["--q=-1"]])
    def test_explicit_nonpositive_q_is_checked_exit_4(self, capsys, option):
        # only a computed delta = 0 skips the growth check; an explicit --q reaches it
        argv = ["ploski", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")]
        assert main(argv + option) == 4
        assert "InvalidInput" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ploski", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json"), "--R", "10"],
            ["gradexp", "--poly", fx("sum_squares.json"), "--shells", "10", "100"],
            ["gradexp", "--poly", fx("sum_squares.json"), "--samples-per-shell", "5"],
        ],
        ids=["R", "shells", "samples-per-shell"],
    )
    def test_fixed_sampling_scales_take_no_option(self, capsys, argv):
        assert main(argv) == 4
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["absent", None])
    @pytest.mark.parametrize(
        "command", ["charpoly", "certify", "verify", "degree", "geomdeg", "ploski", "cycle", "check-bounds"]
    )
    def test_variety_without_a_parametrization_exit_4(self, capsys, tmp_path, command, param):
        spec = json.loads(Path(fx("plane2.json")).read_text())
        if param == "absent":
            del spec["param"]
        else:
            spec["param"] = param
        variety = tmp_path / "variety.json"
        variety.write_text(json.dumps(spec))
        cert = tmp_path / "cert.json"  # g = x1 on f = x1^2: g^2 = 1 * f
        cert.write_text(json.dumps({"N": 2, "theorem": "proper", "h": [pj(["y1", "t"], {(0, 0): 1})]}))
        inputs = {
            "--f": fx("f_x1sq.json"),
            "--g": fx("g_x1.json"),
            "--cert": str(cert),
            "--components": fx("cycle_axis.json"),
            "--L": fx("form_x2.json"),
        }
        options = [a.option_strings[0] for a in cli_subparsers()[command]._actions if a.required]
        argv = [command, "--variety", str(variety)]
        for option in options:
            if option != "--variety":
                argv += [option, inputs[option]]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "ParamRequired" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spec",
        [
            {  # the line x = t^2
                "ambient_vars": ["x"],
                "dim": 1,
                "generators": [],
                "param": {"vars": ["t"], "components": [pj(["t"], {(2,): 1})]},
            },
            {  # the parabola y = x^2 through (t^2, t^4)
                "ambient_vars": ["x", "y"],
                "dim": 1,
                "generators": [pj(["x", "y"], {(0, 1): 1, (2, 0): -1})],
                "param": {"vars": ["t"], "components": [pj(["t"], {(2,): 1}), pj(["t"], {(4,): 1})]},
            },
        ],
        ids=["line-t2", "parabola-t2-t4"],
    )
    @pytest.mark.parametrize("command", ["degree", "geomdeg"])
    def test_two_to_one_parametrization_exit_4(self, capsys, tmp_path, spec, command):
        # every degree and fiber count is taken in parameter space, so a two-to-one phi would
        # double them: degree and geomdeg of f = x would say 2 on the line x = t^2
        variety = tmp_path / "variety.json"
        variety.write_text(json.dumps(spec))
        f = tmp_path / "f.json"
        f.write_text(json.dumps(map_spec(pj(spec["ambient_vars"], {(1,) + (0,) * (len(spec["ambient_vars"]) - 1): 1}))))
        argv = [command, "--variety", str(variety)] + (["--f", str(f)] if command == "geomdeg" else [])
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "ParamNotOneToOne" in err and "2-to-one" in err
        assert "Traceback" not in err

    def test_certify_with_a_non_affine_form_exits_4(self, capsys, tmp_path):
        form = tmp_path / "form.json"
        form.write_text(json.dumps(pj(["x1", "x2"], {(0, 2): 1})))
        maps = ["--variety", fx("plane2.json"), "--f", fx("f_x1sq.json"), "--g", fx("g_x1.json")]
        assert main(["certify", *maps, "--L", str(form), "--cycle", fx("cycle_axis.json")]) == 4
        assert "not affine" in capsys.readouterr().err

    def test_cycle_on_a_plane_without_two_affine_components_exits_4(self, capsys, tmp_path):
        # C^2 through (t1 + t2^2, t2): local multiplicities read the preimage off two affine components
        ts = ["t1", "t2"]
        variety = tmp_path / "variety.json"
        variety.write_text(json.dumps({
            "ambient_vars": ["x1", "x2"], "dim": 2, "generators": [],
            "param": {"vars": ts, "components": [pj(ts, {(1, 0): 1, (0, 2): 1}), pj(ts, {(0, 1): 1})]},
        }))
        argv = ["cycle", "--variety", str(variety), "--f", fx("f_x1sq.json")]
        assert main([*argv, "--components", fx("cycle_axis.json"), "--L", fx("form_x2.json")]) == 4
        err = capsys.readouterr().err
        assert "ParamRequired" in err and "two affine components" in err and "Traceback" not in err

    def test_inputs_that_do_not_fit_the_route_exit_4(self, capsys):
        # proj23 on the curve graph_cubic has more components than dimensions
        argv = ["certify", "--variety", fx("graph_cubic.json"), "--f", fx("proj23.json")]
        assert main(argv + ["--g", fx("g_sq_minus1.json"), "--ell", "1"]) == 4
        assert "InvalidInput" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "maps",
        [
            ["cusp.json", "fx.json", "gyx.json"],  # the proper route, n = k
            ["graph_cubic.json", "proj23.json", "g_sq_minus1.json"],  # the general route, n > k
            ["plane2.json", "f_x1sq.json", "g_x1.json", "--ell", "1"],  # the partial route
        ],
        ids=["proper", "general", "partial"],
    )
    @pytest.mark.parametrize("option", ["--L", "--cycle"])
    def test_forms_and_cycle_off_the_strictly_regular_route_exit_4(self, capsys, tmp_path, maps, option):
        # the file is never read: the option itself does not fit the route
        argv = ["certify", "--variety", fx(maps[0]), "--f", fx(maps[1]), "--g", fx(maps[2]), *maps[3:]]
        assert main(argv + [option, str(tmp_path / "missing.json")]) == 4
        assert "InvalidInput" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_parse_error(self, monkeypatch):
        def broken(*args):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "degree_by_slicing", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["degree", "--variety", fx("cusp.json")])

    def test_unwritable_out_path_exit_4(self, capsys, tmp_path):
        out = tmp_path / "missing-dir" / "report.json"
        assert main(["degree", "--variety", fx("cusp.json"), "--out", str(out)]) == 4

    def test_every_option_is_documented_in_the_readme(self):
        readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
        options = {
            option
            for parser in cli_subparsers().values()
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        assert options >= {"--ell", "--seed", "--samples"}
        undocumented = [o for o in sorted(options) if not re.search(re.escape(o) + r"(?![\w-])", readme)]
        assert not undocumented
        # and the other way: a flag the README names is an option of some subcommand (pip's aside)
        named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme)) - {"--no-build-isolation"}
        assert named >= {"--ell", "--samples"}
        assert sorted(named - options) == []

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["degree", "--variety", fx("cusp.json"), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["result"]["degree"] == 3


def _line_map(max_degree):
    return univariate_coeffs(max_degree).map(lambda coeffs: map_spec(line_poly(coeffs)))


class TestDeterminismProperty:
    @settings(max_examples=8)
    @given(f=_line_map(5), g=_line_map(5), seed=st.integers(0, 10**6))
    def test_same_seed_gives_byte_identical_reports(self, f, g, seed):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for role, spec in (("variety", cline_spec()), ("f", f), ("g", g)):
                paths[role] = Path(tmp) / f"{role}.json"
                paths[role].write_text(json.dumps(spec))
            inputs = ["--variety", str(paths["variety"]), "--f", str(paths["f"])]
            for argv in (["geomdeg"] + inputs, ["charpoly"] + inputs + ["--g", str(paths["g"])]):
                texts = []
                for run in range(2):
                    out = Path(tmp) / f"report{run}.json"
                    cli.run(argv + ["--seed", str(seed), "--out", str(out)])
                    texts.append(out.read_bytes())
                assert texts[0] == texts[1]
