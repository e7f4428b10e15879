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


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


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

    def test_vanishing_far_from_the_origin_prec_128(self, capsys, tmp_path):
        # f = 3x - 10^9 and g = f x^3, whose zero fiber x = 10^9/3 is far out
        f = tmp_path / "f.json"
        f.write_text(json.dumps(map_spec(line_poly([-(10**9), 3]))))
        g = tmp_path / "g.json"
        g.write_text(json.dumps(map_spec(line_poly([0, 0, 0, -(10**9), 3]))))
        argv = ["certify", "--variety", fx("cline.json"), "--f", str(f), "--g", str(g), "--prec", "128"]
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
        assert report["tool"] == "cnull"
        assert report["version"]
        assert report["seed"] == 7
        assert report["prec"] == 256

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
        ],
    )
    def test_malformed_polynomial_exit_4(self, capsys, tmp_path, doc):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(doc))
        assert main(["gradexp", "--poly", str(path)]) == 4
        assert "SchemaError" in capsys.readouterr().err

    def test_malformed_certificate_exit_4(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"N": "two", "h": []}))
        argv = ["verify", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")]
        assert main(argv + ["--cert", str(path)]) == 4

    @pytest.mark.parametrize(
        "options",
        [["--shells", "10"], ["--shells", "100", "10"], ["--samples-per-shell", "0"]],
    )
    def test_unusable_gradexp_sampling_exit_4(self, capsys, options):
        assert main(["gradexp", "--poly", fx("sum_squares.json"), *options]) == 4
        assert "InvalidInput" in capsys.readouterr().err

    def test_ploski_without_samples_exit_4(self, capsys):
        argv = ["ploski", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")]
        assert main(argv + ["--samples", "0"]) == 4
        assert "InvalidInput" in capsys.readouterr().err

    def test_bad_rational_option_exit_4(self, capsys):
        argv = ["ploski", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")]
        assert main(argv + ["--q", "1/0"]) == 4

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
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            option
            for parser in sub.choices.values()
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        assert options >= {"--ell", "--prec", "--samples-per-shell"}
        undocumented = [o for o in sorted(options) if not re.search(re.escape(o) + r"(?![\w-])", readme)]
        assert not undocumented

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
