"""Scenario files and the command-line surface, including the exit-code
contract: 0 success, 1 semantic finding, 2 usage/parse/validation error."""

import json
import re
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from plauscalc.cli import dispatch
from plauscalc.scenario import ScenarioError, load_scenario, parse_scenario, run_queries

REPO = Path(__file__).resolve().parent.parent
GELMAN = REPO / "scenarios" / "gelman.json"


def write_scenario(tmp_path, doc, name="s.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


BASE = {
    "frame": ["a", "b"],
    "bodies": [
        {"name": "m", "masses": [{"set": ["a"], "mass": "1/2"}, {"set": ["a", "b"], "mass": "1/2"}]}
    ],
    "credals": [
        {"name": "c1", "dists": [{"a": "3/10", "b": "7/10"}, {"a": "1/2", "b": "1/2"}]},
        {"name": "point", "dists": [{"a": "1"}]},
        {"name": "sliver", "dists": [{"a": "1 - eps", "b": "eps"}]},
    ],
}


class TestLoadScenario:
    def test_gelman_file_ships_three_bodies(self):
        s = load_scenario(str(GELMAN))
        assert set(s.bodies) == {"m1", "m2", "m3"}
        assert s.bodies["m2"].mass(("BC", "nBC")) == Fr(1, 2)

    def test_bad_mass_sum_reports_exact_total(self, tmp_path):
        doc = {"frame": ["a", "b"], "bodies": [
            {"name": "m", "masses": [{"set": ["a"], "mass": "9/10"}]}
        ]}
        with pytest.raises(ScenarioError, match=r"bodies\[0\].masses.*sum to 9/10, expected 1"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_unknown_atom_in_set(self, tmp_path):
        doc = {"frame": ["a", "b"], "bodies": [
            {"name": "m", "masses": [{"set": ["zzz"], "mass": "1"}]}
        ]}
        with pytest.raises(ScenarioError, match="zzz"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_missing_frame(self):
        with pytest.raises(ScenarioError, match="frame"):
            parse_scenario({"bodies": []})

    def test_numbers_must_be_expression_strings(self):
        doc = {"frame": ["a"], "bodies": [{"name": "m", "masses": [{"set": ["a"], "mass": 0.5}]}]}
        with pytest.raises(ScenarioError, match="eps-expression"):
            parse_scenario(doc)

    def test_dist_atoms_default_to_zero(self):
        s = parse_scenario(BASE)
        assert s.credals["point"].dists[0].prob("b") == 0

    def test_query_name_resolution(self, tmp_path, capsys):
        # Each query is checked against its op's argument schema at load time.
        cases = [
            ({"op": "envelopes", "credal": "nope", "event": ["a"]},
             "queries[0].credal: unknown credal set 'nope'"),
            ({"op": "dempster", "bodies": []}, "queries[0].bodies: expected a nonempty list"),
            ({"op": "dempster", "bodies": "m"}, "queries[0].bodies: expected a nonempty list"),
            ({"op": "bel-pl", "body": "m", "event": "ab"}, "queries[0].event: expected a list of atom names"),
            ({"op": "envelopes", "credal": "c1"}, "queries[0].event: missing argument"),
            ({"op": "order", "left": 1, "right": "eps"},
             "queries[0].left: expected an eps-expression string"),
            ({"op": "no-such-op"}, "queries[0].op: unknown operation 'no-such-op'"),
            ({"op": "laplace", "credals": ["c1", "nope"]},
             "queries[0].credals: unknown credal set 'nope'"),
            ({"op": "more-plausible", "credal": "c1", "a": ["a"], "b": ["z"]},
             "queries[0].b: unknown atom 'z'"),
        ]
        for query, error in cases:
            doc = dict(BASE, queries=[query])
            with pytest.raises(ScenarioError, match=re.escape(error)):
                parse_scenario(doc)
            assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {error}") and err.count("\n") == 1, err

    def test_load_is_order_independent(self):
        flipped = {
            "credals": list(reversed(BASE["credals"])),
            "bodies": BASE["bodies"],
            "frame": BASE["frame"],
        }
        a = parse_scenario(BASE)
        b = parse_scenario(flipped)
        assert a.bodies["m"].focal == b.bodies["m"].focal
        assert a.credals["c1"].dists == b.credals["c1"].dists


class TestQueries:
    def test_run_queries_lines(self):
        doc = dict(BASE, queries=[
            {"op": "envelopes", "credal": "c1", "event": ["a"]},
            {"op": "order", "left": "eps", "right": "1/1000000"},
            {"op": "condition", "credal": "sliver", "event": ["b"]},
            {"op": "decompose", "credal": "c1", "event": ["a"]},
            {"op": "more-plausible", "credal": "c1", "a": ["a"], "b": ["b"]},
        ])
        lines = run_queries(parse_scenario(doc))
        text = "\n".join(lines)
        assert "envelopes c1 {a}: (3/10, 1/2)" in text
        assert "order eps vs 1/1000000: LT" in text
        assert "member {b: 1}" in text
        assert "lower=3/10 spread=1/5 profile=(0, 1)" in text
        assert "more-plausible c1 {a} vs {b}: incomparable" in text


class TestCliExitCodes:
    def test_order_lt(self, capsys):
        assert dispatch(["order", "eps", "1/1000000"]) == 0
        assert capsys.readouterr().out.strip() == "LT"

    def test_order_eq_gt(self, capsys):
        assert dispatch(["order", "1/2 + eps", "(1 + 2*eps)/2"]) == 0
        assert capsys.readouterr().out.strip() == "EQ"
        assert dispatch(["order", "1/(1-eps)", "1 + eps"]) == 0
        assert capsys.readouterr().out.strip() == "GT"

    def test_parse_error_is_usage_error(self, capsys):
        assert dispatch(["order", "eps +", "1"]) == 2
        err = capsys.readouterr().err
        assert "position 5" in err

    @pytest.mark.parametrize("text", ["(" * 3000 + "1" + ")" * 3000, "(1+eps)^2000"])
    def test_hostile_expression_is_one_line_usage_error(self, capsys, text):
        assert dispatch(["order", text, "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: syntax error at position ") and err.count("\n") == 1

    def test_result_past_digit_limit_is_one_line_usage_error(self, capsys, tmp_path):
        # parses within the limits, but its 4,600-digit integers cannot be printed
        big = "1/99999999999999999999999^200"
        doc = {
            "frame": ["a", "b"],
            "credals": [{"name": "c", "dists": [{"a": big, "b": f"1 - {big}"}]}],
            "queries": [{"op": "envelopes", "credal": "c", "event": ["a"]}],
        }
        expected = (
            "error: result too large to print: an integer has more than "
            f"{sys.get_int_max_str_digits()} decimal digits\n"
        )
        for argv in (
            ["scenario-law", "--kernel", "eps", "--law", "comm_F", big, "1/2"],
            ["scenario-law", "--kernel", "rat", "--law", "comm_F", big, "1/2"],
            ["scenario", "run", write_scenario(tmp_path, doc)],
        ):
            assert dispatch(argv) == 2
            out, err = capsys.readouterr()
            assert (out, err) == ("", expected)
        assert dispatch(["order", big, "1"]) == 0
        assert capsys.readouterr().out == "LT\n"

    def test_unknown_flag_is_usage_error(self, capsys):
        assert dispatch(["order"]) == 2
        assert dispatch(["no-such-command"]) == 2
        capsys.readouterr()
        # bad values that argparse accepts are still one-line usage errors
        assert dispatch(["scenario-law", "--kernel", "rat", "--law", "distrib", "1/2"]) == 2
        assert capsys.readouterr().err == "error: law distrib takes 3 values, got 1\n"
        assert dispatch(["check-axioms", "--kernel", "rat", "--samples", "0"]) == 2
        assert capsys.readouterr().err == "error: samples must be >= 1\n"

    def test_check_axioms_pass(self, capsys):
        assert dispatch(["check-axioms", "--kernel", "rat", "--samples", "120"]) == 0
        assert "all axioms hold" in capsys.readouterr().out

    def test_embed_pass(self, capsys):
        assert dispatch(["embed", "--kernel", "rat", "--samples", "40"]) == 0
        assert "embedding verified" in capsys.readouterr().out

    def test_gelman_output(self, capsys):
        assert dispatch(["gelman"]) == 0
        out = capsys.readouterr().out
        assert "dempster: m1 (x) m2 (x) m3 = [{BC}: 1/2; {nBnC}: 1/2]" in out
        assert "event B: dempster envelopes (1/2, 1/2); robust envelopes (0, 1)" in out

    def test_scenario_run(self, capsys):
        assert dispatch(["scenario", "run", str(GELMAN)]) == 0
        out = capsys.readouterr().out
        assert "dempster m1 (x) m2 (x) m3 = [{BC}: 1/2; {nBnC}: 1/2]" in out

    def test_ds_combine_rules(self, capsys, tmp_path):
        f = write_scenario(tmp_path, {
            "frame": ["x", "y"],
            "bodies": [
                {"name": "p", "masses": [{"set": ["x"], "mass": "1"}]},
                {"name": "q", "masses": [{"set": ["y"], "mass": "1"}]},
                {"name": "v", "masses": [{"set": ["x", "y"], "mass": "1"}]},
            ],
        })
        assert dispatch(["ds", "combine", "--rule", "dempster", f, "--bodies", "p,v"]) == 0
        assert "{x}: 1" in capsys.readouterr().out
        # total conflict is a semantic finding: exit 1
        assert dispatch(["ds", "combine", "--rule", "dempster", f, "--bodies", "p,q"]) == 1
        assert "total conflict" in capsys.readouterr().err
        assert dispatch(["ds", "combine", "--rule", "robust", f, "--bodies", "p,v"]) == 0
        capsys.readouterr()
        assert dispatch(["ds", "combine", "--rule", "dempster", f, "--bodies", ","]) == 2
        assert "expected a nonempty list of body names" in capsys.readouterr().err
        assert dispatch(["ds", "combine", "--rule", "robust", f, "--bodies", "p,nope"]) == 2
        assert "unknown body 'nope'" in capsys.readouterr().err

    def test_credal_commands(self, capsys, tmp_path):
        f = write_scenario(tmp_path, BASE)
        assert dispatch(["credal", "envelopes", f, "--credal", "c1", "--event", "a"]) == 0
        assert "(3/10, 1/2)" in capsys.readouterr().out
        assert dispatch(["credal", "condition", f, "--credal", "c1", "--event", "a,b"]) == 0
        capsys.readouterr()
        assert dispatch(["credal", "decompose", f, "--credal", "c1", "--event", "a"]) == 0
        assert "profile=(0, 1)" in capsys.readouterr().out
        # conditioning a point mass on its null event: semantic finding
        assert dispatch(["credal", "condition", f, "--credal", "point", "--event", "b"]) == 1
        assert "impossible" in capsys.readouterr().err
        assert dispatch(["credal", "envelopes", f, "--credal", "nope", "--event", "a"]) == 2
        assert "unknown credal set 'nope'" in capsys.readouterr().err
        assert dispatch(["credal", "envelopes", f, "--credal", "c1", "--event", "z"]) == 2
        assert "unknown atom 'z'" in capsys.readouterr().err

    def test_validation_error_is_exit_2(self, capsys, tmp_path):
        f = write_scenario(tmp_path, {"frame": ["a"], "bodies": [
            {"name": "m", "masses": [{"set": ["a"], "mass": "9/10"}]}
        ]})
        assert dispatch(["scenario", "run", f]) == 2
        assert "sum to 9/10" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self):
        assert dispatch(["scenario", "run", "/nonexistent/file.json"]) == 2

    def test_scenario_law(self, capsys):
        assert dispatch(["scenario-law", "--kernel", "rat", "--law", "distrib",
                         "1/6", "1/3", "1/2"]) == 0
        assert "[agree]" in capsys.readouterr().out
