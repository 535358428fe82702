"""Scenario files and the command-line surface, including the exit-code
contract: 0 success, 1 semantic finding, 2 usage/parse/validation error."""

import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from plauscalc.cli import dispatch
from plauscalc.evidence import (
    MAX_COEFF_BITS,
    MAX_COMBINED_MEMBERS,
    MAX_CREDAL_CELLS,
    MAX_MASS_DEGREE,
)
from plauscalc.kernels import MAX_SAMPLES, check_axioms, get_kernel
from plauscalc.scenario import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    run_queries,
)

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


# Three focal sets on three atoms; its credal translation has 8 members.
M1 = {"name": "m1", "masses": [
    {"set": ["a", "b"], "mass": "1/3"},
    {"set": ["a", "c"], "mass": "1/3"},
    {"set": ["a", "b", "c"], "mass": "1/3"},
]}


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

    def test_section_checks(self, tmp_path, capsys):
        # The document and each body and credal entry are checked at load time;
        # each error names its path.  A string case is written as raw text.
        path = tmp_path / "s.json"
        cases = [
            ('{"frame": ["a"],', f"{path}: invalid JSON: Expecting property name"),
            ({"bodies": [{"name": "m", "masses": []}]}, "bodies[0].masses: expected a nonempty list"),
            ({"bodies": [{"name": "m", "masses": [{"set": ["a"]}]}]},
             "bodies[0].masses[0]: expected {'set': [...], 'mass': '...'}"),
            ({"bodies": [{"name": "m", "masses": [{"mass": "1"}]}]},
             "bodies[0].masses[0]: expected {'set': [...], 'mass': '...'}"),
            ({"bodies": [{"name": "m", "masses": [{"set": ["a", "z"], "mass": "1"}]}]},
             "bodies[0].masses[0].set: unknown atom 'z'"),
            ({"bodies": [{"name": "m", "masses": [{"set": ["a"], "mass": "1"}]}] * 2},
             "bodies[1]: duplicate body name 'm'"),
            ({"credals": [{"dists": [{"a": "1"}]}]}, "credals[0]: credal set needs a string 'name'"),
            ({"credals": [{"name": "c", "dists": [{"a": "1"}]}] * 2},
             "credals[1]: duplicate credal name 'c'"),
            ({"credals": [{"name": "c", "dists": []}]}, "credals[0].dists: expected a nonempty list"),
            ({"credals": [{"name": "c"}]}, "credals[0].dists: expected a nonempty list"),
        ]
        for doc, error in cases:
            path.write_text(doc if isinstance(doc, str) else json.dumps({"frame": ["a", "b"], **doc}))
            with pytest.raises(ScenarioError, match=f"^{re.escape(error)}"):
                load_scenario(str(path))
            assert dispatch(["scenario", "run", str(path)]) == 2
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
        # conditioning on the empty event: the same finding, from a scenario query
        doc = dict(BASE, queries=[{"op": "condition", "credal": "c1", "event": []}])
        assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == "finding: conditioning on impossible event: empty event\n"
        assert dispatch(["credal", "envelopes", f, "--credal", "nope", "--event", "a"]) == 2
        assert "unknown credal set 'nope'" in capsys.readouterr().err
        assert dispatch(["credal", "envelopes", f, "--credal", "c1", "--event", "z"]) == 2
        assert "unknown atom 'z'" in capsys.readouterr().err

    def test_combination_past_member_bound_is_one_line_finding(self, capsys, tmp_path):
        doc = {"frame": ["a", "b", "c"], "bodies": [M1], "credals": BASE["credals"][:1],
               "queries": [{"op": "robust-combine", "bodies": ["m1"] * 4}]}
        assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 0
        head = "robust-combine m1 (x) m1 (x) m1 (x) m1: 2304 members\n"  # 8^4 = 4,096 pairs
        assert capsys.readouterr().out.startswith(head)
        for query, bound in (
            ({"op": "robust-combine", "bodies": ["m1"] * 6}, 8 ** 5),  # 75,720 members unbounded
            ({"op": "laplace", "credals": ["c1"] * 14}, 2 ** 14),
        ):
            doc["queries"] = [query]
            start = time.perf_counter()
            assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 1
            assert time.perf_counter() - start < 1
            assert capsys.readouterr() == ("", (
                f"finding: combination could have more than {MAX_COMBINED_MEMBERS}"
                f" members (at least {bound})\n"
            ))

    def test_combination_bound_stops_before_the_full_product(self, capsys, tmp_path):
        # 4^8000 has 4,817 digits, past the int-to-str limit; the refusal
        # must not print (or compute) the full product.
        body = {"name": "m", "masses": [{"set": ["a", "b"], "mass": "1/2"},
                                        {"set": ["c", "d"], "mass": "1/2"}]}
        doc = {"frame": list("abcd"), "bodies": [body],
               "queries": [{"op": "robust-combine", "bodies": ["m"] * 8000}]}
        assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 1
        assert capsys.readouterr() == ("", (
            f"finding: combination could have more than {MAX_COMBINED_MEMBERS}"
            f" members (at least {4 ** 7})\n"
        ))

    @staticmethod
    def _drop_one_doc(times):
        # 20 focal sets on 20 atoms, each dropping one atom: t - 1 Dempster steps
        # leave every set missing 1 to t atoms, sum(C(20, k), k = 1..t) focal sets
        atoms = [f"a{i}" for i in range(20)]
        body = {"name": "m", "masses": [{"set": [a for a in atoms if a != x], "mass": "1/20"}
                                        for x in atoms]}
        return {"frame": atoms, "bodies": [body],
                "queries": [{"op": "dempster", "bodies": ["m"] * times}]}

    def test_dempster_chain_within_bound_runs(self, capsys, tmp_path):
        f = write_scenario(tmp_path, self._drop_one_doc(3))
        assert dispatch(["scenario", "run", f]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("dempster m (x) m (x) m = [")
        assert out.count("}: ") == 20 + 190 + 1140

    def test_dempster_chain_past_bound_is_one_line_finding(self, capsys, tmp_path):
        # the third step pairs 1,350 focal sets with 20
        f = write_scenario(tmp_path, self._drop_one_doc(4))
        finding = (f"finding: dempster combination could have more than {MAX_COMBINED_MEMBERS}"
                   f" focal sets (up to {1350 * 20})\n")
        for argv in (["scenario", "run", f],
                     ["ds", "combine", "--rule", "dempster", f, "--bodies", "m,m,m,m"]):
            start = time.perf_counter()
            assert dispatch(argv) == 1
            assert time.perf_counter() - start < 2
            assert capsys.readouterr() == ("", finding)

    @staticmethod
    def _rising_degree_doc(times):
        # each Dempster step of this body with itself raises the degree in eps
        # of its masses by one: t names give masses of degree t
        masses = [{"set": s, "mass": v} for s, v in zip(
            (["a"], ["a", "b"], ["a", "b", "c"]), ("eps/(3+eps)", "1/(3+eps)", "2/(3+eps)"))]
        return {"frame": list("abc"), "bodies": [{"name": "m", "masses": masses}],
                "queries": [{"op": "dempster", "bodies": ["m"] * times}]}

    def test_dempster_chain_at_degree_bound_runs(self, capsys, tmp_path):
        f = write_scenario(tmp_path, self._rising_degree_doc(MAX_MASS_DEGREE))
        assert dispatch(["scenario", "run", f]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("}: ") == 3
        assert f"eps^{MAX_MASS_DEGREE}" in out and f"eps^{MAX_MASS_DEGREE + 1}" not in out

    def test_dempster_chain_past_degree_bound_is_one_line_finding(self, capsys, tmp_path):
        # 1,000 names ran for minutes and printed megabytes before the bound
        f = write_scenario(tmp_path, self._rising_degree_doc(1000))
        start = time.perf_counter()
        assert dispatch(["scenario", "run", f]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", (
            f"finding: dempster combination gives a mass of degree {MAX_MASS_DEGREE + 1}"
            f" in eps, more than {MAX_MASS_DEGREE}\n"
        ))

    @staticmethod
    def _laplace_chain_doc(op, times):
        # each Laplace step of this one member (or Bayesian body) with itself
        # raises the degree in eps of its probabilities by one: t names give
        # probabilities of degree t
        member = {"a": "(1+eps)/(3+2*eps)", "b": "1/(3+2*eps)", "c": "(1+eps)/(3+2*eps)"}
        masses = [{"set": [atom], "mass": p} for atom, p in member.items()]
        key, name = {"laplace": ("credals", "c"), "robust-combine": ("bodies", "m")}[op]
        return {"frame": list("abc"), "credals": [{"name": "c", "dists": [member]}],
                "bodies": [{"name": "m", "masses": masses}],
                "queries": [{"op": op, key: [name] * times}]}

    @pytest.mark.parametrize("op", ["laplace", "robust-combine"])
    def test_laplace_chain_at_degree_bound_runs(self, capsys, tmp_path, op):
        f = write_scenario(tmp_path, self._laplace_chain_doc(op, MAX_MASS_DEGREE))
        assert dispatch(["scenario", "run", f]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("member ") == 1
        assert f"eps^{MAX_MASS_DEGREE}" in out and f"eps^{MAX_MASS_DEGREE + 1}" not in out

    @pytest.mark.parametrize("op", ["laplace", "robust-combine"])
    def test_laplace_chain_past_degree_bound_is_one_line_finding(self, capsys, tmp_path, op):
        # 1,000 names ran for minutes and printed a megabyte before the bound
        f = write_scenario(tmp_path, self._laplace_chain_doc(op, 1000))
        start = time.perf_counter()
        assert dispatch(["scenario", "run", f]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", (
            f"finding: combination gives a probability of degree {MAX_MASS_DEGREE + 1}"
            f" in eps, more than {MAX_MASS_DEGREE}\n"
        ))

    @staticmethod
    def _constant_chain_doc(times):
        # t names give 1/(1 + 2^t): degree 0, one more bit per step
        return {"frame": ["a", "b"], "credals": [{"name": "c", "dists": [{"a": "1/3", "b": "2/3"}]}],
                "queries": [{"op": "laplace", "credals": ["c"] * times}]}

    def test_constant_chain_within_coefficient_bound_runs(self, capsys, tmp_path):
        f = write_scenario(tmp_path, self._constant_chain_doc(2000))
        assert dispatch(["scenario", "run", f]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("member ") == 1
        assert f"member {{a: 1/{2 ** 2000 + 1}, b: " in out

    def test_constant_chain_past_coefficient_bound_is_one_line_finding(self, capsys, tmp_path):
        # 20,000 names ran for half a minute, then could not print the result
        f = write_scenario(tmp_path, self._constant_chain_doc(20_000))
        start = time.perf_counter()
        assert dispatch(["scenario", "run", f]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", (
            f"finding: combination gives a probability with an integer of {MAX_COEFF_BITS + 1}"
            f" bits, more than {MAX_COEFF_BITS}\n"
        ))

    def test_dempster_bound_counts_subsets_of_a_small_frame(self, capsys, tmp_path):
        # every nonempty subset of 7 atoms: 127 x 127 pairs, yet at most 127 focal sets
        subsets = [s for k in range(1, 8) for s in itertools.combinations("abcdefg", k)]
        masses = [{"set": list(s), "mass": "1/127"} for s in subsets]
        doc = {"frame": list("abcdefg"), "bodies": [{"name": "m", "masses": masses}],
               "queries": [{"op": "dempster", "bodies": ["m", "m"]}]}
        assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 0
        assert capsys.readouterr().out.count("}: ") == 127

    @staticmethod
    def _heavy_body(focal_sets):
        # three-atom focal sets on six atoms: 3^focal_sets selection functions
        sets = list(itertools.combinations("abcdef", 3))[:focal_sets]
        return {"name": "h", "masses": [{"set": list(s), "mass": f"1/{focal_sets}"} for s in sets]}

    def test_credal_translation_past_bound_is_one_line_finding(self, capsys, tmp_path):
        doc = {"frame": list("abcdef"), "bodies": [self._heavy_body(12)],
               "queries": [{"op": "mass-to-credal", "body": "h"}]}
        start = time.perf_counter()
        assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", (
            f"finding: credal translation needs more than {MAX_COMBINED_MEMBERS}"
            " selection functions (at least 19683)\n"
        ))

    @staticmethod
    def _wide_doc(atoms, sets, query):
        # bodies of equal masses on the given sets of atom numbers
        frame = [f"a{i}" for i in range(atoms)]
        bodies = [{"name": f"m{j}", "masses": [
            {"set": [frame[i] for i in s], "mass": f"1/{len(ss)}"} for s in ss
        ]} for j, ss in enumerate(sets)]
        return {"frame": frame, "bodies": bodies, "queries": [query]}

    def test_credal_translation_within_cell_bound_runs(self, capsys, tmp_path):
        # one focal set over 316 atoms: 316 members of 316 probabilities
        doc = self._wide_doc(316, [[range(316)]], {"op": "mass-to-credal", "body": "m0"})
        assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("mass-to-credal m0: 316 members\n")

    def test_credal_translation_past_cell_bound_is_one_line_finding(self, capsys, tmp_path):
        # one focal set over 1,500 atoms: a 24 KB file asked for 2.25 million probabilities
        doc = self._wide_doc(1500, [[range(1500)]], {"op": "mass-to-credal", "body": "m0"})
        start = time.perf_counter()
        assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", (
            f"finding: credal translation could have more than {MAX_CREDAL_CELLS}"
            " probabilities (1500 selection functions over 1500 atoms)\n"
        ))

    def test_robust_combine_past_cell_bound_is_one_line_finding(self, capsys, tmp_path):
        # each body translates to 100 members over 400 atoms, all with mass 1/2
        # on atom 100; their product has 10,000 members, within the member
        # bound, of 400 probabilities each (a 4 KB file ran 7 s for them)
        sets = [[range(100), [100]]] * 2
        doc = self._wide_doc(400, sets, {"op": "robust-combine", "bodies": ["m0", "m1"]})
        start = time.perf_counter()
        assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", (
            f"finding: combination could have more than {MAX_CREDAL_CELLS}"
            " probabilities (10000 members over 400 atoms)\n"
        ))

    def test_robust_combine_translates_each_body_once(self, capsys, tmp_path):
        doc = {"frame": list("abcdef"), "bodies": [self._heavy_body(8)],
               "queries": [{"op": "robust-combine", "bodies": ["h"] * 200}]}
        start = time.perf_counter()
        assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 1
        assert time.perf_counter() - start < 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(
            rf"finding: combination could have more than {MAX_COMBINED_MEMBERS} members"
            r" \(at least \d+\)\n",
            err,
        )

    def test_module_entry_point(self):
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "plauscalc.cli", "order", "eps", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
        )
        assert (run.returncode, run.stdout, run.stderr) == (0, "LT\n", "")

    def test_validation_error_is_exit_2(self, capsys, tmp_path):
        f = write_scenario(tmp_path, {"frame": ["a"], "bodies": [
            {"name": "m", "masses": [{"set": ["a"], "mass": "9/10"}]}
        ]})
        assert dispatch(["scenario", "run", f]) == 2
        assert "sum to 9/10" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self):
        assert dispatch(["scenario", "run", "/nonexistent/file.json"]) == 2

    def test_deeply_nested_json_is_one_line_usage_error(self, capsys, tmp_path):
        f = tmp_path / "deep.json"
        f.write_text("[" * 100_000 + "]" * 100_000)
        assert dispatch(["scenario", "run", str(f)]) == 2
        assert capsys.readouterr() == ("", f"error: {f}: invalid JSON: nested too deeply\n")

    def test_integer_literal_past_digit_limit_is_one_line_usage_error(self, capsys, tmp_path):
        f = tmp_path / "big.json"
        f.write_text('{"frame": [' + "1" * 5000 + "]}")
        assert dispatch(["scenario", "run", str(f)]) == 2
        assert capsys.readouterr() == ("", f"error: {f}: invalid JSON: integer literal too long\n")

    def test_nested_list_in_an_event_is_not_an_atom(self, capsys, tmp_path):
        f = tmp_path / "nested.json"
        doc = dict(BASE, queries=[{"op": "bel-pl", "body": "m", "event": "EVENT"}])
        f.write_text(json.dumps(doc).replace('"EVENT"', "[" * 900 + "]" * 900))
        assert dispatch(["scenario", "run", str(f)]) == 2
        assert capsys.readouterr() == ("", "error: queries[0].event: expected a list of atom names\n")
        doc = dict(BASE, queries=[{"op": "bel-pl", "body": "m", "event": ["a", 3]}])
        assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 2
        assert capsys.readouterr() == ("", "error: queries[0].event: expected a list of atom names\n")

    def test_long_input_is_echoed_cut_short(self, capsys, tmp_path):
        long = "x" * 3000
        body = {"name": "m", "masses": [{"set": ["a"], "mass": "1"}]}
        docs = [
            {"frame": ["a"], "queries": [{"op": "order", "left": long, "right": "1"}]},
            {"frame": ["a"], "queries": [{"op": "order", "left": "1 " + "1" * 3000, "right": "1"}]},
            {"frame": ["a"], "queries": [{"op": long}]},
            {"frame": ["a"], "bodies": [body], "queries": [{"op": "bel-pl", "body": "m", "event": [long]}]},
            {"frame": ["a"], "bodies": [{"name": "m", "masses": [{"set": [long], "mass": "1"}]}]},
            {"frame": ["a"], "bodies": [{"name": "m", "masses": [{"set": ["a"], "mass": long}]}]},
            {"frame": ["a"], "bodies": [{"name": "m", "masses": [{"set": ["a"], "mass": [[long]]}]}]},
            {"frame": ["a"], "credals": [{"name": "c", "dists": [{long: "1"}]}]},
            {"frame": ["a"], "bodies": [dict(body, name=long), dict(body, name=long)]},
            {"frame": ["a"], "bodies": [body], "queries": [{"op": "bel-pl", "body": long, "event": []}]},
            {"frame": ["a"], "queries": [{"op": "order", "left": [long], "right": "1"}]},
        ]
        for doc in docs:
            assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and len(err) < 200, err[:300]
            assert err.rstrip().endswith("...") and "x" * 37 not in err, err

    def test_long_atoms_are_cut_in_paths_and_library_messages(self, capsys, tmp_path):
        long = "x" * 3000
        docs = [
            {"frame": [long, "b"], "credals": [{"name": "c", "dists": [{long: "1 +", "b": "0"}]}]},
            {"frame": [long, "b"], "credals": [{"name": "c", "dists": [{long: "-1", "b": "2"}]}]},
            {"frame": [long, "b"], "bodies": [{"name": "m", "masses": [
                {"set": [long], "mass": "-1"}, {"set": ["b"], "mass": "2"}]}]},
        ]
        for doc in docs:
            assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and len(err) < 200, err[:300]
            assert "x" * 38 not in err, err

    def test_frame_that_is_not_a_list_names_its_path_once(self, capsys, tmp_path):
        assert dispatch(["scenario", "run", write_scenario(tmp_path, {"frame": "ab"})]) == 2
        assert capsys.readouterr() == ("", "error: frame: expected a list of strings\n")

    def test_credal_translation_of_many_focal_sets_runs(self, capsys, tmp_path):
        # one singleton focal set per atom: one selection function, 1,200 levels deep
        atoms = [f"a{i}" for i in range(1200)]
        body = {"name": "m", "masses": [{"set": [a], "mass": "1/1200"} for a in atoms]}
        doc = {"frame": atoms, "bodies": [body], "queries": [{"op": "mass-to-credal", "body": "m"}]}
        assert dispatch(["scenario", "run", write_scenario(tmp_path, doc)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("mass-to-credal m: 1 members\n")
        assert out.count("member {") == 1

    def test_scenario_law(self, capsys):
        assert dispatch(["scenario-law", "--kernel", "rat", "--law", "distrib",
                         "1/6", "1/3", "1/2"]) == 0
        assert "[agree]" in capsys.readouterr().out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_embed_without_samples_is_usage_error(self, capsys, samples):
        assert dispatch(["embed", "--kernel", "rat", "--samples", samples]) == 2
        assert capsys.readouterr() == ("", "error: samples must be >= 1\n")

    @pytest.mark.parametrize("command", ["check-axioms", "embed"])
    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10 ** 9])
    def test_samples_past_bound_is_usage_error(self, capsys, command, samples):
        # 10^9 embed samples would run for about nine days
        start = time.perf_counter()
        assert dispatch([command, "--kernel", "rat", "--samples", str(samples)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"error: samples must be <= {MAX_SAMPLES}\n")

    def test_scenario_law_on_bool_kernel(self, capsys):
        law = ["scenario-law", "--kernel", "bool", "--law", "comm_G"]
        assert dispatch([*law, "1", "0"]) == 0
        assert capsys.readouterr().out == "comm_G: left=True right=True [agree]\n"
        assert dispatch([*law, "1", "1"]) == 1  # True and True cannot be exclusive
        assert capsys.readouterr().err == (
            "finding: scenario undefined: exclusivity impossible: True exceeds S(True)\n"
        )
        assert dispatch([*law, "1/2", "0"]) == 1
        assert capsys.readouterr().err == "finding: 1/2 is not a bool-kernel value\n"

    def test_long_values_outside_a_domain_are_one_short_finding(self, capsys):
        long_literal, past_digit_limit = "7" * 4000, "(" + "1" * 200 + ")^30"
        b = "1" * 1000
        cases = [
            *(["--kernel", k, "--law", "comm_G", v, "1"]
              for k in ("eps", "rat", "bool") for v in (long_literal, past_digit_limit)),
            ["--kernel", "eps", "--law", "comm_G", f"{b}/({b}+1)", f"{b}/({b}+1)"],
            ["--kernel", "rat", "--law", "comm_G", f"{b}*eps", "1"],
        ]
        for args in cases:
            assert dispatch(["scenario-law", *args]) == 1, args
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("finding: ") and err.count("\n") == 1
            assert len(err) < 200, args

    def test_broken_s_control_fails_with_its_witness(self, capsys):
        assert dispatch(["check-axioms", "--kernel", "broken-s", "--samples", "50"]) == 1
        lines = check_axioms(get_kernel("broken-s"), 50, 0).format_lines()
        assert capsys.readouterr().out == "\n".join(lines) + "\n"
        assert any(line.startswith("FAIL S-involution: ") and "[witness " in line for line in lines)


class TestRepeatedDispatch:
    """Repeated ``dispatch`` calls in one process keep no state between them."""

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the same help layout in both processes
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        argvs = [
            ["order"],
            ["--help"],
            ["order", "eps", "1/2"],
            ["gelman"],
            ["scenario", "run", str(GELMAN)],
            ["order"],
        ]
        for argv in argvs:
            code = dispatch(argv)
            out, err = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "plauscalc.cli", *argv],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"},
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
