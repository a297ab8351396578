import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ordtensor.harness as harness
import ordtensor.schreier as schreier
from ordtensor.harness import (
    Check,
    Report,
    ScenarioConfig,
    _common_denominator,
    _hereditary,
    _spreading,
    main,
    make_stream,
    reports_to_csv,
    reports_to_json,
    run_all,
    run_blocking_demo,
    run_family_suite,
    run_groth_probe,
    run_lower_bound_probe,
    run_perm_suite,
    run_sharpness,
)
from ordtensor.weights import RadicalSum, Weight

from oracles import spreads, subsets


class TestStreams:
    def test_single_start(self):
        s = make_stream("3")
        assert [next(s) for _ in range(4)] == [3, 4, 5, 6]

    def test_listed_with_ellipsis(self):
        s = make_stream("2,5,9,...")
        assert [next(s) for _ in range(5)] == [2, 5, 9, 10, 11]

    def test_finite(self):
        assert list(make_stream("2,5,9")) == [2, 5, 9]

    def test_garbage(self):
        with pytest.raises(ValueError):
            make_stream("")


class TestReports:
    def test_pass_fail_and_skip(self):
        r = Report("demo", {})
        r.holds("good", "id-a", "==", True)
        assert r.passed()
        r.skip("later", "id-b", "budget")
        assert r.passed()
        r.compare("bad", "id-c", "==", 2, "==", 1)
        assert not r.passed()

    def test_json_and_csv_shapes(self):
        r = Report("demo", {"xi": "1"})
        r.compare("good", "id-a", "==", 1, "==", 1)
        payload = json.loads(reports_to_json([r]))
        assert payload["passed"] is True
        assert payload["reports"][0]["scenario"] == "demo"
        csv_text = reports_to_csv([r])
        assert csv_text.splitlines()[0].startswith("scenario,check")
        assert "demo,good" in csv_text

    @pytest.mark.parametrize("value, bound, tol", [
        (0.5, 1, 0),
        (Fraction(1, 2), 1.0, 0),
        (Fraction(1, 2), 1, 1e-9),
        (np.float64(0.5), 1, 0),
    ], ids=["float-value", "float-bound", "float-tolerance", "numpy-float"])
    def test_a_float_in_the_verdict_is_not_exact(self, value, bound, tol):
        r = Report("demo", {})
        r.compare("c", "id", "<=", value, "<=", bound, tol=tol)
        r.compare("d", "id", "<=", Fraction(1, 2), "<=", 1, also={"x": (value, "<=", bound + tol)})
        assert [c.exact for c in r.checks] == [False, False]
        assert r.passed()

    @pytest.mark.parametrize("value, bound", [
        (Fraction(1, 2), Fraction(1, 2)),
        (1, 1),
        (True, True),
        (RadicalSum().add(Weight(Fraction(1), 4), 2), 1),
    ], ids=["fraction", "int", "bool", "radical-sum"])
    def test_exact_values_give_an_exact_check(self, value, bound):
        r = Report("demo", {})
        r.compare("c", "id", "==", value, "==", bound)
        assert r.checks[0].exact and r.checks[0].passed

    def test_a_false_comparison_fails(self):
        r = Report("demo", {})
        r.compare("over", "id", "<= 1", Fraction(3, 2), "<=", 1)
        r.compare("past-tolerance", "id", ">= 1", 1 - 2e-9, ">=", 1, tol=1e-9)
        r.compare("not-close", "id", "== 1", 1 + 2e-12, "==", 1, tol=1e-12)
        r.compare("claim", "id", "<= 1", 0, "<=", 1, also={"q": (False, "is", True)})
        r.holds("fact", "id", "holds", False)
        assert [c.passed for c in r.checks] == [False] * 5
        assert not r.passed()

    def test_tolerance_widens_the_bound(self):
        r = Report("demo", {})
        r.compare("le", "id", "<= 1", 1 + 5e-10, "<=", 1, tol=1e-9)
        r.compare("ge", "id", ">= 1", 1 - 5e-10, ">=", 1, tol=1e-9)
        r.compare("eq", "id", "== 1", 1 - 5e-13, "==", 1, tol=1e-12)
        assert all(c.passed and not c.exact for c in r.checks)

    def test_computed_is_the_judged_value(self):
        r = Report("demo", {})
        r.compare("a", "id", "<= 1", Fraction(1, 3), "<=", 1)
        r.compare("b", "id", "<= 1", 1 / 3, "<=", 1, ".6f")
        r.compare("c", "id", "<= w", 0.25, "<=", 0.5, "{value:.2f} (w {bound:.1f})", tol=1e-9)
        r.compare("d", "id", ">= 1", 1.0, ">=", 1, "{q}, {value}", also={"q": (Fraction(1), "==", 1)})
        r.compare("e", "id", "exists", None, "is", True)
        r.holds("f", "id", "holds", True)
        assert [c.computed for c in r.checks] == [
            "1/3", "0.333333", "0.25 (w 0.5)", "1, 1.0", "None", "True"
        ]
        assert [c.passed for c in r.checks] == [True] * 4 + [False, True]

    def test_wall_time_excluded_when_asked(self):
        r = Report("demo", {})
        r.wall_time_s = 1.23
        assert "wall_time" not in reports_to_json([r], include_wall_time=False)


class TestScenarios:
    def test_perm_suite_passes(self):
        rep = run_perm_suite(ScenarioConfig(xi="1", zeta="1", stream="3", blocks=1))
        assert rep.passed()
        assert any(not c.skipped for c in rep.checks)

    def test_perm_suite_skips_over_budget(self):
        rep = run_perm_suite(ScenarioConfig(xi="2", zeta="2", stream="2", blocks=3))
        assert rep.passed()
        assert all(c.skipped for c in rep.checks)

    def test_perm_suite_partial_budget(self):
        rep = run_perm_suite(ScenarioConfig(xi="2", zeta="0", stream="2", blocks=3))
        assert rep.passed()
        skipped = [c for c in rep.checks if c.skipped]
        checked = [c for c in rep.checks if not c.skipped]
        assert skipped and checked

    def test_determinism(self):
        a = reports_to_json([run_groth_probe(ScenarioConfig(samples=6, seed=3))],
                            include_wall_time=False)
        b = reports_to_json([run_groth_probe(ScenarioConfig(samples=6, seed=3))],
                            include_wall_time=False)
        assert a == b

    def test_sharpness_rejects_large_parameters(self):
        with pytest.raises(ValueError):
            run_sharpness(ScenarioConfig(xi="2", zeta="0"))

    def test_family_suite(self):
        assert run_family_suite(ScenarioConfig()).passed()

    def test_family_suite_walks_members(self, monkeypatch):
        # the walk tries extensions of members only; testing every subset
        # of [1,10] one by one takes 11886 block walks
        schreier._member.cache_clear()
        walks = []
        take_block = schreier._take_block

        def spy(fam, source, start):
            walks.append(fam)
            return take_block(fam, source, start)

        monkeypatch.setattr(schreier, "_take_block", spy)
        assert run_family_suite(ScenarioConfig()).passed()
        assert len(walks) <= 8500

    def test_perm_suite_rejects_empty_block_count(self):
        for blocks in (0, -1):
            with pytest.raises(ValueError):
                run_perm_suite(ScenarioConfig(xi="1", zeta="1", blocks=blocks))

    def test_family_golden_report(self):
        # all-exact: the bytes of the families report, wall time excluded
        rep = run_family_suite(ScenarioConfig())
        text = reports_to_json([rep], include_wall_time=False)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "47a12aa81befc9456fd66962e6cefd1a2239c22b235eed800a3de4c8d0c603ec"
        )

    def test_sharpness_golden_report(self):
        # the 2046-element (1,1,2) instance; its LP check is skipped, so
        # the report is all-exact and its bytes do not depend on the platform
        rep = run_sharpness(ScenarioConfig(xi="1", zeta="1", stream="2"))
        text = reports_to_json([rep], include_wall_time=False)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a70d6d531e97d8e8b2a4e92ac4c6ae26f4c773b7d97ead82ad91ca93302fb9bd"
        )

    def test_all_golden_report(self):
        # every scenario of `verify all` at seed 0, wall time excluded; its
        # float checks print LP values, so the digest pins those as well
        reports = run_all(ScenarioConfig(seed=0))
        assert all(r.wall_time_s > 0 for r in reports)
        text = reports_to_json(reports, include_wall_time=False)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "82d0d3c6fe38594ce0c87386eb768c343515aeaa72a2f69a258c47e8a5d40d0f"
        )

    @pytest.mark.parametrize("seed, digest", [
        (1, "35c042621b2fb260baf39be8cbb0bf8e8b5e084273795bd990bcffc5539ef100"),
        (2, "e6f4fe1f1c4e91b7df5ec9b689e0646bf9869b76f0474258cf67f8a2284efb5d"),
        (43, "9fb3b048f284b13d19d1c0c6d06b8bca634774e73d54bf8e0ab8d503e5a35bd8"),
    ], ids=["1", "2", "43"])
    def test_seeded_golden_reports(self, seed, digest):
        # the scenarios that read the seed, which hold 14 of the 17 float
        # checks of `verify all`, pinned at seeds besides 0
        cfg = ScenarioConfig(seed=seed)
        reports = [run_blocking_demo(replace(cfg, xi="1")), run_groth_probe(cfg),
                   run_lower_bound_probe(cfg)]
        text = reports_to_json(reports, include_wall_time=False)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_sharpness_cut_at_its_first_block_is_timed(self):
        rep = run_sharpness(ScenarioConfig(xi="1", zeta="1", stream="2", block_budget=10))
        assert [c.check_id for c in rep.checks] == ["sharpness-block-materialization"]
        assert rep.wall_time_s > 0

    def test_staircase_families_are_pinned(self, monkeypatch):
        # the staircase weak-2 values print the same whatever the strips
        # hold, so the families handed to the LP are pinned here
        seen = []
        lower = harness.weak_2_norm_pi_lower

        def spy(fam, **kw):
            seen.append(fam)
            return lower(fam, **kw)

        monkeypatch.setattr(harness, "weak_2_norm_pi_lower", spy)
        run_blocking_demo(ScenarioConfig(xi="1", seed=0))
        digest = hashlib.sha256(b"".join(np.stack(fam).tobytes() for fam in seen))
        assert len(seen) == 3
        assert digest.hexdigest() == (
            "704ab0d33c060f2afdca53400710db4ca0bc03ae6422b130a1835dd379897c91"
        )


def _merge_first_inner_block(block_map_path):
    """The block map, but the first inner block takes the second's node."""
    def merged(*args):
        path = block_map_path(*args)
        second = next(node for node in path if node != path[0])
        return [second if node == path[0] else node for node in path]
    return merged


def _double_entry(prefix_weights, k):
    def doubled(*args):
        ws = prefix_weights(*args)
        ws[k] = ws[k] * 2
        return ws
    return doubled


def _negate_first_value(values_at):
    """The value table, but the root function's value at the first atom negated."""
    def negated(*args):
        rows = values_at(*args)
        rows[0][0] = -rows[0][0]
        return rows
    return negated


def _swap_first_two(rademacher):
    def swapped(*args):
        mus = rademacher(*args)
        return (mus[1], mus[0], *mus[2:])
    return swapped


class TestSharpnessVerdicts:
    """Each exact verdict of the sharpness scenario can fail."""

    CFG = ScenarioConfig(xi="1", zeta="0", stream="3")

    def test_merged_inner_blocks_are_reported(self, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "block_map_path",
                            _merge_first_inner_block(harness.block_map_path))
        rep = run_sharpness(self.CFG)
        assert [(c.check_id, c.passed) for c in rep.checks] == [
            ("block-map-constancy", False)
        ]
        out = tmp_path / "r.json"
        argv = ["verify", "sharpness", "--xi", "1", "--zeta", "0", "--stream", "3",
                "--out", str(out)]
        assert main(argv) == 1
        (report,) = json.loads(out.read_text())["reports"]
        assert [c["check_id"] for c in report["checks"]] == ["block-map-constancy"]

    @pytest.mark.parametrize("name, broken, failing", [
        ("q_prefix_weights", lambda f: _double_entry(f, 1),
         {"weights-l2-sum-one", "tensor-dual-pairing-one", "tensor-pi-lower-bound-exact"}),
        ("p_prefix_weights", lambda f: _double_entry(f, 0),
         {"tensor-dual-pairing-one", "tensor-pi-lower-bound-exact"}),
        ("rademacher", _swap_first_two,
         {"rademacher-biorthogonality", "tensor-dual-pairing-one",
          "tensor-pi-lower-bound-exact"}),
    ], ids=["second-q-doubled", "first-p-doubled", "first-measures-swapped"])
    def test_broken_input_fails_its_verdicts(self, monkeypatch, name, broken, failing):
        monkeypatch.setattr(harness, name, broken(getattr(harness, name)))
        rep = run_sharpness(self.CFG)
        assert {c.check_id for c in rep.checks if not c.passed} == failing
        assert len(rep.checks) == 9

    def test_a_negated_table_value_fails_its_verdicts(self, monkeypatch):
        # every exact pairing reads the swept value table; the dual
        # pairing reads its diagonal, so it fails beside the two named
        monkeypatch.setattr(harness, "values_at", _negate_first_value(harness.values_at))
        rep = run_sharpness(self.CFG)
        assert {c.check_id for c in rep.checks if not c.passed} == {
            "rademacher-biorthogonality", "tensor-dual-pairing-one",
            "tensor-pi-lower-bound-exact"}
        assert len(rep.checks) == 9


dyadic_floats = st.builds(lambda n, k: n / 2**k, st.integers(-2**60, 2**60), st.integers(0, 80))


class TestCommonDenominator:
    """Integer rows read from integer ratios, against the Fraction route."""

    @given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4),
                              dyadic_floats, st.floats(allow_nan=False, allow_infinity=False))))
    def test_matches_the_fraction_route(self, values):
        fracs = [Fraction(v) for v in values]
        den = math.lcm(*(f.denominator for f in fracs))
        assert _common_denominator(values) == (
            [f.numerator * (den // f.denominator) for f in fracs], den)

    @pytest.mark.parametrize("bad, error", [(math.inf, OverflowError),
                                            (-math.inf, OverflowError), (math.nan, ValueError)])
    def test_rejects_inf_and_nan(self, bad, error):
        with pytest.raises(error):
            _common_denominator([Fraction(1, 3), 0.5, bad, 2])


@st.composite
def set_systems(draw, bound=6):
    """Set systems over [1, bound]: raw, or closed under subsets and/or
    spreads, then perhaps with one member dropped (mostly not closed)."""
    members = set(draw(st.sets(
        st.frozensets(st.integers(1, bound)).map(lambda s: tuple(sorted(s))),
        max_size=10,
    )))
    if draw(st.booleans()):
        members = {sub for E in members for sub in subsets(E)}
    if draw(st.booleans()):
        members = {S for E in members for S in spreads(E, bound)}
    if members and draw(st.booleans()):
        members.discard(draw(st.sampled_from(sorted(members))))
    return members


class TestClosureChecks:
    """The families suite's closure checks against the definitions."""

    @given(set_systems())
    def test_hereditary_matches_all_subsets(self, members):
        expected = all(sub in members for E in members for sub in subsets(E))
        assert _hereditary(members) == expected

    @given(set_systems())
    def test_spreading_matches_all_spreads(self, members):
        expected = all(S in members for E in members for S in spreads(E, 6))
        assert _spreading(members, 6) == expected

    def test_examples(self):
        closed = set(subsets(range(1, 4)))
        assert _hereditary(closed) and _spreading(closed, 3)
        assert _hereditary(set()) and _spreading(set(), 3)
        # only the deletion of the last element is missing
        assert not _hereditary({(), (2,), (1, 2)})
        # only the move of the last element is missing
        assert not _spreading({(1, 2)}, 3)
        assert _spreading({(1,)}, 1) and not _spreading({(1,)}, 2)


class TestCli:
    def test_member(self, capsys):
        assert main(["schreier", "member", "--family", "S[1]", "--set", "2,5"]) == 0
        assert capsys.readouterr().out.strip() == "True"

    @pytest.mark.parametrize("subset, expected", [("2,3", "True"), ("3,4", "False")])
    def test_maximal(self, capsys, subset, expected):
        assert main(["schreier", "maximal", "--family", "S[1]", "--set", subset]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_tensor_eps(self, capsys):
        assert main(["tensor", "eps", "--matrix", "[[1,-2],[0.5,0]]"]) == 0
        assert capsys.readouterr().out.strip() == "2.000000000000"

    @pytest.mark.parametrize("p", ["1", "2"])
    def test_tensor_weakp(self, capsys, p):
        mats = "[[[1,0],[0,0]],[[0,0],[0,1]]]"
        assert main(["tensor", "weakp", "--p", p, "--matrices", mats]) == 0
        assert capsys.readouterr().out.strip() == "1.000000000000"

    def test_tree_build_roots(self, capsys):
        assert main(["tree", "build", "--gamma", "1", "--max-root", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["roots"] == [["0"], ["1"]]

    def test_tree_build_node(self, capsys):
        assert main(["tree", "build", "--gamma", "2", "--max-root", "4", "--node", "w + 1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rank"] == "w + 1" and out["maximal"] is False

    def test_tree_build_deep_node(self, capsys):
        # a rank w*600 tree is read without building anything below it
        argv = ["tree", "build", "--gamma", "600", "--max-root", "2", "--node", "w*599 + 1"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rank"] == "w*599 + 1" and out["maximal"] is False

    def test_tree_build_summand_past_max_root(self, capsys):
        # max_root bounds the roots listed, not the nodes accepted
        argv = ["tree", "build", "--gamma", "w", "--max-root", "2", "--node", "w^2 + w*2"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == "w*2"

    def test_tree_scheme(self, capsys):
        assert main(["tree", "scheme", "--gamma", "1", "--branch", "1,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["+"] == ["(0,2]"]

    def test_weights_p(self, capsys):
        assert main(["weights", "p", "--xi", "1", "--set", "3,4"]) == 0
        assert capsys.readouterr().out.strip() == "1/3"

    def test_weights_q(self, capsys):
        assert main(["weights", "q", "--xi", "0", "--zeta", "1", "--set", "3,4"]) == 0
        assert capsys.readouterr().out.strip() == "1/(1*sqrt(3))"

    def test_tensor_pi(self, capsys):
        assert main(["tensor", "pi", "--matrix", "[[1,0],[0,1]]"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["pi"] - 1.0) < 1e-9

    def test_tensor_pi_near_the_float_range(self, capsys):
        assert main(["tensor", "pi", "--matrix", "[[1e308,1e302],[1e302,-1e308]]"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["pi"] / 1.000001e308 - 1) < 1e-9

    def test_tree_phi(self, capsys):
        assert main(["tree", "phi", "--xi", "0", "--zeta", "0", "--set", "3,4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == [["2"], ["2", "1"]]

    def test_decompose(self, capsys):
        assert main([
            "schreier", "decompose", "--family", "S[1]", "--stream", "3",
            "--count", "2",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == [[3, 4, 5], [6, 7, 8, 9, 10, 11]]

    def test_verify_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "verify", "perm", "--xi", "1", "--zeta", "1", "--stream", "3",
            "--blocks", "1", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True

    def test_verify_csv(self, capsys):
        code = main([
            "verify", "perm", "--xi", "0", "--zeta", "1", "--stream", "3",
            "--blocks", "1", "--format", "csv",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("scenario,check")

    def test_blocking_past_its_block_budget_skips(self, capsys):
        # the averages need the stream's first blocks; the staircase does not
        assert main(["verify", "blocking", "--xi", "1", "--block-budget", "7"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        skipped = [c for c in report["checks"] if c["skipped"]]
        assert [(c["check_id"], c["detail"]) for c in skipped] == [
            ("blocking-block-materialization", "block needs more than 7 stream elements")
        ]
        assert {c["check_id"] for c in report["checks"]} >= {
            "disjoint-supports", "staircase-weak-2-half", "staircase-weak-2"
        }

    def test_perm_past_the_end_of_its_stream_skips(self, capsys):
        # the stream ends before the fourth block; the three it gave are checked
        argv = ["verify", "perm", "--xi", "0", "--zeta", "0", "--stream", "2,5,9",
                "--blocks", "4"]
        assert main(argv) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        skipped = [c for c in report["checks"] if c["skipped"]]
        assert [(c["name"], c["check_id"], c["detail"]) for c in skipped] == [
            ("block-4", "weights-block-materialization", "stream ended after 3 elements")
        ]
        assert len(report["checks"]) == 5 and report["passed"] is True

    @pytest.mark.parametrize("argv, expected", [
        (["verify", "all"], ScenarioConfig()),
        (["verify", "families"], ScenarioConfig()),
        (["verify", "perm", "--xi", "1", "--blocks", "2", "--format", "csv"],
         ScenarioConfig(xi="1", blocks=2, fmt="csv")),
        (["verify", "sharpness", "--max-root", "4", "--block-budget", "9", "--out", "r.json"],
         ScenarioConfig(max_root=4, block_budget=9, out="r.json")),
        (["verify", "blocking", "--eps", "1/3", "--seed", "5", "--samples", "2"],
         ScenarioConfig(eps="1/3", seed=5, samples=2)),
    ], ids=["all", "families", "perm", "sharpness", "blocking"])
    def test_verify_defaults_come_from_the_config(self, argv, expected, monkeypatch):
        # an option not given takes its ScenarioConfig default
        seen = []
        monkeypatch.setattr(harness, "_emit", lambda reports, cfg: seen.append(cfg) or 0)
        monkeypatch.setattr(harness, "run_all", lambda cfg: [])
        for action, scenario in harness.SCENARIOS.items():
            monkeypatch.setitem(harness.SCENARIOS, action, scenario._replace(run=lambda cfg: None))
        assert main(argv) == 0
        assert seen == [expected]

    @pytest.mark.parametrize("action", ["perm", "families", "sharpness", "blocking", "groth",
                                        "lower"])
    def test_every_option_reaches_the_report(self, action, capsys):
        # runs with different settings print different reports: each
        # option a verify command takes is a parameter of its report
        with pytest.raises(SystemExit):
            main(["verify", action, "--help"])
        options = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out))
        options -= {"help", "out", "format"}
        small = [arg for o in sorted(options & {"blocks", "samples"}) for arg in (f"--{o}", "2")]
        options = {o.replace("-", "_") for o in options}
        assert main(["verify", action, *small]) == 0
        for report in json.loads(capsys.readouterr().out)["reports"]:
            assert options - set(report["parameters"]) == set()


class TestCliInputErrors:
    """Bad input gets one line on stderr and exit code 2, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["schreier", "member", "--family", "S[x]", "--set", "3"],
            ["schreier", "member", "--family", "S[1]", "--set", "3,2"],
            ["tensor", "pi", "--matrix", "[[1,0],[1]]"],
            ["verify", "perm", "--blocks", "0"],
            ["schreier", "decompose", "--family", "S[2]", "--stream", "3",
             "--count", "2", "--block-budget", "50"],
            ["schreier", "decompose", "--family", "S[1]", "--stream", "3,4"],
            ["tensor", "weakp", "--p", "1", "--matrices", "[]"],
            ["tensor", "weakp", "--p", "2", "--matrices", "[]"],
            ["tree", "build", "--gamma", "w^2"],
            ["tree", "phi", "--xi", "0", "--zeta", "2", "--set", "3,4"],
            ["verify", "blocking", "--eps", "1/0"],
            ["verify", "blocking", "--eps", "-1"],
            ["tensor", "pi", "--matrix", '{"a": 1}'],
            ["tensor", "weakp", "--p", "1", "--matrices", "5"],
            ["verify", "lower", "--samples", "0"],
            ["verify", "groth", "--samples", "-1"],
            ["tensor", "weakp", "--p", "2", "--samples", "-3",
             "--matrices", "[[[1,0.5],[0,1]],[[0,1],[1,0]]]"],
            ["tensor", "pi", "--matrix", "[[1e308,1e308],[1e308,-1e308]]"],
            ["verify", "perm", "--block-budget", "-5"],
            ["verify", "sharpness", "--xi", "1", "--block-budget", "0"],
            ["schreier", "decompose", "--family", "S[1]", "--stream", "3",
             "--block-budget", "0"],
            ["schreier", "decompose", "--family", "S[1]", "--stream", "3",
             "--block-budget", "-5"],
            ["tree", "build", "--gamma", "1", "--node", ",".join(map(str, range(16, -1, -1)))],
        ],
        ids=["family", "set-order", "ragged-matrix", "verify-perm-blocks-0", "budget",
             "stream-exhausted", "empty-weak-1-family", "empty-weak-2-family",
             "unsupported-gamma", "unsupported-zeta", "eps-zero-denominator",
             "eps-negative", "non-numeric-matrix", "scalar-family", "lower-samples-0",
             "groth-samples-negative", "weak-2-samples-negative", "pi-past-float-range",
             "perm-block-budget-negative", "sharpness-block-budget-0",
             "decompose-block-budget-0", "decompose-block-budget-negative",
             "node-past-piece-budget"],
    )
    def test_exit_code_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ordtensor: error: ")
        assert "Traceback" not in captured.err
        if "--block-budget" in argv and int(argv[argv.index("--block-budget") + 1]) < 1:
            assert "budget" in lines[0]

    @pytest.mark.parametrize("argv, message", [
        (["verify", "all", "--out", "/nonexistent/dir/x"],
         "ordtensor: error: cannot write the report to /nonexistent/dir/x"),
        (["verify", "all", "--seed", "-1"],
         "ordtensor: error: seed must be non-negative, got -1"),
    ], ids=["out-without-directory", "seed-negative"])
    def test_refused_before_any_scenario_runs(self, argv, message, monkeypatch, capsys):
        # the input is refused up front, not after every scenario has run
        ran = []
        monkeypatch.setattr(harness, "run_all", lambda cfg: ran.append(cfg) or [])
        assert main(argv) == 2
        assert ran == []
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"

    def test_out_that_is_a_directory_is_refused(self, tmp_path, capsys):
        argv = ["verify", "perm", "--blocks", "1", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"ordtensor: error: cannot write the report to {tmp_path}\n")

    def test_node_past_the_width_bound_names_the_node(self, capsys):
        # the node's blocks are 2^20000 wide: refused before any end is
        # computed, rather than failing to print a 6021-digit coefficient
        assert main(["tree", "build", "--gamma", "1", "--node", "20000"]) == 2
        err = capsys.readouterr().err
        assert err == ("ordtensor: error: the function of node (Ordinal[20000],) "
                       "has blocks of width 2^20000, past 2^64\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "groth", "--xi", "1"],
            ["verify", "families", "--seed", "1"],
            ["verify", "all", "--xi", "1"],
        ],
        ids=["groth-xi", "families-seed", "all-xi"],
    )
    def test_option_the_scenario_does_not_read(self, argv, capsys):
        # each verify command takes only the options its scenario reads
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_benchmark_checks_catch_corrupted_results():
    # the benchmark's own self-test: every checker passes a genuine
    # result and fails a corrupted one, such as a flipped
    # weights-permanence-p check in a verify report
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_module_entry_point_prints_csv():
    # the README's `python -m ordtensor.harness`, run as a fresh process
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ordtensor.harness", "verify", "families", "--format", "csv"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header = proc.stdout.splitlines()[0]
    assert header == "scenario,check,check_id,relation,computed,passed,exact,skipped,detail"
    assert proc.stdout.splitlines()[1].startswith("families,")
