import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from lts_reference import reference_reach_lts
from pneq import PlaceRelation, THETA, check_relation, parse_marking, parse_net
from pneq.cli import main
from pneq.formats import lts_to_dot


@pytest.fixture(scope="module")
def data_dir():
    return resources.files("pneq").joinpath("corpus")


@pytest.fixture()
def run(capsys, data_dir):
    def _run(*argv):
        argv = [
            str(data_dir.joinpath(a[5:])) if isinstance(a, str) and a.startswith("data:") else a
            for a in argv
        ]
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestCheck:
    def test_related_exits_zero(self, run):
        code, out, _ = run(
            "check", "--eq", "bplace", "data:silent_cells.pn", "s1", "s2"
        )
        assert code == 0 and "related" in out

    def test_not_related_exits_one(self, run):
        code, out, _ = run(
            "check", "--eq", "place", "--mode", "exhaustive",
            "data:latent_sync.pn", "s1", "s4",
        )
        assert code == 1 and "not-related" in out

    def test_unknown_exits_three(self, run):
        code, out, _ = run(
            "check", "--eq", "bplace", "--mode", "guided",
            "data:silent_cells.pn", "s2", "s5",
        )
        assert code == 3 and "unknown" in out

    def test_report_names_the_mode_used(self, run, monkeypatch):
        args = ("check", "--eq", "bplace", "data:producer_consumer.pn", "P1+C", "P1'+C'")
        code, out, _ = run(*args[:3], "--json", *args[3:])
        report = json.loads(out)
        assert code == 0 and report["query"]["mode"] == "auto"
        assert report["mode_used"] == "exhaustive" and "reason" not in report["stats"]
        # past the cap, auto mode answers unknown from its one search
        monkeypatch.setattr("pneq.checkers.SEARCH_CAP", 1)
        code, out, _ = run(*args)
        assert code == 3 and "verdict: unknown (exhaustive)" in out
        assert "reason=relation search exceeded 1 nodes" in out

    def test_max_pairs_is_gone(self, run):
        with pytest.raises(SystemExit) as exc:
            run("check", "--eq", "place", "--max-pairs", "5", "data:handshake.pn", "s1", "s2")
        assert exc.value.code == 2

    def test_graph_kinds_route_through_the_oracle(self, run):
        code, _, _ = run("check", "--eq", "int", "data:latent_sync.pn", "s1", "s4")
        assert code == 0
        code, _, _ = run("check", "--eq", "int", "data:latent_sync.pn", "2*s1", "2*s4")
        assert code == 1

    def test_graph_kinds_report_the_reach_refine_split(self, run):
        code, out, _ = run("check", "--json", "--eq", "bint", "data:latent_sync.pn", "s1", "s4")
        stats = json.loads(out)["stats"]
        assert code == 0 and (stats["states"], stats["edges"]) == (6, 4)
        assert stats["reach_s"] >= 0 and stats["refine_s"] >= 0

    def test_unbounded_oracle_exits_three(self, run):
        code, _, err = run(
            "check", "--eq", "bint", "--state-cap", "50",
            "data:token_pump.pn", "s1", "s3",
        )
        assert code == 3 and "state space" in err

    def test_repeated_runs_reproduce_output(self, run):
        args = (
            "check", "--eq", "place", "--mode", "exhaustive",
            "--json", "data:handshake.pn", "s1", "s2",
        )
        code1, out1, _ = run(*args)
        code2, out2, _ = run(*args)
        j1, j2 = json.loads(out1), json.loads(out2)
        for j in (j1, j2):  # timings vary; every counter must repeat
            j["stats"] = {k: v for k, v in j["stats"].items() if not k.endswith("_s")}
        assert code1 == code2 == 0 and j1 == j2
        assert j1["stats"]["relations_examined"] == 3

    @pytest.mark.parametrize("mode", ["exhaustive", "guided"])
    def test_no_association_is_the_reason_in_both_modes(self, run, mode):
        # 0 and s1 have no association under a plain kind: exhaustive mode
        # refutes at once, guided mode stays unknown with the same reason
        code, out, _ = run("check", "--eq", "place", "--mode", mode, "--json",
                           "data:handshake.pn", "0", "s1")
        report = json.loads(out)
        assert report["stats"]["reason"] == "no association over the pair universe"
        assert (code, report["verdict"], report["mode_used"]) == (
            (1, "not-related", "exhaustive") if mode == "exhaustive"
            else (3, "unknown", "guided"))
        assert report["stats"]["relations_examined"] == 0

    def test_bad_marking_expression_is_a_usage_error(self, run):
        code, _, err = run("check", "--eq", "place", "data:handshake.pn", "zz", "s2")
        assert code == 2 and "zz" in err

    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "guided"])
    @pytest.mark.parametrize("kind", ["place", "dplace", "bplace", "bdplace"])
    def test_thousands_of_tokens_on_one_place(self, run, kind, mode):
        # tokens on a place are alike: the associations split the count
        # instead of recursing once per token
        code, out, err = run("check", "--eq", kind, "--mode", mode,
                             "data:handshake.pn", "2000*s1+s2", "2000*s1+s2")
        assert code == 0, err
        assert "witness: (s1,s1) (s2,s2) (s3,s3)" in out

    def test_python_dash_m_runs_the_cli(self, data_dir):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "pneq", "check", "--eq", "place",
             str(data_dir.joinpath("handshake.pn")), "s1", "s1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "related" in proc.stdout


class TestVerifyAndClosure:
    def test_verify_producer_consumer(self, run):
        code, _, _ = run(
            "verify", "--eq", "bplace", "--relation", "data:producer_consumer.rel",
            "data:producer_consumer.pn", "P1+C", "P1'+C'",
        )
        assert code == 0

    def test_verify_json_witness_reverifies(self, run, data_dir):
        code, out, _ = run(
            "verify", "--eq", "bplace", "--relation", "data:tau_loops_r1.rel",
            "--json", "data:tau_loops.pn", "s1+s2", "s3+s5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "related"
        net = parse_net(data_dir.joinpath("tau_loops.pn").read_text())
        pairs = {
            (a if a != "0" else THETA, b if b != "0" else THETA)
            for a, b in report["witness"]
        }
        assert check_relation(net, PlaceRelation.of(pairs), "bplace").ok

    def test_failed_membership_is_unknown(self, run):
        code, out, _ = run(
            "verify", "--eq", "bplace", "--relation", "data:tau_loops_r1.rel",
            "--json", "data:tau_loops.pn", "s1+s2", "s6+s8",
        )
        assert code == 3
        report = json.loads(out)
        assert report["verdict"] == "unknown" and report["violations"] == []
        assert report["stats"]["membership_ok"] is False

    def test_failed_verify_reports_violations(self, run, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[2])
            return check_relation(*args, **kwargs)

        # counted under both names it could be called by
        for module in ("pneq.checkers", "pneq.cli"):
            monkeypatch.setattr(f"{module}.check_relation", spy, raising=False)
        args = ("--eq", "place", "--relation", "data:tau_loops_r2.rel",
                "data:tau_loops.pn", "s1+s2", "s6+s8")
        code, out, _ = run("verify", "--json", *args)
        assert code == 3 and calls == ["place"]
        report = json.loads(out)
        assert report["stats"]["relation_ok"] is False
        assert [
            (v["transition"], v["side"], v["marking"], v["reason"])
            for v in report["violations"]
        ] == [
            ("ta", 1, "s6+s8", "no-response"),
            ("ta", 1, "s6+s9", "no-response"),
            ("ta", 1, "s7+s8", "no-response"),
            ("tc1", 2, "s1", "no-response"),
            ("tc3", 2, "s2", "no-response"),
        ]
        assert report["violations"][0]["details"] == (
            "no matching response from Marking(s6 + s8)"
        )
        code, out, _ = run("verify", *args)
        assert code == 3 and out.splitlines()[1:6] == [
            "violation: transition ta side 1 against s6+s8: no-response",
            "violation: transition ta side 1 against s6+s9: no-response",
            "violation: transition ta side 1 against s7+s8: no-response",
            "violation: transition tc1 side 2 against s1: no-response",
            "violation: transition tc3 side 2 against s2: no-response",
        ]

    def test_empty_related_witness_is_an_empty_list(self, run, tmp_path):
        # an empty PlaceRelation is falsy; as a witness it still prints as []
        empty = tmp_path / "empty.rel"
        empty.write_text("relation empty\n")
        for argv in (
            ("check", "--eq", "place"),
            ("verify", "--eq", "place", "--relation", str(empty)),
            ("closure", "--relation", str(empty)),
        ):
            code, out, _ = run(*argv, "--json", "data:handshake.pn", "0", "0")
            report = json.loads(out)
            assert code == 0 and report["witness"] == [], argv
            code, out, _ = run(*argv, "data:handshake.pn", "0", "0")
            assert code == 0 and "witness" not in out, argv

    def test_closure_membership(self, run):
        code, out, _ = run(
            "closure", "--relation", "data:permute.rel",
            "data:bare_places.pn", "s1+s2", "s4+s3",
        )
        assert code == 0 and "(s1,s3)" in out and "(s2,s4)" in out

    def test_closure_non_member_exits_one(self, run):
        code, _, _ = run(
            "closure", "--relation", "data:permute.rel",
            "data:bare_places.pn", "s1", "2*s4",
        )
        assert code == 1

    def test_theta_closure_flag(self, run):
        code, _, _ = run(
            "closure", "--d", "--relation", "data:spawn_deadlock.rel",
            "data:spawn_deadlock.pn", "s1", "s4+s5",
        )
        assert code == 0

    def test_theta_pairs_without_the_flag_name_the_flag(self, run):
        # The error names the option the user left out, not the library
        # function the command would have called.
        code, out, err = run(
            "closure", "--relation", "data:tau_chain.rel",
            "data:tau_chain.pn", "s1", "s4+s5",
        )
        assert code == 2 and out == ""
        assert "--d" in err and "additive_member" not in err


class TestLts:
    def test_summary_and_dot(self, run, tmp_path):
        dot_file = tmp_path / "out.dot"
        code, out, _ = run(
            "lts", "--cap", "100", "--dot", str(dot_file),
            "data:latent_sync.pn", "s1",
        )
        assert code == 0
        assert "states: 3" in out and "edges: 2" in out
        dot = dot_file.read_text()
        assert dot.count("[shape=") == 3 and dot.count(" -> ") == 2

    def test_listing_and_dot_render_every_reference_state(self, run, data_dir, tmp_path):
        # The listing and the DOT file are the paths that read every state's
        # Marking, which the graph builds only when read.
        net = parse_net(data_dir.joinpath("latent_sync.pn").read_text())
        want = reference_reach_lts(net, [parse_marking("2*s1+s4", net)], 100, 1_000)
        dot_file = tmp_path / "out.dot"
        code, out, _ = run(
            "lts", "--cap", "100", "--dot", str(dot_file), "data:latent_sync.pn", "2*s1+s4",
        )
        assert code == 0
        listing = [line for line in out.splitlines() if line[:1] in "* " and ": " in line]
        assert listing == [
            f"{'*' if i in want.initials else ' '} {i}: {net.format_marking(m)}"
            for i, m in enumerate(want.states)
        ]
        assert len(listing) == len(want.states) == 21
        assert dot_file.read_text() == lts_to_dot(want, net)

    def test_json_report(self, run):
        code, out, _ = run("lts", "--json", "--cap", "100", "data:latent_sync.pn", "s1")
        report = json.loads(out)
        assert code == 0 and report["verdict"] == "ok"
        assert report["query"] == {
            "command": "lts", "net": report["query"]["net"], "m0": "s1", "cap": 100,
        }
        assert report["stats"] == {"states": 3, "edges": 2}

    def test_cap_exceeded_exits_three(self, run):
        code, _, err = run("lts", "--cap", "100", "data:token_pump.pn", "s3")
        assert code == 3 and "100" in err


@pytest.mark.parametrize("argv", [
    ("check", "--eq", "place", "data:handshake.pn", "s1", "s2"),
    ("check", "--eq", "bdplace", "--mode", "guided", "data:tau_chain.pn", "s1", "s4+s5"),
    ("check", "--eq", "int", "data:latent_sync.pn", "s1", "s4"),
    ("check", "--eq", "bint", "data:latent_sync.pn", "s1", "s4"),
    ("verify", "--eq", "place", "--relation", "data:tau_loops_r2.rel",
     "data:tau_loops.pn", "s1+s2", "s6+s8"),
    ("closure", "--d", "--relation", "data:spawn_deadlock.rel",
     "data:spawn_deadlock.pn", "s1", "s4+s5"),
    ("lts", "data:latent_sync.pn", "s1"),
], ids=["check-place", "check-bdplace", "check-int", "check-bint", "verify", "closure", "lts"])
def test_every_json_report_has_the_same_keys(run, argv):
    _, out, _ = run(argv[0], "--json", *argv[1:])
    report = json.loads(out)
    keys = {"query", "verdict", "witness", "violations", "stats"}
    if argv[0] == "check" and argv[2] not in ("int", "bint"):
        keys.add("mode_used")
    assert set(report) == keys
    assert report["query"]["command"] == argv[0]


class TestCorpusCommand:
    def test_default_run_passes(self, run):
        code, out, _ = run("corpus", "run")
        assert code == 0
        assert "FAIL" not in out

    def test_json_output_parses(self, run):
        code, out, _ = run("corpus", "run", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["failures"] == 0
        assert all(c["passed"] for c in report["cases"])

    def test_json_output_carries_each_case_stats(self, run):
        code, out, _ = run("corpus", "run", "--json")
        cases = {c["name"]: c for c in json.loads(out)["cases"]}
        stats = cases["triple-sync-place"]["stats"]
        assert stats["relations_examined"] == 512 and stats["universe"] == 9
        assert stats["associations_refuted"] == stats["associations"] == 6
        assert stats["reason"] == "every association fails a condition"
        graph = cases["latent-sync-graph-double"]["stats"]
        assert (graph["states"], graph["edges"]) == (13, 13)
        assert set(graph) == {"states", "edges", "reach_s", "refine_s", "refine_rounds"}


class TestErrors:
    def test_parse_error_exits_two(self, run, tmp_path):
        bad = tmp_path / "bad.pn"
        bad.write_text("net x\nplace s1\ntrans t : s1, -> a -> 0\n")
        code, _, err = run("check", "--eq", "place", str(bad), "s1", "s1")
        assert code == 2 and "line 3" in err

    def test_missing_file_exits_two(self, run):
        code, _, err = run("check", "--eq", "place", "/nonexistent.pn", "s1", "s1")
        assert code == 2

    def test_oversized_multiplicity_exits_two(self, run):
        code, _, err = run(
            "check", "--eq", "place", "data:handshake.pn", "9" * 4301 + "*s1", "s1"
        )
        assert code == 2 and "multiplicity exceeds" in err

    @pytest.mark.parametrize("expr", [
        "9" * 4301 + "*s1", "0" * 4301 + "*s1", "s1+" + "x" * 5000,
    ], ids=["nines", "zeros", "name"])
    def test_long_bad_marking_gives_a_short_error(self, run, expr):
        code, _, err = run("check", "--eq", "place", "data:handshake.pn", expr, "s1")
        assert code == 2 and err.startswith("error: ") and len(err) < 200

    @pytest.mark.parametrize("bad_file", ["net", "relation"])
    def test_non_utf8_file_exits_two(self, run, tmp_path, data_dir, bad_file):
        files = {
            "net": data_dir.joinpath("handshake.pn").read_bytes(),
            "relation": b"relation r\npair s1 s2\n",
        }
        files[bad_file] += b"# \xff\n"
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        code, _, err = run(
            "verify", "--eq", "place", "--relation", str(tmp_path / "relation"),
            str(tmp_path / "net"), "s1", "s2",
        )
        assert code == 2 and "not UTF-8" in err

    @pytest.mark.parametrize("command, module", [
        (("closure",), "pneq.relations"), (("closure", "--d"), "pneq.relations"),
        (("verify", "--eq", "place"), "pneq.checkers"),
    ], ids=["closure", "closure-d", "verify"])
    def test_running_out_of_memory_exits_three(self, run, monkeypatch, command, module):
        # Exit 1 says not-member; a process out of memory has no verdict.
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(f"{module}._match", exhausted)
        code, out, err = run(
            *command, "--json", "--relation", "data:permute.rel",
            "data:bare_places.pn", "10000000*s1", "10000000*s3",
        )
        assert (code, out, err) == (3, "", "error: out of memory\n")

    def test_unknown_equivalence_is_a_usage_error(self, run):
        with pytest.raises(SystemExit) as err:
            run("check", "--eq", "weird", "data:handshake.pn", "s1", "s2")
        assert err.value.code == 2
