"""CLI tests driven through ``entry(argv)``: exit codes, output, files."""

from __future__ import annotations

import json

import pytest

from crewsolver.cli import entry
from crewsolver.serialize import dumps_instance, dumps_witness, loads_instance

GRAPH_NO_PATH = "p 6 5\ne 1 2\ne 2 3\ne 3 4\ne 3 5\ne 5 6\n"


@pytest.fixture
def deal_file(tmp_path, uneven_deal):
    path = tmp_path / "deal.json"
    path.write_text(dumps_instance(uneven_deal))
    return str(path)


@pytest.fixture
def witness_file(tmp_path, uneven_deal_win):
    path = tmp_path / "win.json"
    path.write_text(dumps_witness(uneven_deal_win))
    return str(path)


class TestSolve:
    def test_yes_exit_zero(self, deal_file, capsys):
        assert entry(["solve", deal_file]) == 0
        out = capsys.readouterr().out
        assert "decision: true" in out
        assert "solver: exhaustive" in out

    def test_no_exit_one(self, tmp_path, capsys):
        from crewsolver.model import Card, Instance, Objective

        lost = Instance(
            players=2,
            k=2,
            s=1,
            hands=(frozenset({Card(2, 1)}), frozenset({Card(1, 1)})),
            objectives=(Objective(Card(1, 1), 2),),
        )
        path = tmp_path / "lost.json"
        path.write_text(dumps_instance(lost))
        assert entry(["solve", str(path)]) == 1
        assert "decision: false" in capsys.readouterr().out

    def test_budget_exhausted_exit_two(self, deal_file, capsys):
        assert entry(["solve", deal_file, "--budget", "2"]) == 2
        assert "unknown (budget exhausted)" in capsys.readouterr().out

    def test_budget_env_default(self, deal_file, capsys, monkeypatch):
        monkeypatch.setenv("CREW_BUDGET", "2")
        assert entry(["solve", deal_file]) == 2
        monkeypatch.setenv("CREW_BUDGET", "0")
        assert entry(["solve", deal_file]) == 0

    def test_bad_budget_is_error(self, deal_file, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            entry(["solve", deal_file, "--budget", "-5"])
        assert exc.value.code == 2
        assert "--budget: must be a non-negative integer" in capsys.readouterr().err
        for raw in ("abc", "-5"):
            monkeypatch.setenv("CREW_BUDGET", raw)
            assert entry(["solve", deal_file]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert lines == [f"error: CREW_BUDGET must be a non-negative integer, got {raw!r}"]
        monkeypatch.setenv("CREW_BUDGET", "")
        assert entry(["solve", deal_file]) == 0

    def test_budget_flag_beats_env(self, deal_file, capsys, monkeypatch):
        for raw in ("abc", "2"):
            monkeypatch.setenv("CREW_BUDGET", raw)
            assert entry(["solve", deal_file, "--budget", "0"]) == 0
            assert "decision: true" in capsys.readouterr().out

    def test_witness_out_verifies(self, deal_file, tmp_path, capsys):
        out = tmp_path / "witness.json"
        assert entry(["solve", deal_file, "--witness-out", str(out)]) == 0
        assert out.exists()
        assert entry(["verify", deal_file, str(out)]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_json_report(self, deal_file, capsys):
        assert entry(["solve", deal_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["decision"] is True
        assert doc["class"] == "general"
        assert doc["stats"]["nodes"] == 8
        assert doc["stats"]["kernel"] == "py"

    def test_force_mismatch_is_error(self, deal_file, capsys):
        assert entry(["solve", deal_file, "--force", "single-value"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_file(self, capsys):
        assert entry(["solve", "/no/such/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_instance(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"players\": 1}")
        assert entry(["solve", str(bad)]) == 2
        assert "missing field" in capsys.readouterr().err

    def test_deep_json_is_format_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert entry(["solve", str(deep)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "invalid JSON" in lines[0]

    def test_crash_is_error_not_no(self, tmp_path, capsys):
        # The recursive kernel runs out of stack on a 600-trick deal.
        from crewsolver.generate import gen_general

        path = tmp_path / "long.json"
        path.write_text(dumps_instance(gen_general(1200, 2, 2, 0)))
        assert entry(["solve", str(path), "--budget", "100000"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [lines[0]] and lines[0].startswith("error: RecursionError: ")


    def test_classifies_once(self, tmp_path, capsys, monkeypatch):
        import crewsolver.cli as cli
        import crewsolver.solvers as solvers
        from crewsolver.generate import gen_ss_owned
        from crewsolver.model import classify

        calls = []

        def counting(instance):
            calls.append(instance)
            return classify(instance)

        monkeypatch.setattr(cli, "classify", counting)
        monkeypatch.setattr(solvers, "classify", counting)
        path = tmp_path / "owned.json"
        path.write_text(dumps_instance(gen_ss_owned(200, 4, 0, 1)))
        assert entry(["solve", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "ss-owned"
        assert len(calls) == 1


class TestVerify:
    def test_accepted(self, deal_file, witness_file, capsys):
        assert entry(["verify", deal_file, witness_file]) == 0
        assert capsys.readouterr().out.strip() == "accepted"

    def test_rejected_exit_one(self, deal_file, tmp_path, capsys, uneven_deal_win):
        # Truncate the winning line: objectives stay open.
        from crewsolver.verify import PlaySequence

        partial = PlaySequence(
            first_lead=1, tricks=uneven_deal_win.tricks[:1]
        )
        path = tmp_path / "partial.json"
        path.write_text(dumps_witness(partial))
        assert entry(["verify", deal_file, str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("rejected: OBJECTIVES_INCOMPLETE")

    def test_rejected_reports_trick_index(self, deal_file, tmp_path, capsys, uneven_deal_win):
        doc = json.loads(dumps_witness(uneven_deal_win))
        doc["tricks"][1], doc["tricks"][0] = doc["tricks"][0], doc["tricks"][1]
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(doc))
        assert entry(["verify", deal_file, str(path)]) == 1
        out = capsys.readouterr().out
        assert "at trick index 0" in out

    def test_malformed_witness_exit_two(self, deal_file, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("[]")
        assert entry(["verify", deal_file, str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_witness_names_file(self, deal_file, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"lead": 1, "tricks": [\xff]}')
        assert entry(["verify", deal_file, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "UnicodeDecodeError" not in err

    def test_json_verdict(self, deal_file, witness_file, capsys):
        assert entry(["verify", deal_file, witness_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "accepted": True,
            "reason": None,
            "trick_index": None,
            "detail": "",
        }


class TestReduce:
    def test_stdout_document(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text(GRAPH_NO_PATH)
        assert entry(["reduce", str(graph)]) == 0
        inst = loads_instance(capsys.readouterr().out)
        assert inst.players == 6
        assert all(len(h) == 6 for h in inst.hands)

    def test_out_file_and_summary(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("p 2 1\ne 1 2\n")
        out = tmp_path / "inst.json"
        assert entry(["reduce", str(graph), "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "players: 2" in summary and f"written: {out}" in summary
        inst = loads_instance(out.read_text())
        assert inst.players == 2

    def test_variants(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("p 3 2\ne 1 2\ne 2 3\n")
        assert entry(["reduce", str(graph), "--variant", "trump"]) == 0
        trumped = loads_instance(capsys.readouterr().out)
        assert trumped.trump_suit == 7
        assert entry(["reduce", str(graph), "--variant", "tokens"]) == 0
        tokened = loads_instance(capsys.readouterr().out)
        assert tokened.players == 4 and len(tokened.tokens) == 1

    def test_solve_reduced_no_path_graph(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text(GRAPH_NO_PATH)
        out = tmp_path / "inst.json"
        assert entry(["reduce", str(graph), "--out", str(out)]) == 0
        capsys.readouterr()
        assert entry(["solve", str(out)]) == 1

    def test_bad_graph_exit_two(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("p 1 0\n")
        assert entry(["reduce", str(graph), "--variant", "trump"]) == 2
        assert "at least two vertices" in capsys.readouterr().err


class TestGen:
    def test_deterministic_bytes(self, capsys):
        assert entry(["gen", "general", "-n", "12", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert entry(["gen", "general", "-n", "12", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_meta_block(self, capsys):
        assert entry(["gen", "single-value", "-n", "6", "-p", "2", "-l", "1", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"] == {
            "generator": "single-value",
            "seed": 3,
            "params": {"n": 6, "players": 2, "objectives": 1},
        }

    def test_gen_to_file_then_solve(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert entry(["gen", "ss-owned", "-n", "10", "-p", "2", "-l", "2",
                      "--seed", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        assert entry(["solve", str(out)]) in (0, 1)

    def test_graph_output(self, capsys):
        assert entry(["gen", "graph", "--vertices", "4", "--edge-prob", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("p 4 6\n")

    def test_bad_params_exit_two(self, capsys):
        # More objectives than cards cannot be generated.
        assert entry(["gen", "single-value", "-n", "2", "-p", "1", "-l", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--vertices", "0"], "need at least one vertex"),
            (["--edge-prob", "2"], "edge probability must lie in [0, 1]"),
        ],
        ids=["vertices", "edge-prob"],
    )
    def test_bad_graph_params_exit_two(self, capsys, flags, message):
        # Bad parameters are a usage error, reported like the instance
        # generators' errors, not as a crash.
        assert entry(["gen", "graph", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestClassify:
    def test_label(self, deal_file, capsys):
        assert entry(["classify", deal_file]) == 0
        assert capsys.readouterr().out.strip() == "general"

    def test_json(self, deal_file, capsys):
        assert entry(["classify", deal_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"class": "general"}


class TestBench:
    def test_quick_json(self, capsys):
        assert entry(["bench", "--quick", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list) and rows
        names = {r["name"] for r in rows}
        assert any("exhaustive kernel" in n for n in names)
        for row in rows:
            assert set(row) == {"name", "runs", "median_s", "target_s", "note"}

    def test_quick_serialize_rows(self, capsys):
        assert entry(["bench", "--quick", "--json"]) == 0
        rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
        assert "loads_instance ss-owned n=20000" in rows
        assert rows["dumps_witness ss-owned n=20000"]["note"] == "tricks=400 plays=3200"
