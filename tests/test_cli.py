"""CLI tests driven through ``entry(argv)``: exit codes, output, files."""

from __future__ import annotations

import contextlib
import io
import json
import shlex
from pathlib import Path

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


# One row per place where crew turns bad input into exit 2 and one
# ``error:`` line: every file each subcommand reads (missing, not UTF-8,
# unparsable), and every check that fails after the files are read.
# ``{name}`` stands for the path of a file made by ``error_files``.
ERROR_COMMANDS = {
    "solve-missing": (["solve", "{missing}"], "cannot read {missing}: No such file or directory"),
    "solve-non-utf8": (["solve", "{latin1}"], "cannot read {latin1}: not UTF-8 (invalid start byte)"),
    "solve-unparsable": (["solve", "{array}"], "{array}: instance document must be a JSON object"),
    "solve-invalid": (["solve", "{no_players}"], "{no_players}: players must be >= 1"),
    "solve-force": (
        ["solve", "{deal}", "--force", "single-value"],
        "solver 'single-value' cannot handle a 'general' instance",
    ),
    "verify-instance-missing": (
        ["verify", "{missing}", "{win}"],
        "cannot read {missing}: No such file or directory",
    ),
    "verify-instance-unparsable": (
        ["verify", "{array}", "{win}"],
        "{array}: instance document must be a JSON object",
    ),
    "verify-witness-missing": (
        ["verify", "{deal}", "{missing}"],
        "cannot read {missing}: No such file or directory",
    ),
    "verify-witness-non-utf8": (
        ["verify", "{deal}", "{latin1}"],
        "cannot read {latin1}: not UTF-8 (invalid start byte)",
    ),
    "verify-witness-unparsable": (
        ["verify", "{deal}", "{array}"],
        "{array}: witness document must carry 'lead' and 'tricks'",
    ),
    "classify-missing": (["classify", "{missing}"], "cannot read {missing}: No such file or directory"),
    "classify-unparsable": (["classify", "{array}"], "{array}: instance document must be a JSON object"),
    "reduce-missing": (["reduce", "{missing}"], "cannot read {missing}: No such file or directory"),
    "reduce-non-utf8": (["reduce", "{latin1}"], "cannot read {latin1}: not UTF-8 (invalid start byte)"),
    "reduce-unparsable": (["reduce", "{array}"], "{array}: line 1: unknown record '[]'"),
    "reduce-trump-one-vertex": (
        ["reduce", "{one_vertex}", "--variant", "trump"],
        "trump variant needs at least two vertices",
    ),
    "gen-counts": (
        ["gen", "single-value", "-n", "2", "-p", "1", "-l", "5"],
        "cannot place 5 objectives on 2 cards",
    ),
    "gen-class-counts": (
        ["gen", "single-suit", "-p", "1"],
        "single-suit generation needs >= 2 players",
    ),
}


@pytest.fixture
def error_files(tmp_path, deal_file, witness_file):
    files = {"deal": deal_file, "win": witness_file, "missing": str(tmp_path / "missing.json")}
    contents = {
        "latin1": b'{"lead": 1, "tricks": [\xff]}',
        "array": b"[]",
        "no_players": b'{"players": 0, "k": 1, "s": 1, "hands": [], "objectives": []}',
        "one_vertex": b"p 1 0\n",
    }
    for name, data in contents.items():
        path = tmp_path / name
        path.write_bytes(data)
        files[name] = str(path)
    return files


@pytest.mark.parametrize("command", sorted(ERROR_COMMANDS))
def test_input_error_is_one_line_exit_two(command, error_files, capsys):
    argv, message = ERROR_COMMANDS[command]
    assert entry([arg.format(**error_files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(**error_files)}\n"
    assert captured.out == ""


def test_readme_quick_start(tmp_path, monkeypatch, capsys):
    """README's quick start, run in a fresh directory: its ``printf`` writes
    the graph, and each ``crew`` command, called through ``entry``, exits 0
    and prints the lines shown under it, all but the ``elapsed:`` time."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:]), []))
        elif line:
            steps[-1][1].append(line)
    monkeypatch.chdir(tmp_path)
    printf, text, redirect, graph = steps.pop(0)[0]
    assert (printf, redirect) == ("printf", ">")
    Path(graph).write_text(text.replace("\\n", "\n"))
    assert [argv[0] for argv, _ in steps] == ["crew"] * 3

    def timeless(lines):
        return [line for line in lines if not line.startswith("elapsed: ")]

    for argv, shown in steps:
        assert entry(argv[1:]) == 0, argv
        assert timeless(capsys.readouterr().out.splitlines()) == timeless(shown), argv


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

    def test_witness_out_unwritable_exit_two(self, deal_file, tmp_path, capsys):
        # The deal is winnable, so the witness is written: into a directory.
        assert entry(["solve", deal_file, "--witness-out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {tmp_path}: Is a directory\n"

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

    def test_oversized_integer_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"players": %s}' % ("1" * 5_000))
        assert entry(["solve", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [lines[0]] and lines[0].startswith(f"error: {path}: invalid JSON")

    def test_crash_is_error_not_no(self, tmp_path, capsys):
        # The recursive kernel spends 3 frames per trick at p = 2, so a
        # 600-trick line still overflows the default recursion limit of 1000;
        # an iterative kernel would remove this crash.
        from crewsolver.generate import gen_general

        path = tmp_path / "long.json"
        path.write_text(dumps_instance(gen_general(1200, 2, 2, 0)))
        assert entry(["solve", str(path), "--budget", "100000"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [lines[0]] and lines[0].startswith("error: RecursionError: ")

    def test_deep_line_is_answered(self, tmp_path):
        # A 199-trick line at 3 frames per trick fits the default limit.
        from crewsolver.generate import gen_general

        path = tmp_path / "deep.json"
        witness = tmp_path / "w.json"
        path.write_text(dumps_instance(gen_general(600, 2, 2, 0)))
        args = ["solve", str(path), "--budget", "100000", "--witness-out", str(witness)]
        assert entry(args) == 0
        assert entry(["verify", str(path), str(witness)]) == 0

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

    @pytest.mark.parametrize("cls", ["single-value", "ss-owned", "single-suit", "general"])
    def test_solve_reads_class_from_report(self, cls, tmp_path, capsys, monkeypatch):
        """``crew solve`` prints the class that ``solve`` computed, and the
        deal is classified once, inside ``solve``."""
        import crewsolver.solvers as solvers
        from crewsolver.generate import GENERATORS
        from crewsolver.model import classify

        calls = []
        monkeypatch.setattr(solvers, "classify", lambda i: calls.append(i) or classify(i))
        path = tmp_path / "deal.json"
        path.write_text(dumps_instance(GENERATORS[cls](12, 3, 3, 0)))
        assert entry(["solve", str(path), "--json"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["class"] == cls
        assert len(calls) == 1


class TestParser:
    def test_build_error_exits_two(self, monkeypatch, capsys):
        import crewsolver.cli as cli

        def broken():
            raise RuntimeError("no parser")

        monkeypatch.setattr(cli, "_build_parser", broken)
        assert entry(["solve", "deal.json"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: RuntimeError: no parser"]

    def test_usage_error_still_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            entry(["solve"])
        assert exc.value.code == 2
        assert "the following arguments are required: instance" in capsys.readouterr().err


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

    def test_oversized_integer_in_witness_is_format_error(self, deal_file, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"lead": %s, "tricks": []}' % ("1" * 5_000))
        assert entry(["verify", deal_file, str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [lines[0]] and lines[0].startswith(f"error: {path}: invalid JSON")

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

    def test_json_rejected_bytes(self, deal_file, tmp_path, capsys, trick_builder):
        # Player 2 sluffs (2,3) while still holding the led suit.  The exact
        # text pins the key order and the reason's value.
        from crewsolver.verify import PlaySequence

        trick = trick_builder(1, [(4, 1), (2, 3), (5, 2), (1, 1)])
        path = tmp_path / "sluff.json"
        path.write_text(dumps_witness(PlaySequence(first_lead=1, tricks=(trick,))))
        assert entry(["verify", deal_file, str(path), "--json"]) == 1
        assert capsys.readouterr().out == (
            "{\n"
            '  "accepted": false,\n'
            '  "reason": "FOLLOW_SUIT_VIOLATION",\n'
            '  "trick_index": 0,\n'
            '  "detail": "player 2 must follow suit 1"\n'
            "}\n"
        )


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

    def test_unparsable_graph_exit_two(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("x 1 2\n")
        assert entry(["reduce", str(graph)]) == 2
        assert capsys.readouterr().err == f"error: {graph}: line 1: unknown record 'x'\n"

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


@pytest.fixture(scope="module")
def quick_bench_rows():
    """The rows of one ``crew bench --quick --json`` run, shared by the
    ``TestBench`` tests: the quick suite takes seconds.  Its ``crew solve``
    children inherit the environment, so CREW_BUDGET is cleared here too."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.delenv("CREW_BUDGET", raising=False)
        code = entry(["bench", "--quick", "--json"])
    assert code == 0
    return json.loads(out.getvalue())


class TestBench:
    def test_quick_json(self, quick_bench_rows):
        rows = quick_bench_rows
        assert isinstance(rows, list) and rows
        names = {r["name"] for r in rows}
        assert any("exhaustive kernel" in n for n in names)
        for row in rows:
            assert list(row) == ["name", "runs", "median_s", "target_s", "note"]

    def test_quick_serialize_rows(self, quick_bench_rows):
        rows = {r["name"]: r for r in quick_bench_rows}
        assert "loads_instance ss-owned n=20000" in rows
        assert rows["dumps_witness ss-owned n=20000"]["note"] == "tricks=400 plays=3200"

    def test_quick_phase_rows(self, quick_bench_rows):
        rows = {r["name"]: r for r in quick_bench_rows}
        assert rows["classify ss-owned n=20000"]["median_s"] > 0
        assert rows["verify_sequence ss-owned n=20000"]["note"] == "plays=3200"

    def test_quick_exhaustive_row(self, quick_bench_rows):
        rows = [r for r in quick_bench_rows if r["name"].startswith("exhaustive kernel")]
        assert len(rows) == 1
        note = rows[0]["note"]
        assert note.startswith("nodes=20001 nodes/s=") and "decision=None" in note
        assert note.endswith("(nodes/s moves by up to 1.6x with the caller's stack depth)")

    def test_quick_known_answer_row(self, quick_bench_rows):
        rows = [r for r in quick_bench_rows if r["name"].startswith("exhaustive reduce_hp_tokens")]
        assert [r["note"] for r in rows] == ["nodes=6572 decision=False (known: False)"]

    def test_quick_cli_row(self, quick_bench_rows):
        rows = [r for r in quick_bench_rows if r["name"].startswith("crew solve child")]
        assert len(rows) == 1
        row = rows[0]
        assert row["runs"] == 5 and row["median_s"] > 0
        # The child decided the deal (exit 1: not winnable) rather than crashing.
        assert row["note"].startswith("exit=1 interpreter=")
        assert "import crewsolver.cli=" in row["note"]
