"""Command-line interface.

Subcommands: ``solve``, ``verify``, ``reduce``, ``gen``, ``classify``,
``bench``.  Exit codes follow one contract everywhere: 0 for yes/accepted,
1 for no/rejected, 2 for errors, unparsable input, an exhausted search
budget, or any unexpected exception.  ``--json`` switches the report of
``solve``, ``verify``, ``reduce``, ``classify`` or ``bench`` to
machine-readable form.

Every input error the library reports is a ``ValueError`` (``FormatError``,
``InstanceError``, ``SolverMismatchError`` and the generators' and
reductions' checks), so ``entry`` prints any ``ValueError`` as one
``error: <message>`` line, with the file's name before a parse error, and
any other exception as ``error: <Type>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .model import InstanceClass, classify
from .serialize import dumps_instance, dumps_witness, loads_instance, loads_witness
from .solvers import SOLVER_IDS, solve
from .verify import verify_sequence


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: not UTF-8 ({exc.reason})") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load(path: str, parse):
    """``parse`` of the file's text; a parse error names the file."""
    text = _read(path)
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return budget


def _emit(doc: dict | list, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_solve(args) -> int:
    instance = _load(args.instance, loads_instance)
    budget = args.budget
    if budget is None:
        raw = os.environ.get("CREW_BUDGET", "")
        try:
            budget = _budget(raw) if raw else 0
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"CREW_BUDGET {exc}") from exc
    report = solve(instance, force=args.force, budget=budget)

    witness_path = None
    if report.decision and args.witness_out:
        _write(args.witness_out, dumps_witness(report.witness))
        witness_path = args.witness_out

    stats = report.stats
    doc = {
        "decision": report.decision,
        "solver": report.solver_id,
        "class": report.instance_class.value,
        "stats": {
            "nodes": stats.nodes,
            "tricks": stats.tricks,
            "elapsed_s": round(stats.elapsed, 6),
            "kernel": stats.kernel or None,
        },
        "witness_path": witness_path,
    }
    decision_text = {True: "true", False: "false", None: "unknown (budget exhausted)"}
    lines = [
        f"decision: {decision_text[report.decision]}",
        f"solver: {report.solver_id}",
        f"class: {doc['class']}",
        f"nodes: {stats.nodes}",
        f"tricks: {stats.tricks}",
        f"elapsed: {stats.elapsed:.4f}s",
    ]
    if stats.kernel:
        lines.append(f"kernel: {stats.kernel}")
    if witness_path:
        lines.append(f"witness: {witness_path}")
    _emit(doc, args.json, "\n".join(lines))
    if report.decision is None:
        return 2
    return 0 if report.decision else 1


def _cmd_verify(args) -> int:
    instance = _load(args.instance, loads_instance)
    sequence = _load(args.witness, loads_witness)
    verdict = verify_sequence(instance, sequence)
    doc = dict(verdict._asdict(), reason=verdict.reason.value if verdict.reason else None)
    if verdict.accepted:
        _emit(doc, args.json, "accepted")
        return 0
    where = "" if verdict.trick_index is None else f" at trick index {verdict.trick_index}"
    _emit(doc, args.json, f"rejected: {verdict.reason.value}{where} ({verdict.detail})")
    return 1


def _cmd_reduce(args) -> int:
    from .reduction import parse_graph, reduce_hp, reduce_hp_tokens, reduce_hp_trump

    graph = _load(args.graph, parse_graph)
    if args.variant == "base":
        instance = reduce_hp(graph)
    elif args.variant == "trump":
        instance = reduce_hp_trump(graph, args.trump_count)
    else:
        instance = reduce_hp_tokens(graph)

    meta = {"source": "reduce", "variant": args.variant, "graph": f"p {graph.vertices} {len(graph.edges)}"}
    text = dumps_instance(instance, meta=meta)
    sizes = [len(h) for h in instance.hands]
    doc = {
        "players": instance.players,
        "cards": instance.n,
        "objectives": len(instance.objectives),
        "hand_sizes": sizes,
        "out": args.out,
    }
    if args.out:
        _write(args.out, text)
        summary = (
            f"players: {instance.players}\n"
            f"cards: {instance.n}\n"
            f"objectives: {len(instance.objectives)}\n"
            f"hand sizes: {' '.join(map(str, sizes))}\n"
            f"written: {args.out}"
        )
        _emit(doc, args.json, summary)
    else:
        print(text, end="")
    return 0


def _cmd_gen(args) -> int:
    from .generate import GENERATORS, gen_graph
    from .reduction import format_graph

    if args.what == "graph":
        text = format_graph(gen_graph(args.vertices, args.edge_prob, args.seed))
    else:
        instance = GENERATORS[args.what](args.cards, args.players, args.objectives, args.seed)
        meta = {
            "generator": args.what,
            "seed": args.seed,
            "params": {
                "n": args.cards,
                "players": args.players,
                "objectives": args.objectives,
            },
        }
        text = dumps_instance(instance, meta=meta)
    if args.out:
        _write(args.out, text)
        print(f"written: {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_classify(args) -> int:
    instance = _load(args.instance, loads_instance)
    label = classify(instance).value
    _emit({"class": label}, args.json, label)
    return 0


def _cmd_bench(args) -> int:
    from .bench import format_rows, run_suite

    rows = run_suite(quick=args.quick)
    doc = [dict(r._asdict(), median_s=round(r.median_s, 6)) for r in rows]
    _emit(doc, args.json, format_rows(rows))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crew",
        description="Decision procedures for perfect-information cooperative trick-taking deals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--force", choices=SOLVER_IDS, help="pick the solver explicitly")
    p_solve.add_argument("--budget", type=_budget, default=None, help="node limit for exhaustive search (0 = unlimited)")
    p_solve.add_argument("--witness-out", help="write the witness here when the decision is true")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(fn=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a witness against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("witness")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=_cmd_verify)

    p_reduce = sub.add_parser("reduce", help="compile a Hamiltonian-path graph file to an instance")
    p_reduce.add_argument("graph")
    p_reduce.add_argument("--variant", choices=("base", "trump", "tokens"), default="base")
    p_reduce.add_argument("--trump-count", type=int, default=1, help="trump cards per player (trump variant)")
    p_reduce.add_argument("--out", help="instance file to write (default: print document)")
    p_reduce.add_argument("--json", action="store_true")
    p_reduce.set_defaults(fn=_cmd_reduce)

    p_gen = sub.add_parser("gen", help="generate a seeded instance or graph")
    p_gen.add_argument(
        "what", choices=(*(c.value for c in InstanceClass), "graph"), help="instance class or 'graph'"
    )
    p_gen.add_argument("-n", "--cards", type=int, default=40)
    p_gen.add_argument("-p", "--players", type=int, default=4)
    p_gen.add_argument("-l", "--objectives", type=int, default=4)
    p_gen.add_argument("--vertices", type=int, default=6, help="graph only")
    p_gen.add_argument("--edge-prob", type=float, default=0.5, help="graph only")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="file to write (default: stdout)")
    p_gen.set_defaults(fn=_cmd_gen)

    p_classify = sub.add_parser("classify", help="print an instance's class label")
    p_classify.add_argument("instance")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(fn=_cmd_classify)

    p_bench = sub.add_parser("bench", help="run the timing suite")
    p_bench.add_argument("--quick", action="store_true", help="smaller sizes, no targets")
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(fn=_cmd_bench)

    return parser


def entry(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 2
    except Exception as exc:  # a crash must never read as "not winnable"
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
