"""Wall-clock benchmark suite.

Informational only — no pass/fail.  One generator yields every row that
times a single call, building the row's input just before it is timed, and
one loop times them.  Rows that correspond to an acceptance time target
carry the target for comparison; the ``loads_instance``, ``classify``,
``dumps_witness`` and ``verify_sequence`` rows time the other phases of the
CLI path around the ss-owned solve, which on big polynomial deals can cost
more than the solve; one exhaustive row solves a Hamiltonian-path reduction
whose answer is known to be NO, with its node count in the note; the other
runs a general deal that no search decides within its fixed node budget,
and reports the node count, nodes per second and decision beside its time,
with the caveat that the recursive kernel's nodes per second moves by up to
1.6x with the caller's stack depth; the last row times whole ``crew solve``
child processes on a small deal, so the start-up cost (interpreter plus
imports) shows beside the work.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import NamedTuple

from .generate import gen_general, gen_graph, gen_single_suit, gen_single_value, gen_ss_owned
from .model import Instance, Objective, classify
from .reduction import reduce_hp_tokens
from .serialize import dumps_instance, dumps_witness, loads_instance
from .solvers import solve
from .verify import verify_sequence


class BenchRow(NamedTuple):
    name: str
    runs: int
    median_s: float
    target_s: float | None
    note: str


def _clocked(fn, runs: int) -> float:
    samples = []
    for _ in range(runs):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return median(samples)


def _big_witness_pair(n: int, players: int) -> tuple[Instance, object]:
    """A guaranteed-true deal whose witness replays every one of ``n`` cards."""
    instance = gen_single_value(n, players, 0, seed=5)
    instance = replace(
        instance,
        objectives=tuple(Objective(c, 1) for c in sorted(instance.hands[0])),
        first_lead=None,
    )
    report = solve(instance, force="single-value")
    return instance, report.witness


def _cli_row() -> BenchRow:
    """Median of 5 child ``python -m crewsolver solve`` calls on a
    12-card general deal, with the bare interpreter's and
    ``import crewsolver.cli``'s shares in the note."""
    runs = 5
    deal = gen_general(12, 3, 3, seed=0)
    # ``-m`` and ``-c`` put the working directory first on ``sys.path``, so
    # each child imports this copy of the package.
    home = Path(__file__).resolve().parent.parent

    def child(*argv: str) -> int:
        return subprocess.run(
            [sys.executable, *argv], cwd=home, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        ).returncode

    exits = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "deal.json"
        path.write_text(dumps_instance(deal), encoding="utf-8")
        median_s = _clocked(lambda: exits.append(child("-m", "crewsolver", "solve", str(path))), runs)
    interp_s = _clocked(lambda: child("-c", "pass"), runs)
    import_s = _clocked(lambda: child("-c", "import crewsolver.cli"), runs)
    return BenchRow(
        f"crew solve child general n={deal.n}",
        runs,
        median_s,
        None,
        f"exit={exits[-1]} interpreter={1000 * interp_s:.1f}ms "
        f"import crewsolver.cli={1000 * (import_s - interp_s):.1f}ms",
    )


def _timed_rows(quick: bool):
    """Each row timed by one call, as ``(name, call, target_s, note)`` with
    the full-size target; its input is built just before it is timed."""
    scale = 5 if quick else 1
    inst_sv = gen_single_value(100_000 // scale, 8, 40, seed=1)
    yield f"single-value solve n={inst_sv.n}", lambda: solve(inst_sv, force="single-value"), None, ""

    inst_own = gen_ss_owned(100_000 // scale, 8, 2_000 // scale, seed=2)
    yield f"ss-owned solve n={inst_own.n} p=8", lambda: solve(inst_own, force="ss-owned"), 2.0, ""

    text = dumps_instance(inst_own)
    yield (
        f"loads_instance ss-owned n={inst_own.n}",
        lambda: loads_instance(text),
        None,
        f"bytes={len(text)}",
    )
    yield f"classify ss-owned n={inst_own.n}", lambda: classify(inst_own), None, ""
    witness = solve(inst_own, force="ss-owned").witness
    plays = sum(len(t.plays) for t in witness.tricks)
    yield (
        f"dumps_witness ss-owned n={inst_own.n}",
        lambda: dumps_witness(witness),
        None,
        f"tricks={len(witness.tricks)} plays={plays}",
    )
    yield (
        f"verify_sequence ss-owned n={inst_own.n}",
        lambda: verify_sequence(inst_own, witness),
        None,
        f"plays={plays}",
    )

    inst_ss = gen_single_suit(10_000 // scale, 8, 1_000 // scale, seed=3)
    yield (
        f"single-suit solve n={inst_ss.n} p=8 l={len(inst_ss.objectives)}",
        lambda: solve(inst_ss, force="single-suit"),
        5.0,
        "",
    )

    inst_v, witness = _big_witness_pair(10_000 // scale, 4)
    yield f"verify n={inst_v.n}", lambda: verify_sequence(inst_v, witness), 2.0, ""

    # A Hamiltonian-path reduction whose graph has no path: a known NO.
    inst_hp = reduce_hp_tokens(gen_graph(5, 0.5, 1))
    report = solve(inst_hp, force="exhaustive")
    yield (
        f"exhaustive reduce_hp_tokens V=5 n={inst_hp.n}",
        lambda: solve(inst_hp, force="exhaustive"),
        None,
        f"nodes={report.stats.nodes} decision={report.decision} (known: False)",
    )


def run_suite(quick: bool = False) -> list[BenchRow]:
    runs = 3
    # The quick sizes are smaller than the acceptance targets assume.
    rows = [
        BenchRow(name, runs, _clocked(call, runs), None if quick else target_s, note)
        for name, call, target_s, note in _timed_rows(quick)
    ]

    # Undecided after 5M nodes, so the search runs out its whole budget and
    # the row times search nodes rather than call overhead.
    deal = gen_general(32, 4, 6, seed=0)
    budget = 20_000 if quick else 200_000
    reports = []
    median_s = _clocked(lambda: reports.append(solve(deal, force="exhaustive", budget=budget)), runs)
    report = reports[-1]
    rows.append(
        BenchRow(
            f"exhaustive kernel={report.stats.kernel} general n={deal.n} budget={budget}",
            runs,
            median_s,
            None,
            f"nodes={report.stats.nodes} nodes/s={report.stats.nodes / median_s:.0f} "
            f"decision={report.decision} (nodes/s moves by up to 1.6x with the "
            "caller's stack depth)",
        )
    )
    rows.append(_cli_row())
    return rows


def format_rows(rows: list[BenchRow]) -> str:
    if not rows:
        return "(empty suite)\n"
    width = max(len(r.name) for r in rows) + 2
    lines = [f"{'benchmark':<{width}}{'runs':>5}  {'median':>9}  {'target':>8}  note"]
    for r in rows:
        target = f"{r.target_s:.2f}s" if r.target_s is not None else "-"
        lines.append(
            f"{r.name:<{width}}{r.runs:>5}  {r.median_s:>8.3f}s  {target:>8}  {r.note}"
        )
    return "\n".join(lines) + "\n"
