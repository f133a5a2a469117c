"""Wall-clock benchmark suite.

Informational only — no pass/fail.  Rows that correspond to an acceptance
time target carry the target for comparison; the ``loads_instance`` and
``dumps_witness`` rows time the document I/O around the ss-owned solve,
which on big polynomial deals costs more than the solve; the exhaustive row
runs a general deal that no search decides within its fixed node budget,
and reports the node count, nodes per second and decision beside its time.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from time import perf_counter

from .generate import gen_general, gen_single_suit, gen_single_value, gen_ss_owned
from .model import Instance, Objective
from .serialize import dumps_instance, dumps_witness, loads_instance
from .solvers import solve, solve_exhaustive
from .verify import verify_sequence


@dataclass(frozen=True, slots=True)
class BenchRow:
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
    hand1 = sorted(instance.hands[0])
    instance = Instance(
        players=instance.players,
        k=instance.k,
        s=instance.s,
        hands=instance.hands,
        objectives=tuple(Objective(c, 1) for c in hand1),
        first_lead=None,
    )
    report = solve(instance, force="single-value")
    return instance, report.witness


def run_suite(quick: bool = False) -> list[BenchRow]:
    scale = 5 if quick else 1
    runs = 3
    rows: list[BenchRow] = []

    inst_sv = gen_single_value(100_000 // scale, 8, 40, seed=1)
    rows.append(
        BenchRow(
            f"single-value solve n={inst_sv.n}",
            runs,
            _clocked(lambda: solve(inst_sv, force="single-value"), runs),
            None,
            "",
        )
    )

    inst_own = gen_ss_owned(100_000 // scale, 8, 2_000 // scale, seed=2)
    rows.append(
        BenchRow(
            f"ss-owned solve n={inst_own.n} p=8",
            runs,
            _clocked(lambda: solve(inst_own, force="ss-owned"), runs),
            None if quick else 2.0,
            "",
        )
    )

    text = dumps_instance(inst_own)
    rows.append(
        BenchRow(
            f"loads_instance ss-owned n={inst_own.n}",
            runs,
            _clocked(lambda: loads_instance(text), runs),
            None,
            f"bytes={len(text)}",
        )
    )
    witness = solve(inst_own, force="ss-owned").witness
    plays = sum(len(t.plays) for t in witness.tricks)
    rows.append(
        BenchRow(
            f"dumps_witness ss-owned n={inst_own.n}",
            runs,
            _clocked(lambda: dumps_witness(witness), runs),
            None,
            f"tricks={len(witness.tricks)} plays={plays}",
        )
    )

    inst_ss = gen_single_suit(10_000 // scale, 8, 1_000 // scale, seed=3)
    rows.append(
        BenchRow(
            f"single-suit solve n={inst_ss.n} p=8 l={len(inst_ss.objectives)}",
            runs,
            _clocked(lambda: solve(inst_ss, force="single-suit"), runs),
            None if quick else 5.0,
            "",
        )
    )

    inst_v, witness = _big_witness_pair(10_000 // scale, 4)
    rows.append(
        BenchRow(
            f"verify n={inst_v.n}",
            runs,
            _clocked(lambda: verify_sequence(inst_v, witness), runs),
            None if quick else 2.0,
            "",
        )
    )

    # Undecided after 5M nodes, so the search runs out its whole budget and
    # the row times search nodes rather than call overhead.
    deal = gen_general(32, 4, 6, seed=0)
    budget = 20_000 if quick else 200_000
    reports = []
    median_s = _clocked(lambda: reports.append(solve_exhaustive(deal, budget=budget)), runs)
    report = reports[-1]
    rows.append(
        BenchRow(
            f"exhaustive kernel={report.stats.kernel} general n={deal.n} budget={budget}",
            runs,
            median_s,
            None,
            f"nodes={report.stats.nodes} nodes/s={report.stats.nodes / median_s:.0f} "
            f"decision={report.decision}",
        )
    )
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
