"""The four workloads: how each builds its inputs and how one pass runs.

Set-up makes every input from the run's seed with the package's generators
and reductions, then turns it into the instance document the program reads;
the program sees nothing else.  A pass sends every input once down the
workload's path.  In-process workloads call the public functions
(``loads_instance -> classify -> solve -> dumps_witness -> loads_witness ->
verify_sequence``); ``cli-small`` runs ``crew solve`` and ``crew verify`` as
one child process at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import crewsolver as cs

import checks

# Search workloads set up this many relabellings of every deal, and each
# pass reads the next one, so a run's figures are taken over all of them.
LABELLINGS = 6

# One node budget for both search workloads keeps decided and undecided
# comparable between commits; being counted in nodes, it lets a faster kernel
# decide no more, only sooner.  At this budget more than half the deals of
# each search workload stay undecided, so op_p50_ms is the time of a full
# budget rather than of whichever deal happens to sit in the middle.
SEARCH_BUDGET = 10_000
CLI_BUDGET = 100_000

# search-hp: (vertices, graphs) with fixed graph seeds; the run seed relabels.
HP_GRAPHS = ((5, 8), (6, 8), (7, 8))
HP_EDGE_PROB = 0.5
REDUCTIONS = (
    ("base", cs.reduce_hp),
    ("trump", cs.reduce_hp_trump),
    ("tokens", cs.reduce_hp_tokens),
)

# cli-small: instances per class, reductions per variant.
CLI_PER_CLASS = 12
CLI_PER_REDUCTION = 8
CLI_CLASSES = (
    ("single-value", cs.gen_single_value),
    ("ss-owned", cs.gen_ss_owned),
    ("single-suit", cs.gen_single_suit),
    ("general", cs.gen_general),
)

TABLE_PATH = Path(__file__).with_name("general_table.json")

SOLVER_LAYER = {
    "single-value": "solvers.single_value",
    "ss-owned": "solvers.ss_owned",
    "single-suit": "solvers.single_suit",
    "exhaustive": "exhaustive.run_search",
}


@dataclass
class Case:
    """One input of a workload and what a correct answer to it is."""

    name: str
    texts: list[str]  # instance documents; pass i reads texts[i % len(texts)]
    truth: bool | None = None  # None until the oracle has run (or: unknowable)
    graph: tuple | None = None  # (vertices, edges) a reduction was built from
    path: Path | None = None  # instance file, cli-small only
    crash: bool = False  # known crash input: correct is exit 2, one error line


def relabel(inst: cs.Instance, rng: random.Random, shift: int | None = None) -> cs.Instance:
    """An isomorphic deal: players rotated (by ``shift`` seats, else by a
    random number), suits permuted, and values sent through one random
    increasing map.  Seating order, follow-suit and the order of cards
    within a suit are kept, so the decision is unchanged, but the search
    meets leads and cards in another order."""
    p = inst.players
    if shift is None:
        shift = rng.randrange(p)
    suits = list(range(1, inst.s + 1))
    rng.shuffle(suits)
    k = 2 * inst.k
    values = sorted(rng.sample(range(1, k + 1), inst.k))

    def card(c: cs.Card) -> cs.Card:
        return cs.Card(values[c.value - 1], suits[c.suit - 1])

    def seat(q: int) -> int:
        return (q - 1 + shift) % p + 1

    hands = [frozenset()] * p
    for q, hand in enumerate(inst.hands, start=1):
        hands[seat(q) - 1] = frozenset(card(c) for c in hand)
    return cs.Instance(
        players=p,
        k=k,
        s=inst.s,
        hands=tuple(hands),
        objectives=tuple(cs.Objective(card(o.card), seat(o.owner)) for o in inst.objectives),
        tokens=inst.tokens,
        trump_suit=None if inst.trump_suit is None else suits[inst.trump_suit - 1],
        first_lead=None if inst.first_lead is None else seat(inst.first_lead),
    )


def _dump(inst: cs.Instance, tr) -> str:
    with tr.span("serialize.dumps_instance"):
        return cs.dumps_instance(inst)


def _relabellings(inst: cs.Instance, rng: random.Random, tr) -> list[str]:
    return [_dump(relabel(inst, rng), tr) for _ in range(LABELLINGS)]


# --------------------------------------------------------------- set-up


def build_poly_large(seed: int, tr, workdir: Path) -> list[Case]:
    """Four yes-deals of the polynomial classes, planted so the answer is
    known by construction."""
    rng = random.Random(f"poly-large:{seed}")
    cases = []

    # ss-owned n=1e5 p=8: the 2000 highest cards are objectives of their
    # holders.  Each is played as the top card of its own trick while the
    # others play lower non-objective cards (every hand has 12500).
    with tr.span("generate.gen"):
        base = cs.gen_ss_owned(100_000, 8, 0, seed)
    holder = base.holder_map()
    top = sorted(holder)[-2_000:]
    inst = replace(base, objectives=tuple(cs.Objective(c, holder[c]) for c in top))
    cases.append(Case("ss-owned n=1e5 p=8 l=2e3", [_dump(inst, tr)], truth=True))

    # single-suit n=1e4 p=8 l=1e3: the top 2000 values form pairs (v-1, v)
    # held by two different players; v-1 is an objective of v's holder.
    # The 8000 low cards are dealt 1000 to each hand, enough for everyone
    # to play under every pair trick they are not part of.
    n, p, l = 10_000, 8, 1_000
    low = list(range(1, n - 2 * l + 1))
    rng.shuffle(low)
    hands = [[cs.Card(v, 1) for v in low[q::p]] for q in range(p)]
    objectives = []
    for i in range(l):
        high = n - 2 * i
        h, q = rng.sample(range(p), 2)
        hands[h].append(cs.Card(high - 1, 1))
        hands[q].append(cs.Card(high, 1))
        objectives.append(cs.Objective(cs.Card(high - 1, 1), q + 1))
    rng.shuffle(objectives)
    inst = cs.Instance(
        players=p,
        k=n,
        s=1,
        hands=tuple(frozenset(h) for h in hands),
        objectives=tuple(objectives),
        first_lead=rng.choice((None, rng.randint(1, p))),
    )
    cases.append(Case("single-suit n=1e4 p=8 l=1e3", [_dump(inst, tr)], truth=True))

    # single-value n=1e5 p=8: all 1000 objectives belong to one player, who
    # may lead; the leader wins every trick, and the others discard into it.
    with tr.span("generate.gen"):
        base = cs.gen_single_value(100_000, 8, 0, seed)
    owner = rng.randint(1, 8)
    targets = rng.sample(sorted(c for h in base.hands for c in h), 1_000)
    inst = replace(
        base,
        objectives=tuple(cs.Objective(c, owner) for c in targets),
        first_lead=rng.choice((None, owner)),
    )
    cases.append(Case("single-value n=1e5 p=8 l=1e3", [_dump(inst, tr)], truth=True))

    # Every card of one player is their own objective, so the winning line
    # replays all 1e4 cards (2500 tricks).
    with tr.span("generate.gen"):
        base = cs.gen_single_value(10_000, 4, 0, seed)
    owner = rng.randint(1, 4)
    inst = replace(
        base,
        objectives=tuple(cs.Objective(c, owner) for c in sorted(base.hands[owner - 1])),
        first_lead=None,
    )
    cases.append(Case("single-value replay n=1e4 p=4", [_dump(inst, tr)], truth=True))
    return cases


def load_table() -> dict:
    return json.loads(TABLE_PATH.read_text())


def build_search_general(seed: int, tr, workdir: Path) -> list[Case]:
    """Every deal of the expected-decision table, relabelled by the seed."""
    table = load_table()
    rng = random.Random(f"search-general:{seed}")
    cases = []
    for row in table["deals"]:
        with tr.span("generate.gen"):
            base = cs.gen_general(row["n"], table["players"], table["objectives"], row["seed"])
        name = f"general n={row['n']} seed={row['seed']}"
        cases.append(Case(name, _relabellings(base, rng, tr), truth=row["decision"]))
    return cases


def build_search_hp(seed: int, tr, workdir: Path) -> list[Case]:
    """The three reductions of a fixed set of seeded graphs, relabelled by
    the seed; the graph oracle supplies the answers after set-up."""
    rng = random.Random(f"search-hp:{seed}")
    cases = []
    for vertices, count in HP_GRAPHS:
        for i in range(count):
            with tr.span("generate.gen"):
                graph = cs.gen_graph(vertices, HP_EDGE_PROB, 1_000 + 10 * vertices + i)
            for variant, reduce in REDUCTIONS:
                with tr.span("reduction.reduce"):
                    inst = reduce(graph)
                cases.append(
                    Case(
                        f"hp-{variant} V={vertices} graph={i}",
                        _relabellings(inst, rng, tr),
                        graph=(vertices, sorted(graph.edges)),
                    )
                )
    return cases


def build_cli_small(seed: int, tr, workdir: Path) -> list[Case]:
    """Small instance files of every class and small reductions, written to
    ``workdir``, plus the two known crash inputs."""
    rng = random.Random(f"cli-small:{seed}")
    cases = []
    for label, gen in CLI_CLASSES:
        for i in range(CLI_PER_CLASS):
            n = rng.randint(6, 12)
            p = rng.randint(2, 4)
            with tr.span("generate.gen"):
                inst = gen(n, p, rng.randint(1, 4), rng.randrange(2**31))
            cases.append(Case(f"{label}-{i}", [_dump(inst, tr)]))
    for variant, reduce in REDUCTIONS:
        for i in range(CLI_PER_REDUCTION):
            vertices = rng.choice((3, 4))
            with tr.span("generate.gen"):
                graph = cs.gen_graph(vertices, 0.6, rng.randrange(2**31))
            with tr.span("reduction.reduce"):
                inst = reduce(graph)
            cases.append(Case(f"hp-{variant}-{i}", [_dump(inst, tr)], graph=(vertices, sorted(graph.edges))))
    # The same two inputs in every run: a deal deep enough to overflow the
    # recursive search, and a document nested deeper than ``json`` allows.
    with tr.span("generate.gen"):
        deep = cs.gen_general(1_200, 2, 2, 0)
    cases.append(Case("crash-deep-search", [_dump(deep, tr)], crash=True))
    cases.append(Case("crash-deep-json", ["[" * 100_000], crash=True))
    workdir.mkdir(parents=True, exist_ok=True)
    for i, case in enumerate(cases):
        case.path = workdir / f"{i:03d}.json"
        case.path.write_text(case.texts[0])
    return cases


def attach_truth(cases: list[Case]) -> None:
    """Answers for the inputs whose truth set-up did not plant."""
    for case in cases:
        if case.truth is not None or case.crash:
            continue
        if case.graph is not None:
            case.truth = checks.has_hamiltonian_path(*case.graph)
        else:
            case.truth = checks.brute_force(json.loads(case.texts[0]))


# ----------------------------------------------------------------- passes


@dataclass
class Outcome:
    """What the program did with one case in one pass."""

    seconds: float
    decision: bool | None = None
    failed: str | None = None  # why the operation failed (crash), if it did
    witness: str | None = None  # witness document on a yes
    accepted: bool | None = None  # the program's own verdict on the witness
    calls: tuple = ()  # cli-small: seconds of each CLI call
    peak_kb: int = 0  # cli-small: largest child resident set
    wrong: str | None = None  # cli-small: an exit code outside the contract


def run_deal(text: str, budget: int, tr) -> Outcome:
    with tr.span("serialize.loads_instance"):
        inst = cs.loads_instance(text)
    with tr.span("model.classify"):
        cs.classify(inst)
    with tr.span("solve") as sp:
        report = cs.solve(inst, budget=budget)
    sp.name = SOLVER_LAYER[report.solver_id]
    out = Outcome(0.0, decision=report.decision)
    if report.solver_id == "exhaustive":
        tr.count("exhaustive.nodes", report.stats.nodes)
        tr.count("exhaustive.undecided", report.decision is None)
        tr.count("exhaustive.kernel", report.stats.kernel == "c")
    if report.decision:
        with tr.span("serialize.dumps_witness"):
            out.witness = cs.dumps_witness(report.witness)
        with tr.span("serialize.loads_witness"):
            sequence = cs.loads_witness(out.witness)
        with tr.span("verify.verify_sequence"):
            out.accepted = cs.verify_sequence(inst, sequence).accepted
        tr.count("verify.cards", sum(len(t.plays) for t in sequence.tricks))
        tr.count("serialize.witness_bytes", len(out.witness))
    return out


def run_pass_in_process(cases: list[Case], document: int, tr) -> list[Outcome]:
    outcomes = []
    for case in cases:
        text = case.texts[document % len(case.texts)]
        tr.op = case.name
        tr.count("serialize.instance_bytes", len(text))
        t0 = perf_counter()
        try:
            out = run_deal(text, SEARCH_BUDGET, tr)
        except Exception as exc:  # a crash is counted as a failed operation
            out = Outcome(0.0, failed=f"{type(exc).__name__}: {exc}")
        out.seconds = perf_counter() - t0
        outcomes.append(out)
    return outcomes


class Cli:
    """Runs ``crew`` (``python -m crewsolver``) on the built package, one
    child at a time, and reports each child's exit code, time and peak RSS."""

    def __init__(self, lib: Path, workdir: Path):
        self.env = {k: v for k, v in os.environ.items() if not k.startswith(("CREW_", "PYTHON"))}
        self.env["PYTHONPATH"] = str(lib)
        self.stdout = workdir / "stdout.txt"
        self.stderr = workdir / "stderr.txt"

    def run(self, argv: list[str]) -> tuple[int, str, float, int]:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.stdout), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.stderr), flags, 0o644),
        ]
        t0 = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = perf_counter() - t0
        return os.waitstatus_to_exitcode(status), self.stderr.read_text(), seconds, usage.ru_maxrss

    def crew(self, *args: str) -> tuple[int, str, float, int]:
        return self.run(["-m", "crewsolver", *args])


def run_pass_cli(cases: list[Case], cli: Cli, tr) -> list[Outcome]:
    outcomes = []
    for case in cases:
        tr.op = case.name
        witness = case.path.with_suffix(".witness")
        witness.unlink(missing_ok=True)
        tr.count("serialize.instance_bytes", len(case.texts[0]))
        with tr.span("cli.call"):
            code, err, sec, peak = cli.crew(
                "solve", str(case.path), "--witness-out", str(witness), "--budget", str(CLI_BUDGET)
            )
        out = Outcome(sec, calls=(sec,), peak_kb=peak)
        if case.crash:
            lines = err.splitlines()
            if code != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
                out.failed = f"exit {code}, stderr ends {lines[-1:]!r}"
        elif "Traceback" in err:
            out.failed = f"exit {code}, {err.splitlines()[-1]}"
        elif code in (0, 1):
            out.decision = code == 0
        elif code != 2:
            out.wrong = f"exit code {code}"
        if out.decision is True:
            with tr.span("cli.call"):
                vcode, _, vsec, vpeak = cli.crew("verify", str(case.path), str(witness))
            out.accepted = vcode == 0
            if witness.is_file():
                out.witness = witness.read_text()
                tr.count("serialize.witness_bytes", len(out.witness))
            else:
                out.wrong = "exit 0 but no witness file"
            out.seconds += vsec
            out.calls = (sec, vsec)
            out.peak_kb = max(peak, vpeak)
        outcomes.append(out)
    return outcomes


def check(case: Case, text: str, out: Outcome) -> str | None:
    """None when the outcome is right for the case read as ``text``, else
    what is wrong.

    A failed (crashed) operation is not checked here; it is counted apart.
    """
    if out.wrong:
        return out.wrong
    if out.failed or out.decision is None:
        return None
    if out.decision != case.truth:
        return f"decided {out.decision}, expected {case.truth}"
    if out.decision:
        if not out.accepted:
            return "the program's verifier rejects its own witness"
        try:
            why = checks.replay(json.loads(text), json.loads(out.witness))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            why = f"malformed witness ({type(exc).__name__}: {exc})"
        if why:
            return f"witness replay: {why}"
    return None


def fingerprint(out: Outcome) -> tuple:
    """What must repeat exactly from pass to pass."""
    digest = hashlib.sha256(out.witness.encode()).hexdigest() if out.witness else None
    return (out.decision, out.failed is None, digest, out.accepted)


BUILDERS = {
    "poly-large": build_poly_large,
    "search-general": build_search_general,
    "search-hp": build_search_hp,
    "cli-small": build_cli_small,
}
