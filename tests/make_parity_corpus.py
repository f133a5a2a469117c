"""Write ``parity_corpus.json``: the search's pinned outputs on fixed deals,
the one record of its decisions, witnesses and node counts.

Run from the root of the repository::

    PYTHONPATH=src python tests/make_parity_corpus.py

Every deal is decided by ``solve_exhaustive`` under its node budget.  The
file holds two tables keyed by the deal's name: ``deals`` gives how to build
the deal, its budget, the decision and the sha256 of ``dumps_witness`` of its
winning line; ``nodes`` gives the node count.  A change that moves node
counts alone (a new prune) thus shows as a diff of ``nodes`` only, and one
that moves a decision or a witness as a diff of ``deals``.
``test_parity.py`` re-solves each deal, compares and re-verifies each
winning line.  Before it overwrites the file, the script prints what
changed against it (``summary``).

The deals: the 80 ``gen_general(n, 4, 6, seed)`` deals with n = 24-32 and
seeds 0-15, and the three Hamiltonian-path reductions of the 24 graphs of
perfbench's search-hp workload, all at its 10,000-node budget; then a few
deals with no budget, each decided within about 100k nodes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from crewsolver import reduction
from crewsolver.generate import gen_general, gen_graph
from crewsolver.model import Instance
from crewsolver.serialize import dumps_witness
from crewsolver.solvers import solve_exhaustive
from crewsolver.verify import verify_sequence

CORPUS_PATH = Path(__file__).with_name("parity_corpus.json")

SEARCH_BUDGET = 10_000
REDUCTIONS = ("reduce_hp", "reduce_hp_trump", "reduce_hp_tokens")

# (kind, args) decided with no budget: YES and NO, tokens and trump, the
# two gen_general draws whose node count depends on the same-trick token
# cycle test, and all three forms of gen_graph(6, 0.5, 2).
UNBOUNDED = (
    ("reduce_hp_tokens", (5, 0.5, 1)),
    ("reduce_hp_trump", (5, 0.5, 0)),
    ("reduce_hp_tokens", (5, 0.5, 2)),
    ("reduce_hp_tokens", (6, 0.5, 2)),
    ("reduce_hp_trump", (6, 0.5, 1)),
    ("gen_general", (24, 4, 6, 2)),
    ("gen_general", (24, 4, 6, 11)),
    ("gen_general", (28, 4, 6, 14)),
    ("gen_general", (20, 4, 6, 31)),
    ("gen_general", (20, 4, 6, 149)),
    ("reduce_hp", (6, 0.5, 2)),
    ("reduce_hp_trump", (6, 0.5, 2)),
)


def deals():
    """Each deal of the corpus as ``(kind, args, budget)``; ``args`` are
    ``gen_general``'s, or ``gen_graph``'s for a reduction."""
    for n in range(24, 33, 2):
        for seed in range(16):
            yield "gen_general", (n, 4, 6, seed), SEARCH_BUDGET
    for vertices in (5, 6, 7):
        for i in range(8):
            for kind in REDUCTIONS:
                yield kind, (vertices, 0.5, 1_000 + 10 * vertices + i), SEARCH_BUDGET
    for kind, args in UNBOUNDED:
        yield kind, args, 0


def name(kind: str, args, budget: int) -> str:
    call = ", ".join(map(str, args))
    deal = f"gen_general({call})" if kind == "gen_general" else f"{kind}(gen_graph({call}))"
    return f"{deal} budget={budget}"


def build(kind: str, args) -> Instance:
    if kind == "gen_general":
        return gen_general(*args)
    return getattr(reduction, kind)(gen_graph(*args))


def digest(witness) -> str | None:
    if witness is None:
        return None
    return hashlib.sha256(dumps_witness(witness).encode()).hexdigest()


def summary(old: dict, new: dict) -> list[str]:
    """What moved between two corpora, one line per kind of change: decided
    answers or witnesses that changed, undecided deals that became decided,
    node counts that fell or rose, and the node totals."""
    both = [key for key in new["deals"] if key in old["deals"]]

    def outcome(corpus: dict, key: str):
        deal = corpus["deals"][key]
        return deal["decision"], deal["witness_sha256"]

    changed = [
        key
        for key in both
        if old["deals"][key]["decision"] is not None and outcome(old, key) != outcome(new, key)
    ]
    decided = [
        f"{key} -> {'YES' if new['deals'][key]['decision'] else 'NO'}"
        for key in both
        if old["deals"][key]["decision"] is None and new["deals"][key]["decision"] is not None
    ]
    fell = [key for key in both if new["nodes"][key] < old["nodes"][key]]
    rose = [key for key in both if new["nodes"][key] > old["nodes"][key]]
    lines = [
        f"decided answers or witnesses changed: {len(changed)}",
        *(f"  {key}" for key in changed),
        f"undecided deals decided: {len(decided)}",
        *(f"  {line}" for line in decided),
        f"node counts fell: {len(fell)}",
        f"node counts rose: {len(rose)}",
        *(f"  {key}" for key in rose),
        f"nodes in all: {sum(old['nodes'][k] for k in both):,} -> "
        f"{sum(new['nodes'][k] for k in both):,}",
    ]
    added = new["deals"].keys() - old["deals"].keys()
    dropped = old["deals"].keys() - new["deals"].keys()
    if added or dropped:
        lines.append(f"deals added: {len(added)}, dropped: {len(dropped)}")
    return lines


def main() -> None:
    table, nodes = {}, {}
    for kind, args, budget in deals():
        instance = build(kind, args)
        report = solve_exhaustive(instance, budget=budget)
        if report.witness is not None:
            assert verify_sequence(instance, report.witness).accepted
        key = name(kind, args, budget)
        table[key] = {
            "kind": kind,
            "args": list(args),
            "budget": budget,
            "decision": report.decision,
            "witness_sha256": digest(report.witness),
        }
        nodes[key] = report.stats.nodes

    def rows(entries: dict) -> str:
        return ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())

    if CORPUS_PATH.exists():
        old = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
        print("\n".join(summary(old, {"deals": table, "nodes": nodes})))
    CORPUS_PATH.write_text(
        "{\n"
        f'  "deals": {{\n{rows(table)}\n  }},\n'
        f'  "nodes": {{\n{rows(nodes)}\n  }}\n'
        "}\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
