"""The search kernel against its pinned outputs on the parity corpus.

``parity_corpus.json`` is written by ``make_parity_corpus.py`` and is the
one pinned record of the search; a change that moves a decision, a witness
or a node count must regenerate it and say so.
"""

from __future__ import annotations

import json

import pytest

import make_parity_corpus
from make_parity_corpus import CORPUS_PATH, REDUCTIONS, SEARCH_BUDGET, build, digest, summary
from crewsolver.generate import gen_graph
from crewsolver.solvers import solve_exhaustive
from crewsolver.verify import verify_sequence
from test_reduce import has_path

CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", list(CORPUS["deals"]))
def test_parity_corpus(key):
    deal = CORPUS["deals"][key]
    instance = build(deal["kind"], deal["args"])
    report = solve_exhaustive(instance, budget=deal["budget"])
    assert (report.decision, digest(report.witness)) == (deal["decision"], deal["witness_sha256"])
    assert report.stats.nodes == CORPUS["nodes"][key]
    if report.decision:
        assert verify_sequence(instance, report.witness).accepted


def test_corpus_matches_its_generator():
    """The corpus holds exactly the generator's deals, in its order, so a
    deal added to the generator without a regeneration fails here."""
    names = [make_parity_corpus.name(*deal) for deal in make_parity_corpus.deals()]
    assert list(CORPUS["deals"]) == names
    assert list(CORPUS["nodes"]) == names


def test_reductions_answer_hamiltonian_path():
    """Each decided answer on the corpus's 72 reductions of perfbench's
    search-hp graphs, which ``test_parity_corpus`` pins to the search,
    says whether the graph has a Hamiltonian path, as the Held-Karp oracle
    of ``perfbench/checks.py`` says.  Of the 24 graphs, 16 have a path."""
    deals = [
        deal
        for deal in CORPUS["deals"].values()
        if deal["kind"] in REDUCTIONS and deal["budget"] == SEARCH_BUDGET
    ]
    decided = dict.fromkeys(REDUCTIONS, 0)
    paths = 0
    for deal in deals:
        graph = gen_graph(*deal["args"])
        truth = has_path(graph)
        paths += truth
        if deal["decision"] is not None:
            assert deal["decision"] is truth, deal
            decided[deal["kind"]] += 1
    assert (len(deals), paths) == (72, 3 * 16)
    assert decided == {"reduce_hp": 21, "reduce_hp_trump": 18, "reduce_hp_tokens": 13}


def test_summary_names_what_moved():
    def corpus(*rows):
        return {
            "deals": {key: {"decision": d, "witness_sha256": w} for key, d, w, _ in rows},
            "nodes": {key: n for key, *_, n in rows},
        }

    old = corpus(("a", None, None, 10001), ("b", True, "x", 40), ("c", False, None, 90))
    new = corpus(("a", False, None, 7000), ("b", True, "y", 40), ("c", False, None, 95))
    assert summary(old, new) == [
        "decided answers or witnesses changed: 1",
        "  b",
        "undecided deals decided: 1",
        "  a -> NO",
        "node counts fell: 1",
        "node counts rose: 1",
        "  c",
        "nodes in all: 10,131 -> 7,135",
    ]
    assert summary(old, old) == [
        "decided answers or witnesses changed: 0",
        "undecided deals decided: 0",
        "node counts fell: 0",
        "node counts rose: 0",
        "nodes in all: 10,131 -> 10,131",
    ]
