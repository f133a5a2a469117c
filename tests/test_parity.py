"""The search kernel against its pinned outputs on the parity corpus.

``parity_corpus.json`` is written by ``make_parity_corpus.py``; a change that
moves a decision, a witness or a node count must regenerate it and say so.
"""

from __future__ import annotations

import json

import pytest

from make_parity_corpus import CORPUS_PATH, build, digest, summary
from crewsolver.solvers import solve_exhaustive

CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", list(CORPUS["deals"]))
def test_parity_corpus(key):
    deal = CORPUS["deals"][key]
    report = solve_exhaustive(build(deal["kind"], deal["args"]), budget=deal["budget"])
    assert (report.decision, digest(report.witness)) == (deal["decision"], deal["witness_sha256"])
    assert report.stats.nodes == CORPUS["nodes"][key]


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
