"""The search kernel against its pinned outputs on the parity corpus.

``parity_corpus.json`` is written by ``make_parity_corpus.py``; a change that
moves a decision, a witness or a node count must regenerate it and say so.
"""

from __future__ import annotations

import json

import pytest

from make_parity_corpus import CORPUS_PATH, build, digest
from crewsolver.solvers import solve_exhaustive

CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", list(CORPUS["deals"]))
def test_parity_corpus(key):
    deal = CORPUS["deals"][key]
    report = solve_exhaustive(build(deal["kind"], deal["args"]), budget=deal["budget"])
    assert (report.decision, digest(report.witness)) == (deal["decision"], deal["witness_sha256"])
    assert report.stats.nodes == CORPUS["nodes"][key]
