"""Exhaustive-search tests: frozen small positions, budgets, tokens, trump."""

from __future__ import annotations

import dataclasses

from crewsolver.exhaustive import run_search
from crewsolver.model import Card, Instance, Objective, TokenConstraint
from crewsolver.solvers import solve_exhaustive
from crewsolver.verify import verify_sequence


def test_no_objectives_short_circuit(uneven_deal):
    free = dataclasses.replace(uneven_deal, objectives=(), tokens=())
    status, witness, nodes, kernel = run_search(free)
    assert status == 1
    assert witness.tricks == ()
    assert nodes == 0 and kernel == "none"


def test_known_deal_canonical_line(uneven_deal):
    status, witness, nodes, used = run_search(uneven_deal)
    assert status == 1 and used == "py"
    assert nodes == 8
    first = witness.tricks[0]
    assert [p.card for p in first.plays] == [
        Card(4, 1),
        Card(3, 1),
        Card(5, 2),
        Card(1, 1),
    ]
    assert len(witness.tricks) == 2
    assert verify_sequence(uneven_deal, witness).accepted


def test_budget_cut(uneven_deal):
    status, witness, nodes, _ = run_search(uneven_deal, budget=3)
    assert status == -1
    assert witness is None
    assert nodes == 4  # the first over-budget expansion is counted

    report = solve_exhaustive(uneven_deal, budget=3)
    assert report.decision is None and report.witness is None


def test_budget_zero_is_unlimited(uneven_deal):
    status, _, _, _ = run_search(uneven_deal, budget=0)
    assert status == 1


def test_first_lead_freedom_searches_all_leads():
    base = Instance(
        players=2,
        k=2,
        s=1,
        hands=(frozenset({Card(2, 1)}), frozenset({Card(1, 1)})),
        objectives=(Objective(Card(2, 1), 1),),
        first_lead=2,
    )
    # The leader does not matter here: player 1's 2 wins either way.
    assert run_search(base)[0] == 1

    hard = dataclasses.replace(
        base, objectives=(Objective(Card(1, 1), 2),), first_lead=None
    )
    # Player 2's own 1 can never win a trick against the 2, any lead.
    assert run_search(hard)[0] == 0


def test_trump_instance_searched(uneven_deal):
    trumped = dataclasses.replace(uneven_deal, trump_suit=3)
    status, witness, _, _ = run_search(trumped)
    assert status in (0, 1)
    if status == 1:
        assert verify_sequence(trumped, witness).accepted


def test_token_instances_searched(uneven_deal):
    # Compatible ordering: the known two-trick win satisfies it.
    tokened = dataclasses.replace(
        uneven_deal, tokens=(TokenConstraint(1, before=frozenset({0})),)
    )
    status, witness, _, _ = run_search(tokened)
    assert status == 1
    assert verify_sequence(tokened, witness).accepted

    # Reversed ordering: every opening lead misroutes, completes the wrong
    # objective first, or strands the constraint - a guaranteed loss.
    blocked = dataclasses.replace(
        uneven_deal, tokens=(TokenConstraint(0, before=frozenset({1})),)
    )
    assert run_search(blocked)[0] == 0
