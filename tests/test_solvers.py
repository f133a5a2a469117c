"""Solver tests: frozen decisions, witness shape, dispatcher routing.

Expected values for non-trivial cases were frozen from the exhaustive
solver's answer on the same instance; the relevant test asserts both so a
regression in either side shows up as a disagreement.
"""

from __future__ import annotations

import pytest

from crewsolver.model import Card, Instance, Objective, TokenConstraint, classify
from crewsolver.solvers import (
    SolverMismatchError,
    _DrainList,
    solve,
    solve_exhaustive,
    solve_single_suit,
    solve_single_suit_owned,
    solve_single_value,
)
from crewsolver.verify import verify_sequence


def _suit1(*hands: tuple[int, ...], objectives=(), **kw) -> Instance:
    built = tuple(frozenset(Card(v, 1) for v in hand) for hand in hands)
    k = max((v for hand in hands for v in hand), default=1)
    objs = tuple(Objective(Card(v, 1), owner) for v, owner in objectives)
    return Instance(
        players=len(hands), k=k, s=1, hands=built, objectives=objs, **kw
    )


def _ones(*hands: tuple[int, ...], objectives=(), **kw) -> Instance:
    built = tuple(frozenset(Card(1, s) for s in hand) for hand in hands)
    s = max(s for hand in hands for s in hand)
    objs = tuple(Objective(Card(1, suit), owner) for suit, owner in objectives)
    return Instance(
        players=len(hands), k=1, s=s, hands=built, objectives=objs, **kw
    )


class TestDrainList:
    def test_take_below(self):
        d = _DrainList([1, 4, 6, 9])
        assert d.take_below(7) == 6
        assert d.take_below(7) == 4
        assert d.take_below(2) == 1
        assert d.take_below(2) is None
        assert d.take_below(100) == 9
        assert d.take_below(100) is None

    def test_empty(self):
        d = _DrainList([])
        assert d.take_below(5) is None


class TestSingleValue:
    def test_no_objectives(self):
        report = solve_single_value(_ones((1, 2), (3, 4)))
        assert report.decision is True
        assert report.witness is not None and report.witness.tricks == ()

    def test_single_owner_wins(self):
        inst = _ones((1, 2), (3, 4), objectives=((3, 1), (4, 1)))
        report = solve_single_value(inst)
        assert report.decision is True
        assert verify_sequence(inst, report.witness).accepted
        # Every trick of a winning line here is taken by the owner.
        for trick in report.witness.tricks:
            assert trick.lead == 1

    def test_two_owners_false(self):
        inst = _ones((1, 2), (3, 4), objectives=((3, 1), (1, 2)))
        assert solve_single_value(inst).decision is False

    def test_crowded_hand_false(self):
        inst = _ones((1,), (2, 3), objectives=((2, 1), (3, 1)))
        assert solve_single_value(inst).decision is False

    def test_fixed_foreign_lead_false(self):
        inst = _ones((1, 2), (3, 4), objectives=((3, 1),), first_lead=2)
        assert solve_single_value(inst).decision is False
        owned_lead = _ones((1, 2), (3, 4), objectives=((3, 1),), first_lead=1)
        assert solve_single_value(owned_lead).decision is True

    def test_wrong_class_rejected(self, uneven_deal):
        with pytest.raises(SolverMismatchError):
            solve_single_value(uneven_deal)


class TestSingleSuitOwned:
    def test_no_objectives(self):
        report = solve_single_suit_owned(_suit1((5, 2), (4, 1)))
        assert report.decision is True and report.witness.tricks == ()

    def test_simple_win(self):
        inst = _suit1((5, 2), (4, 1), objectives=((5, 1),))
        report = solve_single_suit_owned(inst)
        assert report.decision is True
        assert len(report.witness.tricks) == 1
        assert verify_sequence(inst, report.witness).accepted

    def test_no_card_under(self):
        inst = _suit1((3,), (4,), objectives=((3, 1),))
        assert solve_single_suit_owned(inst).decision is False

    def test_objective_cards_excluded_from_filler(self):
        # In the (9,1) trick player 2 must keep their own objective card
        # (8,1) back and feed (2,1) instead.
        inst = _suit1((9, 1), (8, 2), objectives=((9, 1), (8, 2)))
        report = solve_single_suit_owned(inst)
        assert report.decision is True
        first = report.witness.tricks[0]
        played_by_2 = [p.card for p in first.plays if p.player == 2]
        assert played_by_2 == [Card(2, 1)]
        assert verify_sequence(inst, report.witness).accepted

    def test_exactly_l_tricks(self):
        inst = _suit1(
            (9, 6, 3), (8, 5, 2), (7, 4, 1),
            objectives=((9, 1), (8, 2), (7, 3)),
        )
        report = solve_single_suit_owned(inst)
        assert report.decision is True
        assert len(report.witness.tricks) == 3
        assert verify_sequence(inst, report.witness).accepted


class TestSingleSuit:
    def test_fed_objective(self):
        inst = _suit1((9, 1), (5, 2), objectives=((5, 1),))
        report = solve_single_suit(inst)
        assert report.decision is True
        trick = report.witness.tricks[0]
        assert {p.card for p in trick.plays} == {Card(9, 1), Card(5, 1)}
        assert verify_sequence(inst, report.witness).accepted

    def test_winner_too_small(self):
        inst = _suit1((4, 1), (5, 2), objectives=((5, 1),))
        assert solve_single_suit(inst).decision is False

    def test_owner_holds_card(self):
        inst = _suit1((5,), (1,), objectives=((5, 1),))
        report = solve_single_suit(inst)
        assert report.decision is True
        assert verify_sequence(inst, report.witness).accepted

    def test_feed_must_go_under_tightest_trick(self):
        # Player 2 owns 2, 6 (self-held) and 1 (held by player 1).  Feeding
        # the 1 under the big 6-trick strands the forced 2-trick: player 1
        # would have nothing below 2 left.  The 1 has to go under the
        # 2-trick itself, and the win needs only two tricks.
        inst = _suit1(
            (1, 3, 5, 7),
            (2, 4, 6),
            objectives=((2, 2), (6, 2), (1, 2)),
        )
        report = solve_single_suit(inst)
        assert report.decision is True
        assert len(report.witness.tricks) <= 3
        assert verify_sequence(inst, report.witness).accepted
        assert solve_exhaustive(inst).decision is True

    def test_extra_tricks_scheduled_when_needed(self):
        # Player 2's objective card sits with player 1 while player 2 holds
        # no objective of their own: an extra winning trick must be staged.
        inst = _suit1((2, 9), (5, 8), objectives=((2, 2),))
        report = solve_single_suit(inst)
        assert report.decision is True
        assert len(report.witness.tricks) <= 1
        assert verify_sequence(inst, report.witness).accepted
        assert solve_exhaustive(inst).decision is True

    def test_accepts_owned_class_and_agrees(self):
        inst = _suit1((9, 6, 3), (8, 5, 2), objectives=((9, 1), (8, 2)))
        report = solve_single_suit(inst)
        owned = solve_single_suit_owned(inst)
        assert report.decision is owned.decision is True
        assert verify_sequence(inst, report.witness).accepted

    def test_at_most_l_tricks(self):
        inst = _suit1(
            (1, 3, 5, 7), (2, 4, 6), objectives=((2, 2), (6, 2), (1, 2))
        )
        report = solve_single_suit(inst)
        assert report.decision is True
        assert len(report.witness.tricks) <= len(inst.objectives)

    def test_wrong_class_rejected(self, uneven_deal):
        with pytest.raises(SolverMismatchError):
            solve_single_suit(uneven_deal)


class TestDispatcher:
    def test_routes_by_class(self, uneven_deal):
        assert solve(_ones((1, 2), (3,))).solver_id == "single-value"
        owned = _suit1((5, 2), (4, 1), objectives=((5, 1),))
        assert solve(owned).solver_id == "ss-owned"
        external = _suit1((9, 1), (5, 2), objectives=((5, 1),))
        assert solve(external).solver_id == "single-suit"
        assert solve(uneven_deal).solver_id == "exhaustive"

    def test_tokens_route_to_exhaustive(self):
        inst = _suit1(
            (5, 2),
            (4, 1),
            objectives=((5, 1), (4, 2)),
            tokens=(TokenConstraint(1, before=frozenset({0})),),
        )
        report = solve(inst)
        assert report.solver_id == "exhaustive"
        assert report.decision is True
        assert verify_sequence(inst, report.witness).accepted

    def test_force_mismatch_raises(self, uneven_deal):
        with pytest.raises(SolverMismatchError):
            solve(uneven_deal, force="single-value")

    def test_force_exhaustive_anywhere(self):
        inst = _suit1((5, 2), (4, 1), objectives=((5, 1),))
        report = solve(inst, force="exhaustive")
        assert report.solver_id == "exhaustive"
        assert report.decision is True

    def test_unknown_force_rejected(self, uneven_deal):
        with pytest.raises(ValueError, match="unknown solver"):
            solve(uneven_deal, force="magic")

    def test_budget_exhaustion_is_none(self, uneven_deal):
        report = solve(uneven_deal, force="exhaustive", budget=1)
        assert report.decision is None
        assert report.witness is None

    def test_want_witness_false(self):
        inst = _suit1((5, 2), (4, 1), objectives=((5, 1),))
        report = solve(inst, want_witness=False)
        assert report.decision is True
        assert report.witness is None

    def test_classifies_once(self, monkeypatch, uneven_deal):
        import crewsolver.solvers as solvers

        calls = []

        def counting(instance):
            calls.append(instance)
            return classify(instance)

        monkeypatch.setattr(solvers, "classify", counting)
        deals = [
            _ones((1, 2), (3,), objectives=((1, 1),)),
            _suit1((5, 2), (4, 1), objectives=((5, 1),)),
            _suit1((9, 1), (5, 2), objectives=((5, 1),)),
            uneven_deal,
        ]
        for inst in deals:
            calls.clear()
            solve(inst)
            assert calls == [inst]
            calls.clear()
            solve(inst, force="exhaustive")
            assert len(calls) <= 1

    def test_forced_mismatch_still_raises(self, uneven_deal):
        owned = _suit1((5, 2), (4, 1), objectives=((5, 1),))
        external = _suit1((9, 1), (5, 2), objectives=((5, 1),))
        ones = _ones((1, 2), (3,), objectives=((1, 1),))
        for inst, solver_id in [
            (owned, "single-value"),
            (external, "ss-owned"),
            (ones, "single-suit"),
            (uneven_deal, "ss-owned"),
        ]:
            with pytest.raises(SolverMismatchError, match=repr(solver_id)):
                solve(inst, force=solver_id)
        with pytest.raises(SolverMismatchError):
            solve_single_suit_owned(external)
        with pytest.raises(SolverMismatchError):
            solve_single_value(owned)
        assert solve(owned, force="single-suit").decision is True
