"""Verifier tests: acceptance of known wins, one rejection per reason code."""

from __future__ import annotations

import dataclasses

import pytest

from crewsolver.model import (
    Card,
    Instance,
    Objective,
    Play,
    PlayError,
    TokenConstraint,
    Trick,
    rotation,
)
from crewsolver.verify import PlaySequence, Reason, Verdict, verify_sequence


def test_known_win_accepted(uneven_deal, uneven_deal_win):
    verdict = verify_sequence(uneven_deal, uneven_deal_win)
    assert verdict == Verdict(accepted=True)
    assert verdict.reason is None and verdict.trick_index is None


def test_trailing_tricks_after_win_ignored(uneven_deal, uneven_deal_win, trick_builder):
    # Garbage after the winning trick must not matter; replay stops at the win.
    extra = trick_builder(2, [(9, 9), (9, 8), (9, 7), (9, 6)])
    longer = PlaySequence(
        first_lead=1, tricks=uneven_deal_win.tricks + (extra,)
    )
    assert verify_sequence(uneven_deal, longer).accepted


def test_sequence_lead_consistency_enforced():
    with pytest.raises(PlayError, match="first trick led by"):
        PlaySequence(
            first_lead=2,
            tricks=(Trick(lead=1, plays=(Play(1, Card(1, 1)),)),),
        )


class TestRejectionReasons:
    """One minimal mutation of the known win per rejection code."""

    def test_bad_lead(self, uneven_deal, trick_builder):
        # The deal pins the opening leader to player 1.
        wrong_opener = PlaySequence(
            first_lead=2,
            tricks=(trick_builder(2, [(3, 1), (5, 2), (1, 1), (2, 1)]),),
        )
        verdict = verify_sequence(uneven_deal, wrong_opener)
        assert verdict.reason is Reason.BAD_LEAD
        assert verdict.trick_index == 0

    @pytest.mark.parametrize("lead", [-5, 0, 3, 99])
    def test_opening_leader_not_a_player(self, lead):
        # No lead is pinned and no objective is open, so nothing else could
        # reject; a certificate naming a player who does not exist must.
        hands = (frozenset({Card(1, 1)}), frozenset({Card(1, 2)}))
        inst = Instance(players=2, k=1, s=2, hands=hands)
        assert verify_sequence(inst, PlaySequence(first_lead=1)).accepted
        verdict = verify_sequence(inst, PlaySequence(first_lead=lead))
        assert verdict.reason is Reason.BAD_LEAD
        assert verdict.trick_index == 0
        # A rotation-ordered trick led by the same outsider is no better.
        plays = tuple(Play(q, Card(1, q)) for q in rotation(lead, 2))
        trick = Trick(lead=lead, plays=plays)
        verdict = verify_sequence(inst, PlaySequence(first_lead=lead, tricks=(trick,)))
        assert verdict.reason is Reason.BAD_LEAD
        assert verdict.trick_index == 0

    def test_wrong_winner_leads(self, uneven_deal, uneven_deal_win, trick_builder):
        # Trick 1 is won by player 1; hand the second lead to player 2.
        hijacked = trick_builder(2, [(4, 2), (5, 2), (2, 2), (3, 2)])
        seq = PlaySequence(
            first_lead=1, tricks=(uneven_deal_win.tricks[0], hijacked)
        )
        verdict = verify_sequence(uneven_deal, seq)
        assert verdict.reason is Reason.WRONG_WINNER_LEADS
        assert verdict.trick_index == 1

    def test_follow_suit_violation(self, uneven_deal, trick_builder):
        # Player 2 sluffs (2,3) while still holding the led suit.
        trick = trick_builder(1, [(4, 1), (2, 3), (5, 2), (1, 1)])
        verdict = verify_sequence(
            uneven_deal, PlaySequence(first_lead=1, tricks=(trick,))
        )
        assert verdict.reason is Reason.FOLLOW_SUIT_VIOLATION
        assert verdict.trick_index == 0

    def test_card_not_in_hand(self, uneven_deal, trick_builder):
        # (6,3) belongs to player 4, not player 2.
        trick = trick_builder(1, [(4, 1), (6, 3), (5, 2), (1, 1)])
        verdict = verify_sequence(
            uneven_deal, PlaySequence(first_lead=1, tricks=(trick,))
        )
        assert verdict.reason is Reason.CARD_NOT_IN_HAND
        assert verdict.trick_index == 0

    def test_card_reused(self, uneven_deal, uneven_deal_win, trick_builder):
        replay = trick_builder(1, [(4, 1), (4, 2), (4, 3), (2, 2)])
        seq = PlaySequence(
            first_lead=1, tricks=(uneven_deal_win.tricks[0], replay)
        )
        verdict = verify_sequence(uneven_deal, seq)
        assert verdict.reason is Reason.CARD_REUSED
        assert verdict.trick_index == 1

    def test_objective_misrouted(self, uneven_deal, trick_builder):
        # Player 2 wins the opening trick carrying player 1's objective.
        trick = trick_builder(1, [(2, 1), (3, 1), (5, 2), (1, 1)])
        verdict = verify_sequence(
            uneven_deal, PlaySequence(first_lead=1, tricks=(trick,))
        )
        assert verdict.reason is Reason.OBJECTIVE_MISROUTED
        assert verdict.trick_index == 0

    def test_token_order_violated(self, uneven_deal, uneven_deal_win):
        # Require the second objective to complete no later than the first;
        # the known win completes them in the opposite order.
        constrained = dataclasses.replace(
            uneven_deal, tokens=(TokenConstraint(0, before=frozenset({1})),)
        )
        verdict = verify_sequence(constrained, uneven_deal_win)
        assert verdict.reason is Reason.TOKEN_ORDER_VIOLATED
        assert verdict.trick_index == 0

    def test_token_order_satisfied_counterpart(self, uneven_deal, uneven_deal_win):
        # The same win is fine under the compatible ordering constraint.
        constrained = dataclasses.replace(
            uneven_deal, tokens=(TokenConstraint(1, before=frozenset({0})),)
        )
        assert verify_sequence(constrained, uneven_deal_win).accepted

    def test_objectives_incomplete(self, uneven_deal, uneven_deal_win):
        seq = PlaySequence(first_lead=1, tricks=uneven_deal_win.tricks[:1])
        verdict = verify_sequence(uneven_deal, seq)
        assert verdict.reason is Reason.OBJECTIVES_INCOMPLETE
        assert verdict.trick_index is None
        empty = PlaySequence(first_lead=1, tricks=())
        assert verify_sequence(uneven_deal, empty).reason is (
            Reason.OBJECTIVES_INCOMPLETE
        )

    def test_hand_empty_early(self, trick_builder):
        from crewsolver.model import Instance, Objective

        # Player 2 holds a single card; leading the objective wins in one
        # trick, while the one-edit swap to the other lead strands it.
        inst = Instance(
            players=2,
            k=2,
            s=2,
            hands=(
                frozenset({Card(2, 1), Card(1, 2)}),
                frozenset({Card(1, 1)}),
            ),
            objectives=(Objective(Card(1, 2), 1),),
            first_lead=1,
        )
        win = PlaySequence(
            first_lead=1, tricks=(trick_builder(1, [(1, 2), (1, 1)]),)
        )
        assert verify_sequence(inst, win).accepted
        mutated = PlaySequence(
            first_lead=1, tricks=(trick_builder(1, [(2, 1), (1, 1)]),)
        )
        verdict = verify_sequence(inst, mutated)
        assert verdict.reason is Reason.HAND_EMPTY_EARLY
        assert verdict.trick_index == 0

    def test_hand_empty_before_first_trick(self):
        # Player 2 is dealt nothing while an objective is open, so not even
        # the first trick can be formed, whatever the certificate plays.
        inst = Instance(
            players=2,
            k=1,
            s=1,
            hands=(frozenset({Card(1, 1)}), frozenset()),
            objectives=(Objective(Card(1, 1), 1),),
        )
        trick = Trick(lead=1, plays=(Play(1, Card(1, 1)),))
        verdict = verify_sequence(inst, PlaySequence(first_lead=1, tricks=(trick,)))
        assert verdict == Verdict(
            accepted=False,
            reason=Reason.HAND_EMPTY_EARLY,
            trick_index=0,
            detail="no trick can be formed",
        )

    def test_short_trick_rejected(self, uneven_deal):
        short = Trick(lead=1, plays=(Play(1, Card(4, 1)),))
        verdict = verify_sequence(
            uneven_deal, PlaySequence(first_lead=1, tricks=(short,))
        )
        assert verdict.reason is Reason.HAND_EMPTY_EARLY

    def test_unknown_player_rejected(self, uneven_deal):
        # Six rotation-consistent plays on a four-player deal: the extra
        # seats name players that do not exist.
        rogue = Trick(
            lead=1,
            plays=tuple(Play(i, Card(i, 4)) for i in range(1, 7)),
        )
        verdict = verify_sequence(
            uneven_deal, PlaySequence(first_lead=1, tricks=(rogue,))
        )
        assert verdict.reason is Reason.CARD_NOT_IN_HAND


def test_all_reason_codes_reachable():
    # The class above pins one rejection per code; keep the enum honest.
    assert {r.name for r in Reason} == {
        "BAD_LEAD",
        "FOLLOW_SUIT_VIOLATION",
        "CARD_NOT_IN_HAND",
        "CARD_REUSED",
        "WRONG_WINNER_LEADS",
        "OBJECTIVE_MISROUTED",
        "TOKEN_ORDER_VIOLATED",
        "OBJECTIVES_INCOMPLETE",
        "HAND_EMPTY_EARLY",
    }
