"""Witness verification: replay a recorded play sequence against an instance.

A witness is accepted when its opening leader is a player, every trick is
legal, leads chain by trick winner, no card is reused, and the replay reaches
a won state at or before the final trick.  Token order is checked trick by
trick: a broken order can never be mended, so the first trick that breaks
one is the failing trick.  Rejections carry a reason code and the earliest
failing trick index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple

from .model import Instance, PlayError, TokenConstraint, Trick, trick_winner


class Reason(Enum):
    BAD_LEAD = "BAD_LEAD"
    FOLLOW_SUIT_VIOLATION = "FOLLOW_SUIT_VIOLATION"
    CARD_NOT_IN_HAND = "CARD_NOT_IN_HAND"
    CARD_REUSED = "CARD_REUSED"
    WRONG_WINNER_LEADS = "WRONG_WINNER_LEADS"
    OBJECTIVE_MISROUTED = "OBJECTIVE_MISROUTED"
    TOKEN_ORDER_VIOLATED = "TOKEN_ORDER_VIOLATED"
    OBJECTIVES_INCOMPLETE = "OBJECTIVES_INCOMPLETE"
    HAND_EMPTY_EARLY = "HAND_EMPTY_EARLY"


@dataclass(frozen=True, slots=True)
class PlaySequence:
    """A claimed winning line: the opening leader plus the tricks played."""

    first_lead: int
    tricks: tuple[Trick, ...] = ()

    def __post_init__(self) -> None:
        if self.tricks and self.tricks[0].lead != self.first_lead:
            raise PlayError(
                f"first trick led by {self.tricks[0].lead}, "
                f"sequence claims {self.first_lead}"
            )


class Verdict(NamedTuple):
    accepted: bool
    reason: Reason | None = None
    trick_index: int | None = None
    detail: str = ""


def _reject(reason: Reason, index: int | None, detail: str) -> Verdict:
    return Verdict(accepted=False, reason=reason, trick_index=index, detail=detail)


def _tokens_broken(
    tokens: tuple[TokenConstraint, ...], done: set[int], new: set[int]
) -> bool:
    """True when the trick that completes ``new`` after ``done`` breaks a
    token order that no earlier trick broke: a newly completed objective
    still has a ``before`` objective open, an open objective has an
    ``after`` objective in ``new``, or the same-trick constraints among
    ``new`` form a cycle.  (An ``after`` objective already in ``done`` was
    rejected by the trick that completed it, while its token's objective
    was still open.)"""
    same_trick = TopologicalSorter()
    for tok in tokens:
        if tok.objective in new:
            if tok.before - done - new:
                return True
            for b in tok.before & new:
                same_trick.add(tok.objective, b)
            for a in tok.after & new:
                same_trick.add(a, tok.objective)
        elif tok.objective not in done and tok.after & new:
            return True
    try:
        same_trick.prepare()
    except CycleError:
        return True
    return False


def verify_sequence(instance: Instance, sequence: PlaySequence) -> Verdict:
    """Replay ``sequence`` on ``instance`` and report the earliest failure.

    The replay keeps per-player hand sets and suit counts incrementally, so a
    full pass costs O(cards + objectives) rather than rescanning hands per
    play.  The simulation stops at the first won state, so trailing tricks
    after a win are ignored.  Structural oddities map onto the closed
    reason-code set: a play naming an unknown player rejects as
    CARD_NOT_IN_HAND, and a trick with too few plays as HAND_EMPTY_EARLY (the
    only position in which a full trick cannot be formed).
    """
    inst = instance
    if inst.first_lead is not None and sequence.first_lead != inst.first_lead:
        return _reject(
            Reason.BAD_LEAD,
            0,
            f"sequence leads with {sequence.first_lead}, "
            f"instance fixes {inst.first_lead}",
        )
    if not 1 <= sequence.first_lead <= inst.players:
        return _reject(
            Reason.BAD_LEAD,
            0,
            f"sequence leads with {sequence.first_lead}, "
            f"deal has {inst.players} players",
        )

    hands = [set(hand) for hand in inst.hands]
    suit_left = [Counter(card.suit for card in hand) for hand in inst.hands]
    target_index = {obj.card: idx for idx, obj in enumerate(inst.objectives)}
    done: set[int] = set()
    won = not inst.objectives
    starved = not won and any(not hand for hand in hands)
    played: set = set()
    expected: int | None = inst.first_lead

    for index, trick in enumerate(sequence.tricks):
        if won:
            break
        if starved:
            # A hand was empty before the first trick could be formed.
            return _reject(Reason.HAND_EMPTY_EARLY, index, "no trick can be formed")
        if expected is not None and trick.lead != expected:
            reason = Reason.BAD_LEAD if index == 0 else Reason.WRONG_WINNER_LEADS
            return _reject(
                reason, index, f"trick led by {trick.lead}, expected {expected}"
            )
        if len(trick.plays) != inst.players:
            if any(p.player > inst.players for p in trick.plays):
                return _reject(
                    Reason.CARD_NOT_IN_HAND, index, "play by unknown player"
                )
            return _reject(
                Reason.HAND_EMPTY_EARLY,
                index,
                f"trick has {len(trick.plays)} plays for {inst.players} players",
            )
        led = trick.plays[0].card
        for seat, play in enumerate(trick.plays):
            if play.card in played:
                return _reject(
                    Reason.CARD_REUSED, index, f"{play.card} was already played"
                )
            if play.card not in hands[play.player - 1]:
                return _reject(
                    Reason.CARD_NOT_IN_HAND,
                    index,
                    f"player {play.player} does not hold {play.card}",
                )
            if seat > 0 and play.card.suit != led.suit:
                if suit_left[play.player - 1][led.suit]:
                    return _reject(
                        Reason.FOLLOW_SUIT_VIOLATION,
                        index,
                        f"player {play.player} must follow suit {led.suit}",
                    )

        winner = trick_winner(trick, inst.trump_suit)
        new: set[int] = set()
        misrouted = False
        for play in trick.plays:
            played.add(play.card)
            hands[play.player - 1].discard(play.card)
            suit_left[play.player - 1][play.card.suit] -= 1
            target = target_index.get(play.card)
            if target is not None:
                if winner == inst.objectives[target].owner:
                    new.add(target)
                else:
                    misrouted = True
        expected = winner

        if misrouted:
            return _reject(
                Reason.OBJECTIVE_MISROUTED, index, "loss: objective-misrouted"
            )
        if inst.tokens and _tokens_broken(inst.tokens, done, new):
            return _reject(
                Reason.TOKEN_ORDER_VIOLATED, index, "loss: token-order-violated"
            )
        done |= new
        if len(done) == len(inst.objectives):
            won = True
        elif any(not hand for hand in hands):
            return _reject(Reason.HAND_EMPTY_EARLY, index, "loss: hand-empty")

    if not won:
        return _reject(
            Reason.OBJECTIVES_INCOMPLETE,
            None,
            "sequence ends with objectives open",
        )
    return Verdict(accepted=True)
