"""An independent trick-by-trick replay of the game rules.

This is the oracle that the property tests check ``verify_sequence``
against, so it lives with the tests.  It shares only ``trick_winner``,
``check_tokens``, ``tokens_violated`` and ``rotation`` (used by its
callers) with the package.  Each step returns a fresh ``State``; a trick
that breaks the rules raises ``PlayError``, and the game's end (won, or the
way it was lost) lands in ``State.outcome``.
"""

from __future__ import annotations

from dataclasses import dataclass

from crewsolver.model import (
    Card,
    Instance,
    PlayError,
    Trick,
    check_tokens,
    tokens_violated,
    trick_winner,
)

WON = "won"
MISROUTED = "objective-misrouted"
TOKEN_ORDER = "token-order-violated"
HAND_EMPTY = "hand-empty"


@dataclass(frozen=True)
class State:
    """The game between tricks; ``outcome`` is None while it goes on."""

    instance: Instance
    hands: tuple[frozenset[Card], ...]
    completed: tuple[int | None, ...]
    lead: int | None
    tricks_played: int = 0
    outcome: str | None = None


def initial_state(instance: Instance) -> State:
    """An objective-free deal is already won, one with an empty hand lost."""
    if not instance.objectives:
        outcome = WON
    elif not all(instance.hands):
        outcome = HAND_EMPTY
    else:
        outcome = None
    completed = (None,) * len(instance.objectives)
    return State(instance, instance.hands, completed, instance.first_lead, 0, outcome)


def legal_plays(state: State, player: int, led: Card | None) -> frozenset[Card]:
    """A follower must play the led suit when they hold it; trump is not
    special here."""
    hand = state.hands[player - 1]
    if led is None:
        return hand
    return frozenset(card for card in hand if card.suit == led.suit) or hand


def apply_trick(state: State, trick: Trick) -> State:
    inst = state.instance
    if state.outcome is not None:
        raise PlayError(f"game is over ({state.outcome})")
    if len(trick.plays) != inst.players:
        raise PlayError(f"trick has {len(trick.plays)} plays for {inst.players} players")
    if state.lead is not None and trick.lead != state.lead:
        raise PlayError(f"trick led by {trick.lead}, expected {state.lead}")
    led = None
    for play in trick.plays:
        if play.card not in state.hands[play.player - 1]:
            raise PlayError(f"player {play.player} does not hold {play.card}")
        if play.card not in legal_plays(state, play.player, led):
            raise PlayError(f"player {play.player} must follow suit {led.suit}")
        led = led or play.card

    winner = trick_winner(trick, inst.trump_suit)
    cards = {play.card for play in trick.plays}
    hands = tuple(hand - cards for hand in state.hands)
    completed = list(state.completed)
    outcome = None
    for idx, obj in enumerate(inst.objectives):
        if obj.card in cards:
            if winner == obj.owner:
                completed[idx] = state.tricks_played
            else:
                outcome = MISROUTED
    record = tuple(completed)
    if outcome is None:
        if tokens_violated(record, inst.tokens):
            outcome = TOKEN_ORDER
        elif None not in record and check_tokens(record, inst.tokens):
            outcome = WON
        elif not all(hands):
            outcome = HAND_EMPTY
    return State(inst, hands, record, winner, state.tricks_played + 1, outcome)
