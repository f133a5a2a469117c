"""An independent trick-by-trick replay of the game rules.

This is the oracle that the property tests check ``verify_sequence``
against, so it lives with the tests.  It has its own trick-winner rule and
its own whole-record token checks (``check_tokens``, ``tokens_violated``),
and shares only the model types and ``rotation`` (used by its callers) with
the package.  Each step returns a fresh ``State``; a trick that breaks the
rules raises ``PlayError``, and the game's end (won, or the way it was lost)
lands in ``State.outcome``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from crewsolver.model import Card, Instance, PlayError, TokenConstraint, Trick

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


def _trick_winner(trick: Trick, trump_suit: int | None) -> int:
    """Highest trump if any was played, else the highest card of the led
    suit: rank every play by (is trump, follows the lead, value)."""
    led = trick.plays[0].card.suit
    best = max(
        trick.plays,
        key=lambda play: (
            play.card.suit == trump_suit,
            play.card.suit == led,
            play.card.value,
        ),
    )
    return best.player


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

    winner = _trick_winner(trick, inst.trump_suit)
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


def _same_trick_consistent(
    completed: Sequence[int | None], tokens: Sequence[TokenConstraint]
) -> bool:
    """True when objectives sharing a trick admit an order satisfying every
    same-trick token constraint (i.e. the constraint subgraph is acyclic).
    Objectives no token mentions cannot carry an edge, so only the referenced
    ones are grouped."""
    if not tokens:
        return True
    scope: set[int] = set()
    for tok in tokens:
        scope.add(tok.objective)
        scope.update(tok.before)
        scope.update(tok.after)
    by_trick: dict[int, set[int]] = {}
    for idx in scope:
        t = completed[idx]
        if t is not None:
            by_trick.setdefault(t, set()).add(idx)
    for group in by_trick.values():
        if len(group) < 2:
            continue
        edges: dict[int, set[int]] = {idx: set() for idx in group}
        for tok in tokens:
            if tok.objective not in group:
                continue
            for b in tok.before & group:
                edges[b].add(tok.objective)
            for a in tok.after & group:
                edges[tok.objective].add(a)
        # Kahn's algorithm: a leftover node means a cycle.
        indeg = {idx: 0 for idx in group}
        for src in group:
            for dst in edges[src]:
                indeg[dst] += 1
        queue = [idx for idx in group if indeg[idx] == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for dst in edges[node]:
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    queue.append(dst)
        if seen != len(group):
            return False
    return True


def check_tokens(
    completed: Sequence[int | None], tokens: Sequence[TokenConstraint]
) -> bool:
    """Evaluate token constraints against a completion record.

    Every before-objective must carry a completion index no later than the
    token's objective, every completed after-objective one no earlier, and
    same-trick completions must admit a consistent order.  An incomplete
    before-objective fails the check outright — records with incomplete
    referenced objectives are non-final, and finality is the caller's
    concern.
    """
    for tok in tokens:
        own = completed[tok.objective]
        for b in tok.before:
            other = completed[b]
            if other is None:
                return False
            if own is not None and other > own:
                return False
        for a in tok.after:
            other = completed[a]
            if own is not None and other is not None and other < own:
                return False
    return _same_trick_consistent(completed, tokens)


def tokens_violated(
    completed: Sequence[int | None], tokens: Sequence[TokenConstraint]
) -> bool:
    """True when a token ordering has become impossible to satisfy.

    Unlike :func:`check_tokens` this treats incomplete objectives as
    completing in some strictly later trick, so it only fires on
    irrecoverable records: once true it stays true, and on records with
    every objective complete it agrees with ``not check_tokens``.
    """
    for tok in tokens:
        own = completed[tok.objective]
        if own is not None:
            for b in tok.before:
                other = completed[b]
                if other is None or other > own:
                    return True
            for a in tok.after:
                other = completed[a]
                if other is not None and other < own:
                    return True
        else:
            for a in tok.after:
                if completed[a] is not None:
                    return True
    return not _same_trick_consistent(completed, tokens)
