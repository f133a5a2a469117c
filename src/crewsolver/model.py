"""Domain model for perfect-information cooperative trick-taking deals.

A deal gives each of ``p`` players a hand of cards ``(value, suit)``.  The
current leader opens a trick, everyone else must follow the led suit when
able, and the highest card of the led suit wins the trick (unless a trump
suit is in play, in which case the highest trump wins).  The winner leads the
next trick.  The crew wins the moment every objective card has been captured
in a trick won by that objective's owner, subject to ordering tokens; it
loses as soon as an objective card is captured by the wrong player, a token
ordering becomes impossible, or a hand runs out of cards while objectives
remain open.

Players and suits are 1-based throughout; objective indices (used by tokens)
are 0-based positions into ``Instance.objectives``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import Any, Iterator, NamedTuple, Sequence

CompletionRecord = tuple["int | None", ...]


class InstanceError(ValueError):
    """Raised when an instance violates a structural invariant."""


class PlayError(ValueError):
    """Raised when a trick cannot legally be applied to a state."""


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class Card(NamedTuple):
    value: int
    suit: int


class Objective(NamedTuple):
    card: Card
    owner: int


class Play(NamedTuple):
    player: int
    card: Card


@dataclass(frozen=True, slots=True)
class TokenConstraint:
    """Ordering constraint attached to one objective.

    Every objective index in ``before`` must complete no later than the
    constrained objective, and every index in ``after`` no earlier.
    Objectives completing in the same trick satisfy either side as long as
    the same-trick constraints admit a consistent linear order.
    """

    objective: int
    before: frozenset[int] = frozenset()
    after: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class Trick:
    """One trick: ``plays`` in rotation order starting at ``lead``."""

    lead: int
    plays: tuple[Play, ...]

    def __post_init__(self) -> None:
        p = len(self.plays)
        if p == 0:
            raise PlayError("trick has no plays")
        for seat, play in enumerate(self.plays):
            expected = ((self.lead - 1 + seat) % p) + 1
            if play.player != expected:
                raise PlayError(
                    f"plays out of rotation order: seat {seat} is player "
                    f"{play.player}, expected {expected}"
                )

    @property
    def cards(self) -> tuple[Card, ...]:
        return tuple(play.card for play in self.plays)


class Status(Enum):
    IN_PROGRESS = "in-progress"
    WON = "won"
    LOST = "lost"


class LossReason(Enum):
    OBJECTIVE_MISROUTED = "objective-misrouted"
    TOKEN_ORDER_VIOLATED = "token-order-violated"
    HAND_EMPTY = "hand-empty"


class InstanceClass(Enum):
    SINGLE_VALUE = "single-value"
    SINGLE_SUIT_OWNED = "ss-owned"
    SINGLE_SUIT = "single-suit"
    GENERAL = "general"


@dataclass(frozen=True, slots=True)
class Instance:
    """An immutable deal: hands, objectives, optional tokens/trump/lead.

    ``k`` and ``s`` bound the value and suit ranges.  ``first_lead`` pins the
    opening leader; ``None`` leaves the choice to the solver.
    """

    players: int
    k: int
    s: int
    hands: tuple[frozenset[Card], ...]
    objectives: tuple[Objective, ...] = ()
    tokens: tuple[TokenConstraint, ...] = ()
    trump_suit: int | None = None
    first_lead: int | None = None

    def __post_init__(self) -> None:
        if self.players < 1:
            raise InstanceError("players must be >= 1")
        if self.k < 1 or self.s < 1:
            raise InstanceError("value bound k and suit bound s must be >= 1")
        if len(self.hands) != self.players:
            raise InstanceError(
                f"expected {self.players} hands, got {len(self.hands)}"
            )
        cards = list(chain.from_iterable(self.hands))
        seen = set().union(*self.hands)
        values = list(map(itemgetter(0), cards))
        suits = list(map(itemgetter(1), cards))
        if cards and (
            len(seen) != len(cards)
            or not set(map(type, values)) | set(map(type, suits)) <= {int}
            or min(values) < 1
            or max(values) > self.k
            or min(suits) < 1
            or max(suits) > self.s
        ):
            # Something is wrong (or merely unusual); walk the cards in
            # order to name the first offender.
            seen = set()
            for card in cards:
                if not (_is_int(card.value) and _is_int(card.suit)):
                    raise InstanceError(f"card fields must be integers: {card}")
                if not (1 <= card.value <= self.k):
                    raise InstanceError(f"card value out of range 1..{self.k}: {card}")
                if not (1 <= card.suit <= self.s):
                    raise InstanceError(f"card suit out of range 1..{self.s}: {card}")
                if card in seen:
                    raise InstanceError(f"duplicate card {card}")
                seen.add(card)
        targets: set[Card] = set()
        for obj in self.objectives:
            if not (_is_int(obj.card.value) and _is_int(obj.card.suit)):
                raise InstanceError(f"card fields must be integers: {obj.card}")
            if not _is_int(obj.owner):
                raise InstanceError(f"objective owner must be an integer: {obj.owner!r}")
            if not (1 <= obj.owner <= self.players):
                raise InstanceError(f"objective owner out of range: {obj.owner}")
            if obj.card in targets:
                raise InstanceError(f"duplicate objective card {obj.card}")
            targets.add(obj.card)
            if obj.card not in seen:
                raise InstanceError(f"objective card {obj.card} not in any hand")
        if self.trump_suit is not None:
            if not (1 <= self.trump_suit <= self.s):
                raise InstanceError(f"trump suit out of range: {self.trump_suit}")
            for obj in self.objectives:
                if obj.card.suit == self.trump_suit:
                    raise InstanceError(
                        f"objective card {obj.card} lies in the trump suit"
                    )
        if self.first_lead is not None and not (1 <= self.first_lead <= self.players):
            raise InstanceError(f"first lead out of range: {self.first_lead}")
        n_obj = len(self.objectives)
        for tok in self.tokens:
            refs = {tok.objective, *tok.before, *tok.after}
            for idx in refs:
                if not (0 <= idx < n_obj):
                    raise InstanceError(f"token references objective {idx} of {n_obj}")
            if tok.objective in tok.before or tok.objective in tok.after:
                raise InstanceError("token references its own objective")
            if tok.before & tok.after:
                raise InstanceError("token before/after sets overlap")

    @property
    def n(self) -> int:
        return sum(len(hand) for hand in self.hands)

    def hand(self, player: int) -> frozenset[Card]:
        if not (1 <= player <= self.players):
            raise InstanceError(f"unknown player {player}")
        return self.hands[player - 1]

    def holder_map(self) -> dict[Card, int]:
        """Map every card to the player originally holding it."""
        out: dict[Card, int] = {}
        for i, hand in enumerate(self.hands, start=1):
            for card in hand:
                out[card] = i
        return out


@dataclass(frozen=True, slots=True)
class GameState:
    """Immutable snapshot between tricks."""

    instance: Instance
    hands: tuple[frozenset[Card], ...]
    completed: CompletionRecord
    lead: int | None
    tricks_played: int
    status: Status
    loss_reason: LossReason | None = None


def initial_state(instance: Instance) -> GameState:
    """State before the first trick; an objective-free deal is already won."""
    completed: CompletionRecord = tuple(None for _ in instance.objectives)
    if not instance.objectives:
        status = Status.WON
        reason = None
    elif any(not hand for hand in instance.hands):
        status = Status.LOST
        reason = LossReason.HAND_EMPTY
    else:
        status = Status.IN_PROGRESS
        reason = None
    return GameState(
        instance=instance,
        hands=instance.hands,
        completed=completed,
        lead=instance.first_lead,
        tricks_played=0,
        status=status,
        loss_reason=reason,
    )


def rotation(lead: int, players: int) -> Iterator[int]:
    """Yield player indices in play order for a trick led by ``lead``."""
    for seat in range(players):
        yield ((lead - 1 + seat) % players) + 1


def legal_plays(state: GameState, player: int, led: Card | None) -> frozenset[Card]:
    """Cards ``player`` may play given the led card (``None`` when leading).

    Followers must play the led suit when they hold it and may otherwise play
    anything — trump included; trump gets no special legality treatment.
    """
    if not (1 <= player <= state.instance.players):
        raise PlayError(f"unknown player {player}")
    hand = state.hands[player - 1]
    if not hand:
        raise PlayError(f"player {player} has no cards")
    if led is None:
        return frozenset(hand)
    same_suit = frozenset(card for card in hand if card.suit == led.suit)
    return same_suit or frozenset(hand)


def trick_winner(trick: Trick, trump_suit: int | None) -> int:
    """Winning player: highest trump if any trump was played, else highest
    card of the led suit."""
    if trump_suit is not None:
        trumps = [play for play in trick.plays if play.card.suit == trump_suit]
        if trumps:
            return max(trumps, key=lambda play: play.card.value).player
    led_suit = trick.plays[0].card.suit
    followers = [play for play in trick.plays if play.card.suit == led_suit]
    return max(followers, key=lambda play: play.card.value).player


def apply_trick(state: GameState, trick: Trick) -> GameState:
    """Play one full trick; returns the successor state.

    Raises :class:`PlayError` on structural illegality (wrong leader, card
    not held, suit not followed).  Game-semantic outcomes — a misrouted
    objective, a token ordering made impossible, all objectives done, a hand
    emptied with objectives open — land in ``status``/``loss_reason``.
    """
    inst = state.instance
    if state.status is not Status.IN_PROGRESS:
        raise PlayError(f"game is over ({state.status.value})")
    if len(trick.plays) != inst.players:
        raise PlayError(
            f"trick has {len(trick.plays)} plays for {inst.players} players"
        )
    if state.lead is not None and trick.lead != state.lead:
        raise PlayError(f"trick led by {trick.lead}, expected {state.lead}")

    led = trick.plays[0].card
    for seat, play in enumerate(trick.plays):
        hand = state.hands[play.player - 1]
        if play.card not in hand:
            raise PlayError(f"player {play.player} does not hold {play.card}")
        if seat > 0 and play.card.suit != led.suit:
            if any(card.suit == led.suit for card in hand):
                raise PlayError(
                    f"player {play.player} must follow suit {led.suit}"
                )

    winner = trick_winner(trick, inst.trump_suit)
    trick_cards = set(trick.cards)
    hands = tuple(hand - trick_cards for hand in state.hands)

    completed = list(state.completed)
    misrouted = False
    for idx, obj in enumerate(inst.objectives):
        if obj.card in trick_cards:
            if winner == obj.owner:
                completed[idx] = state.tricks_played
            else:
                misrouted = True
    record = tuple(completed)

    status = Status.IN_PROGRESS
    reason: LossReason | None = None
    if misrouted:
        status, reason = Status.LOST, LossReason.OBJECTIVE_MISROUTED
    elif tokens_violated(record, inst.tokens):
        status, reason = Status.LOST, LossReason.TOKEN_ORDER_VIOLATED
    elif all(t is not None for t in record) and check_tokens(record, inst.tokens):
        status = Status.WON
    elif any(not hand for hand in hands):
        status, reason = Status.LOST, LossReason.HAND_EMPTY

    return GameState(
        instance=inst,
        hands=hands,
        completed=record,
        lead=winner,
        tricks_played=state.tricks_played + 1,
        status=status,
        loss_reason=reason,
    )


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


def classify(instance: Instance) -> InstanceClass:
    """Most specific structural class; tokens or trump force GENERAL.

    SINGLE_VALUE: every card has value 1.  SINGLE_SUIT_OWNED: one suit and
    every objective card starts in its owner's hand.  SINGLE_SUIT: one suit.
    """
    if instance.tokens or instance.trump_suit is not None:
        return InstanceClass.GENERAL
    cards = [card for hand in instance.hands for card in hand]
    if all(card.value == 1 for card in cards):
        return InstanceClass.SINGLE_VALUE
    if len({card.suit for card in cards}) == 1:
        for obj in instance.objectives:
            if obj.card not in instance.hands[obj.owner - 1]:
                return InstanceClass.SINGLE_SUIT
        return InstanceClass.SINGLE_SUIT_OWNED
    return InstanceClass.GENERAL
