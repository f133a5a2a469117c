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

This module holds the deal's types, their validation, the trick-winner
rule and the structural classifier.  The rules of play (follow suit,
routing, token order) are checked by ``verify.py``, trick by trick.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import Any, Iterator, NamedTuple


class InstanceError(ValueError):
    """Raised when an instance violates a structural invariant."""


class PlayError(ValueError):
    """Raised when a trick or play sequence is malformed: no plays, plays out
    of rotation order, or a first trick led by someone else."""


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


class TokenConstraint(NamedTuple):
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
        for seat, (play, expected) in enumerate(zip(self.plays, rotation(self.lead, p))):
            if play.player != expected:
                raise PlayError(
                    f"plays out of rotation order: seat {seat} is player "
                    f"{play.player}, expected {expected}"
                )


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
        for name in ("players", "k", "s", "trump_suit", "first_lead"):
            value = getattr(self, name)
            optional = name in ("trump_suit", "first_lead")
            if not (_is_int(value) or (optional and value is None)):
                raise InstanceError(f"{name} must be an integer: {value!r}")
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
            for idx in (tok.objective, *tok.before, *tok.after):
                if not _is_int(idx):
                    raise InstanceError(f"token objective index must be an integer: {idx!r}")
                if not (0 <= idx < n_obj):
                    raise InstanceError(f"token references objective {idx} of {n_obj}")
            if tok.objective in tok.before or tok.objective in tok.after:
                raise InstanceError("token references its own objective")
            if tok.before & tok.after:
                raise InstanceError("token before/after sets overlap")

    @property
    def n(self) -> int:
        return sum(len(hand) for hand in self.hands)

    def holder_map(self) -> dict[Card, int]:
        """Map every card to the player originally holding it."""
        out: dict[Card, int] = {}
        for i, hand in enumerate(self.hands, start=1):
            for card in hand:
                out[card] = i
        return out


def rotation(lead: int, players: int) -> Iterator[int]:
    """Yield player indices in play order for a trick led by ``lead``."""
    for seat in range(players):
        yield ((lead - 1 + seat) % players) + 1


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
