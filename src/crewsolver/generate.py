"""Seeded instance and graph generators.

Each generator is deterministic in its arguments: the same seed and
parameters always build the same object, so serialized output is
byte-identical across runs.  Generators guarantee the *structural* shape of
the requested class (suit counts, objective placement, token presence) but
not the decision — roughly balanced yes/no populations are the point.
"""

from __future__ import annotations

import hashlib
import random

from .model import Card, Instance, Objective, TokenConstraint
from .reduction import Graph


def _rng(*parts) -> random.Random:
    """Process-independent RNG: string hashing would not be stable."""
    tag = ":".join(str(p) for p in parts).encode()
    return random.Random(int.from_bytes(hashlib.sha256(tag).digest()[:8], "big"))


def _deal(cards: list[Card], players: int, rng: random.Random) -> list[list[Card]]:
    """Shuffle and deal into near-equal hands (first hands get the remainder)."""
    cards = cards[:]
    rng.shuffle(cards)
    base, extra = divmod(len(cards), players)
    hands = []
    at = 0
    for i in range(players):
        size = base + (1 if i < extra else 0)
        hands.append(cards[at : at + size])
        at += size
    return hands


def _check_counts(n: int, players: int, objectives: int) -> None:
    if n < 1:
        raise ValueError("need at least one card")
    if players < 1:
        raise ValueError("need at least one player")
    if objectives < 0:
        raise ValueError("objective count must be >= 0")
    if objectives > n:
        raise ValueError(f"cannot place {objectives} objectives on {n} cards")


def _instance(rng: random.Random, k: int, s: int, hands, objectives, **extra) -> Instance:
    """The deal of ``hands``.  Its opening leader, if any, is the last draw
    from ``rng``, so every earlier draw keeps its place in the stream."""
    return Instance(
        players=len(hands),
        k=k,
        s=s,
        hands=tuple(frozenset(h) for h in hands),
        objectives=tuple(objectives),
        first_lead=rng.randint(1, len(hands)) if rng.random() < 0.3 else None,
        **extra,
    )


def gen_single_value(n: int, players: int, objectives: int, seed: int) -> Instance:
    """All cards value 1 (one per suit), so tricks never change hands."""
    _check_counts(n, players, objectives)
    rng = _rng("single-value", seed, n, players, objectives)
    cards = [Card(1, s) for s in range(1, n + 1)]
    hands = _deal(cards, players, rng)
    targets = rng.sample(sorted(cards), objectives)
    if rng.random() < 0.7:
        owner = rng.randint(1, players)
        objs = tuple(Objective(c, owner) for c in targets)
    else:
        objs = tuple(Objective(c, rng.randint(1, players)) for c in targets)
    return _instance(rng, 1, n, hands, objs)


def _single_suit_deal(
    n: int, players: int, rng: random.Random
) -> tuple[list[list[Card]], dict[Card, int]]:
    cards = [Card(v, 1) for v in range(1, n + 1)]
    hands = _deal(cards, players, rng)
    holder = {card: i for i, hand in enumerate(hands, start=1) for card in hand}
    return hands, holder


def gen_ss_owned(n: int, players: int, objectives: int, seed: int) -> Instance:
    """One suit; every objective card starts in its owner's hand."""
    _check_counts(n, players, objectives)
    rng = _rng("ss-owned", seed, n, players, objectives)
    hands, holder = _single_suit_deal(n, players, rng)
    targets = rng.sample(sorted(holder), objectives)
    return _instance(rng, n, 1, hands, [Objective(c, holder[c]) for c in targets])


def gen_single_suit(n: int, players: int, objectives: int, seed: int) -> Instance:
    """One suit with at least one objective card held outside its owner's hand."""
    _check_counts(n, players, objectives)
    if players < 2:
        raise ValueError("single-suit generation needs >= 2 players")
    if objectives < 1:
        raise ValueError("single-suit generation needs >= 1 objective")
    rng = _rng("single-suit", seed, n, players, objectives)
    hands, holder = _single_suit_deal(n, players, rng)
    targets = rng.sample(sorted(holder), objectives)
    owners = [rng.randint(1, players) for _ in targets]
    if all(owner == holder[c] for c, owner in zip(targets, owners)):
        shift = rng.randrange(len(targets))
        owners[shift] = holder[targets[shift]] % players + 1
    return _instance(rng, n, 1, hands, [Objective(c, o) for c, o in zip(targets, owners)])


def gen_general(n: int, players: int, objectives: int, seed: int) -> Instance:
    """Multi-suit deck with optional trump suit and order tokens."""
    _check_counts(n, players, objectives)
    if n < 2:
        raise ValueError("general generation needs >= 2 cards (two suits)")
    rng = _rng("general", seed, n, players, objectives)
    suits = rng.randint(2, max(2, min(4, n)))
    k = (n + suits - 1) // suits + rng.randint(0, 2)
    grid = [Card(v, s) for s in range(1, suits + 1) for v in range(1, k + 1)]
    while True:
        cards = rng.sample(grid, n)
        if len({c.suit for c in cards}) >= 2:
            break
    hands = _deal(cards, players, rng)

    trump = rng.randint(1, suits) if rng.random() < 0.4 else None
    candidates = sorted(c for c in cards if trump is None or c.suit != trump)
    if len(candidates) < objectives:
        trump = None
        candidates = sorted(cards)
    targets = rng.sample(candidates, objectives)
    objs = [Objective(c, rng.randint(1, players)) for c in targets]

    tokens: list[TokenConstraint] = []
    if objectives >= 2 and rng.random() < 0.5:
        for _ in range(rng.randint(1, min(2, objectives - 1))):
            subject = rng.randrange(objectives)
            others = [i for i in range(objectives) if i != subject]
            before = frozenset(rng.sample(others, rng.randint(1, min(2, len(others)))))
            rest = [i for i in others if i not in before]
            after = frozenset(
                rng.sample(rest, rng.randint(0, min(1, len(rest))))
            )
            tokens.append(TokenConstraint(subject, before, after))

    return _instance(rng, k, suits, hands, objs, tokens=tuple(tokens), trump_suit=trump)


def gen_graph(vertices: int, edge_prob: float, seed: int) -> Graph:
    """Erdős–Rényi-style simple graph."""
    if vertices < 1:
        raise ValueError("need at least one vertex")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    rng = _rng("graph", seed, vertices, edge_prob)
    edges = frozenset(
        (u, v)
        for u in range(1, vertices + 1)
        for v in range(u + 1, vertices + 1)
        if rng.random() < edge_prob
    )
    return Graph(vertices, edges)


GENERATORS = {
    "single-value": gen_single_value,
    "ss-owned": gen_ss_owned,
    "single-suit": gen_single_suit,
    "general": gen_general,
}
