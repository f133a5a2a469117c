"""The search kernel's lead cuts checked position by position.

The kernel drops leads at a trick boundary: where the open objectives need
as many tricks as are left, ``_tight_leads`` keeps only the suits in which
an open objective card can win, and ``_next_leads`` keeps, of those, only
the suits whose winner would have a next lead.  Whole-deal tests see these
cuts only through a deal's answer.  Here the trick-boundary positions that
legal play reaches are walked, and each lead that the two cuts drop is
played out: every legal trick it starts must misroute an objective, break
token order or reach a position that the independent ``brute_force`` of
``perfbench/checks.py`` calls lost.  The trick rules are stated here from
the documents; of the kernel, only its bound and its two cut functions are
called.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from itertools import combinations, product

from crewsolver import _search_py
from crewsolver.generate import gen_general
from crewsolver.model import Instance
from crewsolver.reduction import Graph, reduce_hp, reduce_hp_tokens, reduce_hp_trump
from crewsolver.serialize import dumps_instance
from test_reduce import all_graphs, independent_checks

CHECKS = independent_checks()
WON = "won"


def _general() -> list[Instance]:
    """48 small general deals: 2-4 players, up to 12 cards and 4 objectives,
    tokens and trump included."""
    deals = []
    for seed in range(48):
        r = random.Random(seed)
        p = r.choice((2, 3, 4))
        n = p * r.randint(2, 12 // p)
        deals.append(gen_general(n, p, r.randint(1, min(4, n)), seed))
    return deals


def _reductions() -> list[Instance]:
    """Every form of every graph with at most 2 vertices; the base and trump
    forms of every graph with 3, and the token form of the 3-vertex path
    and triangle; the base form of four graphs with 4 vertices: the path,
    the star, the cycle and the complete graph.  The other forms of the
    larger graphs take seconds each, since the independent search knows no
    cut."""
    path3 = Graph.from_edges(3, [(1, 2), (2, 3)])
    triangle = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    deals = [f(g) for v in (1, 2) for g in all_graphs(v) for f in (reduce_hp, reduce_hp_tokens)]
    deals += [reduce_hp_trump(g) for g in all_graphs(2)]
    deals += [f(g) for g in all_graphs(3) for f in (reduce_hp, reduce_hp_trump)]
    deals += [reduce_hp_tokens(path3), reduce_hp_tokens(triangle)]
    for edges in (
        [(1, 2), (2, 3), (3, 4)],
        [(1, 2), (1, 3), (1, 4)],
        [(1, 2), (2, 3), (3, 4), (1, 4)],
        list(combinations(range(1, 5), 2)),
    ):
        deals.append(reduce_hp(Graph.from_edges(4, edges)))
    return deals


class Game:
    """One deal's rules, read from its document.  A position is the live
    hands (a tuple of frozensets of ``(value, suit)``), the 0-based leader
    and the completed objectives as sorted ``(objective, trick)`` pairs."""

    def __init__(self, doc: dict):
        self.p = doc["players"]
        self.trump = doc.get("trump_suit")
        self.objs = [((o["card"]["v"], o["card"]["s"]), o["owner"] - 1) for o in doc["objectives"]]
        self.index = {card: i for i, (card, _) in enumerate(self.objs)}
        self.tokens = [(t["objective"], set(t["before"]), set(t["after"])) for t in doc.get("tokens", [])]
        self.hands = tuple(frozenset((c["v"], c["s"]) for c in hand) for hand in doc["hands"])

    def tricks(self, hands, lead, first):
        """Every legal trick from ``lead`` led by ``first``, as its cards in
        seat order."""
        options = [(first,)]
        for seat in range(1, self.p):
            hand = hands[(lead + seat) % self.p]
            options.append([c for c in hand if c[1] == first[1]] or hand)
        return product(*options)

    def play(self, hands, lead, done, cards):
        """The position after ``cards``; ``WON`` if that trick wins the deal,
        or None if it misroutes an objective or breaks token order."""
        led = cards[0][1]
        seat = max(range(self.p), key=lambda i: (cards[i][1] == self.trump, cards[i][1] == led, cards[i][0]))
        winner = (lead + seat) % self.p
        now = dict(done)
        t = max((tr for _, tr in done), default=-1) + 1
        for c in cards:
            if c in self.index:
                if self.objs[self.index[c]][1] != winner:
                    return None
                now[self.index[c]] = t
        if len(now) == len(self.objs):
            return WON if CHECKS.token_order_ok(now, self.tokens) else None
        if CHECKS._token_dead(now, self.tokens):
            return None
        rest = tuple(h - {cards[(i - lead) % self.p]} for i, h in enumerate(hands))
        return rest, winner, tuple(sorted(now.items()))

    def lost(self, hands, lead, done) -> bool:
        """``brute_force``'s answer on the position's sub-document: the live
        hands, the open objectives, the tokens among them and the lead.  A
        token between a completed and an open objective can no longer
        break, since the walk stops at a trick that breaks one."""
        open_ = [i for i in range(len(self.objs)) if i not in dict(done)]
        renumber = {o: j for j, o in enumerate(open_)}
        doc = {
            "players": self.p,
            "trump_suit": self.trump,
            "lead": lead + 1,
            "hands": [[{"v": v, "s": s} for v, s in sorted(h)] for h in hands],
            "objectives": [
                {"card": {"v": self.objs[o][0][0], "s": self.objs[o][0][1]}, "owner": self.objs[o][1] + 1}
                for o in open_
            ],
            "tokens": [
                {
                    "objective": renumber[o],
                    "before": sorted(renumber[b] for b in before if b in renumber),
                    "after": sorted(renumber[a] for a in after if a in renumber),
                }
                for o, before, after in self.tokens
                if o in renumber
            ],
        }
        return not CHECKS.brute_force(doc)


class Kernel:
    """The kernel's encoding of one deal, cards in ascending (suit, value)
    order, to ask its cut functions which leads a position keeps."""

    def __init__(self, game: Game):
        holder = {c: q for q, hand in enumerate(game.hands) for c in hand}
        cards = sorted(holder, key=lambda c: (c[1], c[0]))
        self.bit = {c: 1 << i for i, c in enumerate(cards)}
        suits = sorted({s for _, s in cards})
        suit_id = {s: i for i, s in enumerate(suits)}
        self.suit_mask = [self.mask(c for c in cards if c[1] == s) for s in suits]
        self.trump = suit_id.get(game.trump, -1)
        self.obj_seats = {cards.index(card): (owner, holder[card], suit_id[card[1]]) for card, owner in game.objs}
        self.objs = [card for card, _ in game.objs]

    def mask(self, cards) -> int:
        return sum(self.bit[c] for c in cards)

    def leads(self, hands, lead, done) -> tuple[list, list, list]:
        """The leader's live cards here that the kernel's lead cuts keep,
        that ``_tight_leads`` drops and that ``_next_leads`` drops besides.
        A position whose open objectives need more tricks than are left
        keeps none: the kernel's bound calls it lost, and it is not walked.
        """
        finished = dict(done)
        open_cards = self.mask(card for i, card in enumerate(self.objs) if i not in finished)
        spare = min(map(len, hands)) - _search_py._tricks_needed(open_cards, self.obj_seats)
        if spare < 0:
            return [], [], []
        tight = ahead = -1
        if spare == 0:
            tight = _search_py._tight_leads(open_cards, self.obj_seats, self.suit_mask, self.trump)
            if tight != -1:
                ahead = _search_py._next_leads(
                    open_cards,
                    self.mask(c for h in hands for c in h),
                    [self.mask(h) for h in hands],
                    self.obj_seats,
                    self.suit_mask,
                    self.trump,
                    {},
                )
        hand = sorted(hands[lead])
        return (
            [c for c in hand if self.bit[c] & tight & ahead],
            [c for c in hand if not self.bit[c] & tight],
            [c for c in hand if self.bit[c] & tight & ~ahead],
        )


def walk(doc: dict) -> list[int]:
    """Check every dropped lead on each position of ``doc`` that kept leads
    reach; returns how many positions were visited, how many leads
    ``_tight_leads`` dropped and how many more ``_next_leads`` did.  A
    position that only a dropped lead reaches is lost once the check
    holds, so a cut there cannot change an answer, and it is not walked."""
    game = Game(doc)
    kernel = Kernel(game)
    lost = lru_cache(maxsize=None)(game.lost)
    first = doc.get("lead")
    todo = [(game.hands, lead, ()) for lead in ([first - 1] if first else range(game.p))]
    seen = set(todo)
    filtered = looked_ahead = 0
    while todo:
        hands, lead, done = todo.pop()
        keep, by_filter, by_lookahead = kernel.leads(hands, lead, done)
        for card in keep:
            for cards in game.tricks(hands, lead, card):
                after = game.play(hands, lead, done, cards)
                if after not in (None, WON) and after not in seen:
                    seen.add(after)
                    todo.append(after)
        for card in by_filter + by_lookahead:
            for cards in game.tricks(hands, lead, card):
                after = game.play(hands, lead, done, cards)
                assert after is None or (after != WON and lost(*after)), (doc, hands, lead, card)
        filtered += len(by_filter)
        looked_ahead += len(by_lookahead)
    return [len(seen), filtered, looked_ahead]


def test_dropped_leads_lose():
    """Each lead that the tight filter or the one-trick lookahead drops, on
    every position of the small deals that kept leads reach, loses.  Per
    family: positions visited, leads the filter drops and leads the
    lookahead drops besides."""
    for deals, totals in ((_general(), [2184, 36, 5]), (_reductions(), [462, 376, 221])):
        seen = [0, 0, 0]
        for inst in deals:
            seen = [a + b for a, b in zip(seen, walk(json.loads(dumps_instance(inst))))]
        assert seen == totals
