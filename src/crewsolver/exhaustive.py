"""Exhaustive-search plumbing: encoding and decoding around the kernel.

The search itself is ``crewsolver._search_py.search``, which works on dense
integer arrays; this module turns an :class:`Instance` into those arrays and
the kernel's trick rows back into a :class:`PlaySequence`.
"""

from __future__ import annotations

from . import _search_py
from .model import Card, Instance, Play, Trick
from .verify import PlaySequence


def run_search(
    instance: Instance,
    budget: int = 0,
) -> tuple[int, PlaySequence | None, int, str]:
    """Decide ``instance`` by complete search.

    Returns ``(status, witness, nodes, kernel)`` with status 1 (win), 0 (loss)
    or -1 (node budget exhausted); ``kernel`` is ``"py"``, or ``"none"`` when
    there are no objectives and nothing was searched.
    """
    inst = instance
    cards: list[Card] = []
    owners: list[int] = []
    for q, hand in enumerate(inst.hands):
        for card in sorted(hand):
            cards.append(card)
            owners.append(q)

    if not inst.objectives:
        lead = inst.first_lead if inst.first_lead is not None else 1
        return (1, PlaySequence(first_lead=lead, tricks=()), 0, "none")

    suit_ids = {s: i for i, s in enumerate(sorted({c.suit for c in cards}))}
    values = [c.value for c in cards]
    suits = [suit_ids[c.suit] for c in cards]
    card_index = {card: i for i, card in enumerate(cards)}

    obj_card = [card_index[o.card] for o in inst.objectives]
    obj_owner = [o.owner - 1 for o in inst.objectives]
    l = len(obj_card)
    before = [0] * l
    after = [0] * l
    for tok in inst.tokens:
        for b in tok.before:
            before[tok.objective] |= 1 << b
        for a in tok.after:
            after[tok.objective] |= 1 << a

    trump = -1
    if inst.trump_suit is not None and inst.trump_suit in suit_ids:
        trump = suit_ids[inst.trump_suit]
    first_lead = -1 if inst.first_lead is None else inst.first_lead - 1

    status, leads, tricks, nodes = _search_py.search(
        inst.players,
        values,
        suits,
        owners,
        obj_card,
        obj_owner,
        before,
        after,
        trump,
        first_lead,
        budget,
    )

    witness: PlaySequence | None = None
    if status == 1:
        out = []
        for lead, row in zip(leads, tricks):
            plays = tuple(
                Play(((lead + seat) % inst.players) + 1, cards[cidx])
                for seat, cidx in enumerate(row)
            )
            out.append(Trick(lead=lead + 1, plays=plays))
        first = leads[0] + 1 if out else (inst.first_lead or 1)
        witness = PlaySequence(first_lead=first, tricks=tuple(out))
    return (status, witness, nodes, "py")
