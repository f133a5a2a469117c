"""Exhaustive-search plumbing: encoding and decoding around the kernel.

The search itself is ``crewsolver._search_py.search``, which works on dense
integer arrays; this module turns an :class:`Instance` into those arrays and
the kernel's trick rows back into a :class:`PlaySequence`.  The kernel's
token test is the verifier's, ``verify._tokens_broken``, on bit masks.
"""

from __future__ import annotations

from . import _search_py
from .model import Card, Instance, Play, Trick
from .verify import PlaySequence, _tokens_broken


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

    def objs(mask: int) -> set[int]:
        return {o for o in range(len(obj_card)) if mask >> o & 1}

    def tokens_broken(done: int, new: int) -> bool:
        return _tokens_broken(inst.tokens, objs(done), objs(new))

    trump = suit_ids.get(inst.trump_suit, -1)
    first_lead = -1 if inst.first_lead is None else inst.first_lead - 1

    status, leads, tricks, nodes = _search_py.search(
        inst.players,
        values,
        suits,
        owners,
        obj_card,
        obj_owner,
        tokens_broken if inst.tokens else None,
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
        witness = PlaySequence(first_lead=out[0].lead, tricks=tuple(out))
    return (status, witness, nodes, "py")
