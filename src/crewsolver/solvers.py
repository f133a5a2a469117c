"""Decision procedures.

Four solvers share one report shape, each named by its id in ``SOLVER_IDS``:

* ``"single-value"`` — every card has value 1, so a trick's leader always
  wins it and the lead never moves; the decision reduces to counting.
* ``"ss-owned"`` — one suit, every objective card starts in its owner's
  hand; objectives are played highest-first while everyone else slots in
  their best card strictly below, which needs exactly one trick per
  objective.  These are the single-suit deals with nothing to feed, so this
  runs the single-suit scheduler under the ``"ss-owned"`` label: with no
  externally held objective card it plans no extra tricks, each owner wins
  one trick per objective with that card as the threshold, and playing the
  thresholds from the highest down, every other seat discarding its largest
  card below, is exactly the highest-first procedure.
* ``"single-suit"`` — one suit, objective cards may start anywhere; the
  owner wins each target trick (playing the target itself when held,
  otherwise their highest card over the holder's feed), other holders feed,
  and the remaining players discard high-but-losing cards outside their
  reserve.  Both steps count rather than search: an owner's extra tricks
  are the largest Hall shortfall among the holders' fed cards, and since
  the tricks are played with strictly falling thresholds, a card at or
  above one threshold never fits a later trick, so one forward index per
  hand finds every discard.
* ``"exhaustive"`` — complete memoized search; the only solver that
  accepts tokens and a trump suit, and the oracle the others are tested
  against (``force="exhaustive"``).  ``_exhaustive`` encodes the deal as the
  integer arrays of the search kernel, ``crewsolver._search_py``, and
  decodes the line it finds.

``solve`` is the one entry: it runs :func:`crewsolver.model.classify`
once, picks the solver (``force``, or else the first id in ``_ACCEPTS``
whose classes include the deal's, most specific first), rejects a forced
solver outside its classes, checks the exhaustive budget, wins a deal with
no objectives before any solver body sees it, times the body and builds
the report, which names the class.  ``solve_exhaustive`` is
``solve(instance, "exhaustive", ...)``.  Nothing here reads the
environment: the node budget is an argument (0 = unlimited).
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter, neg
from time import perf_counter
from typing import NamedTuple

from . import _search_py
from .model import (
    Card,
    Instance,
    InstanceClass,
    Play,
    Trick,
    classify,
    rotation,
)
from .verify import PlaySequence, _tokens_broken


_VALUE = itemgetter(0)


class SolverMismatchError(ValueError):
    """A solver was forced onto an instance outside its class."""


class SolveStats(NamedTuple):
    nodes: int = 0
    tricks: int = 0
    elapsed: float = 0.0
    kernel: str = ""


class SolveReport(NamedTuple):
    """Outcome of one solver run.

    ``decision`` is ``None`` only when the exhaustive solver hit its node
    budget.  ``witness`` is present exactly when the decision is true and a
    witness was requested.  ``instance_class`` is the deal's class, which
    ``solve`` computes once whichever solver runs.
    """

    decision: bool | None
    witness: PlaySequence | None
    solver_id: str
    stats: SolveStats
    instance_class: InstanceClass


# The classes each solver decides; ``solve`` may not force one outside them.
# Most specific first: unforced, ``solve`` runs the first that takes the class.
_ACCEPTS = {
    "single-value": {InstanceClass.SINGLE_VALUE},
    "ss-owned": {InstanceClass.SINGLE_SUIT_OWNED},
    "single-suit": {InstanceClass.SINGLE_SUIT, InstanceClass.SINGLE_SUIT_OWNED},
    "exhaustive": set(InstanceClass),
}


def _single_value(instance: Instance) -> tuple[bool, PlaySequence | None, int]:
    """Decide an all-values-1 deal.

    The leader's card is the only card of its suit, so the leader wins every
    trick and the lead never moves.  Winnable iff one player owns every
    objective, that player may lead first, nobody starts empty-handed, and
    no hand holds more objective cards than the shortest hand has tricks to
    give.
    """
    objs = instance.objectives
    owners = {o.owner for o in objs}
    if len(owners) > 1:
        return False, None, 0
    leader = owners.pop()
    if instance.first_lead is not None and instance.first_lead != leader:
        return False, None, 0
    if any(not hand for hand in instance.hands):
        return False, None, 0

    targets = {o.card for o in objs}
    held = [len(targets & hand) for hand in instance.hands]
    tricks_needed = max(held)
    if tricks_needed > min(len(hand) for hand in instance.hands):
        return False, None, 0

    queues = []
    for hand in instance.hands:
        mine = sorted(targets & hand, reverse=True)
        rest = sorted(hand - targets, reverse=True)
        queues.append(mine + rest)
    played = []
    for t in range(tricks_needed):
        plays = tuple(
            Play(q, queues[q - 1][t]) for q in rotation(leader, instance.players)
        )
        played.append(Trick(lead=leader, plays=plays))
    return True, PlaySequence(first_lead=leader, tricks=tuple(played)), tricks_needed


def _single_suit(instance: Instance) -> tuple[bool, PlaySequence | None, int]:
    """Decide a one-suit deal with arbitrarily placed objective cards.

    With one suit the lead never constrains anyone, so trick order is
    irrelevant and the decision is a scheduling problem.  Every objective
    card must sit in a trick won by its owner: a self-held card must itself
    win (its value is the trick's threshold), while an externally held card
    must be fed under a bigger card played by the owner.  Each owner
    therefore wins one trick per self-held objective plus the fewest extra
    tricks — won with their largest spare cards — that let every holder
    place each fed card under a distinct fitting threshold (a holder can
    feed only one card per trick).  That number is counted, by Hall's
    condition: if a holder feeds ``m`` cards of value ``u`` or more and
    the owner holds ``s`` self-held thresholds above ``u``, then ``m - s``
    spares above ``u`` are short.  The deal is lost if some shortfall
    exceeds the owner's spares above ``u``; otherwise the extra tricks are
    the largest shortfall (or none).  Feeding into the tightest fitting
    trick is optimal: the fed card also serves as that holder's mandatory
    under-threshold play.  All remaining seats discard their largest
    non-objective card under the threshold, visiting tricks from the
    highest threshold down; any seat with no fitting card loses.  The
    thresholds strictly fall, so a card skipped as too high never fits
    later and one forward index over each hand's descending cards finds
    every discard.  Every trick completes at least one objective, so a
    witness never needs more tricks than there are objectives.
    """
    objs = instance.objectives
    suit = objs[0].card.suit
    targets = {o.card for o in objs}
    # Only objective cards need a holder; ``targets & hand`` walks the
    # smaller set, so this costs O(objectives) per hand, not O(cards).
    holder = {c: q for q, hand in enumerate(instance.hands, 1) for c in targets & hand}
    self_vals: dict[int, list[int]] = {}
    ext_vals: dict[int, dict[int, list[int]]] = {}
    for o in objs:
        h = holder[o.card]
        if h == o.owner:
            self_vals.setdefault(o.owner, []).append(o.card.value)
        else:
            ext_vals.setdefault(o.owner, {}).setdefault(h, []).append(o.card.value)
    # One suit, so a hand's non-objective cards are its cards minus targets.
    junk = {
        q: sorted(map(_VALUE, instance.hands[q - 1] - targets), reverse=True)
        for q in range(1, instance.players + 1)
    }

    # Plan each owner's tricks: (threshold, owner, feeds {holder: value}).
    planned: list[tuple[int, int, dict[int, int]]] = []
    for owner in sorted(set(self_vals) | set(ext_vals)):
        selfs = sorted(self_vals.get(owner, []))
        holders = {h: sorted(vals) for h, vals in ext_vals.get(owner, {}).items()}
        spare = junk[owner]

        # Hall's condition per holder: the fed cards from ``u`` up need as
        # many thresholds above ``u``; ``short`` of them must be spares, and
        # spares join largest-first, so the largest shortfall is ``extra``.
        # ``spare`` is descending: bisecting on ``neg`` counts those above u.
        extra = 0
        for vals in holders.values():
            for j, u in enumerate(vals):
                short = len(vals) - j - (len(selfs) - bisect_left(selfs, u))
                if short > bisect_left(spare, -u, key=neg):
                    return False, None, 0
                extra = max(extra, short)

        thresholds_asc = sorted(selfs + spare[:extra])
        feeds: dict[int, dict[int, int]] = {th: {} for th in thresholds_asc}
        for h in sorted(holders):
            at = 0
            for u in holders[h]:
                while thresholds_asc[at] <= u:
                    at += 1
                feeds[thresholds_asc[at]][h] = u
                at += 1
        planned.extend((th, owner, feeds[th]) for th in thresholds_asc)
        junk[owner] = spare[extra:]

    # Play the plan from the highest threshold down; everyone not winning or
    # feeding discards their largest fitting card.  Thresholds strictly
    # fall, so a card skipped as too high never fits again: one forward
    # index per hand walks its descending junk list.
    planned.sort(key=lambda trick: trick[0], reverse=True)
    at = dict.fromkeys(junk, 0)
    tricks: list[Trick] = []
    lead = instance.first_lead or planned[0][1]
    for threshold, owner, trick_feeds in planned:
        plays = {owner: Card(threshold, suit)}
        for h, u in trick_feeds.items():
            plays[h] = Card(u, suit)
        for q in range(1, instance.players + 1):
            if q in plays:
                continue
            left, i = junk[q], at[q]
            while i < len(left) and left[i] >= threshold:
                i += 1
            if i == len(left):
                return False, None, len(tricks)
            plays[q] = Card(left[i], suit)
            at[q] = i + 1
        seats = rotation(lead, instance.players)
        tricks.append(Trick(lead, tuple(Play(q, plays[q]) for q in seats)))
        lead = owner

    return True, PlaySequence(tricks[0].lead, tuple(tricks)), len(tricks)


def _exhaustive(
    instance: Instance, budget: int
) -> tuple[bool | None, PlaySequence | None, int]:
    """Encode ``instance`` for the search kernel, run it under ``budget``
    and decode its line; returns ``(decision, witness, nodes)``, with a
    ``None`` decision when the budget ran out.  The kernel's card ``i`` is
    ``cards[i]``, in the (suit, value) order that it requires."""
    holder = instance.holder_map()
    cards = sorted(holder, key=lambda c: (c.suit, c.value))
    owners = [holder[c] - 1 for c in cards]

    suit_ids = {s: i for i, s in enumerate(sorted({c.suit for c in cards}))}
    values = [c.value for c in cards]
    suits = [suit_ids[c.suit] for c in cards]
    card_index = {card: i for i, card in enumerate(cards)}

    obj_card = [card_index[o.card] for o in instance.objectives]
    obj_owner = [o.owner - 1 for o in instance.objectives]

    def objs(mask: int) -> set[int]:
        return {o for o in range(len(obj_card)) if mask >> o & 1}

    def tokens_broken(done: int, new: int) -> bool:
        return _tokens_broken(instance.tokens, objs(done), objs(new))

    trump = suit_ids.get(instance.trump_suit, -1)
    first_lead = -1 if instance.first_lead is None else instance.first_lead - 1

    status, leads, tricks, nodes = _search_py.search(
        instance.players,
        values,
        suits,
        owners,
        obj_card,
        obj_owner,
        tokens_broken if instance.tokens else None,
        trump,
        first_lead,
        budget,
    )
    if status != 1:
        return (None if status < 0 else False), None, nodes

    line = []
    for lead, row in zip(leads, tricks):
        seats = rotation(lead + 1, instance.players)
        line.append(Trick(lead + 1, tuple(Play(q, cards[c]) for q, c in zip(seats, row))))
    return True, PlaySequence(line[0].lead, tuple(line)), nodes


SOLVER_IDS = tuple(_ACCEPTS)


def solve(
    instance: Instance,
    force: str | None = None,
    budget: int = 0,
    want_witness: bool = True,
) -> SolveReport:
    """Classify ``instance`` once, run the solver ``force`` names, or else
    the first in ``_ACCEPTS`` that takes its class, and report the result.

    ``force`` picks a solver but may not widen it past its classes.  A deal
    with no objectives is won here with no tricks, so the solver bodies,
    which return ``(decision, witness, tricks or nodes)``, never see one.
    Only the exhaustive search reads ``budget``, and checks it even on such
    a deal.  ``stats.elapsed`` times the solver body alone.
    """
    cls = classify(instance)
    solver_id = next(s for s, cs in _ACCEPTS.items() if cls in cs) if force is None else force
    if solver_id not in _ACCEPTS:
        raise ValueError(f"unknown solver {force!r}; expected one of {SOLVER_IDS}")
    if cls not in _ACCEPTS[solver_id]:
        raise SolverMismatchError(
            f"solver {solver_id!r} cannot handle a {cls.value!r} instance"
        )
    t0 = perf_counter()
    nodes, kernel = 0, ""
    if solver_id == "exhaustive":
        if budget < 0:
            raise ValueError(f"budget must be a non-negative integer, got {budget}")
        kernel = "none"
    if not instance.objectives:
        decision, witness, tricks = True, PlaySequence(instance.first_lead or 1, ()), 0
    elif solver_id == "exhaustive":
        decision, witness, nodes = _exhaustive(instance, budget)
        tricks = len(witness.tricks) if witness else 0
        kernel = "py"
    else:
        body = _single_value if solver_id == "single-value" else _single_suit
        decision, witness, tricks = body(instance)
    stats = SolveStats(nodes, tricks, perf_counter() - t0, kernel)
    return SolveReport(decision, witness if want_witness else None, solver_id, stats, cls)


def solve_exhaustive(
    instance: Instance,
    budget: int = 0,
    want_witness: bool = True,
) -> SolveReport:
    """``solve(instance, "exhaustive", budget, want_witness)``: complete
    search on any deal.

    ``budget`` caps search nodes (0 means unlimited, a negative budget
    raises ``ValueError``); a ``decision`` of ``None`` reports an exhausted
    budget rather than an answer.
    """
    return solve(instance, "exhaustive", budget, want_witness)
