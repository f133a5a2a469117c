"""Decision procedures.

Four solvers share one report shape:

* ``solve_single_value`` — every card has value 1, so a trick's leader always
  wins it and the lead never moves; the decision reduces to counting.
* ``solve_single_suit_owned`` — one suit, every objective card starts in its
  owner's hand; objectives are played highest-first while everyone else
  slots in their best card strictly below, which needs exactly one trick per
  objective.  These are the single-suit deals with nothing to feed, so this
  runs the single-suit scheduler under the ``"ss-owned"`` label: with no
  externally held objective card it plans no extra tricks, each owner wins
  one trick per objective with that card as the threshold, and playing the
  thresholds from the highest down, every other seat discarding its largest
  card below, is exactly the highest-first procedure.
* ``solve_single_suit`` — one suit, objective cards may start anywhere; the
  owner wins each target trick (playing the target itself when held,
  otherwise their highest card over the holder's feed), other holders feed,
  and the remaining players discard high-but-losing cards outside their
  reserve.
* ``solve_exhaustive`` — complete memoized search; the only solver that
  accepts tokens and a trump suit, and the oracle the others are tested
  against.

``solve`` dispatches on :func:`crewsolver.model.classify`, run once per
call: it hands the deal to the solvers' unchecked bodies, while the public
``solve_single_*`` functions classify to check their preconditions.  A
``force`` argument overrides the dispatch but still enforces them.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from time import perf_counter

from .exhaustive import run_search
from .model import (
    Card,
    Instance,
    InstanceClass,
    Play,
    Trick,
    classify,
    rotation,
)
from .verify import PlaySequence


_VALUE = itemgetter(0)


class SolverMismatchError(ValueError):
    """A solver was forced onto an instance outside its class."""


@dataclass(frozen=True, slots=True)
class SolveStats:
    nodes: int = 0
    tricks: int = 0
    elapsed: float = 0.0
    kernel: str = ""


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Outcome of one solver run.

    ``decision`` is ``None`` only when the exhaustive solver hit its node
    budget.  ``witness`` is present exactly when the decision is true and a
    witness was requested.
    """

    decision: bool | None
    witness: PlaySequence | None
    solver_id: str
    stats: SolveStats


class _DrainList:
    """Static sorted values with lazy deletion and leftward path compression.

    Values must be unique (single-suit hands guarantee it).  Supports
    "remove the largest live value strictly below a bound" in
    near-logarithmic amortized time.
    """

    __slots__ = ("vals", "jump")

    def __init__(self, values) -> None:
        self.vals = sorted(values)
        self.jump = list(range(len(self.vals)))

    def _find(self, i: int) -> int:
        jump = self.jump
        root = i
        while root >= 0 and jump[root] != root:
            root = jump[root]
        while i >= 0 and i != root:
            nxt = jump[i]
            jump[i] = root
            i = nxt
        return root

    def _delete(self, i: int) -> None:
        self.jump[i] = i - 1

    def take_below(self, bound: int) -> int | None:
        """Remove and return the largest live value < bound, if any."""
        i = self._find(bisect_left(self.vals, bound) - 1)
        if i < 0:
            return None
        self._delete(i)
        return self.vals[i]


# The classes each solver decides; ``solve`` may not force one outside them.
_ACCEPTS = {
    "single-value": {InstanceClass.SINGLE_VALUE},
    "ss-owned": {InstanceClass.SINGLE_SUIT_OWNED},
    "single-suit": {InstanceClass.SINGLE_SUIT, InstanceClass.SINGLE_SUIT_OWNED},
    "exhaustive": set(InstanceClass),
}


def _require(cls: InstanceClass, solver_id: str) -> None:
    if cls not in _ACCEPTS[solver_id]:
        raise SolverMismatchError(
            f"solver {solver_id!r} cannot handle a {cls.value!r} instance"
        )


def _empty_win(instance: Instance, solver_id: str, t0: float) -> SolveReport:
    seq = PlaySequence(first_lead=instance.first_lead or 1, tricks=())
    stats = SolveStats(tricks=0, elapsed=perf_counter() - t0)
    return SolveReport(True, seq, solver_id, stats)


def _no(solver_id: str, t0: float, tricks: int = 0) -> SolveReport:
    stats = SolveStats(tricks=tricks, elapsed=perf_counter() - t0)
    return SolveReport(False, None, solver_id, stats)


def solve_single_value(instance: Instance, want_witness: bool = True) -> SolveReport:
    """Decide an all-values-1 deal.

    The leader's card is the only card of its suit, so the leader wins every
    trick and the lead never moves.  Winnable iff one player owns every
    objective, that player may lead first, nobody starts empty-handed, and
    no hand holds more objective cards than the shortest hand has tricks to
    give.
    """
    _require(classify(instance), "single-value")
    return _single_value(instance, want_witness)


def _single_value(instance: Instance, want_witness: bool) -> SolveReport:
    t0 = perf_counter()
    objs = instance.objectives
    if not objs:
        return _empty_win(instance, "single-value", t0)

    owners = {o.owner for o in objs}
    if len(owners) > 1:
        return _no("single-value", t0)
    leader = owners.pop()
    if instance.first_lead is not None and instance.first_lead != leader:
        return _no("single-value", t0)
    if any(not hand for hand in instance.hands):
        return _no("single-value", t0)

    targets = {o.card for o in objs}
    held = [len(targets & hand) for hand in instance.hands]
    tricks_needed = max(held)
    if tricks_needed > min(len(hand) for hand in instance.hands):
        return _no("single-value", t0)

    witness = None
    if want_witness:
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
        witness = PlaySequence(first_lead=leader, tricks=tuple(played))
    stats = SolveStats(tricks=tricks_needed, elapsed=perf_counter() - t0)
    return SolveReport(True, witness, "single-value", stats)


def solve_single_suit_owned(instance: Instance, want_witness: bool = True) -> SolveReport:
    """Decide a one-suit deal whose objective cards all start with their owners.

    Objectives are taken highest-first: the owner plays the objective card
    and every other player contributes their best non-objective card
    strictly below it.  Succeeds iff every such contribution exists, and the
    witness uses exactly one trick per objective.  This is the single-suit
    scheduler with nothing to feed, and it runs as that.
    """
    _require(classify(instance), "ss-owned")
    return _single_suit(instance, want_witness, "ss-owned")


def _feeds_fit(thresholds_asc: list[int], holder_vals: dict[int, list[int]]) -> bool:
    """Can every holder place each fed card under a distinct threshold?

    Holders are independent (a trick absorbs one card from each player), so
    this is a per-holder two-pointer matching of ascending card values to
    ascending winning-card thresholds.
    """
    for vals in holder_vals.values():
        at = 0
        for u in vals:
            while at < len(thresholds_asc) and thresholds_asc[at] <= u:
                at += 1
            if at == len(thresholds_asc):
                return False
            at += 1
    return True


def solve_single_suit(instance: Instance, want_witness: bool = True) -> SolveReport:
    """Decide a one-suit deal with arbitrarily placed objective cards.

    With one suit the lead never constrains anyone, so trick order is
    irrelevant and the decision is a scheduling problem.  Every objective
    card must sit in a trick won by its owner: a self-held card must itself
    win (its value is the trick's threshold), while an externally held card
    must be fed under a bigger card played by the owner.  Each owner
    therefore wins one trick per self-held objective plus the fewest extra
    tricks — won with their largest spare cards — that let every holder
    place each fed card under a distinct fitting threshold (a holder can
    feed only one card per trick).  Feeding into the tightest fitting trick
    is optimal: the fed card also serves as that holder's mandatory
    under-threshold play.  All remaining seats discard their largest
    non-objective card under the threshold, visiting tricks from the
    highest threshold down; any seat with no fitting card loses.  Every
    trick completes at least one objective, so a witness never needs more
    tricks than there are objectives.
    """
    _require(classify(instance), "single-suit")
    return _single_suit(instance, want_witness, "single-suit")


def _single_suit(instance: Instance, want_witness: bool, solver_id: str) -> SolveReport:
    t0 = perf_counter()
    objs = instance.objectives
    if not objs:
        return _empty_win(instance, solver_id, t0)

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
        selfs = self_vals.get(owner, [])
        holders = {h: sorted(vals) for h, vals in ext_vals.get(owner, {}).items()}
        spare = junk[owner]

        extra = 0
        if holders:
            lo, hi = 0, len(spare)
            if not _feeds_fit(sorted(selfs + spare[:hi]), holders):
                return _no(solver_id, t0)
            while lo < hi:
                mid = (lo + hi) // 2
                if _feeds_fit(sorted(selfs + spare[:mid]), holders):
                    hi = mid
                else:
                    lo = mid + 1
            extra = lo

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
    # feeding discards their largest fitting card.
    planned.sort(key=lambda trick: trick[0], reverse=True)
    # Popping frees each hand's junk list once its pool holds a sorted copy.
    pools = {q: _DrainList(junk.pop(q)) for q in range(1, instance.players + 1)}
    tricks: list[Trick] = []
    lead = instance.first_lead or planned[0][1]
    for threshold, owner, trick_feeds in planned:
        plays = {owner: Card(threshold, suit)}
        for h, u in trick_feeds.items():
            plays[h] = Card(u, suit)
        for q in range(1, instance.players + 1):
            if q in plays:
                continue
            below = pools[q].take_below(threshold)
            if below is None:
                return _no(solver_id, t0, tricks=len(tricks))
            plays[q] = Card(below, suit)
        tricks.append(
            Trick(
                lead=lead,
                plays=tuple(
                    Play(q, plays[q]) for q in rotation(lead, instance.players)
                ),
            )
        )
        lead = owner

    witness = PlaySequence(tricks[0].lead, tuple(tricks)) if want_witness else None
    stats = SolveStats(tricks=len(tricks), elapsed=perf_counter() - t0)
    return SolveReport(True, witness, solver_id, stats)


def _default_budget() -> int:
    """``CREW_BUDGET`` as a node budget; unset or empty means 0 (unlimited)."""
    raw = os.environ.get("CREW_BUDGET", "")
    if not raw:
        return 0
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"CREW_BUDGET must be a non-negative integer, got {raw!r}")
    return budget


def solve_exhaustive(
    instance: Instance,
    budget: int | None = None,
    want_witness: bool = True,
) -> SolveReport:
    """Decide any instance by complete search.

    ``budget`` caps search nodes (``None`` reads ``CREW_BUDGET``, 0 or unset
    means unlimited, a negative budget raises ``ValueError``); a
    ``decision`` of ``None`` reports an exhausted budget rather than an
    answer.
    """
    t0 = perf_counter()
    if budget is None:
        budget = _default_budget()
    elif budget < 0:
        raise ValueError(f"budget must be a non-negative integer, got {budget}")
    status, witness, nodes, used = run_search(instance, budget=budget)
    decision: bool | None = {1: True, 0: False, -1: None}[status]
    if not decision:
        witness = None
    stats = SolveStats(
        nodes=nodes,
        tricks=len(witness.tricks) if witness else 0,
        elapsed=perf_counter() - t0,
        kernel=used,
    )
    return SolveReport(decision, witness if want_witness else None, "exhaustive", stats)


_SOLVER_FOR_CLASS = {
    InstanceClass.SINGLE_VALUE: "single-value",
    InstanceClass.SINGLE_SUIT_OWNED: "ss-owned",
    InstanceClass.SINGLE_SUIT: "single-suit",
    InstanceClass.GENERAL: "exhaustive",
}

SOLVER_IDS = ("single-value", "ss-owned", "single-suit", "exhaustive")


def solve(
    instance: Instance,
    force: str | None = None,
    budget: int | None = None,
    want_witness: bool = True,
) -> SolveReport:
    """Classify and dispatch; ``force`` picks a solver but may not widen it."""
    return solve_classified(instance, classify(instance), force, budget, want_witness)


def solve_classified(
    instance: Instance,
    cls: InstanceClass,
    force: str | None = None,
    budget: int | None = None,
    want_witness: bool = True,
) -> SolveReport:
    """``solve`` for a caller that already holds ``cls = classify(instance)``,
    so a big deal is classified once."""
    solver_id = force or _SOLVER_FOR_CLASS[cls]
    if solver_id not in _ACCEPTS:
        raise ValueError(f"unknown solver {force!r}; expected one of {SOLVER_IDS}")
    _require(cls, solver_id)
    if solver_id == "single-value":
        return _single_value(instance, want_witness)
    if solver_id in ("ss-owned", "single-suit"):
        return _single_suit(instance, want_witness, solver_id)
    return solve_exhaustive(instance, budget, want_witness)
