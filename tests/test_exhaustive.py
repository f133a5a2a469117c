"""Exhaustive-search tests: frozen small positions, budgets, tokens, trump."""

from __future__ import annotations

import ast
import dataclasses
import gc
import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from crewsolver import _search_py
from crewsolver.generate import gen_general, gen_graph
from crewsolver.model import Card, Instance, Objective, Play, TokenConstraint, Trick
from crewsolver.reduction import reduce_hp, reduce_hp_tokens, reduce_hp_trump
from crewsolver.serialize import dumps_instance
from crewsolver.solvers import solve, solve_exhaustive
from crewsolver.verify import PlaySequence, Reason, verify_sequence
from test_reduce import all_graphs, independent_checks


def test_no_objectives_short_circuit(uneven_deal):
    free = dataclasses.replace(uneven_deal, objectives=(), tokens=())
    report = solve_exhaustive(free, budget=0)
    assert report.decision is True
    assert report.witness.tricks == ()
    assert report.stats.nodes == 0 and report.stats.kernel == "none"


def test_known_deal_canonical_line(uneven_deal):
    report = solve_exhaustive(uneven_deal, budget=0)
    witness = report.witness
    assert report.decision is True and report.stats.kernel == "py"
    assert report.stats.nodes == 8
    first = witness.tricks[0]
    assert [p.card for p in first.plays] == [
        Card(4, 1),
        Card(3, 1),
        Card(5, 2),
        Card(1, 1),
    ]
    assert len(witness.tricks) == 2
    assert verify_sequence(uneven_deal, witness).accepted


def test_deep_line_answered_in_process():
    """A 199-trick line at p = 2 is found within 700 frames above the
    caller's, which a kernel spending more than about 3 frames per trick
    cannot do."""
    deal = gen_general(600, 2, 2, 0)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 700)
    try:
        report = solve(deal, budget=100_000)
    finally:
        sys.setrecursionlimit(old_limit)
    assert report.decision is True
    assert (report.stats.nodes, len(report.witness.tricks)) == (398, 199)
    assert verify_sequence(deal, report.witness).accepted


def test_budget_cut(uneven_deal):
    report = solve_exhaustive(uneven_deal, budget=3)
    assert report.decision is None
    assert report.witness is None
    assert report.stats.nodes == 4  # the first over-budget expansion is counted


def test_budget_zero_is_unlimited(uneven_deal):
    assert solve_exhaustive(uneven_deal, budget=0).decision is True


def test_first_lead_freedom_searches_all_leads():
    base = Instance(
        players=2,
        k=2,
        s=1,
        hands=(frozenset({Card(2, 1)}), frozenset({Card(1, 1)})),
        objectives=(Objective(Card(2, 1), 1),),
        first_lead=2,
    )
    # The leader does not matter here: player 1's 2 wins either way.
    assert solve_exhaustive(base, budget=0).decision is True

    hard = dataclasses.replace(
        base, objectives=(Objective(Card(1, 1), 2),), first_lead=None
    )
    # Player 2's own 1 can never win a trick against the 2, any lead.
    assert solve_exhaustive(hard, budget=0).decision is False


def test_trump_instance_searched(uneven_deal):
    trumped = dataclasses.replace(uneven_deal, trump_suit=3)
    report = solve_exhaustive(trumped, budget=0)
    assert report.decision in (False, True)
    if report.decision:
        assert verify_sequence(trumped, report.witness).accepted


def test_token_instances_searched(uneven_deal):
    # Compatible ordering: the known two-trick win satisfies it.
    tokened = dataclasses.replace(
        uneven_deal, tokens=(TokenConstraint(1, before=frozenset({0})),)
    )
    report = solve_exhaustive(tokened, budget=0)
    assert report.decision is True
    assert verify_sequence(tokened, report.witness).accepted

    # Reversed ordering: every opening lead misroutes, completes the wrong
    # objective first, or strands the constraint - a guaranteed loss.
    blocked = dataclasses.replace(
        uneven_deal, tokens=(TokenConstraint(0, before=frozenset({1})),)
    )
    assert solve_exhaustive(blocked, budget=0).decision is False


def test_same_trick_token_cycle():
    # One trick completes both of player 1's objectives, whoever leads.
    base = Instance(
        players=2,
        k=2,
        s=1,
        hands=(frozenset({Card(2, 1)}), frozenset({Card(1, 1)})),
        objectives=(Objective(Card(2, 1), 1), Objective(Card(1, 1), 1)),
    )
    first = TokenConstraint(0, before=frozenset({1}))
    second = TokenConstraint(1, before=frozenset({0}))
    for tokens in ((first,), (second,)):
        one = dataclasses.replace(base, tokens=tokens)
        assert solve_exhaustive(one, budget=0).decision is True

    # Together the two tokens ask each objective to come strictly first.
    cycle = dataclasses.replace(base, tokens=(first, second))
    assert solve_exhaustive(cycle, budget=0).decision is False
    line = PlaySequence(
        first_lead=1,
        tricks=(Trick(lead=1, plays=(Play(1, Card(2, 1)), Play(2, Card(1, 1)))),),
    )
    assert verify_sequence(base, line).accepted
    verdict = verify_sequence(cycle, line)
    assert (verdict.reason, verdict.trick_index) == (Reason.TOKEN_ORDER_VIOLATED, 0)


def test_kernel_imports_nothing_from_package():
    """The kernel is self-contained: no import from ``crewsolver``, relative
    or absolute, so it can be ported or replaced on its own."""
    tree = ast.parse(Path(_search_py.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert name.split(".")[0] != "crewsolver", ast.unparse(node)


def test_search_frees_its_memo_on_return():
    """``seat`` and ``boundary`` refer to each other, and the kernel breaks
    that cycle before it returns: with the cyclic collector off, a YES, a NO
    and a budget-cut search leave nothing for it to collect."""
    deals = (
        (gen_general(28, 4, 6, 2), True),
        (gen_general(24, 4, 6, 0), False),
        (gen_general(24, 4, 6, 1), None),
    )
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for inst, decision in deals:
            assert solve(inst, budget=10_000, force="exhaustive").decision is decision
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_kernel_rejects_cards_out_of_order():
    """The kernel reads index order as rank order within a suit, so it
    refuses cards that do not come in ascending (suit, value) order.  Here
    player 2 holds its own objective, the 2, as card 0, and player 1 the 1
    as card 1: player 2 wins with the 2 whoever leads, yet read in index
    order the 1 would be the higher card and the objective lost."""
    with pytest.raises(ValueError, match=r"ascending \(suit, value\) order"):
        _search_py.search(2, [2, 1], [0, 0], [1, 0], [0], [1], None, -1, -1, 0)
    status, leads, tricks, _ = _search_py.search(
        2, [1, 2], [0, 0], [0, 1], [1], [1], None, -1, -1, 0
    )
    assert (status, leads, tricks) == (1, [0], [[0, 1]])


def test_tokens_broken_gets_objective_masks(monkeypatch):
    """The kernel calls ``tokens_broken(done, new)`` with disjoint objective
    bit masks (bit ``o`` is objective ``o``, not its card), once per pair.
    The objectives here run against the kernel's card order: the token's
    objective, which must come last, is objective 0 but the highest card."""
    calls = []
    search = _search_py.search

    def recording(*args):
        args = list(args)
        broken = args[6]
        args[6] = lambda done, new: calls.append((done, new)) or broken(done, new)
        return search(*args)

    monkeypatch.setattr(_search_py, "search", recording)
    base = reduce_hp_tokens(gen_graph(3, 0.6, 0))
    deal = dataclasses.replace(
        base,
        objectives=base.objectives[::-1],
        tokens=(TokenConstraint(0, before=frozenset({1, 2, 3})),),
    )
    report = solve_exhaustive(deal, budget=0)
    assert (report.decision, report.stats.nodes) == (True, 44)
    everything = (1 << len(deal.objectives)) - 1
    for done, new in calls:
        assert new and not done & new and (done | new) & ~everything == 0
    assert len(set(calls)) == len(calls)
    assert calls == [(0, 8), (8, 2), (8, 4), (0, 2), (2, 8), (10, 4), (14, 1)]


def _tricks_needed(inst: Instance, own_card_wins: bool = True) -> int:
    """The sum over owners of the most objectives of one owner that must
    fall in pairwise different tricks at the start of a deal, found by
    trying every set.  Two cards of one holder always clash.  With
    ``own_card_wins``, an objective card held by its owner also clashes
    with a higher card of its suit, since the owner's own card must win.
    Without it the sum is ``Σ_w max_h c(w, h)``, where ``c(w, h)`` counts
    the objectives of owner ``w`` whose cards player ``h`` holds."""
    holder = {card: h for h, hand in enumerate(inst.hands, 1) for card in hand}

    def clash(a: Objective, b: Objective) -> bool:
        if holder[a.card] == holder[b.card]:
            return True
        low, high = sorted((a.card, b.card))
        return own_card_wins and low.suit == high.suit and holder[low] == a.owner

    total = 0
    for w in {o.owner for o in inst.objectives}:
        mine = [o for o in inst.objectives if o.owner == w]
        total += max(
            len(group)
            for size in range(1, len(mine) + 1)
            for group in combinations(mine, size)
            if all(clash(a, b) for a, b in combinations(group, 2))
        )
    return total


def test_tricks_needed_bound_fires():
    """Two objectives of player 1 sit in player 2's hand, so player 1 needs
    both tricks, and player 2 needs one for its own objective: three tricks
    are needed and two are left.  Only two players own objectives, so the
    deal is lost before any card is played, not after a search."""
    deal = Instance(
        players=2,
        k=4,
        s=2,
        hands=(
            frozenset({Card(1, 1), Card(4, 2)}),
            frozenset({Card(2, 1), Card(3, 2)}),
        ),
        objectives=(Objective(Card(2, 1), 1), Objective(Card(3, 2), 1), Objective(Card(1, 1), 2)),
    )
    assert _tricks_needed(deal, own_card_wins=False) == 3
    report = solve_exhaustive(deal, budget=0)
    assert (report.decision, report.stats.nodes) == (False, 0)
    assert independent_checks().brute_force(json.loads(dumps_instance(deal))) is False


def test_own_objective_card_must_win():
    """Player 1 holds its own objective (1, 1), so it wins that trick only
    with that card, and player 2's objective cards of player 1, (2, 1) and
    (3, 1), would beat it there: three tricks are needed and two are left,
    although no holder has more than two of player 1's cards."""
    deal = Instance(
        players=2,
        k=4,
        s=2,
        hands=(
            frozenset({Card(1, 1), Card(4, 2)}),
            frozenset({Card(2, 1), Card(3, 1)}),
        ),
        objectives=(Objective(Card(1, 1), 1), Objective(Card(2, 1), 1), Objective(Card(3, 1), 1)),
    )
    assert (_tricks_needed(deal, own_card_wins=False), _tricks_needed(deal)) == (2, 3)
    report = solve_exhaustive(deal, budget=0)
    assert (report.decision, report.stats.nodes) == (False, 0)
    assert independent_checks().brute_force(json.loads(dumps_instance(deal))) is False


def _filter_alone(open_cards, rem, hand_mask, obj_seats, suit_mask, trump, tight):
    """A stand-in for ``_next_leads`` that keeps every lead the tight-bound
    lead filter keeps: the kernel without its one-trick lookahead."""
    return _search_py._tight_leads(open_cards, obj_seats, suit_mask, trump)


def test_tight_lead_filter_cuts_junk_leads(monkeypatch):
    """Each player holds and owns the top card of its own suit, and three
    tricks are left for three objectives, so every trick must complete one:
    a position is tight.  An objective card that its owner holds must win
    its trick, so each trick must be led in the suit of the objective it
    completes.  Player 1 leads first and holds only cards of suits 1 and
    4, which no one else holds, so it wins the first trick and leads the
    next one too: the deal is lost.  The tight-bound lead filter never leads
    suit 4, so it refutes the deal in 7 nodes, where leading every card
    takes 37.  Looking one trick ahead refutes it with no card played: a
    trick led in suit 1 leaves player 1 on lead with only suit 4, and
    player 1 holds no card of suits 2 and 3."""
    deal = Instance(
        players=3,
        k=5,
        s=4,
        hands=(
            frozenset({Card(5, 1), Card(1, 4), Card(3, 4)}),
            frozenset({Card(5, 2), Card(1, 2), Card(1, 3)}),
            frozenset({Card(5, 3), Card(2, 3), Card(2, 2)}),
        ),
        objectives=(Objective(Card(5, 1), 1), Objective(Card(5, 2), 2), Objective(Card(5, 3), 3)),
        first_lead=1,
    )
    report = solve_exhaustive(deal, budget=0)
    assert (report.decision, report.stats.nodes) == (False, 0)
    assert independent_checks().brute_force(json.loads(dumps_instance(deal))) is False
    monkeypatch.setattr(_search_py, "_next_leads", _filter_alone)
    report = solve_exhaustive(deal, budget=0)
    assert (report.decision, report.stats.nodes) == (False, 7)
    monkeypatch.setattr(_search_py, "_tight_leads", lambda *args: -1)
    report = solve_exhaustive(deal, budget=0)
    assert (report.decision, report.stats.nodes) == (False, 37)


def test_tight_lead_filter_keeps_trump_objective():
    """An objective card in the trump suit wins a trick led in any suit its
    holder is void in, so a tight position with one open leaves every lead.
    Player 1 must win its (3, 1) and then lead the (2, 1), which player 2
    trumps with its own objective (1, 2).  The package's model puts no
    objective in the trump suit, but the kernel's contract allows it, so
    the kernel is called directly: cards 0-3 are (2, 1), (3, 1), (1, 2) and
    (1, 3), with suits 1, 2 and 3 as kernel suits 0, 1 and 2."""
    status, leads, tricks, _ = _search_py.search(
        2, [2, 3, 1, 1], [0, 0, 1, 2], [0, 0, 1, 1], [1, 2], [0, 1], None, 1, 0, 0
    )
    assert (status, leads, tricks) == (1, [0, 0], [[1, 3], [0, 2]])
    deal = Instance(
        players=2,
        k=3,
        s=3,
        hands=(frozenset({Card(3, 1), Card(2, 1)}), frozenset({Card(1, 2), Card(1, 3)})),
        objectives=(Objective(Card(3, 1), 1),),
        trump_suit=2,
        first_lead=1,
    )
    doc = json.loads(dumps_instance(deal))
    doc["objectives"].append({"card": {"v": 1, "s": 2}, "owner": 2})
    assert independent_checks().brute_force(doc) is True


def test_tight_lead_filter_keeps_leads_for_shed_objectives():
    """Player 2 holds player 1's objective (2, 2), which player 1 can only
    take when player 2 sheds it on a trick that player 1 wins, so a tight
    position with it open leaves every lead: player 1 leads its (5, 1),
    which is no objective's suit, then its (1, 3) for player 2's own
    (3, 3)."""
    deal = Instance(
        players=2,
        k=5,
        s=3,
        hands=(frozenset({Card(5, 1), Card(1, 3)}), frozenset({Card(2, 2), Card(3, 3)})),
        objectives=(Objective(Card(2, 2), 1), Objective(Card(3, 3), 2)),
        first_lead=1,
    )
    report = solve_exhaustive(deal, budget=0)
    assert report.decision is True
    assert [[p.card for p in t.plays] for t in report.witness.tricks] == [
        [Card(5, 1), Card(2, 2)],
        [Card(1, 3), Card(3, 3)],
    ]
    assert verify_sequence(deal, report.witness).accepted
    assert independent_checks().brute_force(json.loads(dumps_instance(deal))) is True


def test_lookahead_refutes_a_winner_without_a_next_lead(monkeypatch):
    """Player 1 holds only suit 1, with two of its own objectives, and
    player 2 is void in it, so player 1 wins every trick it leads; player
    2's objective (2, 2) needs a trick led in suit 2.  Every position is
    tight.  After the first trick, player 1 may lead only suit 1, and the
    trick it wins there leaves it on lead with only (2, 2) open: the
    lookahead refutes each such position before its second trick starts,
    in 10 nodes in all, where the lead filter alone plays the second
    tricks out, in 30."""
    deal = Instance(
        players=2,
        k=4,
        s=3,
        hands=(
            frozenset({Card(4, 1), Card(2, 1), Card(1, 1)}),
            frozenset({Card(3, 2), Card(2, 2), Card(4, 3)}),
        ),
        objectives=(Objective(Card(4, 1), 1), Objective(Card(1, 1), 1), Objective(Card(2, 2), 2)),
        first_lead=1,
    )
    report = solve_exhaustive(deal, budget=0)
    assert (report.decision, report.stats.nodes) == (False, 10)
    assert independent_checks().brute_force(json.loads(dumps_instance(deal))) is False
    monkeypatch.setattr(_search_py, "_next_leads", _filter_alone)
    report = solve_exhaustive(deal, budget=0)
    assert (report.decision, report.stats.nodes) == (False, 30)


def test_lookahead_keeps_a_suit_two_owners_share():
    """Suit 1 holds both open objectives, player 1's (4, 1) and player 2's
    (3, 1), each held by its owner, and no other suit is dealt.  Whichever
    owner wins the first trick has only suit 1 left to lead, which the
    lookahead must still allow, since the other owner's objective is open
    in it: player 1 takes its (4, 1) under the (2, 1), then leads the
    (1, 1) to player 2's (3, 1)."""
    deal = Instance(
        players=2,
        k=4,
        s=1,
        hands=(frozenset({Card(4, 1), Card(1, 1)}), frozenset({Card(3, 1), Card(2, 1)})),
        objectives=(Objective(Card(4, 1), 1), Objective(Card(3, 1), 2)),
        first_lead=1,
    )
    report = solve_exhaustive(deal, budget=0)
    assert report.decision is True
    assert [[p.card for p in t.plays] for t in report.witness.tricks] == [
        [Card(4, 1), Card(2, 1)],
        [Card(1, 1), Card(3, 1)],
    ]
    assert verify_sequence(deal, report.witness).accepted
    assert independent_checks().brute_force(json.loads(dumps_instance(deal))) is True


def _has_loose_suit(inst: Instance) -> bool:
    """Whether some suit is loose in the kernel's pattern key: some holder
    has two non-objective cards of it, and its cards are not all
    non-objective cards of one hand."""
    objective_cards = {o.card for o in inst.objectives}
    suits: dict[int, list[tuple[int, bool]]] = {}
    for holder, hand in enumerate(inst.hands):
        for card in hand:
            suits.setdefault(card.suit, []).append((holder, card in objective_cards))
    return any(
        len(set(plain)) < len(plain) and len(set(cards)) > 1
        for cards in suits.values()
        for plain in [[holder for holder, objective in cards if not objective]]
    )


def test_decisions_match_independent_search():
    """Differential test (McKeeman 1998): the kernel's decision equals a
    brute-force search's on 400 small general deals, NO answers with tokens
    and trump included, and on the three reductions of every graph with at
    most 3 vertices.  In 91 of them the tricks-needed bound starts above
    the number of objective owners.  In 21 it starts above the smallest
    hand while the owner count does not, so only the tricks-needed bound
    answers those NO before any card is played.  In 155 some holder has two
    non-objective cards of a suit that also has an objective card or
    another hand's card, so two live sets of that suit can share a rank
    pattern and the kernel's pattern key differs from its exact key."""
    brute_force = independent_checks().brute_force
    deals = []
    for seed in range(400):
        r = random.Random(seed)
        p = r.choice((2, 3))
        n = p * r.randint(1, 4)
        deals.append(gen_general(n, p, r.randint(1, min(4, n)), seed))
    mix = (
        sum(bool(d.tokens) for d in deals),
        sum(d.trump_suit is not None for d in deals),
    )
    for vertices in (1, 2, 3):
        for g in all_graphs(vertices):
            deals += [reduce_hp(g), reduce_hp_tokens(g)]
            if vertices >= 2:
                deals.append(reduce_hp_trump(g))
    assert len(deals) == 432 and mix == (141, 131)
    decisions = [solve(inst, force="exhaustive").decision for inst in deals]
    for row, (inst, decision) in enumerate(zip(deals, decisions)):
        assert decision is brute_force(json.loads(dumps_instance(inst))), row
    assert decisions[:400].count(True) == 159
    # How often each counting fact raises the tricks needed at the start,
    # and how often only it exceeds the smallest hand.
    owners, held, chained, tricks = zip(*[
        (
            len({o.owner for o in inst.objectives}),
            _tricks_needed(inst, own_card_wins=False),
            _tricks_needed(inst),
            min(map(len, inst.hands)),
        )
        for inst in deals
    ])

    def raised(old, new):
        return (
            sum(b > a for a, b in zip(old, new)),
            sum(b > t >= a for a, b, t in zip(old, new, tricks)),
        )

    assert raised(owners, held) == (91, 21)
    assert raised(held, chained) == (19, 7)
    assert sum(map(_has_loose_suit, deals)) == 155


def test_pattern_key_keeps_holders():
    """Six small won deals that a pattern key without the holder in its
    codes answers NO: it joins positions whose live cards sit in different
    hands.  In each, some holder has two non-objective cards of a suit, and
    the independent search confirms the win."""
    brute_force = independent_checks().brute_force
    for args in (
        (7, 2, 2, 197),
        (9, 2, 4, 11),
        (11, 2, 2, 84),
        (8, 3, 1, 94),
        (9, 3, 2, 78),
        (10, 3, 1, 266),
    ):
        inst = gen_general(*args)
        assert _has_loose_suit(inst), args
        assert solve(inst, force="exhaustive").decision is True, args
        assert brute_force(json.loads(dumps_instance(inst))) is True, args
