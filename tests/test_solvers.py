"""Solver tests: frozen decisions, witness shape, dispatcher routing.

Expected values for non-trivial cases were frozen from the exhaustive
solver's answer on the same instance; the relevant test asserts both so a
regression in either side shows up as a disagreement.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
from pathlib import Path

import pytest

import crewsolver
from crewsolver.generate import gen_single_suit, gen_ss_owned
from crewsolver.model import (
    Card,
    Instance,
    InstanceClass,
    Objective,
    TokenConstraint,
    classify,
)
from crewsolver.serialize import dumps_witness
from crewsolver.solvers import (
    SOLVER_IDS,
    SolverMismatchError,
    solve,
    solve_exhaustive,
)
from crewsolver.verify import PlaySequence, verify_sequence


def _suit1(*hands: tuple[int, ...], objectives=(), **kw) -> Instance:
    built = tuple(frozenset(Card(v, 1) for v in hand) for hand in hands)
    k = max((v for hand in hands for v in hand), default=1)
    objs = tuple(Objective(Card(v, 1), owner) for v, owner in objectives)
    return Instance(
        players=len(hands), k=k, s=1, hands=built, objectives=objs, **kw
    )


def _ones(*hands: tuple[int, ...], objectives=(), **kw) -> Instance:
    built = tuple(frozenset(Card(1, s) for s in hand) for hand in hands)
    s = max(s for hand in hands for s in hand)
    objs = tuple(Objective(Card(1, suit), owner) for suit, owner in objectives)
    return Instance(
        players=len(hands), k=1, s=s, hands=built, objectives=objs, **kw
    )


class TestSingleValue:
    def test_no_objectives(self):
        report = solve(_ones((1, 2), (3, 4)), force="single-value")
        assert report.decision is True
        assert report.witness is not None and report.witness.tricks == ()

    def test_single_owner_wins(self):
        inst = _ones((1, 2), (3, 4), objectives=((3, 1), (4, 1)))
        report = solve(inst, force="single-value")
        assert report.decision is True
        assert verify_sequence(inst, report.witness).accepted
        # Every trick of a winning line here is taken by the owner.
        for trick in report.witness.tricks:
            assert trick.lead == 1

    def test_two_owners_false(self):
        inst = _ones((1, 2), (3, 4), objectives=((3, 1), (1, 2)))
        assert solve(inst, force="single-value").decision is False

    def test_crowded_hand_false(self):
        inst = _ones((1,), (2, 3), objectives=((2, 1), (3, 1)))
        assert solve(inst, force="single-value").decision is False

    def test_fixed_foreign_lead_false(self):
        inst = _ones((1, 2), (3, 4), objectives=((3, 1),), first_lead=2)
        assert solve(inst, force="single-value").decision is False
        owned_lead = _ones((1, 2), (3, 4), objectives=((3, 1),), first_lead=1)
        assert solve(owned_lead, force="single-value").decision is True


class TestSingleSuitOwned:
    def test_no_objectives(self):
        report = solve(_suit1((5, 2), (4, 1)), force="ss-owned")
        assert report.decision is True and report.witness.tricks == ()

    def test_simple_win(self):
        inst = _suit1((5, 2), (4, 1), objectives=((5, 1),))
        report = solve(inst, force="ss-owned")
        assert report.decision is True
        assert len(report.witness.tricks) == 1
        assert verify_sequence(inst, report.witness).accepted

    def test_no_card_under(self):
        inst = _suit1((3,), (4,), objectives=((3, 1),))
        assert solve(inst, force="ss-owned").decision is False

    def test_objective_cards_excluded_from_filler(self):
        # In the (9,1) trick player 2 must keep their own objective card
        # (8,1) back and feed (2,1) instead.
        inst = _suit1((9, 1), (8, 2), objectives=((9, 1), (8, 2)))
        report = solve(inst, force="ss-owned")
        assert report.decision is True
        first = report.witness.tricks[0]
        played_by_2 = [p.card for p in first.plays if p.player == 2]
        assert played_by_2 == [Card(2, 1)]
        assert verify_sequence(inst, report.witness).accepted

    def test_exactly_l_tricks(self):
        inst = _suit1(
            (9, 6, 3), (8, 5, 2), (7, 4, 1),
            objectives=((9, 1), (8, 2), (7, 3)),
        )
        report = solve(inst, force="ss-owned")
        assert report.decision is True
        assert len(report.witness.tricks) == 3
        assert verify_sequence(inst, report.witness).accepted


class TestSingleSuit:
    def test_fed_objective(self):
        inst = _suit1((9, 1), (5, 2), objectives=((5, 1),))
        report = solve(inst, force="single-suit")
        assert report.decision is True
        trick = report.witness.tricks[0]
        assert {p.card for p in trick.plays} == {Card(9, 1), Card(5, 1)}
        assert verify_sequence(inst, report.witness).accepted

    def test_winner_too_small(self):
        inst = _suit1((4, 1), (5, 2), objectives=((5, 1),))
        assert solve(inst, force="single-suit").decision is False

    def test_owner_holds_card(self):
        inst = _suit1((5,), (1,), objectives=((5, 1),))
        report = solve(inst, force="single-suit")
        assert report.decision is True
        assert verify_sequence(inst, report.witness).accepted

    def test_feed_must_go_under_tightest_trick(self):
        # Player 2 owns 2, 6 (self-held) and 1 (held by player 1).  Feeding
        # the 1 under the big 6-trick strands the forced 2-trick: player 1
        # would have nothing below 2 left.  The 1 has to go under the
        # 2-trick itself, and the win needs only two tricks.
        inst = _suit1(
            (1, 3, 5, 7),
            (2, 4, 6),
            objectives=((2, 2), (6, 2), (1, 2)),
        )
        report = solve(inst, force="single-suit")
        assert report.decision is True
        assert len(report.witness.tricks) <= 3
        assert verify_sequence(inst, report.witness).accepted
        assert solve_exhaustive(inst).decision is True

    def test_extra_tricks_scheduled_when_needed(self):
        # Player 2's objective card sits with player 1 while player 2 holds
        # no objective of their own: an extra winning trick must be staged.
        inst = _suit1((2, 9), (5, 8), objectives=((2, 2),))
        report = solve(inst, force="single-suit")
        assert report.decision is True
        assert len(report.witness.tricks) <= 1
        assert verify_sequence(inst, report.witness).accepted
        assert solve_exhaustive(inst).decision is True

    def test_accepts_owned_class_and_agrees(self):
        inst = _suit1((9, 6, 3), (8, 5, 2), objectives=((9, 1), (8, 2)))
        report = solve(inst, force="single-suit")
        owned = solve(inst, force="ss-owned")
        assert report.decision is owned.decision is True
        assert verify_sequence(inst, report.witness).accepted

    def test_at_most_l_tricks(self):
        inst = _suit1(
            (1, 3, 5, 7), (2, 4, 6), objectives=((2, 2), (6, 2), (1, 2))
        )
        report = solve(inst, force="single-suit")
        assert report.decision is True
        assert len(report.witness.tricks) <= len(inst.objectives)

    def test_wrong_class_rejected(self, uneven_deal):
        with pytest.raises(SolverMismatchError):
            solve(uneven_deal, force="single-suit")


# (decision, stats.tricks, first trick's cards, trick count) as the separate
# ss-owned procedure and the scheduler returned them before ss-owned deals
# ran through the scheduler; the merged code must reproduce them exactly.
_ONE_SUIT_PINNED = [
    (lambda: gen_ss_owned(12, 2, 4, 8), True, 4, [(12, 1), (8, 1)], 4),
    (lambda: gen_ss_owned(40, 4, 3, 0), True, 3, [(31, 1), (25, 1), (27, 1), (28, 1)], 3),
    (lambda: gen_ss_owned(40, 4, 3, 10), True, 3, [(33, 1), (34, 1), (31, 1), (23, 1)], 3),
    (lambda: gen_ss_owned(60, 3, 4, 10), True, 4, [(60, 1), (59, 1), (56, 1)], 4),
    (lambda: gen_ss_owned(30, 3, 8, 5), False, 6, None, None),
    (lambda: gen_ss_owned(24, 4, 5, 2), False, 3, None, None),
    (lambda: gen_single_suit(24, 4, 5, 1), True, 4, [(15, 1), (17, 1), (23, 1), (7, 1)], 4),
    (lambda: gen_single_suit(24, 4, 5, 2), True, 5, [(24, 1), (13, 1), (16, 1), (14, 1)], 5),
    (lambda: gen_single_suit(20, 3, 3, 6), True, 2, [(3, 1), (15, 1), (20, 1)], 2),
    (lambda: gen_single_suit(20, 3, 3, 7), False, 2, None, None),
    (lambda: gen_single_suit(16, 3, 2, 10), False, 1, None, None),
    (lambda: gen_single_suit(24, 4, 5, 0), False, 0, None, None),
    # Hand-built plan-step edges, measured before extra tricks were counted
    # by Hall's shortfall; the exhaustive solver agrees with each decision.
    # The shortfall equals the owner's spares exactly:
    (lambda: _suit1((9, 8), (3, 4), objectives=((3, 1), (4, 1))), True, 2, [(9, 1), (4, 1)], 2),
    # ... exceeds them:
    (lambda: _suit1((9, 8), (3, 4, 5), objectives=((3, 1), (4, 1), (5, 1))), False, 0, None, None),
    # ... is reduced by a self-held threshold above the fed cards:
    (lambda: _suit1((9, 6), (5, 7), objectives=((6, 1), (5, 1), (7, 1))), True, 2, [(9, 1), (7, 1)], 2),
]


def test_one_suit_outputs_pinned():
    for row, (make, decision, tricks, first, count) in enumerate(_ONE_SUIT_PINNED):
        inst = make()
        if classify(inst) is InstanceClass.SINGLE_SUIT_OWNED:
            solver_id = "ss-owned"
            reports = [solve(inst), solve(inst, force="ss-owned")]
        else:
            solver_id = "single-suit"
            reports = [solve(inst), solve(inst, force="single-suit")]
        for report in reports:
            witness = report.witness
            got_first = [tuple(p.card) for p in witness.tricks[0].plays] if witness else None
            got = (report.solver_id, report.decision, report.stats.tricks, got_first)
            assert got == (solver_id, decision, tricks, first), row
            assert (len(witness.tricks) if witness else None) == count, row
            if witness is not None:
                assert verify_sequence(inst, witness).accepted


# (stats.tricks, sha256 of dumps_witness) measured before extra tricks were
# counted and discards taken by one index per hand; 12 and 11 extra tricks
# over 5 owners, so these pin every discard, not only the first trick's.
_WITNESS_PINNED = [
    ((200, 5, 20, 1), 14, "a7548519ec82c63c4cecbd6285913774ca9ec8076639094c880dea613b1a6f8c"),
    ((120, 5, 20, 23), 13, "69a60393535a84d25a3d989109feb8ee1cfe302bd27ad55fe01b526212591c9e"),
]


@pytest.mark.parametrize("args, tricks, digest", _WITNESS_PINNED)
def test_single_suit_witness_pinned(args, tricks, digest):
    report = solve(gen_single_suit(*args))
    assert report.stats.tricks == tricks
    assert hashlib.sha256(dumps_witness(report.witness).encode()).hexdigest() == digest


class TestDispatcher:
    def test_routes_by_class(self, uneven_deal):
        owned = _suit1((5, 2), (4, 1), objectives=((5, 1),))
        external = _suit1((9, 1), (5, 2), objectives=((5, 1),))
        for inst, solver_id, cls in [
            (_ones((1, 2), (3,)), "single-value", InstanceClass.SINGLE_VALUE),
            (owned, "ss-owned", InstanceClass.SINGLE_SUIT_OWNED),
            (external, "single-suit", InstanceClass.SINGLE_SUIT),
            (uneven_deal, "exhaustive", InstanceClass.GENERAL),
        ]:
            report = solve(inst)
            assert (report.solver_id, report.instance_class) == (solver_id, cls)
        forced = solve(owned, force="exhaustive")
        assert forced.instance_class is InstanceClass.SINGLE_SUIT_OWNED

    def test_tokens_route_to_exhaustive(self):
        inst = _suit1(
            (5, 2),
            (4, 1),
            objectives=((5, 1), (4, 2)),
            tokens=(TokenConstraint(1, before=frozenset({0})),),
        )
        report = solve(inst)
        assert report.solver_id == "exhaustive"
        assert report.decision is True
        assert verify_sequence(inst, report.witness).accepted

    def test_force_mismatch_raises(self, uneven_deal):
        with pytest.raises(SolverMismatchError):
            solve(uneven_deal, force="single-value")

    def test_force_exhaustive_anywhere(self):
        inst = _suit1((5, 2), (4, 1), objectives=((5, 1),))
        report = solve(inst, force="exhaustive")
        assert report.solver_id == "exhaustive"
        assert report.decision is True

    def test_unknown_force_rejected(self, uneven_deal):
        for force in ("magic", ""):
            with pytest.raises(ValueError, match="unknown solver"):
                solve(uneven_deal, force=force)

    def test_budget_exhaustion_is_none(self, uneven_deal):
        report = solve(uneven_deal, force="exhaustive", budget=1)
        assert report.decision is None
        assert report.witness is None

    def test_bad_budget_rejected(self, uneven_deal):
        with pytest.raises(ValueError, match="non-negative"):
            solve_exhaustive(uneven_deal, budget=-1)

    @pytest.mark.parametrize("first_lead", [None, 2])
    def test_objective_free_deal_won_by_every_solver(self, uneven_deal, first_lead):
        # Each solver gets an objective-free deal of a class it accepts.
        deal_for = {
            "single-value": _ones((1, 2), (3,), first_lead=first_lead),
            "ss-owned": _suit1((5, 2), (4, 1), first_lead=first_lead),
            "single-suit": _suit1((5, 2), (4, 1), first_lead=first_lead),
            "exhaustive": dataclasses.replace(
                uneven_deal, objectives=(), first_lead=first_lead
            ),
        }
        assert tuple(deal_for) == SOLVER_IDS
        for solver_id, deal in deal_for.items():
            report = solve(deal, force=solver_id)
            assert report.decision is True
            assert report.witness == PlaySequence(first_lead or 1, ())
            assert (report.stats.tricks, report.stats.nodes) == (0, 0)
            assert (report.stats.kernel == "none") is (solver_id == "exhaustive")
            assert solve(deal, force=solver_id, want_witness=False).witness is None

    def test_want_witness_false(self):
        inst = _suit1((5, 2), (4, 1), objectives=((5, 1),))
        report = solve(inst, want_witness=False)
        assert report.decision is True
        assert report.witness is None

    def test_classifies_once(self, monkeypatch, uneven_deal):
        import crewsolver.solvers as solvers

        calls = []

        def counting(instance):
            calls.append(instance)
            return classify(instance)

        monkeypatch.setattr(solvers, "classify", counting)
        deals = [
            _ones((1, 2), (3,), objectives=((1, 1),)),
            _suit1((5, 2), (4, 1), objectives=((5, 1),)),
            _suit1((9, 1), (5, 2), objectives=((5, 1),)),
            uneven_deal,
        ]
        for inst in deals:
            calls.clear()
            solve(inst)
            assert calls == [inst]
            calls.clear()
            solve(inst, force="exhaustive")
            assert len(calls) <= 1

    def test_forced_mismatch_still_raises(self, uneven_deal):
        owned = _suit1((5, 2), (4, 1), objectives=((5, 1),))
        external = _suit1((9, 1), (5, 2), objectives=((5, 1),))
        ones = _ones((1, 2), (3,), objectives=((1, 1),))
        for inst, solver_id in [
            (owned, "single-value"),
            (external, "ss-owned"),
            (ones, "single-suit"),
            (uneven_deal, "ss-owned"),
        ]:
            with pytest.raises(SolverMismatchError, match=repr(solver_id)):
                solve(inst, force=solver_id)
        assert solve(owned, force="single-suit").decision is True


def test_only_cli_imports_os():
    """The library reads no environment: a node budget reaches a solver only
    as an argument, and ``CREW_BUDGET`` is read by ``crew solve`` alone."""
    importers = set()
    for path in Path(crewsolver.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "os" for name in names):
                importers.add(path.name)
    assert importers == {"cli.py"}


def test_records_that_check_nothing_are_tuples(uneven_deal, uneven_deal_win):
    """A dataclass in the package exists to check its fields when built, so
    each one defines ``__post_init__``; a record that checks nothing is a
    ``NamedTuple``.  Either way the records are immutable."""
    unchecked = set()
    for path in Path(crewsolver.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(ast.unparse(d).split(".")[-1] == "dataclass" for d in decorators):
                continue
            methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            if "__post_init__" not in methods:
                unchecked.add(f"{path.name}:{node.name}")
    assert unchecked == set()

    report = solve(uneven_deal)
    records = {
        "decision": report,
        "nodes": report.stats,
        "accepted": verify_sequence(uneven_deal, uneven_deal_win),
        "objective": TokenConstraint(0),
    }
    for field, record in records.items():
        with pytest.raises(AttributeError):
            setattr(record, field, None)
