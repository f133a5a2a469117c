"""Acceptance gate: ten criteria, one PASS/FAIL line each.

Each criterion sweeps seeded instances, compares specialized solvers (or,
for the reductions, the Held-Karp path oracle of ``perfbench/checks.py``,
which every Hamiltonian-path check of the tests shares) against the
exhaustive search, and enforces the wall-clock budget for the whole sweep.
Witnesses collected along the way feed the round-trip criterion.  Run with
``pytest tests/test_acceptance.py``; the per-criterion lines are echoed in
the terminal summary.
"""

from __future__ import annotations

import dataclasses
import random
from time import perf_counter

import pytest

from crewsolver.bench import _big_witness_pair
from crewsolver.generate import (
    gen_general,
    gen_graph,
    gen_single_suit,
    gen_single_value,
    gen_ss_owned,
)
from crewsolver.model import Card, Instance, Objective, TokenConstraint
from crewsolver.reduction import Graph, reduce_hp, reduce_hp_tokens, reduce_hp_trump
from crewsolver.solvers import solve, solve_exhaustive
from crewsolver.verify import PlaySequence, Reason, verify_sequence
from test_properties import permute_suits, remap_values
from test_reduce import all_graphs, has_path

pytestmark = pytest.mark.acceptance


def _sweep(generator, solver_id, count=500):
    """Run ``count`` seeded instances through a solver and the oracle."""
    t0 = perf_counter()
    records = []
    mismatches = 0
    for seed in range(count):
        inst = generator(seed)
        fast = solve(inst, force=solver_id)
        oracle = solve_exhaustive(inst, budget=0)
        if fast.decision is not oracle.decision:
            mismatches += 1
        records.append((inst, fast, oracle))
    return records, mismatches, perf_counter() - t0


@pytest.fixture(scope="module")
def single_value_sweep():
    def gen(seed):
        n = 2 + seed % 11
        p = 1 + seed % 4
        l = seed % (min(n, 4) + 1)
        return gen_single_value(n, p, l, seed)

    return _sweep(gen, "single-value")


@pytest.fixture(scope="module")
def ss_owned_sweep():
    def gen(seed):
        n = 2 + seed % 11
        p = 1 + seed % 4
        l = seed % (min(n, 4) + 1)
        return gen_ss_owned(n, p, l, seed)

    return _sweep(gen, "ss-owned")


@pytest.fixture(scope="module")
def single_suit_sweep():
    def gen(seed):
        n = 4 + seed % 9
        p = 2 + seed % 3
        l = 1 + seed % 4
        return gen_single_suit(n, p, l, seed)

    return _sweep(gen, "single-suit")


@pytest.fixture(scope="module")
def reduction_sweep():
    t0 = perf_counter()
    records = []
    mismatches = 0
    graphs = [g for v in (1, 2, 3, 4) for g in all_graphs(v)]
    probs = (0.2, 0.35, 0.5, 0.65, 0.8)
    graphs += [gen_graph(5, probs[seed % 5], seed) for seed in range(200)]
    for g in graphs:
        expected = has_path(g)
        report = solve_exhaustive(reduce_hp(g), budget=0)
        if report.decision is not expected:
            mismatches += 1
        records.append((g, report))
    return records, mismatches, perf_counter() - t0, len(graphs)


@pytest.fixture(scope="module")
def variant_sweep():
    t0 = perf_counter()
    records = []
    mismatches = 0
    checked = 0
    for v in (1, 2, 3, 4):
        for g in all_graphs(v):
            expected = has_path(g)
            variants = [reduce_hp_tokens(g)]
            if v >= 2:  # the trump deal needs a second player to hold trumps
                variants.append(reduce_hp_trump(g, 1))
            for inst in variants:
                report = solve_exhaustive(inst, budget=0)
                checked += 1
                if report.decision is not expected:
                    mismatches += 1
                records.append((inst, report))
    return records, mismatches, perf_counter() - t0, checked


def test_criterion_1_single_value_oracle(acceptance_report, single_value_sweep):
    records, mismatches, elapsed = single_value_sweep
    ok = mismatches == 0 and elapsed < 60.0
    acceptance_report(
        1,
        ok,
        f"{len(records) - mismatches}/{len(records)} single-value decisions "
        f"match the exhaustive oracle in {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_ss_owned_oracle(acceptance_report, ss_owned_sweep):
    records, mismatches, elapsed = ss_owned_sweep
    ok = mismatches == 0 and elapsed < 120.0
    acceptance_report(
        2,
        ok,
        f"{len(records) - mismatches}/{len(records)} owned-objective greedy "
        f"decisions match the oracle in {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_3_single_suit_oracle(acceptance_report, single_suit_sweep):
    records, mismatches, elapsed = single_suit_sweep
    ok = mismatches == 0 and elapsed < 180.0
    acceptance_report(
        3,
        ok,
        f"{len(records) - mismatches}/{len(records)} single-suit scheduler "
        f"decisions match the oracle in {elapsed:.1f}s (limit 180s)",
    )


def test_criterion_4_reduction_equivalence(acceptance_report, reduction_sweep):
    _, mismatches, elapsed, total = reduction_sweep
    ok = mismatches == 0 and elapsed < 600.0
    acceptance_report(
        4,
        ok,
        f"{total - mismatches}/{total} graphs (all on <=4 vertices plus 200 "
        f"random on 5) agree with the Held-Karp path oracle in {elapsed:.1f}s "
        f"(limit 600s)",
    )


def test_criterion_5_variant_reductions(acceptance_report, variant_sweep):
    _, mismatches, elapsed, checked = variant_sweep
    ok = mismatches == 0
    acceptance_report(
        5,
        ok,
        f"{checked - mismatches}/{checked} trump/token reductions on <=4 "
        f"vertices agree with the Held-Karp path oracle in {elapsed:.1f}s",
    )


def test_criterion_6_known_pathless_graph(acceptance_report):
    graph = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6)])
    inst = reduce_hp(graph)
    shape_ok = inst.players == 6 and all(len(h) == 6 for h in inst.hands)
    found = has_path(graph)
    acceptance_report(
        6,
        shape_ok and not found,
        "the branched 6-vertex graph reduces to 6 hands of 6 cards and has "
        "no Hamiltonian path",
    )


def test_criterion_7_witness_round_trip(
    acceptance_report,
    single_value_sweep,
    ss_owned_sweep,
    single_suit_sweep,
    reduction_sweep,
    variant_sweep,
):
    verified = 0
    failures = 0

    def check(inst, report):
        nonlocal verified, failures
        if report.decision:
            verified += 1
            if not verify_sequence(inst, report.witness).accepted:
                failures += 1

    for inst, fast, oracle in single_value_sweep[0]:
        check(inst, fast)
        check(inst, oracle)
    for inst, fast, oracle in ss_owned_sweep[0]:
        check(inst, fast)
        check(inst, oracle)
        if fast.decision:
            # The owned-objective greedy uses exactly one trick per objective.
            if len(fast.witness.tricks) != len(inst.objectives):
                failures += 1
    for inst, fast, oracle in single_suit_sweep[0]:
        check(inst, fast)
        check(inst, oracle)
        if fast.decision and len(fast.witness.tricks) > len(inst.objectives):
            failures += 1
    for g, report in reduction_sweep[0]:
        check(reduce_hp(g), report)
    for inst, report in variant_sweep[0]:
        check(inst, report)

    acceptance_report(
        7,
        failures == 0 and verified > 0,
        f"{verified} YES witnesses re-verified (owned greedy: exactly one "
        f"trick per objective; scheduler: at most one), {failures} failures",
    )


def test_criterion_8_verifier_mutations(acceptance_report, uneven_deal, trick_builder):
    covered = set()
    failures = []

    def expect(reason, instance, sequence):
        verdict = verify_sequence(instance, sequence)
        if verdict.accepted or verdict.reason is not reason:
            failures.append(reason.name)
        else:
            covered.add(reason)

    win = PlaySequence(
        first_lead=1,
        tricks=(
            trick_builder(1, [(4, 1), (3, 1), (5, 2), (1, 1)]),
            trick_builder(1, [(3, 2), (4, 2), (4, 3), (2, 2)]),
        ),
    )
    assert verify_sequence(uneven_deal, win).accepted

    expect(
        Reason.BAD_LEAD,
        uneven_deal,
        PlaySequence(
            first_lead=2,
            tricks=(trick_builder(2, [(3, 1), (5, 2), (1, 1), (2, 1)]),),
        ),
    )
    expect(
        Reason.WRONG_WINNER_LEADS,
        uneven_deal,
        PlaySequence(
            first_lead=1,
            tricks=(
                win.tricks[0],
                trick_builder(2, [(4, 2), (5, 2), (2, 2), (3, 2)]),
            ),
        ),
    )
    expect(
        Reason.FOLLOW_SUIT_VIOLATION,
        uneven_deal,
        PlaySequence(
            first_lead=1,
            tricks=(trick_builder(1, [(4, 1), (2, 3), (5, 2), (1, 1)]),),
        ),
    )
    expect(
        Reason.CARD_NOT_IN_HAND,
        uneven_deal,
        PlaySequence(
            first_lead=1,
            tricks=(trick_builder(1, [(4, 1), (6, 3), (5, 2), (1, 1)]),),
        ),
    )
    expect(
        Reason.CARD_REUSED,
        uneven_deal,
        PlaySequence(
            first_lead=1,
            tricks=(
                win.tricks[0],
                trick_builder(1, [(4, 1), (4, 2), (4, 3), (2, 2)]),
            ),
        ),
    )
    expect(
        Reason.OBJECTIVE_MISROUTED,
        uneven_deal,
        PlaySequence(
            first_lead=1,
            tricks=(trick_builder(1, [(2, 1), (3, 1), (5, 2), (1, 1)]),),
        ),
    )
    expect(
        Reason.TOKEN_ORDER_VIOLATED,
        dataclasses.replace(
            uneven_deal, tokens=(TokenConstraint(0, before=frozenset({1})),)
        ),
        win,
    )
    expect(
        Reason.OBJECTIVES_INCOMPLETE,
        uneven_deal,
        PlaySequence(first_lead=1, tricks=win.tricks[:1]),
    )

    starved = Instance(
        players=2,
        k=2,
        s=2,
        hands=(
            frozenset({Card(2, 1), Card(1, 2)}),
            frozenset({Card(1, 1)}),
        ),
        objectives=(Objective(Card(1, 2), 1),),
        first_lead=1,
    )
    assert verify_sequence(
        starved,
        PlaySequence(first_lead=1, tricks=(trick_builder(1, [(1, 2), (1, 1)]),)),
    ).accepted
    expect(
        Reason.HAND_EMPTY_EARLY,
        starved,
        PlaySequence(first_lead=1, tricks=(trick_builder(1, [(2, 1), (1, 1)]),)),
    )

    acceptance_report(
        8,
        not failures and covered == set(Reason),
        f"{len(covered)}/{len(Reason)} rejection codes produced by one-edit "
        f"witness mutations",
    )


def test_criterion_9_performance(acceptance_report):
    owned = gen_ss_owned(100_000, 8, 1000, seed=1)
    t0 = perf_counter()
    owned_report = solve(owned, force="ss-owned")
    owned_s = perf_counter() - t0

    external = gen_single_suit(10_000, 8, 1000, seed=2)
    t0 = perf_counter()
    external_report = solve(external, force="single-suit")
    external_s = perf_counter() - t0

    inst, seq = _big_witness_pair(10_000, 4)
    t0 = perf_counter()
    verdict = verify_sequence(inst, seq)
    verify_s = perf_counter() - t0

    ok = (
        owned_s < 2.0
        and external_s < 5.0
        and verify_s < 2.0
        and owned_report.decision is not None
        and external_report.decision is not None
        and verdict.accepted
    )
    acceptance_report(
        9,
        ok,
        f"owned greedy n=1e5 in {owned_s:.2f}s (limit 2s); scheduler n=1e4 "
        f"l=1e3 in {external_s:.2f}s (limit 5s); verify n=1e4 in "
        f"{verify_s:.2f}s (limit 2s)",
    )


def test_criterion_10_relabel_invariance(acceptance_report):
    suit_bad = value_bad = 0
    for seed in range(200):
        inst = gen_general(9, 3, 2, seed)
        base = solve_exhaustive(inst, budget=0).decision
        rng = random.Random(seed)

        suits = list(range(1, inst.s + 1))
        shuffled = suits[:]
        rng.shuffle(shuffled)
        if solve_exhaustive(permute_suits(inst, dict(zip(suits, shuffled))), budget=0).decision != base:
            suit_bad += 1

        gaps = [rng.randint(1, 3) for _ in range(inst.k)]
        if solve_exhaustive(remap_values(inst, gaps), budget=0).decision != base:
            value_bad += 1

    acceptance_report(
        10,
        suit_bad == 0 and value_bad == 0,
        f"200 suit permutations ({200 - suit_bad} agree) and 200 increasing "
        f"value remaps ({200 - value_bad} agree) leave decisions unchanged",
    )
