"""Reduction tests: graph parsing, instance shape, and the reductions'
answers against an independent Hamiltonian-path oracle."""

from __future__ import annotations

import functools
import importlib.util
import itertools
from pathlib import Path

import pytest

from crewsolver.model import Card, Objective, trick_winner
from crewsolver.reduction import (
    Graph,
    format_graph,
    parse_graph,
    reduce_hp,
    reduce_hp_tokens,
    reduce_hp_trump,
)
from crewsolver.solvers import solve_exhaustive
from crewsolver.verify import verify_sequence

PATH_5 = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
BRANCHED_6 = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6)])


@functools.cache
def independent_checks():
    """``perfbench/checks.py``, checks written from the game rules that
    share no code with the package, loaded by path as it is: the search
    ``brute_force`` and the Held-Karp oracle ``has_hamiltonian_path``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    assert path.is_file(), f"the independent checks are missing: {path}"
    spec = importlib.util.spec_from_file_location("independent_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def has_path(graph: Graph) -> bool:
    return independent_checks().has_hamiltonian_path(graph.vertices, graph.edges)


def all_graphs(vertices: int):
    pairs = list(itertools.combinations(range(1, vertices + 1), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield Graph.from_edges(vertices, edges)


class TestGraph:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(3, 1), (2, 3)])
        assert g.edges == frozenset({(1, 3), (2, 3)})
        assert g.neighbors(3) == (1, 2)

    def test_rejects_bad_structure(self):
        with pytest.raises(ValueError):
            Graph.from_edges(0, [])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 3)])


class TestGraphFormat:
    def test_parse_simple(self):
        g = parse_graph("c a comment\np 3 2\ne 1 2\ne 2 3\n")
        assert g.vertices == 3
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_round_trip(self):
        text = format_graph(BRANCHED_6)
        assert parse_graph(text) == BRANCHED_6
        assert text.startswith("p 6 5\n") and text.endswith("\n")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("e 1 2\n", "before problem line"),
            ("p 3 1\np 3 1\ne 1 2\n", "duplicate problem line"),
            ("p 3 1\nx 1 2\n", "unknown record"),
            ("p 3 1\ne 1 1\n", "self-loop"),
            ("p 3 2\ne 1 2\n", "promises 2 edges"),
            ("p 3 2\ne 1 2\ne 1 2\n", "duplicate edge"),
            ("p 3 1\ne 1 9\n", "not normalized"),
            ("", "missing problem line"),
            ("p x y\n", "invalid problem line"),
            ("p 3 0\ne 1 x\n", "invalid edge"),
            ("p 3\n", "^line 1: expected 'p <vertices> <edges>'$"),
            ("p 3 1 7\n", "^line 1: expected 'p <vertices> <edges>'$"),
            ("p 3 1\ne 1\n", "^line 2: expected 'e <u> <v>'$"),
            ("p 3 1\ne 1 2 3\n", "^line 2: expected 'e <u> <v>'$"),
        ],
    )
    def test_parse_errors(self, bad, message):
        with pytest.raises(ValueError, match=message):
            parse_graph(bad)


class TestReduceShape:
    def test_hand_and_objective_shape(self):
        inst = reduce_hp(PATH_5)
        assert inst.players == 5
        assert all(len(h) == 5 for h in inst.hands)
        assert len(inst.objectives) == 5
        # Vertex i's target card is (deg(i)+1, i) in i's own hand.
        for i in range(1, 6):
            target = Card(len(PATH_5.neighbors(i)) + 1, i)
            assert Objective(target, i) in inst.objectives
            assert target in inst.hands[i - 1]
        assert inst.first_lead is None
        # Bounds are the exact maxima over dealt cards.
        cards = [c for h in inst.hands for c in h]
        assert inst.k == max(c.value for c in cards)
        assert inst.s == max(c.suit for c in cards)

    def test_neighbor_cards_ascending(self):
        inst = reduce_hp(Graph.from_edges(3, [(1, 2), (1, 3)]))
        # Vertex 1 has neighbors 2 < 3: they receive (1,1) and (2,1).
        assert Card(1, 1) in inst.hands[1]
        assert Card(2, 1) in inst.hands[2]

    def test_junk_suits_disjoint(self):
        inst = reduce_hp(PATH_5)
        vertex_suits = {c.suit for h in inst.hands for c in h if c.suit <= 5}
        junk_suits = {c.suit for h in inst.hands for c in h if c.suit > 5}
        assert vertex_suits <= set(range(1, 6))
        assert junk_suits and min(junk_suits) > 5

    def test_single_vertex(self):
        inst = reduce_hp(Graph.from_edges(1, []))
        assert inst.players == 1
        assert inst.hands == (frozenset({Card(1, 1)}),)
        assert solve_exhaustive(inst).decision is True

    def test_trump_variant_shape(self):
        inst = reduce_hp_trump(PATH_5)
        assert inst.trump_suit == 11  # one past the last junk suit
        trump_cards = sorted(
            c for h in inst.hands for c in h if c.suit == inst.trump_suit
        )
        # Players 2..5 each hold one trump, consecutively numbered.
        assert [c.value for c in trump_cards] == list(range(1, 5))
        holders = {
            q
            for q, h in enumerate(inst.hands, start=1)
            if any(c.suit == inst.trump_suit for c in h)
        }
        assert holders == {2, 3, 4, 5}
        with pytest.raises(ValueError):
            reduce_hp_trump(Graph.from_edges(1, []))

    def test_tokens_variant_shape(self):
        inst = reduce_hp_tokens(PATH_5)
        q = 6
        assert inst.players == q
        assert all(len(h) == q for h in inst.hands)
        assert len(inst.objectives) == q
        # The collector's own objective must complete after all originals.
        assert inst.objectives[q - 1] == Objective(Card(q, q), q)
        assert len(inst.tokens) == 1
        tok = inst.tokens[0]
        assert tok.objective == q - 1
        assert tok.before == frozenset(range(q - 1))
        assert tok.after == frozenset()
        # The original vertex objectives survive unchanged, and every
        # original player holds one low card of the collector's suit.
        assert inst.objectives[: q - 1] == reduce_hp(PATH_5).objectives
        for i in range(1, q):
            assert Card(i, q) in inst.hands[i - 1]


def assert_reads_back_a_path(graph: Graph, inst, witness) -> None:
    """A YES line of a reduction walks a Hamiltonian path: the winners of its
    first V tricks are the path's vertices in order.  The tokens form plays
    one more trick, won by the collector, player V + 1."""
    v_count = graph.vertices
    winners = [trick_winner(trick, inst.trump_suit) for trick in witness.tricks]
    path = winners[:v_count]
    assert winners[v_count:] == ([v_count + 1] if inst.tokens else [])
    assert sorted(path) == list(range(1, v_count + 1))
    assert all((min(a, b), max(a, b)) in graph.edges for a, b in zip(path, path[1:]))


class TestEquivalence:
    @pytest.mark.parametrize("vertices", [1, 2, 3, 4])
    def test_small_graphs_all_variants(self, vertices):
        for g in all_graphs(vertices):
            expected = has_path(g)
            deals = [reduce_hp(g), reduce_hp_tokens(g)]
            if vertices >= 2:
                deals.append(reduce_hp_trump(g))
            for inst in deals:
                report = solve_exhaustive(inst)
                assert report.decision is expected
                if expected:
                    assert verify_sequence(inst, report.witness).accepted
                    assert_reads_back_a_path(g, inst, report.witness)
