"""Reduction tests: graph parsing, instance shape, path search, witnesses."""

from __future__ import annotations

import itertools

import pytest

from crewsolver.model import Card, Objective
from crewsolver.reduction import (
    Graph,
    format_graph,
    hp_bruteforce,
    parse_graph,
    path_to_witness,
    reduce_hp,
    reduce_hp_tokens,
    reduce_hp_trump,
)
from crewsolver.solvers import solve_exhaustive
from crewsolver.verify import verify_sequence

PATH_5 = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
BRANCHED_6 = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6)])


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
        assert g.adjacent(1, 3) and not g.adjacent(1, 2)

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
        inst = reduce_hp_trump(PATH_5, 2)
        assert inst.trump_suit == 11  # one past the last junk suit
        trump_cards = sorted(
            c for h in inst.hands for c in h if c.suit == inst.trump_suit
        )
        # Players 2..5 each hold two trumps, consecutively numbered.
        assert [c.value for c in trump_cards] == list(range(1, 9))
        holders = {
            q
            for q, h in enumerate(inst.hands, start=1)
            if any(c.suit == inst.trump_suit for c in h)
        }
        assert holders == {2, 3, 4, 5}
        with pytest.raises(ValueError):
            reduce_hp_trump(Graph.from_edges(1, []))
        with pytest.raises(ValueError):
            reduce_hp_trump(PATH_5, 0)

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


class TestPathSearch:
    def test_complete_graph_lexicographic(self):
        found, path = hp_bruteforce(Graph.from_edges(4, itertools.combinations(range(1, 5), 2)))
        assert found and path == (1, 2, 3, 4)

    def test_path_graph(self):
        found, path = hp_bruteforce(PATH_5)
        assert found and path == (1, 2, 3, 4, 5)

    def test_no_path(self):
        found, path = hp_bruteforce(BRANCHED_6)
        assert not found and path is None

    def test_disconnected(self):
        found, _ = hp_bruteforce(Graph.from_edges(4, [(1, 2), (3, 4)]))
        assert not found

    def test_limit_guard(self):
        with pytest.raises(ValueError, match="limit"):
            hp_bruteforce(Graph.from_edges(11, []), limit=10)


class TestPathWitness:
    def test_witness_accepted(self):
        inst = reduce_hp(PATH_5)
        found, path = hp_bruteforce(PATH_5)
        assert found
        seq = path_to_witness(PATH_5, path)
        assert verify_sequence(inst, seq).accepted
        assert len(seq.tricks) == 5

    def test_witness_accepted_star(self):
        star = Graph.from_edges(4, [(1, 2), (2, 3), (2, 4)])
        found, path = hp_bruteforce(star)
        assert not found  # a 3-star has no Hamiltonian path
        with pytest.raises(ValueError, match="not a Hamiltonian path"):
            path_to_witness(star, (1, 2, 3, 4))

    def test_non_path_rejected(self):
        with pytest.raises(ValueError, match="not a Hamiltonian path"):
            path_to_witness(PATH_5, (1, 2, 3))
        with pytest.raises(ValueError, match="not a Hamiltonian path"):
            path_to_witness(PATH_5, (1, 2, 2, 3, 4))
        with pytest.raises(ValueError, match="not a Hamiltonian path"):
            path_to_witness(PATH_5, (1, 3, 2, 4, 5))


class TestEquivalence:
    @pytest.mark.parametrize("vertices", [1, 2, 3])
    def test_small_graphs_all_variants(self, vertices):
        for g in all_graphs(vertices):
            expected, path = hp_bruteforce(g)
            assert solve_exhaustive(reduce_hp(g)).decision is expected
            assert solve_exhaustive(reduce_hp_tokens(g)).decision is expected
            if vertices >= 2:
                assert solve_exhaustive(reduce_hp_trump(g)).decision is expected
            if expected:
                seq = path_to_witness(g, path)
                assert verify_sequence(reduce_hp(g), seq).accepted
