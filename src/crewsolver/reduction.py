"""Hamiltonian-path reductions.

A graph on ``V`` vertices becomes a ``V``-player deal in which winning is
possible exactly when the graph has a Hamiltonian path: each vertex gets its
own suit, vertex ``i``'s neighbours hold the low cards of suit ``i`` while
player ``i`` holds the high card as their objective, and per-player junk
suits pad every hand to ``V`` cards.  Completing all objectives forces the
lead to walk an adjacency path through the graph.

Two embellished forms deal extra trump cards to all but one player, or add
an extra player whose objective carries an order token that must complete
last.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Card, Instance, Objective, TokenConstraint


@dataclass(frozen=True, slots=True)
class Graph:
    """Undirected simple graph on vertices 1..``vertices``."""

    vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.vertices < 1:
            raise ValueError("graph needs at least one vertex")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u < v <= self.vertices):
                raise ValueError(f"edge ({u}, {v}) not normalized within 1..{self.vertices}")

    @staticmethod
    def from_edges(vertices: int, edges) -> "Graph":
        normal = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return Graph(vertices, normal)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbours of ``v`` in ascending vertex order."""
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return tuple(sorted(out))


def parse_graph(text: str) -> Graph:
    """Parse the DIMACS-like format: ``p V E`` header then ``e u v`` lines."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ValueError(f"line {lineno}: duplicate problem line")
            if len(fields) != 3:
                raise ValueError(f"line {lineno}: expected 'p <vertices> <edges>'")
            try:
                header = (int(fields[1]), int(fields[2]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: invalid problem line {line!r}") from exc
        elif fields[0] == "e":
            if header is None:
                raise ValueError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise ValueError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: invalid edge {line!r}") from exc
            edges.append((min(u, v), max(u, v)))
        else:
            raise ValueError(f"line {lineno}: unknown record {fields[0]!r}")
    if header is None:
        raise ValueError("missing problem line 'p <vertices> <edges>'")
    vertices, count = header
    if len(edges) != count:
        raise ValueError(f"problem line promises {count} edges, found {len(edges)}")
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edge")
    return Graph(vertices, frozenset(edges))


def format_graph(graph: Graph) -> str:
    lines = [f"p {graph.vertices} {len(graph.edges)}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


def _deal(graph: Graph, junk_suit_base: int):
    """Deal the base reduction's cards; junk suit for player i is base + i."""
    v_count = graph.vertices
    hands: list[list[Card]] = [[] for _ in range(v_count)]
    objectives: list[Objective] = []
    for i in range(1, v_count + 1):
        nbrs = graph.neighbors(i)
        for value, j in enumerate(nbrs, start=1):
            hands[j - 1].append(Card(value, i))
        target = Card(len(nbrs) + 1, i)
        hands[i - 1].append(target)
        objectives.append(Objective(target, i))
        for value in range(1, v_count - len(nbrs)):
            hands[i - 1].append(Card(value, junk_suit_base + i))
    return hands, objectives


def _instance(hands: list[list[Card]], objectives: list[Objective], **extra) -> Instance:
    """The deal of ``hands``: one player per hand, with ``k`` and ``s`` the
    highest value and suit dealt."""
    cards = [card for hand in hands for card in hand]
    return Instance(
        players=len(hands),
        k=max(card.value for card in cards),
        s=max(card.suit for card in cards),
        hands=tuple(map(frozenset, hands)),
        objectives=tuple(objectives),
        **extra,
    )


def reduce_hp(graph: Graph) -> Instance:
    """Base reduction: winnable iff the graph has a Hamiltonian path."""
    return _instance(*_deal(graph, junk_suit_base=graph.vertices))


def reduce_hp_trump(graph: Graph, trump_count_per_player: int = 1) -> Instance:
    """Base reduction plus a trump suit dealt to every player except player 1.

    Trump values run 1, 2, ... consecutively across players 2..V in vertex
    order, ``trump_count_per_player`` cards each.  The extra trumps never
    help: spending one only steals a trick whose objective someone else
    still needs.
    """
    if graph.vertices < 2:
        raise ValueError("trump variant needs at least two vertices")
    if trump_count_per_player < 1:
        raise ValueError("trump_count_per_player must be >= 1")
    hands, objectives = _deal(graph, junk_suit_base=graph.vertices)
    trump = 2 * graph.vertices + 1
    value = 1
    for i in range(2, graph.vertices + 1):
        for _ in range(trump_count_per_player):
            hands[i - 1].append(Card(value, trump))
            value += 1
    return _instance(hands, objectives, trump_suit=trump)


def reduce_hp_tokens(graph: Graph) -> Instance:
    """Base reduction plus one extra player whose objective must finish last.

    Player ``q = V + 1`` holds the high card of a fresh suit ``q`` as their
    objective; every original player holds one low card of that suit, so the
    suit can only be led after some hand is otherwise empty.  A token orders
    the new objective after all others, and junk pads every hand to ``V+1``
    cards.  Junk suits sit above ``q`` to stay disjoint from it.
    """
    v_count = graph.vertices
    q = v_count + 1
    hands, objectives = _deal(graph, junk_suit_base=q)
    for i in range(1, v_count + 1):
        hands[i - 1].append(Card(i, q))
    last = [Card(q, q)]
    last.extend(Card(value, 2 * v_count + 2) for value in range(1, v_count + 1))
    hands.append(last)
    objectives.append(Objective(Card(q, q), q))
    token = TokenConstraint(
        objective=v_count, before=frozenset(range(v_count)), after=frozenset()
    )
    return _instance(hands, objectives, tokens=(token,))

