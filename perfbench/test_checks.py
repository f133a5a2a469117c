"""Tests of the benchmark's own checkers.  Run from the repository root::

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import itertools

import pytest

from checks import brute_force, has_hamiltonian_path, replay


def card(v, s):
    return {"v": v, "s": s}


def play(player, v, s):
    return {"player": player, "card": card(v, s)}


# Two players, no trump.  Player 1 must take (2,1), player 2 must take (1,2),
# and a token orders objective 0 no later than objective 1.
DEAL = {
    "players": 2, "k": 5, "s": 3, "trump_suit": None, "lead": None,
    "hands": [
        [card(5, 1), card(1, 2), card(4, 3)],
        [card(2, 1), card(3, 2), card(1, 3)],
    ],
    "objectives": [{"card": card(2, 1), "owner": 1}, {"card": card(1, 2), "owner": 2}],
    "tokens": [{"objective": 1, "before": [0], "after": []}],
}
LINE = {
    "lead": 1,
    "tricks": [
        [play(1, 5, 1), play(2, 2, 1)],
        [play(1, 1, 2), play(2, 3, 2)],
    ],
}


def mutated(edit):
    witness = copy.deepcopy(LINE)
    edit(witness)
    return witness


def test_winning_line_is_accepted():
    assert replay(DEAL, LINE) is None


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda w: w["tricks"][0].__setitem__(1, play(2, 3, 2)), "must follow suit"),
        (lambda w: w["tricks"][1].reverse(), "out of rotation"),
        (lambda w: w["tricks"][0].__setitem__(0, play(1, 9, 1)), "does not hold"),
        (lambda w: w["tricks"][1].__setitem__(0, play(1, 5, 1)), "does not hold"),
        (lambda w: w["tricks"].pop(), "objectives left open"),
        (lambda w: w["tricks"].append([play(2, 1, 3), play(1, 4, 3)]), "after the win"),
        (lambda w: w["tricks"][0].pop(), "1 plays for 2 players"),
    ],
)
def test_mutated_witness_is_rejected(edit, reason):
    assert reason in replay(DEAL, mutated(edit))


def test_token_order_is_enforced():
    # Objective 1 first, then objective 0: every trick is legal, the token is not.
    reversed_line = {
        "lead": 1,
        "tricks": [
            [play(1, 1, 2), play(2, 3, 2)],
            [play(2, 2, 1), play(1, 5, 1)],
        ],
    }
    assert replay(DEAL, reversed_line) == "token order violated"
    no_token = dict(DEAL, tokens=[])
    assert replay(no_token, reversed_line) is None


def test_fixed_first_lead_and_owner_capture():
    assert "instance fixes 2" in replay(dict(DEAL, lead=2), LINE)
    wrong_owner = dict(DEAL, objectives=[{"card": card(2, 1), "owner": 2}], tokens=[])
    assert "owner 2" in replay(wrong_owner, LINE)


# Player 2 is void in suit 1 and ruffs with the trump to take the objective.
TRUMP_DEAL = {
    "players": 2, "k": 5, "s": 3, "trump_suit": 3, "lead": 1,
    "hands": [[card(5, 1), card(1, 2)], [card(1, 3), card(2, 2)]],
    "objectives": [{"card": card(5, 1), "owner": 2}],
    "tokens": [],
}
RUFF = {"lead": 1, "tricks": [[play(1, 5, 1), play(2, 1, 3)]]}


def test_trump_wins_the_trick():
    assert replay(TRUMP_DEAL, RUFF) is None
    assert "taken by 1" in replay(dict(TRUMP_DEAL, trump_suit=None), RUFF)


def test_brute_force_on_small_deals():
    assert brute_force(DEAL)
    assert brute_force(TRUMP_DEAL)
    # The lowest card of the only suit can never win its owner a trick.
    hopeless = {
        "players": 2, "k": 4, "s": 1, "trump_suit": None, "lead": None,
        "hands": [[card(1, 1), card(3, 1)], [card(2, 1), card(4, 1)]],
        "objectives": [{"card": card(1, 1), "owner": 1}],
        "tokens": [],
    }
    assert not brute_force(hopeless)
    # Tokens that force two objectives of different owners into one trick.
    both_ways = [
        {"objective": 1, "before": [0], "after": []},
        {"objective": 0, "before": [1], "after": []},
    ]
    assert not brute_force(dict(DEAL, tokens=both_ways))


def path(n):
    return n, [(i, i + 1) for i in range(1, n)]


def cycle(n):
    return n, path(n)[1] + [(n, 1)]


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]


PETERSEN = (10, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
                 (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)])


@pytest.mark.parametrize(
    "graph, expected",
    [
        ((1, []), True),
        ((2, []), False),
        (path(7), True),
        (cycle(6), True),
        ((4, [(1, 2), (1, 3), (1, 4)]), False),  # star K1,3
        ((4, [(1, 2), (3, 4)]), False),  # two disjoint edges
        (complete_bipartite(2, 4), False),
        (complete_bipartite(3, 4), True),
        ((5, list(itertools.combinations(range(1, 6), 2))), True),  # K5
        (PETERSEN, True),  # Hamiltonian path, no Hamiltonian cycle
    ],
)
def test_held_karp_on_named_graphs(graph, expected):
    assert has_hamiltonian_path(*graph) is expected


def test_held_karp_matches_permutations_on_all_small_graphs():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
            expected = any(
                all((min(a, b), max(a, b)) in edges for a, b in zip(order, order[1:]))
                for order in itertools.permutations(range(1, n + 1))
            )
            assert has_hamiltonian_path(n, edges) is expected
