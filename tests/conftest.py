"""Shared fixtures: a hand-checkable four-player deal and its winning line.

The deal has uneven hands (4/4/3/5 cards), two objectives and a fixed
opening leader, and is small enough to replay by hand; several suites
mutate its known two-trick win to probe the verifier and the kernels.
"""

from __future__ import annotations

import pytest

from crewsolver.model import Card, Instance, Objective, Play, Trick
from crewsolver.verify import PlaySequence

_ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _no_ambient_budget(monkeypatch):
    """A CREW_BUDGET left in the environment would truncate the in-process
    ``crew solve`` runs of the CLI tests; the library never reads it."""
    monkeypatch.delenv("CREW_BUDGET", raising=False)


@pytest.fixture(scope="session")
def acceptance_report():
    """Record and print one PASS/FAIL line per acceptance criterion."""

    def _report(num: int, ok: bool, text: str) -> None:
        line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return _report


def _trick(lead: int, cards: list[tuple[int, int]]) -> Trick:
    players = len(cards)
    plays = tuple(
        Play(((lead - 1 + seat) % players) + 1, Card(*c))
        for seat, c in enumerate(cards)
    )
    return Trick(lead=lead, plays=plays)


@pytest.fixture
def trick_builder():
    return _trick


@pytest.fixture
def uneven_deal() -> Instance:
    return Instance(
        players=4,
        k=7,
        s=3,
        hands=(
            frozenset({Card(2, 1), Card(4, 1), Card(1, 2), Card(3, 2)}),
            frozenset({Card(3, 1), Card(4, 2), Card(1, 3), Card(2, 3)}),
            frozenset({Card(5, 2), Card(3, 3), Card(4, 3)}),
            frozenset({Card(1, 1), Card(2, 2), Card(5, 3), Card(6, 3), Card(7, 3)}),
        ),
        objectives=(
            Objective(Card(3, 1), 1),
            Objective(Card(4, 2), 2),
        ),
        first_lead=1,
    )


@pytest.fixture
def uneven_deal_win() -> PlaySequence:
    """A two-trick win: player 1 takes their objective under their own high
    card, then player 2 overtakes the second trick with theirs."""
    tricks = (
        _trick(1, [(4, 1), (3, 1), (5, 2), (1, 1)]),
        _trick(1, [(3, 2), (4, 2), (4, 3), (2, 2)]),
    )
    return PlaySequence(first_lead=1, tricks=tricks)
