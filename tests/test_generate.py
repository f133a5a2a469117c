"""Generator tests: every parameter error, and the general generator's
fallback that drops the trump suit when too few other cards remain."""

from __future__ import annotations

import pytest

from crewsolver.generate import (
    GENERATORS,
    gen_general,
    gen_single_suit,
)


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize(
    "counts, message",
    [
        ((0, 2, 0), "need at least one card"),
        ((4, 0, 1), "need at least one player"),
        ((4, 2, -1), "objective count must be >= 0"),
        ((2, 2, 5), "cannot place 5 objectives on 2 cards"),
    ],
    ids=["cards", "players", "negative-objectives", "too-many-objectives"],
)
def test_counts_checked_by_every_generator(name, counts, message):
    with pytest.raises(ValueError) as info:
        GENERATORS[name](*counts, seed=0)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "generate, counts, message",
    [
        (gen_single_suit, (4, 1, 1), "single-suit generation needs >= 2 players"),
        (gen_single_suit, (4, 2, 0), "single-suit generation needs >= 1 objective"),
        (gen_general, (1, 1, 0), "general generation needs >= 2 cards (two suits)"),
    ],
    ids=["single-suit-players", "single-suit-objectives", "general-cards"],
)
def test_class_specific_counts(generate, counts, message):
    with pytest.raises(ValueError) as info:
        generate(*counts, seed=0)
    assert str(info.value) == message


def test_general_drops_trump_when_too_few_other_cards():
    # With as many objectives as cards every dealt card is an objective, so
    # a drawn trump suit holding a dealt card leaves too few candidates and
    # is dropped: seeds 3, 5, 6, 8, 11, 12 and 19 take that branch.
    for seed in range(20):
        deal = gen_general(3, 1, 3, seed)
        dealt = set().union(*deal.hands)
        assert len(deal.objectives) == 3
        assert deal.trump_suit is None or all(c.suit != deal.trump_suit for c in dealt)
