"""Generator tests: the bytes each generator writes, every parameter error,
and the general generator's fallback that drops the trump suit when too few
other cards remain."""

from __future__ import annotations

import hashlib

import pytest

from crewsolver.generate import (
    GENERATORS,
    gen_general,
    gen_single_suit,
)
from crewsolver.serialize import dumps_instance

# (cards, players, objectives): valid for every generator, from a two-card
# deal to one with tokens, trumps and an opening leader in most seeds.
PINNED_SHAPES = ((2, 2, 1), (7, 2, 2), (12, 3, 4), (20, 4, 6), (33, 5, 9))
PINNED_SEEDS = range(20)
PINNED_DIGESTS = {
    "general": "03a2051519216c1280ac7d6ab4b2ca8603b9856b15302239b47b5da9f2576d4f",
    "single-suit": "e83e6f1ebd90afa0fd20b07d494d18ee93cc35dad390ec81783bd7f09acda450",
    "single-value": "2e71e0163eb6a459aff082fffedfc279ac24d01af377866034317e1ab6c1f4d0",
    "ss-owned": "cb32cd3d42b0071160206d875c0bfb68d33ef44b4d87936fc0e70d6fa3d36393",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_generated_documents_pinned(name):
    # The perfbench tables and workloads, the parity corpus and the CLI
    # tests are all built from these bytes, so every draw from the seeded
    # RNG, the opening leader's included, keeps its place.
    h = hashlib.sha256()
    for shape in PINNED_SHAPES:
        for seed in PINNED_SEEDS:
            h.update(dumps_instance(GENERATORS[name](*shape, seed)).encode())
    assert h.hexdigest() == PINNED_DIGESTS[name]


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
