"""Rules-layer tests: instance validation, trick mechanics (including the
replay oracle in ``trick_replay``), and the oracle's whole-record token
checks."""

from __future__ import annotations

import pytest

from crewsolver.model import (
    Card,
    Instance,
    InstanceClass,
    InstanceError,
    Objective,
    Play,
    PlayError,
    TokenConstraint,
    Trick,
    classify,
    rotation,
    trick_winner,
)
from trick_replay import (
    HAND_EMPTY,
    MISROUTED,
    WON,
    apply_trick,
    check_tokens,
    initial_state,
    legal_plays,
    tokens_violated,
)


def _two_hands(a, b, **kw) -> Instance:
    hands = (frozenset(Card(*c) for c in a), frozenset(Card(*c) for c in b))
    k = max(c.value for h in hands for c in h)
    s = max(c.suit for h in hands for c in h)
    return Instance(players=2, k=k, s=s, hands=hands, **kw)


class TestInstanceValidation:
    def test_minimal_instance(self):
        inst = _two_hands([(1, 1)], [(2, 1)])
        assert inst.n == 2

    def test_uneven_hands_allowed(self, uneven_deal):
        assert sorted(len(h) for h in uneven_deal.hands) == [3, 4, 4, 5]

    def test_duplicate_card_rejected(self):
        with pytest.raises(InstanceError, match="duplicate card"):
            _two_hands([(1, 1)], [(1, 1)])

    def test_hand_count_mismatch(self):
        with pytest.raises(InstanceError, match="expected 2 hands"):
            Instance(players=2, k=1, s=1, hands=(frozenset({Card(1, 1)}),))

    def test_value_and_suit_ranges(self):
        with pytest.raises(InstanceError, match="value out of range"):
            Instance(players=1, k=1, s=1, hands=(frozenset({Card(2, 1)}),))
        with pytest.raises(InstanceError, match="suit out of range"):
            Instance(players=1, k=1, s=1, hands=(frozenset({Card(1, 2)}),))

    def test_unused_value_and_suit_indices_are_fine(self):
        inst = Instance(players=1, k=9, s=9, hands=(frozenset({Card(1, 1)}),))
        assert inst.k == 9

    def test_objective_must_be_dealt(self):
        with pytest.raises(InstanceError, match="not in any hand"):
            _two_hands([(1, 1)], [(2, 1)], objectives=(Objective(Card(3, 1), 1),))

    def test_objective_owner_range(self):
        with pytest.raises(InstanceError, match="owner out of range"):
            _two_hands([(1, 1)], [(2, 1)], objectives=(Objective(Card(1, 1), 3),))

    def test_duplicate_objective_card(self):
        objs = (Objective(Card(1, 1), 1), Objective(Card(1, 1), 2))
        with pytest.raises(InstanceError, match="duplicate objective"):
            _two_hands([(1, 1)], [(2, 1)], objectives=objs)

    def test_trump_validation(self):
        with pytest.raises(InstanceError, match="trump suit out of range"):
            _two_hands([(1, 1)], [(2, 1)], trump_suit=2)
        with pytest.raises(InstanceError, match="lies in the trump suit"):
            _two_hands(
                [(1, 1)],
                [(2, 1)],
                objectives=(Objective(Card(1, 1), 1),),
                trump_suit=1,
            )

    def test_players_at_least_one(self):
        with pytest.raises(InstanceError, match="^players must be >= 1$"):
            Instance(players=0, k=1, s=1, hands=())

    @pytest.mark.parametrize("bounds", [{"k": 0, "s": 1}, {"k": 1, "s": 0}], ids=["k", "s"])
    def test_value_and_suit_bounds_at_least_one(self, bounds):
        with pytest.raises(
            InstanceError, match="^value bound k and suit bound s must be >= 1$"
        ):
            Instance(players=1, hands=(frozenset(),), **bounds)

    def test_first_lead_range(self):
        with pytest.raises(InstanceError, match="first lead out of range"):
            _two_hands([(1, 1)], [(2, 1)], first_lead=5)

    @pytest.mark.parametrize("bad", [True, 1.0])
    @pytest.mark.parametrize("field", ["players", "k", "s", "trump_suit", "first_lead"])
    def test_scalar_fields_must_be_int(self, field, bad):
        fields = {"players": 1, "k": 1, "s": 1, "hands": (frozenset({Card(1, 1)}),)}
        with pytest.raises(InstanceError, match=f"{field} must be an integer"):
            Instance(**{**fields, field: bad})

    @pytest.mark.parametrize("bad", [True, 1.0])
    @pytest.mark.parametrize("field", ["objective", "before", "after"])
    def test_token_indices_must_be_int(self, field, bad):
        objs = (Objective(Card(1, 1), 1), Objective(Card(2, 1), 2))
        if field == "objective":
            token = TokenConstraint(bad, before=frozenset({0}))
        else:
            token = TokenConstraint(0, **{field: frozenset({bad})})
        with pytest.raises(InstanceError, match="index must be an integer"):
            _two_hands([(1, 1)], [(2, 1)], objectives=objs, tokens=(token,))

    def test_token_validation(self):
        objs = (Objective(Card(1, 1), 1), Objective(Card(2, 1), 2))
        with pytest.raises(InstanceError, match="references objective"):
            _two_hands(
                [(1, 1)],
                [(2, 1)],
                objectives=objs,
                tokens=(TokenConstraint(0, before=frozenset({7})),),
            )
        with pytest.raises(InstanceError, match="its own objective"):
            _two_hands(
                [(1, 1)],
                [(2, 1)],
                objectives=objs,
                tokens=(TokenConstraint(0, before=frozenset({0})),),
            )
        with pytest.raises(InstanceError, match="overlap"):
            _two_hands(
                [(1, 1)],
                [(2, 1)],
                objectives=objs,
                tokens=(
                    TokenConstraint(
                        0, before=frozenset({1}), after=frozenset({1})
                    ),
                ),
            )

    def test_holder_map(self, uneven_deal):
        holders = uneven_deal.holder_map()
        assert holders[Card(3, 1)] == 2
        assert holders[Card(7, 3)] == 4
        assert len(holders) == uneven_deal.n


class TestTrickMechanics:
    def test_rotation(self):
        assert list(rotation(3, 4)) == [3, 4, 1, 2]
        assert list(rotation(1, 1)) == [1]

    def test_trick_rotation_enforced(self):
        plays = (Play(1, Card(1, 1)), Play(3, Card(2, 1)))
        with pytest.raises(PlayError, match="rotation"):
            Trick(lead=1, plays=plays)
        with pytest.raises(PlayError, match="no plays"):
            Trick(lead=1, plays=())

    def test_trick_winner_led_suit(self, trick_builder):
        trick = trick_builder(1, [(3, 1), (9, 2), (5, 1)])
        assert trick_winner(trick, None) == 3

    def test_trick_winner_trump(self, trick_builder):
        trick = trick_builder(1, [(9, 1), (1, 2), (2, 2)])
        assert trick_winner(trick, None) == 1
        assert trick_winner(trick, 2) == 3

    def test_legal_plays_follow_suit(self, uneven_deal):
        state = initial_state(uneven_deal)
        assert legal_plays(state, 1, None) == uneven_deal.hands[0]
        follows = legal_plays(state, 2, Card(2, 1))
        assert follows == frozenset({Card(3, 1)})
        void = legal_plays(state, 3, Card(2, 1))
        assert void == uneven_deal.hands[2]

    def test_apply_trick_moves_cards_and_lead(self, uneven_deal, trick_builder):
        state = initial_state(uneven_deal)
        nxt = apply_trick(state, trick_builder(1, [(4, 1), (3, 1), (5, 2), (1, 1)]))
        assert nxt.tricks_played == 1
        assert nxt.lead == 1
        assert Card(4, 1) not in nxt.hands[0]
        assert nxt.completed == (0, None)
        assert nxt.outcome is None

    def test_apply_trick_rejects_bad_structure(self, uneven_deal, trick_builder):
        state = initial_state(uneven_deal)
        with pytest.raises(PlayError, match="expected 1"):
            apply_trick(state, trick_builder(2, [(4, 2), (5, 2), (2, 2), (2, 1)]))
        with pytest.raises(PlayError, match="does not hold"):
            apply_trick(state, trick_builder(1, [(4, 1), (7, 3), (5, 2), (1, 1)]))
        with pytest.raises(PlayError, match="must follow suit"):
            apply_trick(state, trick_builder(1, [(4, 1), (1, 3), (5, 2), (1, 1)]))
        short = Trick(lead=1, plays=(Play(1, Card(4, 1)),))
        with pytest.raises(PlayError, match="1 plays for 4 players"):
            apply_trick(state, short)

    def test_win_and_game_over(self, uneven_deal, uneven_deal_win):
        state = initial_state(uneven_deal)
        for trick in uneven_deal_win.tricks:
            state = apply_trick(state, trick)
        assert state.outcome == WON
        assert state.completed == (0, 1)
        with pytest.raises(PlayError, match="game is over"):
            apply_trick(state, uneven_deal_win.tricks[0])

    def test_misroute_loss(self, uneven_deal, trick_builder):
        state = initial_state(uneven_deal)
        # Player 2 wins the trick holding player 1's objective card (3,1).
        trick = trick_builder(1, [(2, 1), (3, 1), (5, 2), (1, 1)])
        after = apply_trick(state, trick)
        assert after.outcome == MISROUTED

    def test_hand_empty_loss(self):
        inst = _two_hands(
            [(1, 1), (2, 1)],
            [(3, 1)],
            objectives=(Objective(Card(1, 1), 1),),
        )
        state = initial_state(inst)
        trick = Trick(lead=1, plays=(Play(1, Card(2, 1)), Play(2, Card(3, 1))))
        after = apply_trick(state, trick)
        assert after.outcome == HAND_EMPTY

    def test_initial_state_degenerate(self):
        no_objs = _two_hands([(1, 1)], [(2, 1)])
        assert initial_state(no_objs).outcome == WON
        empty_hand = Instance(
            players=2,
            k=1,
            s=1,
            hands=(frozenset({Card(1, 1)}), frozenset()),
            objectives=(Objective(Card(1, 1), 1),),
        )
        assert initial_state(empty_hand).outcome == HAND_EMPTY


class TestTokens:
    def test_check_tokens_ordering(self):
        tokens = (TokenConstraint(1, before=frozenset({0})),)
        assert check_tokens((0, 1), tokens)
        assert check_tokens((1, 1), tokens)  # same trick is fine
        assert not check_tokens((1, 0), tokens)
        assert not check_tokens((None, 0), tokens)  # before-objective open

    def test_check_tokens_after(self):
        tokens = (TokenConstraint(0, after=frozenset({1})),)
        assert check_tokens((0, 1), tokens)
        assert not check_tokens((1, 0), tokens)

    def test_same_trick_cycle(self):
        # 0 strictly before 1 and 1 strictly before 0 cannot share a trick.
        tokens = (
            TokenConstraint(0, after=frozenset({1})),
            TokenConstraint(1, after=frozenset({0})),
        )
        assert not check_tokens((2, 2), tokens)
        assert tokens_violated((2, 2), tokens)
        # One-directional sharing is consistent.
        one_way = (TokenConstraint(0, after=frozenset({1})),)
        assert check_tokens((2, 2), one_way)

    def test_tokens_violated_is_irrecoverable_only(self):
        tokens = (TokenConstraint(1, before=frozenset({0})),)
        # Objective 1 not yet complete: still winnable.
        assert not tokens_violated((None, None), tokens)
        assert not tokens_violated((0, None), tokens)
        # Objective 1 complete while its before-objective is open: dead.
        assert tokens_violated((None, 0), tokens)
        assert tokens_violated((1, 0), tokens)

    def test_tokens_violated_monotone_on_completions(self):
        tokens = (
            TokenConstraint(1, before=frozenset({0})),
            TokenConstraint(2, after=frozenset({1})),
        )
        record = (None, 0, None)
        assert tokens_violated(record, tokens)
        # Completing more objectives later can never repair the violation.
        for later in [(1, 0, None), (1, 0, 2), (None, 0, 5)]:
            assert tokens_violated(later, tokens)

    def test_final_agreement(self):
        tokens = (TokenConstraint(1, before=frozenset({0})),)
        for record in [(0, 1), (1, 0), (1, 1), (3, 2)]:
            assert tokens_violated(record, tokens) == (
                not check_tokens(record, tokens)
            )


class TestClassify:
    def test_single_value(self):
        inst = _two_hands([(1, 1), (1, 2)], [(1, 3)])
        assert classify(inst) is InstanceClass.SINGLE_VALUE

    def test_all_ones_single_suit_is_single_value(self):
        inst = _two_hands([(1, 1)], [])
        assert classify(inst) is InstanceClass.SINGLE_VALUE

    def test_single_suit_owned(self):
        inst = _two_hands(
            [(1, 1), (3, 1)],
            [(2, 1)],
            objectives=(Objective(Card(3, 1), 1),),
        )
        assert classify(inst) is InstanceClass.SINGLE_SUIT_OWNED

    def test_single_suit_external_objective(self):
        inst = _two_hands(
            [(1, 1), (3, 1)],
            [(2, 1)],
            objectives=(Objective(Card(2, 1), 1),),
        )
        assert classify(inst) is InstanceClass.SINGLE_SUIT

    def test_general(self, uneven_deal):
        assert classify(uneven_deal) is InstanceClass.GENERAL

    def test_tokens_or_trump_force_general(self):
        objs = (Objective(Card(3, 1), 1), Objective(Card(2, 1), 2))
        with_token = _two_hands(
            [(1, 1), (3, 1)],
            [(2, 1)],
            objectives=objs,
            tokens=(TokenConstraint(0, before=frozenset({1})),),
        )
        assert classify(with_token) is InstanceClass.GENERAL
        with_trump = _two_hands([(1, 1), (1, 2)], [(1, 3)], trump_suit=2)
        assert classify(with_trump) is InstanceClass.GENERAL
