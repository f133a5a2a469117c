"""Property-based tests: rules invariants, solver/oracle agreement,
relabeling invariance, serialization round-trips and canonical bytes,
token-order semantics."""

from __future__ import annotations

import dataclasses
import itertools
import json

from hypothesis import given, settings, strategies as st

from crewsolver.model import (
    Card,
    Instance,
    Objective,
    TokenConstraint,
    rotation,
    trick_winner,
)
from crewsolver.model import Play, Trick
from crewsolver.generate import (
    gen_general,
    gen_graph,
    gen_single_suit,
    gen_single_value,
    gen_ss_owned,
)
from crewsolver.reduction import reduce_hp, reduce_hp_tokens, reduce_hp_trump
from crewsolver.serialize import (
    dumps_instance,
    dumps_witness,
    loads_instance,
    loads_witness,
)
from crewsolver.solvers import solve, solve_exhaustive
from crewsolver.verify import PlaySequence, Reason, _tokens_broken, verify_sequence
from trick_replay import (
    HAND_EMPTY,
    MISROUTED,
    TOKEN_ORDER,
    WON,
    _same_trick_consistent,
    apply_trick,
    check_tokens,
    initial_state,
    legal_plays,
    tokens_violated,
)


def _token(draw, idx: int, count: int, max_after: int) -> TokenConstraint:
    """A token on objective ``idx`` of ``count``: up to two ``before`` and
    up to ``max_after`` disjoint ``after`` objectives."""
    rest = [i for i in range(count) if i != idx]
    before = frozenset(draw(st.sets(st.sampled_from(rest), max_size=2)))
    leftover = [i for i in rest if i not in before]
    after = frozenset(
        draw(st.sets(st.sampled_from(leftover), max_size=max_after))
    ) if leftover else frozenset()
    return TokenConstraint(idx, before=before, after=after)


@st.composite
def deals(draw, max_players=3, max_cards=9, tokens_ok=True, trump_ok=True):
    players = draw(st.integers(1, max_players))
    k = draw(st.integers(1, 5))
    s = draw(st.integers(1, 3))
    pool = [Card(v, su) for v in range(1, k + 1) for su in range(1, s + 1)]
    hi = min(len(pool), max_cards)
    n = draw(st.integers(min(players, hi), hi))
    cards = draw(
        st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True)
    )
    owners = draw(
        st.lists(st.integers(1, players), min_size=n, max_size=n)
    )
    hands = [set() for _ in range(players)]
    for card, owner in zip(cards, owners):
        hands[owner - 1].add(card)

    trump = None
    if trump_ok and s > 1 and draw(st.booleans()):
        trump = draw(st.integers(1, s))
    candidates = [c for c in cards if trump is None or c.suit != trump]
    l = draw(st.integers(0, min(3, len(candidates))))
    targets = draw(
        st.lists(st.sampled_from(candidates), min_size=l, max_size=l, unique=True)
    ) if candidates else []
    objectives = tuple(
        Objective(card, draw(st.integers(1, players))) for card in targets
    )

    tokens = ()
    if tokens_ok and len(objectives) >= 2 and draw(st.booleans()):
        # Two tokens can close a same-trick cycle; one never can.
        constrained = draw(
            st.lists(
                st.integers(0, len(objectives) - 1),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
        tokens = tuple(_token(draw, idx, len(objectives), 1) for idx in constrained)

    lead = draw(st.one_of(st.none(), st.integers(1, players)))
    return Instance(
        players=players,
        k=k,
        s=s,
        hands=tuple(frozenset(h) for h in hands),
        objectives=objectives,
        tokens=tokens,
        trump_suit=trump,
        first_lead=lead,
    )


@st.composite
def single_suit_deals(draw):
    players = draw(st.integers(2, 3))
    n = draw(st.integers(players, 8))
    values = draw(
        st.lists(st.integers(1, 12), min_size=n, max_size=n, unique=True)
    )
    owners = draw(st.lists(st.integers(1, players), min_size=n, max_size=n))
    hands = [set() for _ in range(players)]
    for v, owner in zip(values, owners):
        hands[owner - 1].add(Card(v, 1))
    l = draw(st.integers(1, min(3, n)))
    targets = draw(
        st.lists(st.sampled_from(values), min_size=l, max_size=l, unique=True)
    )
    objectives = tuple(
        Objective(Card(v, 1), draw(st.integers(1, players))) for v in targets
    )
    return Instance(
        players=players,
        k=max(values),
        s=1,
        hands=tuple(frozenset(h) for h in hands),
        objectives=objectives,
    )


@given(deals(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_random_playout_preserves_invariants(inst, rnd):
    state = initial_state(inst)
    seen_completed = list(state.completed)
    while state.outcome is None:
        lead = state.lead or rnd.choice(range(1, inst.players + 1))
        plays = []
        led_card = None
        for player in rotation(lead, inst.players):
            choice = rnd.choice(sorted(legal_plays(state, player, led_card)))
            if led_card is None:
                led_card = choice
            plays.append(Play(player, choice))
        trick = Trick(lead=lead, plays=tuple(plays))
        winner = trick_winner(trick, inst.trump_suit)
        assert 1 <= winner <= inst.players
        before_total = sum(len(h) for h in state.hands)
        state = apply_trick(state, trick)
        assert sum(len(h) for h in state.hands) == before_total - inst.players
        assert state.lead == winner
        for idx, t in enumerate(state.completed):
            if seen_completed[idx] is not None:
                assert t == seen_completed[idx]  # completions never undo
        seen_completed = list(state.completed)
    assert state.outcome in (WON, MISROUTED, TOKEN_ORDER, HAND_EMPTY)


@given(deals(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_verifier_agrees_with_trick_replay(inst, rnd):
    """The verifier's own replay must reach the same verdict as chaining
    the test-side apply_trick over the identical line."""
    state = initial_state(inst)
    tricks = []
    while state.outcome is None:
        lead = state.lead or rnd.choice(range(1, inst.players + 1))
        plays = []
        led_card = None
        for player in rotation(lead, inst.players):
            choice = rnd.choice(sorted(legal_plays(state, player, led_card)))
            if led_card is None:
                led_card = choice
            plays.append(Play(player, choice))
        trick = Trick(lead=lead, plays=tuple(plays))
        tricks.append(trick)
        state = apply_trick(state, trick)
    if not tricks:
        return  # already decided before any trick: nothing to replay
    verdict = verify_sequence(
        inst, PlaySequence(first_lead=tricks[0].lead, tricks=tuple(tricks))
    )
    if state.outcome == WON:
        assert verdict.accepted
    else:
        expected = {
            MISROUTED: Reason.OBJECTIVE_MISROUTED,
            TOKEN_ORDER: Reason.TOKEN_ORDER_VIOLATED,
            HAND_EMPTY: Reason.HAND_EMPTY_EARLY,
        }[state.outcome]
        assert not verdict.accepted
        assert verdict.reason is expected
        assert verdict.trick_index == len(tricks) - 1
        assert verdict.detail == f"loss: {state.outcome}"


@given(deals(max_players=3, max_cards=8))
@settings(deadline=None, max_examples=60)
def test_exhaustive_witnesses_verify(inst):
    report = solve_exhaustive(inst, budget=200_000)
    if report.decision:
        assert verify_sequence(inst, report.witness).accepted
    else:
        assert report.witness is None


@given(single_suit_deals())
@settings(deadline=None, max_examples=80)
def test_single_suit_solver_matches_oracle(inst):
    report = solve(inst, force="single-suit")
    oracle = solve_exhaustive(inst, budget=0).decision
    assert report.decision is oracle
    if report.decision:
        assert verify_sequence(inst, report.witness).accepted
        assert len(report.witness.tricks) <= len(inst.objectives)


def permute_suits(inst: Instance, perm: dict[int, int]) -> Instance:
    def remap(card: Card) -> Card:
        return Card(card.value, perm[card.suit])

    return dataclasses.replace(
        inst,
        hands=tuple(frozenset(remap(c) for c in h) for h in inst.hands),
        objectives=tuple(
            Objective(remap(o.card), o.owner) for o in inst.objectives
        ),
        trump_suit=None if inst.trump_suit is None else perm[inst.trump_suit],
    )


def remap_values(inst: Instance, gaps: list[int]) -> Instance:
    mapping = {}
    total = 0
    for v in range(1, inst.k + 1):
        total += gaps[v - 1]
        mapping[v] = total

    def remap(card: Card) -> Card:
        return Card(mapping[card.value], card.suit)

    return dataclasses.replace(
        inst,
        k=total,
        hands=tuple(frozenset(remap(c) for c in h) for h in inst.hands),
        objectives=tuple(
            Objective(remap(o.card), o.owner) for o in inst.objectives
        ),
    )


@given(deals(max_cards=8), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=60)
def test_suit_permutation_invariance(inst, rnd):
    suits = list(range(1, inst.s + 1))
    shuffled = suits[:]
    rnd.shuffle(shuffled)
    mapped = permute_suits(inst, dict(zip(suits, shuffled)))
    decisions = [solve_exhaustive(d, budget=0).decision for d in (inst, mapped)]
    assert decisions[0] == decisions[1]


@given(deals(max_cards=8), st.data())
@settings(deadline=None, max_examples=60)
def test_value_remap_invariance(inst, data):
    gaps = data.draw(
        st.lists(st.integers(1, 3), min_size=inst.k, max_size=inst.k)
    )
    mapped = remap_values(inst, gaps)
    decisions = [solve_exhaustive(d, budget=0).decision for d in (inst, mapped)]
    assert decisions[0] == decisions[1]


@given(deals())
def test_instance_serialization_round_trip(inst):
    assert loads_instance(dumps_instance(inst)) == inst


@given(deals(max_cards=8))
@settings(deadline=None, max_examples=60)
def test_witness_serialization_round_trip(inst):
    witness = solve_exhaustive(inst, budget=200_000).witness
    if witness is not None and witness.tricks:
        text = dumps_witness(witness)
        assert loads_witness(text) == witness


# The dict forms whose ``json.dumps(indent=2) + "\n"`` is the canonical
# document: the specification the template emitters must match byte for byte.


def _card_to_dict(card: Card) -> dict:
    return {"v": card.value, "s": card.suit}


def instance_to_dict(instance: Instance, meta=None) -> dict:
    doc = {
        "players": instance.players,
        "k": instance.k,
        "s": instance.s,
        "trump_suit": instance.trump_suit,
        "lead": instance.first_lead,
        "hands": [
            [_card_to_dict(c) for c in sorted(hand, key=lambda c: (c.suit, c.value))]
            for hand in instance.hands
        ],
        "objectives": [
            {"card": _card_to_dict(o.card), "owner": o.owner}
            for o in instance.objectives
        ],
        "tokens": [
            {
                "objective": t.objective,
                "before": sorted(t.before),
                "after": sorted(t.after),
            }
            for t in instance.tokens
        ],
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def witness_to_dict(sequence: PlaySequence) -> dict:
    return {
        "lead": sequence.first_lead,
        "tricks": [
            [
                {"player": play.player, "card": _card_to_dict(play.card)}
                for play in trick.plays
            ]
            for trick in sequence.tricks
        ],
    }


def _assert_canonical_instance(inst: Instance, meta=None) -> None:
    expected = json.dumps(instance_to_dict(inst, meta), indent=2) + "\n"
    assert dumps_instance(inst, meta) == expected


def _assert_canonical_witness(seq: PlaySequence) -> None:
    assert dumps_witness(seq) == json.dumps(witness_to_dict(seq), indent=2) + "\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
metas = st.none() | st.dictionaries(st.text(), json_values, max_size=4)


@st.composite
def play_sequences(draw):
    """Rotation-ordered tricks of arbitrary integer cards (legality aside)."""
    players = draw(st.integers(1, 4))
    ints = st.integers(-(10**12), 10**12)
    tricks = []
    for _ in range(draw(st.integers(0, 4))):
        lead = draw(st.integers(1, players))
        plays = tuple(
            Play(q, Card(draw(ints), draw(ints))) for q in rotation(lead, players)
        )
        tricks.append(Trick(lead=lead, plays=plays))
    first = tricks[0].lead if tricks else draw(st.integers(1, players))
    return PlaySequence(first_lead=first, tricks=tuple(tricks))


@given(deals(), metas)
@settings(deadline=None, max_examples=150)
def test_dumps_instance_is_canonical_json(inst, meta):
    _assert_canonical_instance(inst, meta)


@given(play_sequences())
@settings(deadline=None, max_examples=150)
def test_dumps_witness_is_canonical_json(seq):
    _assert_canonical_witness(seq)


@given(deals(max_cards=8))
@settings(deadline=None, max_examples=60)
def test_solver_witness_is_canonical_json(inst):
    report = solve(inst, budget=200_000)
    if report.witness is not None:
        _assert_canonical_witness(report.witness)


def test_canonical_json_on_generated_and_reduced(uneven_deal, uneven_deal_win):
    """The fixtures, every generator and every reduction, with the meta
    blocks ``crew gen`` and ``crew reduce`` write, and their solver lines."""
    _assert_canonical_instance(uneven_deal)
    _assert_canonical_witness(uneven_deal_win)
    _assert_canonical_witness(PlaySequence(first_lead=2))
    generators = (gen_single_value, gen_ss_owned, gen_single_suit, gen_general)
    insts = [gen(40, 4, 4, seed) for seed in range(3) for gen in generators]
    graph = gen_graph(4, 0.6, 1)
    insts += [reduce_hp(graph), reduce_hp_trump(graph, 1), reduce_hp_tokens(graph)]
    meta = {"generator": "ss-owned", "seed": 0, "params": {"n": 40, "players": 4}}
    for inst in insts:
        _assert_canonical_instance(inst)
        _assert_canonical_instance(inst, meta)
        report = solve(inst, budget=20_000)
        if report.witness is not None:
            _assert_canonical_witness(report.witness)


@st.composite
def trick_groups(draw):
    """A completion record plus tokens among objectives sharing tricks."""
    l = draw(st.integers(2, 4))
    record = tuple(draw(st.integers(0, 2)) for _ in range(l))
    tokens = tuple(_token(draw, idx, l, 2) for idx in range(l) if draw(st.booleans()))
    return record, tokens


def _consistent_by_enumeration(record, tokens) -> bool:
    groups: dict[int, list[int]] = {}
    for idx, trick in enumerate(record):
        groups.setdefault(trick, []).append(idx)
    for members in groups.values():
        edges = []
        member_set = set(members)
        for tok in tokens:
            if tok.objective in member_set:
                edges.extend((b, tok.objective) for b in tok.before & member_set)
                edges.extend((tok.objective, a) for a in tok.after & member_set)
        ok = any(
            all(order.index(a) < order.index(b) for a, b in edges)
            for order in itertools.permutations(members)
        )
        if not ok:
            return False
    return True


@given(trick_groups())
def test_same_trick_consistency_matches_enumeration(group):
    record, tokens = group
    assert _same_trick_consistent(record, tokens) == _consistent_by_enumeration(
        record, tokens
    )


@st.composite
def token_records(draw):
    """Tokens among up to four objectives, and the trick each objective
    completes in (None: never) over a few tricks; same-trick cycles
    included."""
    l = draw(st.integers(2, 4))
    tricks = draw(st.integers(1, 4))
    record = tuple(
        draw(st.none() | st.integers(0, tricks - 1)) for _ in range(l)
    )
    constrained = draw(st.lists(st.integers(0, l - 1), max_size=3, unique=True))
    return tricks, record, tuple(_token(draw, idx, l, 2) for idx in constrained)


@given(token_records())
@settings(max_examples=400)
def test_per_trick_token_rule_matches_whole_record(case):
    """The verifier's per-trick test, OR-ed over the tricks so far, fires
    exactly when the oracle's whole-record check finds the prefix lost."""
    tricks, record, tokens = case
    done: set[int] = set()
    broken = False
    assert not tokens_violated((None,) * len(record), tokens)
    for t in range(tricks):
        new = {idx for idx, when in enumerate(record) if when == t}
        broken = broken or _tokens_broken(tokens, done, new)
        done |= new
        prefix = tuple(None if when is None or when > t else when for when in record)
        assert broken == tokens_violated(prefix, tokens)
    if None not in record:
        assert broken == (not check_tokens(record, tokens))
