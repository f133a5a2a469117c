"""Serialization tests: round-trips, canonical output, malformed documents."""

from __future__ import annotations

import json

import pytest

from crewsolver.model import (
    Card,
    Instance,
    InstanceError,
    Objective,
    Play,
    TokenConstraint,
    Trick,
)
from crewsolver.serialize import (
    FormatError,
    dumps_instance,
    dumps_witness,
    loads_instance,
    loads_witness,
)
from crewsolver.verify import PlaySequence


@pytest.fixture
def rich_instance(uneven_deal):
    import dataclasses

    return dataclasses.replace(
        uneven_deal,
        tokens=(TokenConstraint(1, before=frozenset({0})),),
    )


class TestInstanceRoundTrip:
    def test_round_trip(self, rich_instance):
        assert loads_instance(dumps_instance(rich_instance)) == rich_instance

    def test_canonical_bytes(self, rich_instance):
        once = dumps_instance(rich_instance)
        again = dumps_instance(loads_instance(once))
        assert once == again
        assert once.endswith("\n")

    def test_hand_order_is_canonical(self):
        cards = [Card(3, 1), Card(1, 2), Card(2, 1)]
        a = Instance(
            players=1, k=3, s=2, hands=(frozenset(cards),)
        )
        b = Instance(
            players=1, k=3, s=2, hands=(frozenset(reversed(cards)),)
        )
        assert dumps_instance(a) == dumps_instance(b)
        doc = json.loads(dumps_instance(a))
        assert doc["hands"][0] == [
            {"v": 2, "s": 1},
            {"v": 3, "s": 1},
            {"v": 1, "s": 2},
        ]

    def test_meta_round_trip(self, rich_instance):
        meta = {"generator": "demo", "seed": 7}
        text = dumps_instance(rich_instance, meta=meta)
        assert json.loads(text)["meta"] == meta
        assert loads_instance(text) == rich_instance
        assert "meta" not in json.loads(dumps_instance(rich_instance))

    def test_optional_fields_null(self):
        inst = Instance(players=1, k=1, s=1, hands=(frozenset({Card(1, 1)}),))
        doc = json.loads(dumps_instance(inst))
        assert doc["trump_suit"] is None and doc["lead"] is None
        assert loads_instance(dumps_instance(inst)) == inst


class TestInstanceErrors:
    def _load(self, doc):
        return loads_instance(json.dumps(doc))

    def _base_doc(self):
        return {
            "players": 1,
            "k": 1,
            "s": 1,
            "hands": [[{"v": 1, "s": 1}]],
            "objectives": [],
        }

    def test_not_json(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            loads_instance("{nope")

    def test_deep_nesting(self):
        deep = "[" * 100_000
        with pytest.raises(FormatError, match="invalid JSON"):
            loads_instance(deep)
        with pytest.raises(FormatError, match="invalid JSON"):
            loads_witness(deep)

    def test_not_object(self):
        with pytest.raises(FormatError, match="JSON object"):
            self._load([1, 2])

    def test_missing_field(self):
        doc = self._base_doc()
        del doc["hands"]
        with pytest.raises(FormatError, match="missing field 'hands'"):
            self._load(doc)

    def test_hands_not_nested_lists(self):
        doc = self._base_doc()
        doc["hands"] = [{"v": 1, "s": 1}]
        with pytest.raises(FormatError, match="array of card arrays"):
            self._load(doc)

    def test_bad_card_shape(self):
        doc = self._base_doc()
        doc["hands"] = [[{"v": 1}]]
        with pytest.raises(FormatError, match="expected a card object"):
            self._load(doc)
        doc["hands"] = [[{"v": 1, "s": "x"}]]
        with pytest.raises(FormatError, match="must be integers"):
            self._load(doc)

    def test_duplicate_card_in_hand(self):
        doc = self._base_doc()
        doc["hands"] = [[{"v": 1, "s": 1}, {"v": 1, "s": 1}]]
        with pytest.raises(FormatError, match="duplicate card within hand"):
            self._load(doc)

    def test_bool_is_not_int(self):
        doc = self._base_doc()
        doc["players"] = True
        with pytest.raises(FormatError, match="expected an integer"):
            self._load(doc)

    def test_bad_objective_shape(self):
        doc = self._base_doc()
        doc["objectives"] = [{"card": {"v": 1, "s": 1}}]
        with pytest.raises(FormatError, match="objectives\\[0\\]"):
            self._load(doc)
        doc["objectives"] = "all of them"
        with pytest.raises(FormatError, match="must be an array"):
            self._load(doc)

    def test_bad_token_shape(self):
        doc = self._base_doc()
        doc["objectives"] = [{"card": {"v": 1, "s": 1}, "owner": 1}]
        doc["tokens"] = [{"objective": 0}]
        with pytest.raises(FormatError, match="tokens\\[0\\]"):
            self._load(doc)
        doc["tokens"] = [{"objective": 0, "before": 1, "after": []}]
        with pytest.raises(FormatError, match="expected an array"):
            self._load(doc)

    def test_tokens_not_array(self):
        doc = self._base_doc()
        for bad in (None, 5, "0", {"objective": 0}):
            doc["tokens"] = bad
            with pytest.raises(FormatError, match="'tokens' must be an array"):
                self._load(doc)

    def test_semantic_errors_bubble_as_instance_errors(self):
        from crewsolver.model import InstanceError

        doc = self._base_doc()
        doc["hands"] = [[{"v": 5, "s": 1}]]  # value above the declared k
        with pytest.raises(InstanceError):
            self._load(doc)


class TestWitnessRoundTrip:
    def test_round_trip(self, uneven_deal_win):
        text = dumps_witness(uneven_deal_win)
        assert loads_witness(text) == uneven_deal_win
        assert dumps_witness(loads_witness(text)) == text

    def test_lead_is_rederived(self, uneven_deal_win):
        doc = json.loads(dumps_witness(uneven_deal_win))
        seq = loads_witness(json.dumps(doc))
        assert seq.tricks[0].lead == doc["tricks"][0][0]["player"]

    def test_empty_tricks_ok(self):
        seq = loads_witness('{"lead": 3, "tricks": []}')
        assert seq.first_lead == 3 and seq.tricks == ()


class TestWitnessErrors:
    def test_missing_keys(self):
        with pytest.raises(FormatError, match="'lead' and 'tricks'"):
            loads_witness('{"lead": 1}')

    def test_rotation_violation_rejected(self, uneven_deal_win):
        doc = json.loads(dumps_witness(uneven_deal_win))
        doc["tricks"][0][1], doc["tricks"][0][2] = (
            doc["tricks"][0][2],
            doc["tricks"][0][1],
        )
        with pytest.raises(FormatError, match="rotation"):
            loads_witness(json.dumps(doc))

    def test_header_lead_mismatch_rejected(self, uneven_deal_win):
        doc = json.loads(dumps_witness(uneven_deal_win))
        doc["lead"] = 2
        with pytest.raises(FormatError, match="first trick led by"):
            loads_witness(json.dumps(doc))

    def test_empty_trick_rejected(self):
        with pytest.raises(FormatError, match="non-empty play array"):
            loads_witness('{"lead": 1, "tricks": [[]]}')

    def test_bad_play_shape(self):
        doc = {
            "lead": 1,
            "tricks": [[{"player": 1, "value": 9}]],
        }
        with pytest.raises(FormatError, match="expected .'player', 'card'."):
            loads_witness(json.dumps(doc))


class TestIntegerFields:
    """A JSON ``true`` is not the integer 1, in a document or an instance."""

    def test_bool_card_in_hand_rejected(self):
        doc = {
            "players": 1,
            "k": 1,
            "s": 1,
            "hands": [[{"v": True, "s": True}]],
            "objectives": [],
        }
        with pytest.raises(FormatError, match=r"hands\[0\]\[0\]: card fields must be integers"):
            loads_instance(json.dumps(doc))

    def test_bool_objective_card_rejected(self):
        doc = {
            "players": 1,
            "k": 1,
            "s": 1,
            "hands": [[{"v": 1, "s": 1}]],
            "objectives": [{"card": {"v": 1, "s": True}, "owner": 1}],
        }
        with pytest.raises(FormatError, match=r"objectives\[0\]\.card: card fields"):
            loads_instance(json.dumps(doc))
        doc["objectives"] = [{"card": {"v": 1, "s": 1}, "owner": True}]
        with pytest.raises(FormatError, match=r"objectives\[0\]\.owner: expected an integer"):
            loads_instance(json.dumps(doc))

    def test_bool_witness_card_rejected(self, uneven_deal_win):
        doc = json.loads(dumps_witness(uneven_deal_win))
        doc["tricks"][1][3]["card"]["v"] = True
        msg = r"tricks\[1\]\[3\]\.card: card fields must be integers"
        with pytest.raises(FormatError, match=msg):
            loads_witness(json.dumps(doc))
        doc = json.loads(dumps_witness(uneven_deal_win))
        doc["tricks"][0][2]["player"] = True
        with pytest.raises(FormatError, match=r"tricks\[0\]\[2\]\.player: expected an integer"):
            loads_witness(json.dumps(doc))

    @pytest.mark.parametrize("card", [Card(True, True), Card(1, True), Card(1.0, 1), Card("1", 1)])
    def test_instance_rejects_non_int_card(self, card):
        with pytest.raises(InstanceError, match="card fields must be integers"):
            Instance(players=1, k=2, s=2, hands=(frozenset({Card(2, 2), card}),))

    def test_instance_rejects_non_int_objective(self):
        hands = (frozenset({Card(1, 1)}),)
        with pytest.raises(InstanceError, match="card fields must be integers"):
            Instance(players=1, k=1, s=1, hands=hands, objectives=(Objective(Card(True, 1), 1),))
        with pytest.raises(InstanceError, match="owner must be an integer"):
            Instance(players=1, k=1, s=1, hands=hands, objectives=(Objective(Card(1, 1), True),))

    def test_instance_messages_unchanged(self):
        hands = (frozenset({Card(1, 1), Card(3, 1)}), frozenset({Card(1, 1)}))
        msg = r"card value out of range 1\.\.2: Card\(value=3, suit=1\)"
        with pytest.raises(InstanceError, match=msg):
            Instance(players=2, k=2, s=1, hands=hands)
        with pytest.raises(InstanceError, match=r"duplicate card Card\(value=1, suit=1\)"):
            Instance(players=2, k=3, s=1, hands=hands)
        msg = r"card suit out of range 1\.\.1: Card\(value=2, suit=2\)"
        with pytest.raises(InstanceError, match=msg):
            Instance(players=1, k=3, s=1, hands=(frozenset({Card(2, 2)}),))


class TestLateBadItem:
    """A bad item deep in a big array is named exactly, as item by item."""

    def _instance_doc(self, n=6_000):
        inst = Instance(
            players=2,
            k=n,
            s=1,
            hands=(
                frozenset(Card(v, 1) for v in range(1, n + 1, 2)),
                frozenset(Card(v, 1) for v in range(2, n + 1, 2)),
            ),
            objectives=tuple(Objective(Card(v, 1), 1) for v in range(1, 400, 2)),
        )
        return json.loads(dumps_instance(inst))

    def _message(self, loads, doc) -> str:
        with pytest.raises(FormatError) as info:
            loads(json.dumps(doc))
        return str(info.value)

    def test_hand_card(self):
        doc = self._instance_doc()
        doc["hands"][1][2_718]["s"] = "1"
        assert self._message(loads_instance, doc) == "hands[1][2718]: card fields must be integers"
        doc["hands"][1][2_718] = {"v": 1, "s": 1, "x": 0}
        assert self._message(loads_instance, doc) == (
            "hands[1][2718]: expected a card object {'v': int, 's': int}"
        )
        doc["hands"][1][2_718] = [5, 1]
        assert self._message(loads_instance, doc) == (
            "hands[1][2718]: expected a card object {'v': int, 's': int}"
        )

    def test_first_bad_hand_wins_over_duplicates(self):
        doc = self._instance_doc()
        doc["hands"][0][5] = doc["hands"][0][6]
        doc["hands"][1][2_999]["v"] = None
        assert self._message(loads_instance, doc) == "hands[1][2999]: card fields must be integers"
        doc["hands"][1][2_999]["v"] = 2
        assert self._message(loads_instance, doc) == "hands[0]: duplicate card within hand"

    def test_objective(self):
        doc = self._instance_doc()
        doc["objectives"][173]["owner"] = 1.0
        assert self._message(loads_instance, doc) == "objectives[173].owner: expected an integer"
        doc["objectives"][173] = {"card": {"v": 347, "s": 1}}
        assert self._message(loads_instance, doc) == (
            "objectives[173]: expected {'card', 'owner'}"
        )
        doc["objectives"][173] = {"card": {"v": 347}, "owner": 1}
        assert self._message(loads_instance, doc) == (
            "objectives[173].card: expected a card object {'v': int, 's': int}"
        )

    def _witness_doc(self, tricks=700, players=3):
        seq = PlaySequence(
            first_lead=1,
            tricks=tuple(
                Trick(
                    lead=1,
                    plays=tuple(
                        Play(q, Card(t * players + q, 1)) for q in range(1, players + 1)
                    ),
                )
                for t in range(tricks)
            ),
        )
        return json.loads(dumps_witness(seq))

    def test_trick_play(self):
        doc = self._witness_doc()
        doc["tricks"][611][2]["card"]["s"] = False
        assert self._message(loads_witness, doc) == (
            "tricks[611][2].card: card fields must be integers"
        )
        doc["tricks"][611][2] = {"player": 3, "card": {"v": 1, "s": 1}, "extra": 1}
        assert self._message(loads_witness, doc) == "tricks[611][2]: expected {'player', 'card'}"
        doc["tricks"][611][2] = {"player": "3", "card": {"v": 1, "s": 1}}
        assert self._message(loads_witness, doc) == "tricks[611][2].player: expected an integer"

    def test_trick_shape_and_rotation_order(self):
        doc = self._witness_doc()
        doc["tricks"][402] = []
        assert self._message(loads_witness, doc) == "tricks[402]: expected a non-empty play array"
        doc = self._witness_doc()
        doc["tricks"][640][1]["card"]["v"] = True
        doc["tricks"][333][1], doc["tricks"][333][2] = doc["tricks"][333][2], doc["tricks"][333][1]
        assert self._message(loads_witness, doc) == (
            "tricks[333]: plays out of rotation order: seat 1 is player 3, expected 2"
        )
        doc["tricks"][333][1], doc["tricks"][333][2] = doc["tricks"][333][2], doc["tricks"][333][1]
        assert self._message(loads_witness, doc) == (
            "tricks[640][1].card: card fields must be integers"
        )

    def test_big_round_trip(self):
        doc = self._witness_doc()
        seq = loads_witness(json.dumps(doc))
        assert len(seq.tricks) == 700 and seq.tricks[699].plays[2] == Play(3, Card(2_100, 1))
        assert json.loads(dumps_witness(seq)) == doc
