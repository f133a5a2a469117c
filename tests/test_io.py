"""Serialization tests: round-trips, canonical output, malformed documents."""

from __future__ import annotations

import json

import pytest

from crewsolver.model import Card, Instance, Objective, TokenConstraint
from crewsolver.serialize import (
    FormatError,
    dumps_instance,
    dumps_witness,
    instance_meta,
    loads_instance,
    loads_witness,
)


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
        assert instance_meta(text) == meta
        assert loads_instance(text) == rich_instance
        assert instance_meta(dumps_instance(rich_instance)) is None
        assert instance_meta("not json") is None

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
        assert instance_meta(deep) is None

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
