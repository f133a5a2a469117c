"""JSON file formats for instances and witnesses.

Instance documents carry ``players``, ``k``, ``s``, ``trump_suit``, ``lead``,
``hands`` (cards as ``{"v": value, "s": suit}``), ``objectives`` and
``tokens`` (0-based objective indices), plus an optional ``meta`` block that
round-trips untouched.  Witness documents carry the opening ``lead`` and the
tricks as rotation-ordered play lists; later leads are implied by the rules
and re-derived on load.

Dumps are canonical — hands sorted by suit then value, two-space indent —
so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import json
from typing import Any

from .model import Card, Instance, Objective, Play, TokenConstraint, Trick
from .verify import PlaySequence


class FormatError(ValueError):
    """A document is structurally unusable (not merely an invalid instance)."""


def _card_to_dict(card: Card) -> dict[str, int]:
    return {"v": card.value, "s": card.suit}


def _card_from_dict(obj: Any, where: str) -> Card:
    if not isinstance(obj, dict) or set(obj) != {"v", "s"}:
        raise FormatError(f"{where}: expected a card object {{'v': int, 's': int}}")
    v, s = obj["v"], obj["s"]
    if not isinstance(v, int) or not isinstance(s, int):
        raise FormatError(f"{where}: card fields must be integers")
    return Card(v, s)


def _expect_int(obj: Any, where: str, optional: bool = False) -> int | None:
    if optional and obj is None:
        return None
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise FormatError(f"{where}: expected an integer")
    return obj


def instance_to_dict(instance: Instance, meta: dict | None = None) -> dict:
    doc: dict[str, Any] = {
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


def dict_to_instance(doc: Any) -> Instance:
    if not isinstance(doc, dict):
        raise FormatError("instance document must be a JSON object")
    for key in ("players", "k", "s", "hands", "objectives"):
        if key not in doc:
            raise FormatError(f"instance document missing field {key!r}")
    hands_doc = doc["hands"]
    if not isinstance(hands_doc, list) or not all(
        isinstance(h, list) for h in hands_doc
    ):
        raise FormatError("'hands' must be an array of card arrays")
    hands = tuple(
        frozenset(
            _card_from_dict(c, f"hands[{i}][{j}]") for j, c in enumerate(hand)
        )
        for i, hand in enumerate(hands_doc)
    )
    for i, (parsed, raw) in enumerate(zip(hands, hands_doc)):
        if len(parsed) != len(raw):
            raise FormatError(f"hands[{i}]: duplicate card within hand")
    objs_doc = doc["objectives"]
    if not isinstance(objs_doc, list):
        raise FormatError("'objectives' must be an array")
    objectives = []
    for i, o in enumerate(objs_doc):
        if not isinstance(o, dict) or set(o) != {"card", "owner"}:
            raise FormatError(f"objectives[{i}]: expected {{'card', 'owner'}}")
        objectives.append(
            Objective(
                _card_from_dict(o["card"], f"objectives[{i}].card"),
                _expect_int(o["owner"], f"objectives[{i}].owner"),
            )
        )
    tokens = []
    for i, t in enumerate(doc.get("tokens", [])):
        if not isinstance(t, dict) or set(t) != {"objective", "before", "after"}:
            raise FormatError(
                f"tokens[{i}]: expected {{'objective', 'before', 'after'}}"
            )
        for side in ("before", "after"):
            if not isinstance(t[side], list):
                raise FormatError(f"tokens[{i}].{side}: expected an array")
        tokens.append(
            TokenConstraint(
                objective=_expect_int(t["objective"], f"tokens[{i}].objective"),
                before=frozenset(
                    _expect_int(x, f"tokens[{i}].before") for x in t["before"]
                ),
                after=frozenset(
                    _expect_int(x, f"tokens[{i}].after") for x in t["after"]
                ),
            )
        )
    return Instance(
        players=_expect_int(doc["players"], "players"),
        k=_expect_int(doc["k"], "k"),
        s=_expect_int(doc["s"], "s"),
        hands=hands,
        objectives=tuple(objectives),
        tokens=tuple(tokens),
        trump_suit=_expect_int(doc.get("trump_suit"), "trump_suit", optional=True),
        first_lead=_expect_int(doc.get("lead"), "lead", optional=True),
    )


def dumps_instance(instance: Instance, meta: dict | None = None) -> str:
    return json.dumps(instance_to_dict(instance, meta), indent=2) + "\n"


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("invalid JSON: nested too deeply") from exc


def loads_instance(text: str) -> Instance:
    return dict_to_instance(_parse_json(text))


def instance_meta(text: str) -> dict | None:
    """The optional ``meta`` block of an instance document, if present."""
    try:
        doc = _parse_json(text)
    except FormatError:
        return None
    if isinstance(doc, dict) and isinstance(doc.get("meta"), dict):
        return doc["meta"]
    return None


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


def dict_to_witness(doc: Any) -> PlaySequence:
    """Rebuild a play sequence; rotation order is re-derived and enforced."""
    if not isinstance(doc, dict) or "lead" not in doc or "tricks" not in doc:
        raise FormatError("witness document must carry 'lead' and 'tricks'")
    lead = _expect_int(doc["lead"], "lead")
    tricks_doc = doc["tricks"]
    if not isinstance(tricks_doc, list):
        raise FormatError("'tricks' must be an array")
    tricks = []
    for t, trick_doc in enumerate(tricks_doc):
        if not isinstance(trick_doc, list) or not trick_doc:
            raise FormatError(f"tricks[{t}]: expected a non-empty play array")
        plays = []
        for j, play_doc in enumerate(trick_doc):
            if not isinstance(play_doc, dict) or set(play_doc) != {"player", "card"}:
                raise FormatError(f"tricks[{t}][{j}]: expected {{'player', 'card'}}")
            plays.append(
                Play(
                    _expect_int(play_doc["player"], f"tricks[{t}][{j}].player"),
                    _card_from_dict(play_doc["card"], f"tricks[{t}][{j}].card"),
                )
            )
        try:
            tricks.append(Trick(lead=plays[0].player, plays=tuple(plays)))
        except ValueError as exc:
            raise FormatError(f"tricks[{t}]: {exc}") from exc
    try:
        return PlaySequence(first_lead=lead, tricks=tuple(tricks))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def dumps_witness(sequence: PlaySequence) -> str:
    return json.dumps(witness_to_dict(sequence), indent=2) + "\n"


def loads_witness(text: str) -> PlaySequence:
    return dict_to_witness(_parse_json(text))
