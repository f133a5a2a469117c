"""JSON file formats for instances and witnesses.

Instance documents carry ``players``, ``k``, ``s``, ``trump_suit``, ``lead``,
``hands`` (cards as ``{"v": value, "s": suit}``), ``objectives`` and
``tokens`` (0-based objective indices), plus an optional ``meta`` block that
round-trips untouched.  Witness documents carry the opening ``lead`` and the
tricks as rotation-ordered play lists; later leads are implied by the rules
and re-derived on load.

Dumps are canonical — hands sorted by suit then value, two-space indent —
so identical inputs serialize byte-identically.  The canonical text of a
document is ``json.dumps(doc, indent=2) + "\n"`` of its dict form; that is
the specification, and the tests pin the dumps to it byte for byte.  The
dumps build that text from fixed ``%``-templates, one per hand card,
objective and play, because ``json.dumps`` with an indent never uses its C
encoder; ``tokens`` and ``meta`` still go through ``json.dumps``.  The
loads check each card and play array in bulk with C builtins, and only on
an array that fails do they re-run the per-item checks that name the
offending item.
"""

from __future__ import annotations

import json
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Any

from .model import Card, Instance, Objective, Play, TokenConstraint, Trick
from .verify import PlaySequence

# Each item at its fixed depth in the canonical document.
_HAND_CARD = '      {\n        "v": %d,\n        "s": %d\n      }'
_OBJECTIVE = (
    '    {\n      "card": {\n        "v": %d,\n        "s": %d\n      },'
    '\n      "owner": %d\n    }'
)
_PLAY = (
    '      {\n        "player": %d,\n        "card": {\n          "v": %d,'
    '\n          "s": %d\n        }\n      }'
)
_INSTANCE_HEAD = (
    '{\n  "players": %s,\n  "k": %s,\n  "s": %s,\n  "trump_suit": %s,'
    '\n  "lead": %s,\n  "hands": %s,\n  "objectives": %s,\n  "tokens": %s'
)

_VALUE = itemgetter(0)
_SUIT = itemgetter(1)


class FormatError(ValueError):
    """A document is structurally unusable (not merely an invalid instance)."""


def _card_from_dict(obj: Any, where: str) -> Card:
    if not isinstance(obj, dict) or set(obj) != {"v", "s"}:
        raise FormatError(f"{where}: expected a card object {{'v': int, 's': int}}")
    v, s = obj["v"], obj["s"]
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (v, s)):
        raise FormatError(f"{where}: card fields must be integers")
    return Card(v, s)


def _expect_int(obj: Any, where: str, optional: bool = False) -> int | None:
    if optional and obj is None:
        return None
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise FormatError(f"{where}: expected an integer")
    return obj


def _all(kind: type, items) -> bool:
    """True when every item's type is exactly ``kind`` (so no bool for int)."""
    return set(map(type, items)) <= {kind}


def _columns(docs: list, keys: tuple[str, str]) -> list[list] | None:
    """The values under each of ``keys`` across ``docs``, or None unless
    every item is an object with exactly those two keys."""
    if not (_all(dict, docs) and set(map(len, docs)) <= {2}):
        return None
    try:
        return [list(map(itemgetter(key), docs)) for key in keys]
    except KeyError:
        return None


def _bulk_cards(docs: list) -> list[Card] | None:
    """The cards of an array of card objects, or None unless every item is
    exactly ``{"v": int, "s": int}``."""
    columns = _columns(docs, ("v", "s"))
    if columns is None or not (_all(int, columns[0]) and _all(int, columns[1])):
        return None
    return list(map(tuple.__new__, repeat(Card), zip(*columns)))


def _bulk_with_card(docs: list, kind: type) -> list | None:
    """``kind`` items (an integer and a card: ``Objective``, ``Play``) from an
    array of objects keyed by ``kind``'s field names, or None unless every
    item has exactly that shape."""
    columns = _columns(docs, kind._fields)
    if columns is None:
        return None
    at = kind._fields.index("card")
    cards = _bulk_cards(columns[at])
    if cards is None or not _all(int, columns[1 - at]):
        return None
    columns[at] = cards
    return list(map(tuple.__new__, repeat(kind), zip(*columns)))


def _card_array(docs: list, where: str) -> list[Card]:
    """The cards of an array of card objects; ``where`` names it in errors."""
    cards = _bulk_cards(docs)
    if cards is None:
        cards = [_card_from_dict(c, f"{where}[{j}]") for j, c in enumerate(docs)]
    return cards


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
        frozenset(_card_array(hand, f"hands[{i}]")) for i, hand in enumerate(hands_doc)
    )
    for i, (parsed, raw) in enumerate(zip(hands, hands_doc)):
        if len(parsed) != len(raw):
            raise FormatError(f"hands[{i}]: duplicate card within hand")
    objs_doc = doc["objectives"]
    if not isinstance(objs_doc, list):
        raise FormatError("'objectives' must be an array")
    objectives = _bulk_with_card(objs_doc, Objective)
    if objectives is None:
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


def _array(items: list[str], indent: str) -> str:
    """A JSON array of items already indented one level below ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _nested(obj: Any) -> str:
    """``obj`` as ``json.dumps(indent=2)`` writes it one level down."""
    return json.dumps(obj, indent=2).replace("\n", "\n  ")


def dumps_instance(instance: Instance, meta: dict | None = None) -> str:
    # By suit, then value: two stable sorts on integer keys, which need no
    # key tuple per card.
    by_suit = (sorted(sorted(hand, key=_VALUE), key=_SUIT) for hand in instance.hands)
    hands = ["    " + _array([_HAND_CARD % c for c in h], "    ") for h in by_suit]
    objectives = [_OBJECTIVE % (v, s, owner) for (v, s), owner in instance.objectives]
    tokens = [
        {"objective": t.objective, "before": sorted(t.before), "after": sorted(t.after)}
        for t in instance.tokens
    ]
    scalars = (
        instance.players,
        instance.k,
        instance.s,
        instance.trump_suit,
        instance.first_lead,
    )
    text = _INSTANCE_HEAD % (
        *map(json.dumps, scalars),
        _array(hands, "  "),
        _array(objectives, "  "),
        _nested(tokens),
    )
    if meta is not None:
        text += ',\n  "meta": ' + _nested(meta)
    return text + "\n}\n"


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


def _trick(t: int, plays: tuple[Play, ...]) -> Trick:
    try:
        return Trick(lead=plays[0].player, plays=plays)
    except ValueError as exc:
        raise FormatError(f"tricks[{t}]: {exc}") from exc


def _tricks_from_dicts(tricks_doc: list) -> list[Trick]:
    """The tricks, checked one play at a time in document order."""
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
        tricks.append(_trick(t, tuple(plays)))
    return tricks


def dict_to_witness(doc: Any) -> PlaySequence:
    """Rebuild a play sequence; rotation order is re-derived and enforced."""
    if not isinstance(doc, dict) or "lead" not in doc or "tricks" not in doc:
        raise FormatError("witness document must carry 'lead' and 'tricks'")
    lead = _expect_int(doc["lead"], "lead")
    tricks_doc = doc["tricks"]
    if not isinstance(tricks_doc, list):
        raise FormatError("'tricks' must be an array")
    # The plays of all tricks are checked as one array.
    tricks = None
    if _all(list, tricks_doc) and all(tricks_doc):
        plays = _bulk_with_card(list(chain.from_iterable(tricks_doc)), Play)
        if plays is not None:
            it = iter(plays)
            tricks = [
                _trick(t, tuple(islice(it, len(trick_doc))))
                for t, trick_doc in enumerate(tricks_doc)
            ]
    if tricks is None:
        tricks = _tricks_from_dicts(tricks_doc)
    try:
        return PlaySequence(first_lead=lead, tricks=tuple(tricks))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def dumps_witness(sequence: PlaySequence) -> str:
    tricks = [
        "    " + _array([_PLAY % (q, v, s) for q, (v, s) in trick.plays], "    ")
        for trick in sequence.tricks
    ]
    return '{\n  "lead": %s,\n  "tricks": %s\n}\n' % (
        json.dumps(sequence.first_lead),
        _array(tricks, "  "),
    )


def loads_witness(text: str) -> PlaySequence:
    return dict_to_witness(_parse_json(text))
