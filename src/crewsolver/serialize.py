"""JSON file formats for instances and witnesses.

Instance documents carry ``players``, ``k``, ``s``, ``trump_suit``, ``lead``,
``hands`` (cards as ``{"v": value, "s": suit}``), ``objectives`` and
``tokens`` (0-based objective indices), plus an optional ``meta`` block that
the dump writes and the load ignores.  Witness documents carry the opening
``lead`` and the tricks as rotation-ordered play lists; later leads are
implied by the rules and re-derived on load.

Dumps are canonical — hands sorted by suit then value, two-space indent —
so identical inputs serialize byte-identically.  The canonical text of a
document is ``json.dumps(doc, indent=2) + "\n"`` of its dict form; that is
the specification, and the tests pin the dumps to it byte for byte.  The
dumps build that text from fixed ``%``-templates, one per hand card,
objective and play, because ``json.dumps`` with an indent never uses its C
encoder; ``tokens`` and ``meta`` still go through ``json.dumps``.  The
loads check every card, objective and play array with one bulk test of C
builtins, and walk only an array that fails it item by item, in field
order, so the error names the first bad field.  Tokens, which are few and
hold arrays, always take that walk.  A witness's plays are bulk-tested as
one array chained over all tricks.
"""

from __future__ import annotations

import json
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Any

from .model import Card, Instance, Objective, Play, TokenConstraint, Trick, _is_int
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


def _expect_int(obj: Any, where: str, optional: bool = False) -> int | None:
    if optional and obj is None:
        return None
    if not _is_int(obj):
        raise FormatError(f"{where}: expected an integer")
    return obj


def _all(kind: type, items) -> bool:
    """True when every item's type is exactly ``kind`` (so no bool for int)."""
    return set(map(type, items)) <= {kind}


# The document keys of each item kind, in field order.
_KEYS = {
    Card: ("v", "s"),
    Objective: Objective._fields,
    Play: Play._fields,
    TokenConstraint: TokenConstraint._fields,
}


def _bulk(docs: list, kind: type) -> list | None:
    """The ``kind`` items of an array of item objects, checked in bulk with C
    builtins, or None unless every item has exactly the document shape."""
    keys = _KEYS[kind]
    if not (_all(dict, docs) and set(map(len, docs)) <= {len(keys)}):
        return None
    try:
        columns = [list(map(itemgetter(key), docs)) for key in keys]
    except KeyError:
        return None
    for at, key in enumerate(keys):
        if key == "card":
            columns[at] = _bulk(columns[at], Card)
            if columns[at] is None:
                return None
        elif not _all(int, columns[at]):
            return None
    return list(map(tuple.__new__, repeat(kind), zip(*columns)))


def _field(key: str, value: Any, where: str):
    """One field of an item: a card, an array of integers (a token's
    ``before`` and ``after``) or an integer."""
    if key == "card":
        return _item(value, Card, where)
    if key in ("before", "after"):
        if not isinstance(value, list):
            raise FormatError(f"{where}: expected an array")
        return frozenset(_expect_int(x, where) for x in value)
    return _expect_int(value, where)


def _item(doc: Any, kind: type, where: str):
    """One ``kind`` item, checked field by field in ``_KEYS`` order;
    ``where`` names it in errors."""
    keys = _KEYS[kind]
    if not isinstance(doc, dict) or set(doc) != set(keys):
        if kind is Card:
            raise FormatError(f"{where}: expected a card object {{'v': int, 's': int}}")
        raise FormatError(f"{where}: expected {{{', '.join(map(repr, keys))}}}")
    if kind is Card:
        if not all(map(_is_int, doc.values())):
            raise FormatError(f"{where}: card fields must be integers")
        return Card(doc["v"], doc["s"])
    return kind(*(_field(key, doc[key], f"{where}.{key}") for key in keys))


def _items(docs: list, kind: type, where: str) -> list:
    """The ``kind`` items of the array ``where``: in bulk, or on failure item
    by item so that the error names the first bad one."""
    items = _bulk(docs, kind)
    if items is None:
        items = [_item(doc, kind, f"{where}[{j}]") for j, doc in enumerate(docs)]
    return items


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("invalid JSON: nested too deeply") from exc


def loads_instance(text: str) -> Instance:
    doc = _parse_json(text)
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
        frozenset(_items(hand, Card, f"hands[{i}]")) for i, hand in enumerate(hands_doc)
    )
    for i, (parsed, raw) in enumerate(zip(hands, hands_doc)):
        if len(parsed) != len(raw):
            raise FormatError(f"hands[{i}]: duplicate card within hand")
    objs_doc = doc["objectives"]
    if not isinstance(objs_doc, list):
        raise FormatError("'objectives' must be an array")
    objectives = _items(objs_doc, Objective, "objectives")
    tokens_doc = doc.get("tokens", [])
    if not isinstance(tokens_doc, list):
        raise FormatError("'tokens' must be an array")
    tokens = [_item(t, TokenConstraint, f"tokens[{i}]") for i, t in enumerate(tokens_doc)]
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


def _trick(t: int, plays: tuple[Play, ...]) -> Trick:
    try:
        return Trick(lead=plays[0].player, plays=plays)
    except ValueError as exc:
        raise FormatError(f"tricks[{t}]: {exc}") from exc


def loads_witness(text: str) -> PlaySequence:
    """Rebuild a play sequence; rotation order is re-derived and enforced."""
    doc = _parse_json(text)
    if not isinstance(doc, dict) or "lead" not in doc or "tricks" not in doc:
        raise FormatError("witness document must carry 'lead' and 'tricks'")
    lead = _expect_int(doc["lead"], "lead")
    tricks_doc = doc["tricks"]
    if not isinstance(tricks_doc, list):
        raise FormatError("'tricks' must be an array")
    # The plays of all tricks are checked as one array, else trick by trick.
    tricks = None
    if _all(list, tricks_doc) and all(tricks_doc):
        plays = _bulk(list(chain.from_iterable(tricks_doc)), Play)
        if plays is not None:
            it = iter(plays)
            tricks = [
                _trick(t, tuple(islice(it, len(trick_doc))))
                for t, trick_doc in enumerate(tricks_doc)
            ]
    if tricks is None:
        tricks = []
        for t, trick_doc in enumerate(tricks_doc):
            if not isinstance(trick_doc, list) or not trick_doc:
                raise FormatError(f"tricks[{t}]: expected a non-empty play array")
            tricks.append(_trick(t, tuple(_items(trick_doc, Play, f"tricks[{t}]"))))
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
