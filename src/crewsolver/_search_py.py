"""Pure-Python exhaustive search kernel.

Complete depth-first search over trick sequences with canonical branch order
(leads in ascending player order when free; within a trick, each seat tries
its cards in descending (value, suit) order), memoization of failed
positions, and a node budget.  The branch order fixes the witness: the first
accepting line found is always the same one.

All pruning is decision-exact and cannot change the first accepting line:

* tricks-needed bound — every open objective card must fall in a trick
  that its owner wins, a trick has one winner and each player plays one
  card per trick, so the open objective cards need a number of tricks
  that counting alone bounds from below (``_tricks_needed``); a position
  with fewer tricks left is lost;
* tight-bound lead filter — where that count equals the tricks left,
  every trick must complete an objective, since one that completes none
  leaves the same count with a trick fewer.  An open objective card held
  by its owner, off trumps, can only win a trick led in its suit, so while
  every open objective card is such a card, only a card of one of their
  suits may lead (``_tight_leads``), and a leader with none loses at once;
* one-trick lookahead — in such a position the open objective cards need
  one trick each, and a trick that does not lose completes exactly one,
  ``x``: its owner plays ``x``, wins with it and leads next, in a position
  that is tight again with ``x`` gone.  So, unless ``x`` is the last open
  objective card, the owner must keep a live card that the filter allows
  there, and a suit may lead only if some open ``x`` of it passes that test
  (``_next_leads``).  A leader left with no lead loses, and the position
  is memoized as lost;
* misroute pairs — two uncompleted objective cards with different owners in
  the same trick guarantee a misroute, as does an objective card whose owner
  has already played and is not currently winning the trick;
* equal-card collapse — when the next live card upward in a suit is a live
  non-objective card in the same hand (no live or on-table card between),
  the two cards are interchangeable and only the higher is branched.

The caller numbers the cards in ascending (suit, value) order, so each suit
is a run of consecutive bits in ascending value; ``search`` raises
``ValueError`` on any other order, since it would silently answer wrong.
Branch order goes by (value, suit), never by index, and the trick rows
come back in the caller's indices.  With that layout the collapse test is
one bitmask step: the lowest live-or-on-table bit above a card in its suit
is its successor.  Every player plays exactly one card per
trick, so at trick depth ``d`` every hand holds its starting size minus ``d``
cards, and ``min_size - d`` tricks are left.  The tricks-needed bound
compares that with a count of the open objective cards alone, and it is
also the empty-hand cut, since the count is at least 1 while an objective
is open.  Cards never change hands, so the count, and the lead filter's
mask, are cached per set of open objective cards; the lookahead reads the
live cards too, so only its masks one trick ahead are cached.
Within a suit a higher index is a higher card, so the seat loop compares
indices, never values.  A seat reads its candidates from a per-search cache
keyed on the candidate mask (the live cards it may play; hands are
disjoint, so the mask names the player), which holds those cards' entries
in branch order; the loop never walks a card it may not play.

The recursion has two frame kinds, p + 1 frames per trick: ``boundary``
settles the finished trick and opens the next, and ``seat`` plays one card;
the last seat calls ``boundary`` directly.

A position between tricks is the pair ``(rem, lead)`` of live cards and
leader, and its exact memo key is the one int ``rem * p + lead``.  The
completed objectives need no place in it: at every trick boundary the
search reaches, they are exactly those whose cards have left ``rem``, since
the seat loop drops any trick that misroutes an objective and a line that
breaks token order ends at that trick.

Only on an exact miss does ``boundary`` build the position's pattern key,
the rank-relative transposition key of Haglund's DDS.  A suit's pattern is
its live cards in rank order, each given as its (holder, objective or none)
pair.  Two positions with the same lead and the same pattern in every suit
are the same game: each hand holds as many live cards, and following suit,
the trick winner, misroutes, token order, the tricks-needed bound, the
lead filter, its lookahead and the equal-card collapse see only the
patterns.  So a loss of one is a loss of the other, and the key is
decision-exact; the memo holds losses only, so the first accepting line
is unchanged.  In a suit where no holder has two non-objective cards, the
pattern fixes the live set, and the key keeps the suit's bits of
``rem``.  So does a suit whose cards are all non-objective cards of one
hand: equal-card collapse always plays its top live card, so its live set
is always its lowest cards, as many as its pattern has.  Each other (loose) suit adds its pattern's
codes, numbered within the suit, as one field at a fixed offset from bit
``n`` up, with a leading 1 bit; the field is cached per live mask of the
suit, and an empty suit adds 0.  The key is that int ``* p + lead``.  Both kinds of key
live in the one ``failed`` set, and a loss adds both.  They cannot name
different positions: a pattern key with a loose suit live is at least
``2**n * p``, above every exact key, and one with none live is the exact
key itself.

``seat`` and ``boundary`` refer to each other, so ``search`` deletes both
names before it returns, and its memo and caches are freed at once, not by
the cyclic collector.

Token order is the caller's rule: ``tokens_broken(completed, new)`` says
whether a trick completing ``new`` after ``completed`` (bit ``o`` is
objective ``o``) breaks it, and is called only on a miss in a per-search
cache keyed on the open and newly won objective cards; only then are card
bits mapped to objective bits.

This module has no dependencies on the rest of the package;
``solvers._exhaustive`` handles encoding and decoding.
"""

from __future__ import annotations

from collections.abc import Callable

WIN = 1
LOSS = 0
CUT = -1


def _tricks_needed(open_cards: int, obj_seats: dict[int, tuple[int, int, int]]) -> int:
    """A lower bound on the tricks that must still take the objective cards
    of ``open_cards``.

    ``obj_seats`` maps an objective card's index to its objective's owner,
    the card's holder and its suit.  Each open objective card must fall in
    a trick that its owner wins, and a trick has one winner, so different
    owners need different tricks: the count is a sum over owners ``w`` of
    the most cards of ``w`` that must fall in pairwise different tricks.

    * A holder plays one card per trick, so the ``c(w, h)`` open objective
      cards of ``w`` held by ``h`` (``h = w`` included) need ``c(w, h)``
      tricks: owner ``w`` needs at least ``max_h c(w, h)``.
    * An objective card that ``w`` holds itself is the card ``w`` plays in
      its trick, so it must win that trick: no higher card of its suit may
      fall there, whether that suit is trumps or not.  So ``w``'s own cards
      of a suit below some card ``y`` held by ``h``, together with ``h``'s
      cards of that suit from ``y`` up, need one trick each.
    """
    by_seats: dict[tuple[int, int, int], list[int]] = {}
    while open_cards:
        low = open_cards & -open_cards
        i = low.bit_length() - 1
        by_seats.setdefault(obj_seats[i], []).append(i)
        open_cards ^= low
    held: dict[tuple[int, int], int] = {}
    for (w, h, _), cards in by_seats.items():
        held[w, h] = held.get((w, h), 0) + len(cards)
    most: dict[int, int] = {}
    for (w, _), c in held.items():
        most[w] = max(most.get(w, 0), c)
    for (w, h, s), cards in by_seats.items():
        own = by_seats.get((w, w, s)) if h != w else None
        if own:
            # ``cards`` ascend, so ``cards[k:]`` are those from ``y`` up.
            for k, y in enumerate(cards):
                most[w] = max(most[w], len(cards) - k + sum(x < y for x in own))
    return sum(most.values())


def _tight_leads(
    open_cards: int,
    obj_seats: dict[int, tuple[int, int, int]],
    suit_mask: list[int],
    trump: int,
) -> int:
    """The cards that may lead a trick that must complete an objective of
    ``open_cards``, as a mask (-1 for every card).

    An open objective card held by its owner ``w`` falls in its trick as
    the card ``w`` plays there, so it must win that trick; off trumps, it
    wins only a trick led in its suit.  So if every open objective card is
    held by its owner and none is a trump, only a card of one of their
    suits may lead.  An owner may win with another card while a second
    holder sheds the objective card, and a trump wins off-suit, so either
    leaves every lead.
    """
    leads = 0
    while open_cards:
        low = open_cards & -open_cards
        w, h, s = obj_seats[low.bit_length() - 1]
        if w != h or s == trump:
            return -1
        leads |= suit_mask[s]
        open_cards ^= low
    return leads


def _next_leads(
    open_cards: int,
    rem: int,
    hand_mask: list[int],
    obj_seats: dict[int, tuple[int, int, int]],
    suit_mask: list[int],
    trump: int,
    tight: dict[int, int],
) -> int:
    """The cards that may lead a trick in a tight position where
    ``_tight_leads(open_cards)`` is a mask, looking one trick ahead.

    There every open objective card is held by its owner, off trumps, and
    the count of tricks needed is the number of open cards.  A trick that
    does not lose completes exactly one of them, ``x``: it must complete
    one, a second owner's card would be misrouted, and an owner plays one
    card per trick.  So the trick is led in ``x``'s suit, its owner ``w``
    wins it with ``x`` and leads next, in a position as tight as this one
    with ``x`` gone.  Unless ``x`` was the last open objective card, ``w``
    must then hold a live card (in ``rem``) that ``_tight_leads`` allows
    there.  A suit is kept if some open ``x`` of it passes that test; the
    masks for the open sets one card smaller are cached in ``tight``.  The
    test reads only the open objective cards, their suits and holders, and
    whether a holder has a live card in a suit, so the pattern key sees it.
    """
    leads = 0
    rest = open_cards
    while rest:
        low = rest & -rest
        rest ^= low
        w, _, s = obj_seats[low.bit_length() - 1]
        after = open_cards ^ low
        if after and not leads & suit_mask[s]:
            nxt = tight.get(after)
            if nxt is None:
                nxt = tight[after] = _tight_leads(after, obj_seats, suit_mask, trump)
            if not hand_mask[w] & rem & nxt & ~low:
                continue
        leads |= suit_mask[s]
    return leads


def _field(live: int, codes: list[int], width: int, offset: int) -> int:
    """One loose suit's part of the pattern key: the codes of its live cards
    ``live`` in rank order, ``width`` bits each below a leading 1 bit, at bit
    ``offset``."""
    packed = 1
    while live:
        low = live & -live
        packed = packed << width | codes[low.bit_length() - 1]
        live ^= low
    return packed << offset


def search(
    p: int,
    value: list[int],
    suit: list[int],
    owner: list[int],
    obj_card: list[int],
    obj_owner: list[int],
    tokens_broken: Callable[[int, int], bool] | None,
    trump: int,
    first_lead: int,
    budget: int,
) -> tuple[int, list[int], list[list[int]], int]:
    """Run the search; see the module docstring for the contract.

    Card ``i`` has ``value[i]``, ``suit[i]`` and holder ``owner[i]``, and
    the cards come in ascending (suit, value) order, else ``ValueError``.
    Players and suits are 0-based dense indices here; ``trump`` and
    ``first_lead`` use -1 for "none"; ``tokens_broken`` is ``None`` for a
    deal without tokens.  ``budget`` caps branch nodes (0 = unlimited).
    Returns ``(status, leads, tricks, nodes)`` where status is 1 (win), 0
    (loss) or -1 (budget exhausted); ``tricks`` holds card indices per trick
    in rotation order from that trick's lead.
    """
    n = len(value)
    limit = budget if budget > 0 else 1 << 63
    order = list(zip(suit, value))
    if order != sorted(order):
        raise ValueError("cards must come in ascending (suit, value) order")

    hand_mask = [0] * p
    for i, q in enumerate(owner):
        hand_mask[q] |= 1 << i
    min_size = min((m.bit_count() for m in hand_mask), default=0)

    n_suits = max(suit) + 1 if n else 0
    suit_mask = [0] * n_suits
    for i, s in enumerate(suit):
        suit_mask[s] |= 1 << i

    # Per objective card: its objective's bit, its owner, and
    # (owner, holder, suit) for _tricks_needed.
    obj_bit_of = {}
    obj_owner_of = {}
    obj_seats = {}
    for o, i in enumerate(obj_card):
        obj_bit_of[i] = 1 << o
        obj_owner_of[i] = obj_owner[o]
        obj_seats[i] = (obj_owner[o], owner[i], suit[i])
    obj_cards = sum(1 << i for i in obj_bit_of)
    hand_nonobj = [m & ~obj_cards for m in hand_mask]

    def labels(cards: int):
        while cards:
            low = cards & -cards
            yield low.bit_length() - 1
            cards ^= low

    # The pattern key's layout (see the module docstring): the suits that
    # are not loose, and per loose suit its field's code width and offset,
    # with each of its cards' (holder, objective) code.
    codes = [0] * n
    loose = []
    layout = {}
    fixed = 0
    offset = n
    for m in suit_mask:
        plain_holders = [owner[i] for i in labels(m & ~obj_cards)]
        holders = set(plain_holders)
        if len(holders) == len(plain_holders) or (len(holders) == 1 and not m & obj_cards):
            fixed |= m
            continue
        ids: dict[tuple[int, int], int] = {}
        for i in labels(m):
            codes[i] = ids.setdefault((owner[i], obj_bit_of.get(i, 0)), len(ids))
        width = max(1, (len(ids) - 1).bit_length())
        loose.append(m)
        layout[m] = (width, offset)
        offset += m.bit_count() * width + 1
    # A loose suit's part of the pattern key per live mask of it.
    fields = {0: 0}

    # Each player's cards in branch order, with what the seat loop reads
    # about them: (bit, index, its objective's owner or -1, same-suit bits
    # above, suit).
    cands = []
    for q in range(p):
        mine = sorted(
            (i for i in range(n) if owner[i] == q),
            key=lambda i: (value[i], suit[i]),
            reverse=True,
        )
        row = []
        for i in mine:
            above = suit_mask[suit[i]] & ~((2 << i) - 1)
            row.append((1 << i, i, obj_owner_of.get(i, -1), above, suit[i]))
        cands.append(tuple(row))

    max_tricks = min_size + 1
    trick_cards = [[-1] * p for _ in range(max_tricks)]
    trick_leads = [-1] * max_tricks

    # A seat's candidates in branch order, per candidate mask: hands are
    # disjoint, so the mask alone names the player.
    rows: dict[int, tuple] = {}
    failed: set[int] = set()
    # _tricks_needed, and _tight_leads where asked, per set of open
    # objective cards.
    needed: dict[int, int] = {}
    tight: dict[int, int] = {}
    # tokens_broken's answer per (open, newly won) objective cards.
    blocked: dict[tuple[int, int], bool] = {}
    nodes = 0
    final_depth = 0
    last = p - 1

    def seat(
        rem: int,
        start: int,
        lead: int,
        seat_no: int,
        led_suit: int,
        best: int,
        trick_owner: int,
        depth: int,
    ) -> int:
        # ``start`` is ``rem`` at the lead: the live cards and those on the
        # table.  At seat 0, ``led_suit`` is the mask of the cards that may
        # lead (-1 for all).
        nonlocal nodes
        player = (lead + seat_no) % p
        cand = hand_mask[player] & rem
        if seat_no > 0:
            follow = cand & suit_mask[led_suit]
            if follow:
                cand = follow
            best_suit = suit[best]
        else:
            cand &= led_suit
        plain = hand_nonobj[player] & rem
        row = rows.get(cand)
        if row is None:
            row = rows[cand] = tuple(e for e in cands[player] if cand & e[0])
        played = trick_cards[depth]
        for bit, c, ow, above, s in row:
            if ow < 0:
                # Equal-card collapse: the lowest bit of ``x`` is the next
                # card up in the suit that is live or on the table.
                x = start & above
                if x & -x & plain:
                    continue
                new_owner = trick_owner
            else:
                if trick_owner >= 0 and trick_owner != ow:
                    continue
                new_owner = ow
            nodes += 1
            if nodes > limit:
                return CUT
            if seat_no == 0:
                new_best = c
                new_led = s
            else:
                new_led = led_suit
                # c beats best: higher in its suit, or a trump on a non-trump.
                if (c > best) if s == best_suit else s == trump:
                    new_best = c
                else:
                    new_best = best
            if new_owner >= 0:
                owner_seat = (new_owner - lead) % p
                if owner_seat <= seat_no and owner[new_best] != new_owner:
                    continue
            played[seat_no] = c
            if seat_no == last:
                res = boundary(rem & ~bit, start, owner[new_best], depth + 1)
            else:
                res = seat(
                    rem & ~bit, start, lead, seat_no + 1, new_led, new_best, new_owner, depth
                )
            if res != LOSS:
                return res
        return LOSS

    def boundary(rem: int, start: int, lead: int, depth: int) -> int:
        # ``start`` is ``rem`` at the last trick's lead.  Every objective
        # card that trick took belongs to its winner: the seat loop drops a
        # card of a second owner, and by the last seat every owner has
        # played, so it drops a trick its owner is not winning.
        nonlocal final_depth
        new = (start ^ rem) & obj_cards
        if new and tokens_broken is not None:
            pair = (start & obj_cards, new)
            block = blocked.get(pair)
            if block is None:
                done = sum(obj_bit_of[i] for i in labels(obj_cards & ~start))
                won = sum(obj_bit_of[i] for i in labels(new))
                block = blocked[pair] = tokens_broken(done, won)
            if block:
                return LOSS
        open_cards = rem & obj_cards
        if not open_cards:
            final_depth = depth
            return WIN
        count = needed.get(open_cards)
        if count is None:
            count = needed[open_cards] = _tricks_needed(open_cards, obj_seats)
        if count > min_size - depth:
            return LOSS
        allowed = -1
        if count == min_size - depth:
            allowed = tight.get(open_cards)
            if allowed is None:
                allowed = tight[open_cards] = _tight_leads(open_cards, obj_seats, suit_mask, trump)
            if not hand_mask[lead] & rem & allowed:
                return LOSS
        key = rem * p + lead
        if key in failed:
            return LOSS
        alias = key
        if loose:
            alias = rem & fixed
            for m in loose:
                live = rem & m
                field = fields.get(live)
                if field is None:
                    field = fields[live] = _field(live, codes, *layout[m])
                alias |= field
            alias = alias * p + lead
            if alias in failed:
                return LOSS
        if allowed != -1:
            allowed = _next_leads(open_cards, rem, hand_mask, obj_seats, suit_mask, trump, tight)
            if not hand_mask[lead] & rem & allowed:
                failed.add(key)
                failed.add(alias)
                return LOSS
        trick_leads[depth] = lead
        res = seat(rem, rem, lead, 0, allowed, -1, -1, depth)
        if res == LOSS:
            failed.add(key)
            failed.add(alias)
        return res

    full_mask = (1 << n) - 1
    leads = [first_lead] if first_lead >= 0 else list(range(p))
    res = LOSS
    for lead in leads:
        res = boundary(full_mask, full_mask, lead, 0)
        if res != LOSS:
            break
    # Break the seat-boundary reference cycle, so the memo is freed now.
    del seat, boundary
    if res != WIN:
        return (res, [], [], nodes)
    return (WIN, trick_leads[:final_depth], trick_cards[:final_depth], nodes)
