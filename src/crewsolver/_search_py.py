"""Pure-Python exhaustive search kernel.

Complete depth-first search over trick sequences with canonical branch order
(leads in ascending player order when free; within a trick, each seat tries
its cards in descending (value, suit) order), memoization of failed
positions, and a node budget.  The branch order fixes the witness: the first
accepting line found is always the same one.

All pruning is decision-exact and cannot change the first accepting line:

* distinct-owner bound — objectives completed in one trick all belong to the
  trick's winner, so a position with more distinct uncompleted-objective
  owners than the smallest hand size is lost;
* misroute pairs — two uncompleted objective cards with different owners in
  the same trick guarantee a misroute, as does an objective card whose owner
  has already played and is not currently winning the trick;
* equal-card collapse — when the next live card upward in a suit is a live
  non-objective card in the same hand (no live or on-table card between),
  the two cards are interchangeable and only the higher is branched.

This module has no dependencies on the rest of the package; the wrapper in
``exhaustive`` handles encoding and decoding.
"""

from __future__ import annotations

WIN = 1
LOSS = 0
CUT = -1


def search(
    p: int,
    values: list[int],
    suits: list[int],
    owners: list[int],
    obj_card: list[int],
    obj_owner: list[int],
    before: list[int],
    after: list[int],
    trump: int,
    first_lead: int,
    budget: int,
) -> tuple[int, list[int], list[list[int]], int]:
    """Run the search; see the module docstring for the contract.

    Players and suits are 0-based dense indices here; ``trump`` and
    ``first_lead`` use -1 for "none".  ``budget`` caps branch nodes
    (0 = unlimited).  Returns ``(status, leads, tricks, nodes)`` where
    status is 1 (win), 0 (loss) or -1 (budget exhausted); ``tricks`` holds
    card indices per trick in rotation order from that trick's lead.
    """
    n = len(values)
    l = len(obj_card)
    full_mask = (1 << n) - 1
    all_objs = (1 << l) - 1
    limit = budget if budget > 0 else float("inf")

    hand_mask = [0] * p
    for c, q in enumerate(owners):
        hand_mask[q] |= 1 << c

    n_suits = max(suits) + 1 if n else 0
    suit_mask = [0] * n_suits
    for c, s in enumerate(suits):
        suit_mask[s] |= 1 << c

    objidx_of = [-1] * n
    owner_bit = [0] * l
    for o, c in enumerate(obj_card):
        objidx_of[c] = o
        owner_bit[o] = 1 << obj_owner[o]
    has_tokens = any(before) or any(after)

    sorted_desc = [
        sorted(
            (c for c in range(n) if owners[c] == q),
            key=lambda c: (values[c], suits[c]),
            reverse=True,
        )
        for q in range(p)
    ]
    suit_order = [
        sorted((c for c in range(n) if suits[c] == s), key=lambda c: values[c])
        for s in range(n_suits)
    ]
    pos_in_suit = [0] * n
    for order in suit_order:
        for i, c in enumerate(order):
            pos_in_suit[c] = i

    max_tricks = (min((hand_mask[q].bit_count() for q in range(p)), default=0)) + 1
    trick_cards = [[-1] * p for _ in range(max_tricks)]
    trick_leads = [-1] * max_tricks

    failed: set[tuple[int, int, int]] = set()
    nodes = 0
    final_depth = 0

    def suit_successor(c: int, live: int) -> int:
        order = suit_order[suits[c]]
        for i in range(pos_in_suit[c] + 1, len(order)):
            cc = order[i]
            if (live >> cc) & 1:
                return cc
        return -1

    def beats(c: int, best: int) -> bool:
        if suits[c] == suits[best]:
            return values[c] > values[best]
        return trump >= 0 and suits[c] == trump

    def cycle_in(s_mask: int) -> bool:
        members = []
        m = s_mask
        while m:
            low = m & -m
            members.append(low.bit_length() - 1)
            m ^= low
        edges = {o: set() for o in members}
        for o in members:
            b = before[o] & s_mask
            while b:
                low = b & -b
                edges[low.bit_length() - 1].add(o)
                b ^= low
            a = after[o] & s_mask
            while a:
                low = a & -a
                edges[o].add(low.bit_length() - 1)
                a ^= low
        indeg = {o: 0 for o in members}
        for src in members:
            for dst in edges[src]:
                indeg[dst] += 1
        queue = [o for o in members if indeg[o] == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for dst in edges[node]:
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    queue.append(dst)
        return seen != len(members)

    def token_block(cb: int, s_mask: int) -> bool:
        live = cb | s_mask
        m = s_mask
        while m:
            low = m & -m
            o = low.bit_length() - 1
            m ^= low
            if before[o] & ~live & all_objs:
                return True
            if after[o] & cb:
                return True
        rest = all_objs & ~live
        while rest:
            low = rest & -rest
            o = low.bit_length() - 1
            rest ^= low
            if after[o] & s_mask:
                return True
        return cycle_in(s_mask)

    def resolve(rem: int, completed: int, trick_mask: int, best: int, depth: int) -> int:
        nonlocal final_depth
        winner = owners[best]
        new_completed = completed
        m = trick_mask
        while m:
            low = m & -m
            c = low.bit_length() - 1
            m ^= low
            o = objidx_of[c]
            if o >= 0:
                if obj_owner[o] != winner:
                    return LOSS
                new_completed |= 1 << o
        if has_tokens and new_completed != completed:
            if token_block(completed, new_completed & ~completed):
                return LOSS
        if new_completed == all_objs:
            final_depth = depth + 1
            return WIN
        for q in range(p):
            if not hand_mask[q] & rem:
                return LOSS
        return boundary(rem, winner, new_completed, depth + 1)

    def seat(
        rem: int,
        lead: int,
        completed: int,
        seat_no: int,
        led_suit: int,
        trick_mask: int,
        best: int,
        trick_owner: int,
        depth: int,
    ) -> int:
        nonlocal nodes
        if seat_no == p:
            return resolve(rem, completed, trick_mask, best, depth)
        player = (lead + seat_no) % p
        cand = hand_mask[player] & rem
        if seat_no > 0:
            follow = cand & suit_mask[led_suit]
            if follow:
                cand = follow
        row = trick_cards[depth]
        for c in sorted_desc[player]:
            bit = 1 << c
            if not cand & bit:
                continue
            o = objidx_of[c]
            if o < 0:
                succ = suit_successor(c, rem | trick_mask)
                if (
                    succ >= 0
                    and (rem >> succ) & 1
                    and owners[succ] == player
                    and objidx_of[succ] < 0
                ):
                    continue
                new_owner = trick_owner
            else:
                ow = obj_owner[o]
                if trick_owner >= 0 and trick_owner != ow:
                    continue
                new_owner = ow
            nodes += 1
            if nodes > limit:
                return CUT
            if seat_no == 0:
                new_best = c
                new_led = suits[c]
            else:
                new_led = led_suit
                new_best = c if beats(c, best) else best
            if new_owner >= 0:
                owner_seat = (new_owner - lead) % p
                if owner_seat <= seat_no and owners[new_best] != new_owner:
                    continue
            row[seat_no] = c
            res = seat(
                rem & ~bit,
                lead,
                completed,
                seat_no + 1,
                new_led,
                trick_mask | bit,
                new_best,
                new_owner,
                depth,
            )
            if res != LOSS:
                return res
        return LOSS

    def boundary(rem: int, lead: int, completed: int, depth: int) -> int:
        key = (rem, lead, completed)
        if key in failed:
            return LOSS
        owners_mask = 0
        m = all_objs & ~completed
        while m:
            low = m & -m
            owners_mask |= owner_bit[low.bit_length() - 1]
            m ^= low
        min_hand = min((hand_mask[q] & rem).bit_count() for q in range(p))
        if owners_mask.bit_count() > min_hand:
            failed.add(key)
            return LOSS
        trick_leads[depth] = lead
        res = seat(rem, lead, completed, 0, -1, 0, -1, -1, depth)
        if res == LOSS:
            failed.add(key)
        return res

    if l == 0:
        return (WIN, [], [], 0)

    leads = [first_lead] if first_lead >= 0 else list(range(p))
    for lead in leads:
        res = boundary(full_mask, lead, 0, 0)
        if res == WIN:
            return (
                WIN,
                trick_leads[:final_depth],
                [trick_cards[d][:] for d in range(final_depth)],
                nodes,
            )
        if res == CUT:
            return (CUT, [], [], nodes)
    return (LOSS, [], [], nodes)
