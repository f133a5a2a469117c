"""Correctness checkers written from the game rules, independent of the package.

Everything here works on the JSON documents the program reads and writes
(instance and witness dicts), never on the package's own model, so a fault
in the package's verifier cannot hide a fault in its solvers.

* ``replay`` checks a claimed winning line in one pass: rotation order,
  follow-suit, trump, winner-leads, owner capture and token order.
* ``has_hamiltonian_path`` is a Held–Karp bitmask oracle for the reductions.
* ``brute_force`` decides a small deal by plain game-tree search.
"""

from __future__ import annotations

from functools import lru_cache


def _card(d) -> tuple[int, int]:
    return (d["v"], d["s"])


def _tokens(doc) -> list[tuple[int, set[int], set[int]]]:
    return [(t["objective"], set(t["before"]), set(t["after"])) for t in doc.get("tokens", [])]


def token_order_ok(done: dict[int, int], tokens) -> bool:
    """True when the completion tricks in ``done`` (objective -> trick index,
    every objective present) satisfy every token.

    A ``before`` objective completes no later than the token's objective, an
    ``after`` objective no earlier, and the objectives completed within one
    trick must admit a single order consistent with all tokens.
    """
    edges: dict[int, set[int]] = {}
    for o, before, after in tokens:
        for b in before:
            if done[b] > done[o]:
                return False
            if done[b] == done[o]:
                edges.setdefault(b, set()).add(o)
        for a in after:
            if done[a] < done[o]:
                return False
            if done[a] == done[o]:
                edges.setdefault(o, set()).add(a)
    # A same-trick constraint graph must be acyclic (depth-first colouring).
    state: dict[int, int] = {}

    def cyclic(v: int) -> bool:
        state[v] = 1
        for w in edges.get(v, ()):
            if state.get(w) == 1 or (w not in state and cyclic(w)):
                return True
        state[v] = 2
        return False

    return not any(v not in state and cyclic(v) for v in list(edges))


def replay(instance: dict, witness: dict) -> str | None:
    """Replay ``witness`` on ``instance``; None if it wins, else the reason.

    The line must end on the trick that completes the last objective.
    """
    p = instance["players"]
    trump = instance.get("trump_suit")
    hands = [{_card(c) for c in hand} for hand in instance["hands"]]
    suit_left = [{} for _ in range(p)]
    for q, hand in enumerate(hands):
        for _, s in hand:
            suit_left[q][s] = suit_left[q].get(s, 0) + 1
    owner = {_card(o["card"]): o["owner"] for o in instance["objectives"]}
    index = {_card(o["card"]): i for i, o in enumerate(instance["objectives"])}
    tokens = _tokens(instance)
    done: dict[int, int] = {}
    lead = witness["lead"]
    if instance.get("lead") is not None and lead != instance["lead"]:
        return f"first lead {lead}, instance fixes {instance['lead']}"
    if not owner:
        return None if not witness["tricks"] else "tricks after the win"
    for t, trick in enumerate(witness["tricks"]):
        if len(done) == len(owner):
            return f"trick {t}: tricks after the win"
        if len(trick) != p:
            return f"trick {t}: {len(trick)} plays for {p} players"
        led_suit = trick[0]["card"]["s"]
        best = None
        for seat, play in enumerate(trick):
            q = play["player"]
            c = _card(play["card"])
            if q != (lead - 1 + seat) % p + 1:
                return f"trick {t}: player {q} out of rotation"
            if c not in hands[q - 1]:
                return f"trick {t}: player {q} does not hold {c}"
            if c[1] != led_suit and suit_left[q - 1].get(led_suit, 0):
                return f"trick {t}: player {q} must follow suit {led_suit}"
            hands[q - 1].remove(c)
            suit_left[q - 1][c[1]] -= 1
            rank = (c[1] == trump, c[1] == led_suit, c[0])
            if best is None or rank > best[0]:
                best = (rank, q)
        lead = best[1]
        for play in trick:
            c = _card(play["card"])
            if c in owner:
                if owner[c] != lead:
                    return f"trick {t}: objective {c} taken by {lead}, owner {owner[c]}"
                done[index[c]] = t
        if len(done) < len(owner) and not all(hands):
            return f"trick {t}: a hand is empty with objectives open"
    if len(done) < len(owner):
        return "objectives left open"
    if not token_order_ok(done, tokens):
        return "token order violated"
    return None


def has_hamiltonian_path(vertices: int, edges) -> bool:
    """Held–Karp: ``ends[mask]`` is the set of vertices at which a path
    visiting exactly the vertices of ``mask`` can end, as a bitmask."""
    adj = [0] * vertices
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    full = (1 << vertices) - 1
    ends = [0] * (full + 1)
    for v in range(vertices):
        ends[1 << v] = 1 << v
    for mask in range(1, full + 1):
        e = ends[mask]
        while e:
            low = e & -e
            e ^= low
            step = adj[low.bit_length() - 1] & ~mask
            while step:
                nxt = step & -step
                step ^= nxt
                ends[mask | nxt] |= nxt
    return ends[full] != 0


def brute_force(instance: dict) -> bool:
    """Decide a small deal by searching every legal line of play."""
    p = instance["players"]
    trump = instance.get("trump_suit")
    objs = [(_card(o["card"]), o["owner"]) for o in instance["objectives"]]
    owner = {c: q for c, q in objs}
    index = {c: i for i, (c, _) in enumerate(objs)}
    tokens = _tokens(instance)
    start = tuple(frozenset(_card(c) for c in hand) for hand in instance["hands"])

    def tricks(hands, lead):
        def go(seat, played):
            if seat == p:
                yield played
                return
            hand = hands[(lead + seat) % p]
            if seat:
                follow = [c for c in hand if c[1] == played[0][1]]
                options = follow or hand
            else:
                options = hand
            for c in options:
                yield from go(seat + 1, played + (c,))

        return go(0, ())

    @lru_cache(maxsize=None)
    def win(hands, lead, done):
        # ``done`` holds (objective, completion trick) pairs.  Only the order
        # of completions matters to tokens, so tricks that complete nothing
        # take no index and equal positions share one memo entry.
        if not all(hands):
            return False
        t = max((tr for _, tr in done), default=-1) + 1
        for cards in tricks(hands, lead):
            led = cards[0][1]
            seat = max(range(p), key=lambda i: (cards[i][1] == trump, cards[i][1] == led, cards[i][0]))
            winner = (lead + seat) % p
            now = dict(done)
            ok = True
            for c in cards:
                if c in owner:
                    if owner[c] != winner + 1:
                        ok = False
                        break
                    now[index[c]] = t
            if not ok:
                continue
            if len(now) == len(objs):
                if token_order_ok(now, tokens):
                    return True
                continue
            if _token_dead(now, tokens):
                continue
            rest = tuple(h - {cards[(i - lead) % p]} for i, h in enumerate(hands))
            if win(rest, winner, tuple(sorted(now.items()))):
                return True
        return False

    if not objs:
        return True
    first = instance.get("lead")
    leads = [first - 1] if first is not None else range(p)
    return any(win(start, lead, ()) for lead in leads)


def _token_dead(done: dict[int, int], tokens) -> bool:
    """True when no later completions can satisfy the tokens any more."""
    for o, before, after in tokens:
        if o in done:
            if any(b not in done or done[b] > done[o] for b in before):
                return True
            if any(a in done and done[a] < done[o] for a in after):
                return True
        elif any(a in done for a in after):
            return True
    return False
