"""Rebuild ``general_table.json``, the expected decisions for search-general.

Run from the root of the repository::

    python3 perfbench/table.py

Each deal of the grid is decided from scratch by complete search with a
node cap far above the benchmark's budget, and again on a copy with the
players rotated one seat (and suits and values relabelled).  The two
decisions must agree; a deal that either search cannot decide within the
cap has no known answer and is listed as excluded instead.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from pkgbuild import build_package

PLAYERS = 4
OBJECTIVES = 6
SIZES = (24, 26, 28, 30, 32)
SEEDS = range(16)
CAP = 5_000_000


def main() -> int:
    sys.path.insert(0, str(build_package()))
    import crewsolver as cs

    from workloads import TABLE_PATH, relabel

    deals, excluded = [], []
    for n in SIZES:
        for seed in SEEDS:
            base = cs.gen_general(n, PLAYERS, OBJECTIVES, seed)
            copy = relabel(base, random.Random(f"table:{n}:{seed}"), shift=1)
            first = cs.solve_exhaustive(base, budget=CAP, want_witness=False)
            second = cs.solve_exhaustive(copy, budget=CAP, want_witness=False)
            row = {"n": n, "seed": seed}
            print(n, seed, first.decision, first.stats.nodes, second.decision, second.stats.nodes, flush=True)
            if first.decision is None or second.decision is None:
                excluded.append({**row, "reason": f"undecided within {CAP} nodes"})
            elif first.decision != second.decision:
                print(f"n={n} seed={seed}: relabelled copy decides differently", file=sys.stderr)
                return 1
            else:
                deals.append(
                    {**row, "decision": first.decision, "nodes": first.stats.nodes,
                     "relabelled_nodes": second.stats.nodes}
                )
    doc = {"players": PLAYERS, "objectives": OBJECTIVES, "cap": CAP, "deals": deals, "excluded": excluded}
    Path(TABLE_PATH).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
