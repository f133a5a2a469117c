"""Decision procedures for perfect-information cooperative trick-taking deals.

The package models a co-operative card game in which players must route
specific cards to specific winners under follow-suit rules, optionally with
a trump suit and ordering tokens between objectives.  It ships polynomial
deciders for three restricted deal classes, an exhaustive solver for the
general (NP-complete) problem, a witness verifier, and reductions from
Hamiltonian Path used to exercise the hard direction.
"""

from .model import (
    Card,
    Instance,
    InstanceClass,
    InstanceError,
    Objective,
    Play,
    PlayError,
    TokenConstraint,
    Trick,
    classify,
    rotation,
    trick_winner,
)
from .verify import PlaySequence, Reason, Verdict, verify_sequence
from .solvers import (
    SolveReport,
    SolveStats,
    SolverMismatchError,
    solve,
    solve_exhaustive,
)
from .reduction import (
    Graph,
    format_graph,
    hp_bruteforce,
    parse_graph,
    path_to_witness,
    reduce_hp,
    reduce_hp_tokens,
    reduce_hp_trump,
)
from .serialize import (
    FormatError,
    dumps_instance,
    dumps_witness,
    loads_instance,
    loads_witness,
)
from .generate import (
    gen_general,
    gen_graph,
    gen_single_suit,
    gen_single_value,
    gen_ss_owned,
)

__version__ = "0.1.0"

__all__ = [
    "Card",
    "FormatError",
    "Graph",
    "Instance",
    "InstanceClass",
    "InstanceError",
    "Objective",
    "Play",
    "PlayError",
    "PlaySequence",
    "Reason",
    "SolveReport",
    "SolveStats",
    "SolverMismatchError",
    "TokenConstraint",
    "Trick",
    "Verdict",
    "classify",
    "dumps_instance",
    "dumps_witness",
    "format_graph",
    "gen_general",
    "gen_graph",
    "gen_single_suit",
    "gen_single_value",
    "gen_ss_owned",
    "hp_bruteforce",
    "loads_instance",
    "loads_witness",
    "parse_graph",
    "path_to_witness",
    "reduce_hp",
    "reduce_hp_tokens",
    "reduce_hp_trump",
    "rotation",
    "solve",
    "solve_exhaustive",
    "trick_winner",
    "verify_sequence",
]
