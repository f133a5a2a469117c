"""Decision procedures for perfect-information cooperative trick-taking deals.

The package models a co-operative card game in which players must route
specific cards to specific winners under follow-suit rules, optionally with
a trump suit and ordering tokens between objectives.  It ships polynomial
deciders for three restricted deal classes, an exhaustive solver for the
general (NP-complete) problem, a witness verifier, and reductions from
Hamiltonian Path used to exercise the hard direction.

``import crewsolver`` loads a submodule only on first use of one of its
names, and each ``crew`` subcommand imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "model": (
        "Card",
        "Instance",
        "InstanceClass",
        "InstanceError",
        "Objective",
        "Play",
        "PlayError",
        "TokenConstraint",
        "Trick",
        "classify",
        "rotation",
        "trick_winner",
    ),
    "verify": ("PlaySequence", "Reason", "Verdict", "verify_sequence"),
    "solvers": (
        "SolveReport",
        "SolveStats",
        "SolverMismatchError",
        "solve",
        "solve_exhaustive",
    ),
    "reduction": (
        "Graph",
        "format_graph",
        "parse_graph",
        "reduce_hp",
        "reduce_hp_tokens",
        "reduce_hp_trump",
    ),
    "serialize": (
        "FormatError",
        "dumps_instance",
        "dumps_witness",
        "loads_instance",
        "loads_witness",
    ),
    "generate": (
        "gen_general",
        "gen_graph",
        "gen_single_suit",
        "gen_single_value",
        "gen_ss_owned",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
