"""Import guards: ``import crewsolver`` loads no submodule, ``crew solve``
and ``crew verify`` load none of the modules they do not run, the reductions
load no verifier, and the lazy package exports bind the same names as eager
imports would."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crewsolver
from crewsolver import generate
from crewsolver.model import InstanceClass
from crewsolver.serialize import dumps_instance, dumps_witness

SRC = Path(crewsolver.__file__).resolve().parent.parent
UNUSED_BY_SOLVE_AND_VERIFY = {"crewsolver.bench", "crewsolver.generate", "crewsolver.reduction"}


def _child(code: str) -> object:
    """Run ``code`` in a fresh interpreter with ``PYTHONPATH=src`` and return
    the JSON value on its last line of output."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = "sorted(m for m in sys.modules if m.startswith('crewsolver.'))"


def test_import_loads_no_submodule():
    first, after = _child(
        "import json, sys, crewsolver\n"
        f"first = {_LOADED}\n"
        "crewsolver.verify_sequence\n"
        f"print(json.dumps([first, [{_LOADED}, 'verify_sequence' in vars(crewsolver)]]))"
    )
    assert first == []
    # One name loads its home module (and what that imports), and is cached.
    assert after == [["crewsolver.model", "crewsolver.verify"], True]


@pytest.mark.parametrize(
    "name, modules",
    [("reduce_hp", ["model", "reduction"]), ("gen_graph", ["generate", "model", "reduction"])],
)
def test_reductions_stand_apart_from_the_verifier(name, modules):
    # The reductions only build deals; checking a line is the verifier's job.
    loaded = _child(f"import json, sys, crewsolver\ncrewsolver.{name}\nprint(json.dumps({_LOADED}))")
    assert loaded == [f"crewsolver.{module}" for module in modules]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cli_loads_only_what_it_runs(command, tmp_path, uneven_deal, uneven_deal_win):
    deal = tmp_path / "deal.json"
    deal.write_text(dumps_instance(uneven_deal))
    witness = tmp_path / "win.json"
    witness.write_text(dumps_witness(uneven_deal_win))
    argv = [command, str(deal)] + ([str(witness)] if command == "verify" else [])
    code, loaded = _child(
        "import json, sys\n"
        "from crewsolver.cli import entry\n"
        f"code = entry({argv!r})\n"
        f"print(json.dumps([code, {_LOADED}]))"
    )
    assert code == 0
    assert "crewsolver.cli" in loaded
    assert not UNUSED_BY_SOLVE_AND_VERIFY & set(loaded)


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from crewsolver import *", namespace)
    assert set(crewsolver.__all__) <= set(namespace)
    for name in crewsolver.__all__:
        assert namespace[name] is getattr(crewsolver, name)


def test_dir_lists_all():
    assert set(crewsolver.__all__) <= set(dir(crewsolver))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        crewsolver.no_such_name


def test_gen_choices_are_the_generators():
    # ``crew gen`` builds its choices from the class labels, not from
    # ``GENERATORS``, so that building the parser imports no generator.
    assert tuple(generate.GENERATORS) == tuple(c.value for c in InstanceClass)
