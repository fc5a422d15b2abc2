"""The automorphism search's generator sets, pinned.

``find_generators`` runs on every cold-symmetric, cold-backend and
churn-catalogue request of the perf ledger (``benchmarks/ledger/
instances.py``), in the space each is solved in, once with its demand and
once on the fabric alone. The generators (permutations in order, their
chunk maps) and the group order must stay what
``tests/golden/generator_sets.json`` holds: how the search builds its
coloured graph may change, the group and the path to it may not.
``PYTHONPATH=src python tests/test_generator_pins.py`` rewrites the file.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core import symmetry

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "golden" / "generator_sets.json"
CATALOGUE = ROOT.parent / "benchmarks" / "ledger" / "instances.py"


def _instances():
    spec = importlib.util.spec_from_file_location("_pin_instances",
                                                  CATALOGUE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    cases = [("cold-symmetric", module.cold_symmetric()),
             ("cold-backend", module.cold_backend()),
             ("churn", [inst for variants in module.churn_catalogue().values()
                        for inst in variants])]
    return {f"{kind}/{inst.name}": module.solve_space(inst.request)[:2]
            for kind, instances in cases for inst in instances}


def describe(generators) -> dict:
    """A generator set as JSON: the order, the permutations in order and
    one digest of their chunk maps (``None`` on the fabric alone)."""
    maps = [None if g.chunk_map is None
            else sorted([*key, *image] for key, image in g.chunk_map.items())
            for g in generators]
    return {"order": generators.order,
            "perms": [list(g.perm) for g in generators],
            "chunk_maps": hashlib.sha256(
                json.dumps(maps).encode()).hexdigest()}


def generator_sets() -> dict:
    return {name: {"demand": describe(symmetry.find_generators(topo, demand)),
                   "fabric": describe(symmetry.find_generators(topo, None))}
            for name, (topo, demand) in _instances().items()}


@pytest.fixture(scope="module")
def found():
    return generator_sets()


GOLDEN_SETS = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_SETS))
def test_generator_set_is_pinned(found, name):
    assert found[name] == GOLDEN_SETS[name]


def test_every_instance_is_pinned(found):
    assert set(found) == set(GOLDEN_SETS)


def golden_text(sets: dict) -> str:
    """One line per instance."""
    return "{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(sets[name], sort_keys=True)}"
        for name in sorted(sets)) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(golden_text(generator_sets()))
