"""The package surface and what a `closeknit solve` start loads.

The package resolves its exported names lazily, so these tests pin the
export list, check that every entry resolves, and check that a solve of
one kind loads neither the other kinds' modules nor `dataclasses`.  The
value types are plain classes; their equality, hash, immutability and
repr are pinned to what a frozen dataclass gave them.
"""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import closeknit
from closeknit.engine import ValidationReport
from closeknit.indexposet import DownSet, IndexValue
from closeknit.sets import FiniteSubset

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = [
    "AbstractInstance", "AbstractLattice", "AssociativityViolation",
    "CapExceeded", "Certificate", "CloseKnitError", "ConditionViolation",
    "ContractViolation", "DownSet", "ElementCapExceeded", "EngineOptions",
    "EnumerationCapExceeded", "EquivarianceViolation", "FiniteSubset",
    "GroupInstance", "IncrementViolation", "IndexValue",
    "InputFormatError", "Instance", "InvalidAction", "MetricStructure",
    "MonotonicityViolation", "OrbitCapExceeded", "PermGroup", "SetInstance",
    "StrongSearchExhausted", "StructureMismatch", "Subgroup", "SubspaceBasis",
    "ValidationReport", "VectorInstance", "abstract", "add", "all_subgroups",
    "all_subspaces", "closure", "codim", "compute_m",
    "conjugate_action", "contlogic", "delta_phi_n_group", "delta_phi_n_set",
    "delta_phi_n_vect", "discrete_reduction", "downset_of", "engine",
    "errors", "evaluate", "feasible_set", "galois", "greatest_n", "groups",
    "increment_group", "index_of", "indexposet", "intersect",
    "invariant_subsets", "leq", "load_abstract", "matrix_action",
    "maximal_in", "measure_group", "measure_set", "measure_vect", "n_of",
    "nat", "oracle", "orbit_closure", "product_set",
    "sets", "solve", "solve_galois", "strong_elements",
    "subgroup_from_perms", "validate_conditions", "vect",
    "verify_certificate",
]

SUBMODULES = {"abstract", "contlogic", "engine", "errors", "galois", "groups",
              "indexposet", "oracle", "sets", "vect"}


def test_exports_are_unchanged():
    assert len(EXPORTS) == 77
    assert closeknit.__all__ == EXPORTS


def test_every_export_resolves():
    for name in EXPORTS:
        value = getattr(closeknit, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"closeknit.{name}"]
        else:
            assert value.__module__.startswith("closeknit.")
    assert set(EXPORTS) <= set(dir(closeknit))
    with pytest.raises(AttributeError):
        getattr(closeknit, "no_such_name")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from closeknit import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert namespace["PermGroup"] is closeknit.groups.PermGroup


VALUES = [
    (IndexValue((1, 2)), IndexValue((1, 2)), IndexValue((2, 1)), ((1, 2),),
     "IndexValue(coords=(1, 2))"),
    (IndexValue((Fraction(1, 2),)), IndexValue((Fraction(1, 2),)),
     IndexValue((Fraction(1, 3),)), ((Fraction(1, 2),),),
     "IndexValue(coords=(Fraction(1, 2),))"),
    (DownSet((IndexValue((0,)),)), DownSet((IndexValue((0,)),)),
     DownSet((IndexValue((1,)),)), ((IndexValue((0,)),),),
     "DownSet(generators=(IndexValue(coords=(0,)),))"),
    (FiniteSubset(6, 5), FiniteSubset(6, 5), FiniteSubset(7, 5), (6, 5),
     "FiniteSubset(carrier_size=6, bits=5)"),
]


@pytest.mark.parametrize("value,same,other,fields,text", VALUES,
                         ids=["nat", "rational", "downset", "subset"])
def test_value_types_behave_like_frozen_dataclasses(value, same, other,
                                                    fields, text):
    assert value == same and not value != same
    assert value != other
    assert value.__eq__(fields) is NotImplemented
    assert value != fields
    assert hash(value) == hash(same) == hash(fields)
    assert repr(value) == text
    assert not hasattr(value, "__dict__")
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_index_value_stores_a_list_as_a_tuple():
    value = IndexValue([3, 4])
    assert value.coords == (3, 4)
    assert value == IndexValue((3, 4))


def test_readme_library_example_runs():
    # The python block under "## Library" runs as written, and every line
    # ending in "  # <literal>" evaluates to that literal.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    results = [line.split("  # ", 1) for line in block.splitlines()
               if "  # " in line]
    assert [expected.strip() for _, expected in results] == ["[1, 2]"]
    for expr, expected in results:
        assert eval(expr, namespace) == ast.literal_eval(expected.strip())


def test_validation_report_as_dict():
    report = ValidationReport()
    assert report.ok
    report.violations.append({"condition": "x"})
    report.checked_pairs = 3
    assert not report.ok
    assert report.as_dict() == {"violations": [{"condition": "x"}], "notes": [],
                                "checked_pairs": 3, "checked_elements": 0}


# Modules that belong to one instance kind or to one other command.
KIND_MODULES = {"sets", "groups", "vect", "galois", "abstract", "contlogic",
                "oracle"}

# The child runs the interpreter with -S: hooks that site-packages install
# may import modules of their own, which would say nothing about closeknit.
CHILD = """
import json, runpy, sys
sys.argv = ["closeknit", "solve", "-i", sys.argv[1], "-o", sys.argv[2]]
code = None
try:
    runpy.run_module("closeknit", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


@pytest.mark.parametrize("name,kind_modules", [
    ("set6.json", {"sets"}),
    ("s4_sylow.json", {"groups", "galois"}),
    ("s3.json", {"groups"}),
    ("planes_f2_3.json", {"vect"}),
    ("diamond.json", {"abstract"}),
], ids=["set", "galois", "group", "vector", "abstract"])
def test_solve_start_loads_only_its_kind(name, kind_modules, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, str(ROOT / "instances" / name),
         str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    modules = set(result["modules"])
    assert "dataclasses" not in modules
    assert "inspect" not in modules
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("closeknit.")}
    assert loaded & KIND_MODULES == kind_modules


ORACLE_CHILD = """
import json, runpy, sys
sys.argv = ["closeknit", "oracle", "--bound", "2", "-i", sys.argv[1]]
code = None
try:
    runpy.run_module("closeknit", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def test_oracle_on_a_set_file_loads_only_sets():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", ORACLE_CHILD,
         str(ROOT / "instances" / "set6.json")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    loaded = {m.split(".", 1)[1] for m in result["modules"]
              if m.startswith("closeknit.")}
    assert loaded & KIND_MODULES == {"oracle", "sets"}
