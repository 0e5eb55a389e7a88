"""Reading instance files and writing canonical certificates.

Wire format rules: every numeric is an integer or a [numerator,
denominator] pair; floats are rejected.  Certificates are emitted as
canonical JSON (sorted keys, compact separators) so identical inputs
produce identical bytes.

Each kind's loader imports its own kind module, so reading a file loads
only the modules that its kind needs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, List, Optional, Union

from .engine import Certificate, EngineOptions, Instance
from .errors import InputFormatError
from .indexposet import IndexValue

if TYPE_CHECKING:
    from .contlogic import MetricStructure

KIND_BLOCKS = ("set", "group", "vector", "abstract", "galois", "metric")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputFormatError(message)


def _as_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{field}: expected an integer, got {value!r}")
    return value


def _as_number(value: Any, field: str) -> Union[int, Fraction]:
    """Integer, or [num, den] rational pair."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        if value[1] == 0:
            raise InputFormatError(f"{field}: zero denominator")
        return Fraction(value[0], value[1])
    raise InputFormatError(
        f"{field}: expected integer or [num,den] pair, got {value!r}")


def _number_table(value: Any, field: str) -> List[List[Union[int, Fraction]]]:
    _require(isinstance(value, list) and all(isinstance(r, list) for r in value),
             f"{field}: expected a table of rows")
    return [[_as_number(v, field) for v in row] for row in value]


def _int_list(value: Any, field: str) -> List[int]:
    _require(isinstance(value, list), f"{field}: expected a list")
    return [_as_int(v, field) for v in value]


def _int_matrix(value: Any, field: str) -> List[List[int]]:
    _require(isinstance(value, list), f"{field}: expected a list of rows")
    return [_int_list(row, field) for row in value]


def _square_matrix(value: Any, dim: int, field: str) -> List[List[int]]:
    """Accept row-major flat arrays of length dim*dim or nested rows."""
    _require(isinstance(value, list), f"{field}: expected a matrix")
    if value and all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        _require(len(value) == dim * dim,
                 f"{field}: flat matrix needs {dim * dim} entries")
        return [list(value[i * dim:(i + 1) * dim]) for i in range(dim)]
    rows = _int_matrix(value, field)
    _require(len(rows) == dim and all(len(r) == dim for r in rows),
             f"{field}: expected a {dim}x{dim} matrix")
    return rows


def _as_size(value: Any, field: str) -> int:
    size = _as_int(value, field)
    _require(size >= 0, f"{field}: expected a non-negative integer, got {size}")
    return size


def _at_most(value: int, limit: int, field: str) -> int:
    _require(value <= limit, f"{field}: {value} exceeds the limit {limit}")
    return value


class LoadedFile:
    """Parsed instance file: the kind block turned into live objects."""

    def __init__(self, kind: str, instance: Optional[Instance] = None,
                 metric: Optional[MetricStructure] = None,
                 metric_subsets: Optional[List[List[int]]] = None,
                 options: Optional[EngineOptions] = None, mode: str = "full"):
        self.kind = kind
        self.instance = instance
        self.metric = metric
        self.metric_subsets = metric_subsets
        self.options = options
        self.mode = mode


def parse_options(raw: Any) -> "tuple[EngineOptions, str]":
    opts = EngineOptions()
    mode = "full"
    if raw is None:
        return opts, mode
    _require(isinstance(raw, dict), "options: expected an object")
    for key, value in raw.items():
        if key == "max_orbit":
            opts.max_orbit = _as_int(value, "options.max_orbit")
        elif key == "max_elements":
            opts.max_elements = _as_int(value, "options.max_elements")
        elif key == "strong_subset_cap":
            opts.strong_subset_cap = _as_int(value, "options.strong_subset_cap")
        elif key == "mode":
            _require(value in ("full", "proof", "both"),
                     f"options.mode: unknown mode {value!r}")
            mode = value
        else:
            raise InputFormatError(f"options: unknown key {key!r}")
    return opts, mode


def load_file(path: str) -> LoadedFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_reject_float,
                             parse_constant=_reject_float)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except ValueError as exc:
        # Bytes that are not UTF-8, or an integer literal past the
        # interpreter's int/str digit limit.
        raise InputFormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"{path}: JSON nested too deeply") from exc
    return load_dict(data)


def _reject_float(text: str):
    raise InputFormatError(f"floating point literal {text!r} is not allowed")


def load_dict(data: Any) -> LoadedFile:
    _require(isinstance(data, dict), "top level: expected an object")
    kind = data.get("kind")
    _require(kind in KIND_BLOCKS, f"kind: expected one of {KIND_BLOCKS}, got {kind!r}")
    present = [k for k in KIND_BLOCKS if k in data]
    _require(present == [kind],
             f"exactly one kind block must be present; found {present}")
    options, mode = parse_options(data.get("options"))
    block = data[kind]
    _require(isinstance(block, dict), f"{kind}: expected an object")
    loader = {
        "set": _load_set, "group": _load_group, "vector": _load_vector,
        "abstract": _load_abstract, "galois": _load_galois, "metric": _load_metric,
    }[kind]
    return loader(block, options, mode)


def _load_set(block: dict, options: EngineOptions, mode: str) -> LoadedFile:
    from .sets import FiniteSubset, SetInstance

    carrier = _as_int(block.get("carrier_size"), "set.carrier_size")
    seeds_raw = block.get("seeds")
    _require(isinstance(seeds_raw, list) and seeds_raw, "set.seeds: non-empty list")
    seeds = [FiniteSubset.from_members(carrier, _int_list(s, "set.seeds"))
             for s in seeds_raw]
    gamma = _int_matrix(block.get("gamma", []), "set.gamma")
    inst = SetInstance(carrier, seeds, gamma, options)
    return LoadedFile("set", instance=inst, options=options, mode=mode)


def _group_instance(block: dict, options: EngineOptions, kind: str,
                    seeds_field: str) -> Instance:
    """The GroupInstance of a group or galois block; seeds_field names its
    seed subgroup list."""
    from .groups import MAX_DEGREE, GroupInstance, PermGroup, subgroup_from_perms

    field = f"{kind}.degree"
    degree = _at_most(_as_size(block.get("degree"), field), MAX_DEGREE, field)
    gens = _int_matrix(block.get("generators"), f"{kind}.generators")
    ambient = PermGroup(degree, gens, element_cap=options.max_elements)
    field = f"{kind}.{seeds_field}"
    seeds_raw = block.get(seeds_field)
    _require(isinstance(seeds_raw, list) and seeds_raw, f"{field}: non-empty list")
    seeds = [subgroup_from_perms(ambient, _int_matrix(s, field)) for s in seeds_raw]
    gamma = _int_matrix(block.get("gamma", []), f"{kind}.gamma")
    return GroupInstance(ambient, seeds, gamma, options)


def _load_group(block: dict, options: EngineOptions, mode: str) -> LoadedFile:
    inst = _group_instance(block, options, "group", "seeds")
    return LoadedFile("group", instance=inst, options=options, mode=mode)


def _load_vector(block: dict, options: EngineOptions, mode: str) -> LoadedFile:
    from .vect import MAX_P, SubspaceBasis, VectorInstance

    p = _at_most(_as_int(block.get("p"), "vector.p"), MAX_P, "vector.p")
    dim = _as_size(block.get("dim"), "vector.dim")
    seeds_raw = block.get("seeds")
    _require(isinstance(seeds_raw, list) and seeds_raw, "vector.seeds: non-empty list")
    seeds = [SubspaceBasis.from_vectors(p, dim, _int_matrix(s, "vector.seeds"))
             for s in seeds_raw]
    gamma_raw = block.get("gamma", [])
    _require(isinstance(gamma_raw, list), "vector.gamma: expected a list")
    gamma = [_square_matrix(m, dim, "vector.gamma") for m in gamma_raw]
    inst = VectorInstance(p, dim, seeds, gamma, options)
    return LoadedFile("vector", instance=inst, options=options, mode=mode)


def _load_abstract(block: dict, options: EngineOptions, mode: str) -> LoadedFile:
    from .abstract import AbstractLattice, load_abstract

    for field in ("size", "meet_table", "family", "delta_table", "increment_table"):
        _require(field in block, f"abstract.{field} is required")
    delta_rows = block["delta_table"]
    _require(isinstance(delta_rows, list)
             and all(isinstance(row, list) for row in delta_rows),
             "abstract.delta_table: expected a table of rows")
    size = _as_int(block["size"], "abstract.size")
    meet_table = _int_matrix(block["meet_table"], "abstract.meet_table")
    family = _int_list(block["family"], "abstract.family")
    delta_cells = [[_int_list(cell, "abstract.delta_table") for cell in row]
                   for row in delta_rows]
    increment_table = _int_matrix(block["increment_table"], "abstract.increment_table")
    gamma = _int_matrix(block.get("gamma", []), "abstract.gamma")
    # Every field is type-checked before any level is range-checked.
    lattice = AbstractLattice(
        size, meet_table, family,
        [[IndexValue(tuple(cell)) for cell in row] for row in delta_cells],
        increment_table, [tuple(g) for g in gamma])
    inst = load_abstract(lattice, options)
    return LoadedFile("abstract", instance=inst, options=options, mode=mode)


def _load_galois(block: dict, options: EngineOptions, mode: str) -> LoadedFile:
    inst = _group_instance(block, options, "galois", "subgroup_seeds")
    return LoadedFile("galois", instance=inst, options=options, mode=mode)


def _load_metric(block: dict, options: EngineOptions, mode: str) -> LoadedFile:
    from .contlogic import MetricStructure

    k = _as_int(block.get("points"), "metric.points")
    distance = _number_table(block.get("distance"), "metric.distance")
    formulas_raw = block.get("formulas")
    _require(isinstance(formulas_raw, dict) and formulas_raw,
             "metric.formulas: non-empty object")
    formulas = {}
    for name, table in formulas_raw.items():
        formulas[name] = _number_table(table, f"metric.formulas.{name}")
    mult = None
    if "group" in block:
        _require(isinstance(block["group"], dict), "metric.group: expected an object")
        mult = _int_matrix(block["group"].get("mult_table"),
                           "metric.group.mult_table")
    p = coords = None
    if "vector" in block:
        vb = block["vector"]
        _require(isinstance(vb, dict), "metric.vector: expected an object")
        p = _as_int(vb.get("p"), "metric.vector.p")
        coords = _int_matrix(vb.get("coords"), "metric.vector.coords")
    subsets = None
    if "subsets" in block:
        subsets = _int_matrix(block["subsets"], "metric.subsets")
        for s in subsets:
            _require(all(0 <= x < k for x in s), "metric.subsets: point out of range")
    ms = MetricStructure(k, distance, formulas, mult_table=mult, p=p, coords=coords)
    return LoadedFile("metric", metric=ms, metric_subsets=subsets,
                      options=options, mode=mode)


# ---------------------------------------------------------------------------
# Canonical output
# ---------------------------------------------------------------------------

def number_json(value: Union[int, Fraction]) -> Any:
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    return value


def index_value_json(iv: IndexValue) -> List[Any]:
    return [number_json(c) for c in iv.coords]


def certificate_json(inst: Instance, cert: Certificate,
                     verified: Optional[bool] = None,
                     descriptor: Optional[dict] = None) -> dict:
    out = {
        "kind": cert.kind,
        "invariant_element": inst.element_json(cert.invariant_element),
        "gamma_fixed": cert.gamma_fixed,
        "measures": cert.measures,
        "orbit_size": cert.orbit_size,
        "strong_element": inst.element_json(cert.strong_element),
        "argmax_indices": cert.argmax_indices,
        "m_generators": [index_value_json(g) for g in cert.m_generators.generators],
        "bound": cert.bound,
        "mode_agreement": cert.mode_agreement,
        "family": [inst.element_json(f) for f in inst.family],
    }
    if cert.trace is not None:
        out["trace"] = cert.trace
    if verified is not None:
        out["verified"] = verified
    if descriptor is not None:
        out["descriptor"] = descriptor
    return out


def dump_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"
