"""Relabelling and redundancy checks on the benchmark's set and group rungs.

Renaming the points by a permutation sigma, and conjugating the seeds,
the symmetry generators and the ambient group to match, must carry the
answer N to sigma(N) with the same measures, bound and orbit size.  A
seed already in the closed family, or a symmetry generator that is a
product of the others, must leave N unchanged.  A kernel fault that
commutes with every relabelling passes here; the oracles catch those.
"""

import copy
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from closeknit.engine import solve, verify_certificate
from closeknit.instancefiles import load_dict

SEEDS_KEY = {"set": "seeds", "group": "seeds", "galois": "subgroup_seeds"}


def _workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _ladder_files():
    gen = _workloads().generate
    return [pytest.param(seed, name, text, id=f"seed{seed}-{name[:-5]}")
            for workload in ("sets-wide", "groups-conj") for seed in (1, 2)
            for name, text, _ in gen(workload, seed)]


def _mul(a, b):
    """The permutation applying b first, then a."""
    return [a[x] for x in b]


def _conj(sigma, p):
    """sigma * p * sigma^-1: the same permutation on relabelled points."""
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[sigma[x]] = sigma[y]
    return out


def _relabel(kind, sigma, element):
    """The image under sigma of a set's member list or a subgroup's
    permutation list, in its canonical sorted order."""
    if kind == "set":
        return sorted(sigma[x] for x in element)
    return sorted(_conj(sigma, p) for p in element)


def _relabel_file(data, sigma):
    kind = data["kind"]
    block = copy.deepcopy(data[kind])
    key = SEEDS_KEY[kind]
    block[key] = [_relabel(kind, sigma, s) for s in block[key]]
    block["gamma"] = [_conj(sigma, g) for g in block["gamma"]]
    if kind != "set":
        block["generators"] = [_conj(sigma, g) for g in block["generators"]]
    return {**data, kind: block}


def _solve(data):
    loaded = load_dict(data)
    inst = loaded.instance
    cert = solve(inst, mode=loaded.mode, options=loaded.options)
    assert verify_certificate(inst, cert)
    return inst, cert


def _invariants(cert):
    pairs = sorted((m["forward"], m["backward"]) for m in cert.measures)
    return pairs, cert.bound, cert.orbit_size


@pytest.mark.parametrize("seed,name,text", _ladder_files())
def test_ladder_rung_relabelling(seed, name, text):
    data = json.loads(text)
    kind = data["kind"]
    degree = data[kind]["carrier_size" if kind == "set" else "degree"]
    rng = random.Random(f"{seed}/{name}")
    sigma = list(range(degree))
    rng.shuffle(sigma)
    inst, cert = _solve(data)
    moved, moved_cert = _solve(_relabel_file(data, sigma))
    n = inst.element_json(cert.invariant_element)
    assert moved.element_json(moved_cert.invariant_element) == _relabel(kind, sigma, n)
    assert _invariants(moved_cert) == _invariants(cert)


@pytest.mark.parametrize("seed,name,text", _ladder_files())
def test_ladder_rung_redundant_seed_or_generator(seed, name, text):
    data = json.loads(text)
    kind = data["kind"]
    inst, cert = _solve(data)
    n = inst.element_json(cert.invariant_element)
    rng = random.Random(f"{seed}/{name}")
    extra_seed = copy.deepcopy(data)
    extra_seed[kind][SEEDS_KEY[kind]].append(
        inst.element_json(rng.choice(inst.family)))
    extra_gamma = copy.deepcopy(data)
    gamma = extra_gamma[kind]["gamma"]
    gamma.append(_mul(gamma[0], gamma[-1]))
    for variant in (extra_seed, extra_gamma):
        other, other_cert = _solve(variant)
        assert other.element_json(other_cert.invariant_element) == n
        assert _invariants(other_cert) == _invariants(cert)
