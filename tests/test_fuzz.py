"""Seeded mutation fuzz over the instance files that ship in instances/.

Each case applies one to three random mutations to one file: a value
replaced by a small value of another type (or by an integer far past
every size limit), an integer shifted by one or two, a list entry
dropped or duplicated, or an object key deleted.  Each mutated file runs
in-process through the CLI for `solve --mode both` and for `check`.
Every outcome must be a documented exit code with at most one stderr
line, never an uncaught exception.  Size fields in the pool stay small
or hit a load-time limit, so no case needs a process limit.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from closeknit.cli import run

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

CASES_PER_SEED = 100
SEEDS = (1, 2, 3)

POOL = (None, True, "x", 0, 1, -1, 2, 10**18 + 3, [], [0], [[0]], {}, {"a": 1})


def _paths(node, prefix=()):
    """Every position in the JSON tree below the root, as a key path."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


def _mutate_once(rng, data):
    path = rng.choice(_paths(data))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    moves = ["replace", "remove"]
    if isinstance(value, int) and not isinstance(value, bool):
        moves.append("shift")
    if isinstance(parent, list):
        moves.append("duplicate")
    move = rng.choice(moves)
    if move == "replace":
        choices = [v for v in POOL if type(v) is not type(value)]
        parent[key] = copy.deepcopy(rng.choice(choices))
    elif move == "shift":
        parent[key] = value + rng.choice((-2, -1, 1, 2))
    elif move == "duplicate":
        parent.insert(key, copy.deepcopy(value))
    else:
        del parent[key]


def _cases(seed):
    rng = random.Random(seed)
    files = sorted(INSTANCES.glob("*.json"))
    originals = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    out = []
    for _ in range(CASES_PER_SEED):
        data = copy.deepcopy(rng.choice(originals))
        for _ in range(rng.randint(1, 3)):
            if not _paths(data):
                break
            _mutate_once(rng, data)
        out.append(data)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_instances_exit_cleanly(seed, tmp_path, capsys):
    path = tmp_path / "case.json"
    for i, data in enumerate(_cases(seed)):
        path.write_text(json.dumps(data), encoding="utf-8")
        for argv in (["solve", "--mode", "both"], ["check"]):
            code = run(argv + ["-i", str(path), "-o", str(tmp_path / "out.json")])
            captured = capsys.readouterr()
            where = f"case {i} of seed {seed}, {argv[0]}: {json.dumps(data)}"
            assert code in (0, 2, 3, 4), where
            # `check` reports violations it finds as exit 2 with the
            # report as output; every other failure is one stderr line.
            lines = captured.err.count("\n")
            if code == 0 or (code == 2 and argv[0] == "check"):
                assert lines <= int(code == 2), where
            else:
                assert lines == 1, where
            assert "Traceback" not in captured.err, where
