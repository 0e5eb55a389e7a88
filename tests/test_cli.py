import json
import time
from pathlib import Path

import pytest

from closeknit.cli import run

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_solve_set6(capsys):
    assert run(["solve", "-i", str(INSTANCES / "set6.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["invariant_element"] == [1, 2]
    assert out["gamma_fixed"] is True
    assert out["mode_agreement"] is True
    assert out["verified"] is True


def test_solve_byte_stable(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["solve", "-i", str(INSTANCES / "set6.json"), "-o", str(out1)]) == 0
    assert run(["solve", "-i", str(INSTANCES / "set6.json"), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_trace_and_modes(capsys):
    assert run(["solve", "-i", str(INSTANCES / "diamond.json"),
                "--mode", "proof", "--trace"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert any(step["event"] == "strong_pool" for step in out["trace"])


def test_solve_galois_descriptor(capsys):
    assert run(["solve", "-i", str(INSTANCES / "s4_sylow.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["descriptor"]["h_order"] == 4
    assert len(out["invariant_element"]) == 4


def test_solve_galois_builds_one_group_instance(monkeypatch, capsys):
    from closeknit.groups import GroupInstance
    built = []
    real_init = GroupInstance.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)
    monkeypatch.setattr(GroupInstance, "__init__", counting_init)
    assert run(["solve", "-i", str(INSTANCES / "s4_sylow.json")]) == 0
    assert len(built) == 1


def test_check_clean_exit_zero(capsys):
    assert run(["check", "-i", str(INSTANCES / "set6.json"),
                "--samples", "50"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == []


def test_check_counts_distinct_samples(tmp_path, capsys):
    # One member on a one-point carrier: every sampled meet is {0}, and
    # the sampled pairs are ({}, {0}) and ({0}, {0}).
    path = write(tmp_path, "one.json", {
        "kind": "set", "set": {"carrier_size": 1, "seeds": [[0]]}})
    assert run(["check", "-i", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["checked_elements"], out["checked_pairs"]) == (1, 2)


def test_check_broken_abstract_exit_two(capsys):
    assert run(["check", "-i", str(INSTANCES / "broken_abstract.json")]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["violations"][0]["type"] == "IncrementViolation"


def test_solve_broken_abstract_exit_two(capsys):
    assert run(["solve", "-i", str(INSTANCES / "broken_abstract.json")]) == 2


def test_oracle_contains_engine_output(capsys):
    assert run(["oracle", "-i", str(INSTANCES / "s3.json"), "--bound", "2"]) == 0
    feasible = json.loads(capsys.readouterr().out)["feasible"]
    assert run(["solve", "-i", str(INSTANCES / "s3.json")]) == 0
    solved = json.loads(capsys.readouterr().out)["invariant_element"]
    assert solved in feasible


def test_eval_delta_table(capsys):
    assert run(["eval-delta", "-i", str(INSTANCES / "metric_demo.json"),
                "--n-max", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["kinds"]) == {"set", "vector"}
    whole = next(t for t in out["tables"]
                 if t["kind"] == "vector" and t["subset"] == [0, 1, 2, 3])
    # codim of the line inside the whole plane is 1: value 1 at n=1, 0 at n=2.
    assert whole["values"][1] == [1, 1]
    assert whole["values"][2] == [0, 1]


def test_malformed_json_exit_four(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert run(["solve", "-i", str(path)]) == 4
    err = capsys.readouterr().err
    assert "line" in err


def test_float_rejected_exit_four(tmp_path):
    path = write(tmp_path, "float.json", {
        "kind": "set",
        "set": {"carrier_size": 2, "seeds": [[0]], "gamma": []},
    })
    text = path and (tmp_path / "float.json").read_text()
    (tmp_path / "float.json").write_text(text.replace('"carrier_size": 2',
                                                      '"carrier_size": 2.0'))
    assert run(["solve", "-i", str(tmp_path / "float.json")]) == 4


def test_missing_file_exit_four():
    assert run(["solve", "-i", "/nonexistent/nope.json"]) == 4


def _not_utf8(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\x7fELF\xff\xfe\x00{}")
    return ["solve", "-i", str(path)]


def _deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    return ["solve", "-i", str(path)]


def _huge_integer(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"kind": "set", "set": {"carrier_size": 1%s, '
                    '"seeds": [[0]]}}' % ("0" * 5000), encoding="utf-8")
    return ["solve", "-i", str(path)]


def _unwritable_output(tmp_path):
    return ["solve", "-i", str(INSTANCES / "set6.json"),
            "-o", str(tmp_path / "missing" / "out.json")]


@pytest.mark.parametrize("make_argv,message", [
    (_not_utf8, "codec can't decode"),
    (_deep_nesting, "nested too deeply"),
    (_huge_integer, "digits"),
    (_unwritable_output, "cannot write"),
], ids=["not-utf8", "deep-nesting", "huge-integer", "unwritable-output"])
def test_unusable_files_exit_four_without_traceback(make_argv, message,
                                                     tmp_path, capsys):
    assert run(make_argv(tmp_path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("payload,message", [
    ({"kind": "group",
      "group": {"degree": -1, "generators": [], "seeds": [[]]}},
     "group.degree: expected a non-negative integer, got -1"),
    ({"kind": "galois",
      "galois": {"degree": -2, "generators": [], "subgroup_seeds": [[]]}},
     "galois.degree: expected a non-negative integer, got -2"),
    ({"kind": "vector", "vector": {"p": 2, "dim": -1, "seeds": [[]]}},
     "vector.dim: expected a non-negative integer, got -1"),
], ids=["group", "galois", "vector"])
def test_negative_structural_size_exit_four(payload, message, tmp_path, capsys):
    assert run(["solve", "-i", write(tmp_path, "neg.json", payload)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("argv", [["solve"], ["check"], ["oracle", "--bound", "2"]],
                         ids=["solve", "check", "oracle"])
@pytest.mark.parametrize("payload,message", [
    ({"kind": "vector", "vector": {"p": 10**18 + 3, "dim": 1, "seeds": [[[1]]]}},
     "vector.p: 1000000000000000003 exceeds the limit 2147483647"),
    ({"kind": "group",
      "group": {"degree": 30_000_000, "generators": [], "seeds": [[]]}},
     "group.degree: 30000000 exceeds the limit 4096"),
    ({"kind": "galois",
      "galois": {"degree": 4097, "generators": [], "subgroup_seeds": [[]]}},
     "galois.degree: 4097 exceeds the limit 4096"),
], ids=["vector-p", "group-degree", "galois-degree"])
def test_oversized_field_exit_four_at_load(payload, message, argv, tmp_path,
                                           capsys):
    start = time.perf_counter()
    assert run(argv + ["-i", write(tmp_path, "big.json", payload)]) == 4
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("payload", [
    {"kind": "vector", "vector": {"p": 2**31 - 1, "dim": 1, "seeds": [[[1]]]}},
    {"kind": "group", "group": {"degree": 4096, "generators": [], "seeds": [[]]}},
], ids=["vector-p", "group-degree"])
def test_size_field_at_its_limit_solves(payload, tmp_path, capsys):
    assert run(["solve", "-i", write(tmp_path, "limit.json", payload)]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_two_kind_blocks_rejected(tmp_path):
    path = write(tmp_path, "two.json", {
        "kind": "set",
        "set": {"carrier_size": 2, "seeds": [[0]], "gamma": []},
        "group": {"degree": 2, "generators": [], "seeds": [[]], "gamma": []},
    })
    assert run(["solve", "-i", path]) == 4


def test_orbit_cap_exit_three(tmp_path, capsys):
    path = write(tmp_path, "cap.json", {
        "kind": "set",
        "set": {"carrier_size": 6, "seeds": [[0]],
                "gamma": [[1, 2, 3, 4, 5, 0]]},
        "options": {"max_orbit": 2},
    })
    assert run(["solve", "-i", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cap exceeded: orbit closure reached 3 members, past max_orbit 2\n"


def test_bad_permutation_exit_four(tmp_path):
    path = write(tmp_path, "badperm.json", {
        "kind": "set",
        "set": {"carrier_size": 3, "seeds": [[0]], "gamma": [[0, 0, 1]]},
    })
    assert run(["solve", "-i", path]) == 4


@pytest.mark.parametrize("command", ["solve", "check"])
def test_abstract_mixed_delta_shapes_exit_four(command, tmp_path, capsys):
    path = write(tmp_path, "mixed.json", {
        "kind": "abstract",
        "abstract": {"size": 2, "meet_table": [[0, 0], [0, 1]], "family": [1],
                     "delta_table": [[[0]], [[1, 0]]],
                     "increment_table": [[1], [1]]},
    })
    assert run([command, "-i", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: delta table mixes index-value shapes\n"


def test_non_normalizing_gamma_exit_two(tmp_path):
    path = write(tmp_path, "nonnorm.json", {
        "kind": "group",
        "group": {"degree": 3, "generators": [[1, 0, 2]],
                  "seeds": [[[1, 0, 2]]], "gamma": [[0, 2, 1]]},
    })
    assert run(["solve", "-i", path]) == 2


def test_unknown_option_rejected(tmp_path):
    path = write(tmp_path, "opt.json", {
        "kind": "set",
        "set": {"carrier_size": 2, "seeds": [[0]], "gamma": []},
        "options": {"bogus": 1},
    })
    assert run(["solve", "-i", path]) == 4


def test_cli_matches_library_on_random_instances(tmp_path, capsys):
    import random
    from closeknit.engine import solve
    from closeknit.sets import SetInstance, FiniteSubset
    rng = random.Random(8)
    for i in range(10):
        n = rng.randint(2, 6)
        seeds = [sorted({rng.randrange(n) for _ in range(rng.randint(0, n))})
                 for _ in range(rng.randint(1, 2))]
        perm = list(range(n))
        rng.shuffle(perm)
        path = write(tmp_path, f"rand{i}.json", {
            "kind": "set",
            "set": {"carrier_size": n, "seeds": seeds, "gamma": [perm]},
        })
        assert run(["solve", "-i", path]) == 0
        out = json.loads(capsys.readouterr().out)
        inst = SetInstance(n, [FiniteSubset.from_members(n, s) for s in seeds],
                           [perm])
        expected = solve(inst).invariant_element.members()
        assert out["invariant_element"] == expected


def test_mode_flag_overrides_file_option(capsys):
    # set6.json asks for both; the flag narrows it to the single route.
    assert run(["solve", "-i", str(INSTANCES / "set6.json"),
                "--mode", "full"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode_agreement"] is None


def test_strong_search_cap_exit_three(tmp_path, capsys):
    path = write(tmp_path, "strongcap.json", {
        "kind": "set",
        "set": {"carrier_size": 4, "seeds": [[0]],
                "gamma": [[1, 2, 3, 0]]},
        "options": {"mode": "proof", "strong_subset_cap": 2},
    })
    assert run(["solve", "-i", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cap exceeded: 15 subset meets exceed strong_subset_cap 2\n"


def test_solve_metric_kind_rejected(capsys):
    assert run(["solve", "-i", str(INSTANCES / "metric_demo.json")]) == 4
    assert "nothing to solve" in capsys.readouterr().err


def test_check_galois_instance(capsys):
    assert run(["check", "-i", str(INSTANCES / "s4_sylow.json"),
                "--samples", "30"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == []


def test_oracle_abstract_fixed_points(capsys):
    assert run(["oracle", "-i", str(INSTANCES / "diamond.json"),
                "--bound", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasible"] == [0, 3]


def test_element_cap_exit_three(tmp_path, capsys):
    path = write(tmp_path, "elemcap.json", {
        "kind": "group",
        "group": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]],
                  "seeds": [[[1, 0, 2]]], "gamma": []},
        "options": {"max_elements": 3},
    })
    assert run(["solve", "-i", path]) == 3
    assert capsys.readouterr().err == (
        "cap exceeded: group closure reached 4 elements, past max_elements 3\n")


def test_eval_delta_group_block(tmp_path, capsys):
    path = write(tmp_path, "groupmetric.json", {
        "kind": "metric",
        "metric": {
            "points": 2,
            "distance": [[0, 1], [1, 0]],
            "formulas": {"phi": [[0], [1]]},
            "group": {"mult_table": [[0, 1], [1, 0]]},
        },
    })
    assert run(["eval-delta", "-i", path, "--n-max", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "group" in out["kinds"]
    row = next(t for t in out["tables"] if t["kind"] == "group")
    # One coset of the vanishing-set subgroup beyond itself: index 2.
    assert row["values"][2] == [1, 1]
    assert row["values"][3] == [0, 1]


def test_check_metric_kind_exit_zero(capsys):
    assert run(["check", "-i", str(INSTANCES / "metric_demo.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == []


MALFORMED_CASES = [
    {"kind": "nope"},
    {"kind": "set"},  # missing block
    {"kind": "set", "set": {"carrier_size": 3, "seeds": [], "gamma": []}},
    {"kind": "set", "set": {"carrier_size": 3, "seeds": [[5]], "gamma": []}},
    {"kind": "set", "set": {"carrier_size": 3, "seeds": [[0]],
                            "gamma": [[0, 1]]}},  # short permutation
    {"kind": "set", "set": {"carrier_size": True, "seeds": [[0]], "gamma": []}},
    {"kind": "group", "group": {"degree": 3, "generators": [[1, 0, 2]],
                                "seeds": [[[9, 9, 9]]], "gamma": []}},
    {"kind": "vector", "vector": {"p": 6, "dim": 2, "seeds": [[[1, 0]]],
                                  "gamma": []}},  # composite p
    {"kind": "vector", "vector": {"p": 2, "dim": 2, "seeds": [[[1, 0, 0]]],
                                  "gamma": []}},  # wrong vector length
    {"kind": "abstract", "abstract": {"size": 2, "meet_table": [[0], [0, 1]],
                                      "family": [1],
                                      "delta_table": [[[0]], [[0]]],
                                      "increment_table": [[1], [1]]}},
    {"kind": "metric", "metric": {"points": 2,
                                  "distance": [[0, [1, 0]], [[1, 0], 0]],
                                  "formulas": {"phi": [[0], [1]]}}},
    {"kind": "set", "set": {"carrier_size": 3, "seeds": [[0]], "gamma": []},
     "options": {"mode": "bogus"}},
]


def _metric_demo(**changes):
    data = json.loads((INSTANCES / "metric_demo.json").read_text(encoding="utf-8"))
    data["metric"].update(changes)
    return data


@pytest.mark.parametrize("command", ["solve", "check", "eval-delta"])
@pytest.mark.parametrize("payload,message", [
    (_metric_demo(subsets=5), "metric.subsets: expected a list of rows"),
    (_metric_demo(distance=[[0, 1, 1, 1], 1, [1, 1, 0, 1], [1, 1, 1, 0]]),
     "metric.distance: expected a table of rows"),
    (_metric_demo(formulas={"phi": [[0], [0], -1, [1]]}),
     "metric.formulas.phi: expected a table of rows"),
], ids=["subsets", "distance-row", "formula-row"])
def test_malformed_metric_shapes_exit_four(tmp_path, capsys, command, payload,
                                           message):
    assert run([command, "-i", write(tmp_path, "bad.json", payload)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_malformed_instances_exit_four_without_traceback(tmp_path):
    for i, payload in enumerate(MALFORMED_CASES):
        path = write(tmp_path, f"bad{i}.json", payload)
        assert run(["solve", "-i", path]) == 4, payload


@pytest.mark.parametrize("argv", [
    ["check", "-i", "set6.json", "--samples", "-5"],
    ["oracle", "-i", "s3.json", "--bound", "-1"],
    ["eval-delta", "-i", "metric_demo.json", "--n-max", "-1"],
    ["check", "-i", "set6.json", "--samples", "0"],
])
def test_negative_counts_exit_four(argv, capsys):
    argv = argv[:2] + [str(INSTANCES / argv[2])] + argv[3:]
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert argv[3] in captured.err


def _forge_disagreement(monkeypatch):
    import closeknit.cli as cli
    real = cli.solve

    def disagreeing(*args, **kwargs):
        cert = real(*args, **kwargs)
        cert.mode_agreement = False
        return cert
    monkeypatch.setattr(cli, "solve", disagreeing)


def _break_subgroup_check(monkeypatch):
    import closeknit.groups as groups
    monkeypatch.setattr(groups, "is_subgroup", lambda ambient, members: False)


@pytest.mark.parametrize("instance,inject,message", [
    ("set6.json", _forge_disagreement, "re-verification"),
    ("s3.json", _break_subgroup_check, "kernel bug"),
])
def test_internal_errors_exit_five_without_traceback(instance, inject, message,
                                                     monkeypatch, capsys):
    inject(monkeypatch)
    assert run(["solve", "-i", str(INSTANCES / instance),
                "--mode", "both"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "closeknit", "solve", "-i",
         str(INSTANCES / "set6.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["invariant_element"] == [1, 2]


def test_vector_flat_and_nested_matrices(tmp_path, capsys):
    flat = write(tmp_path, "flat.json", {
        "kind": "vector",
        "vector": {"p": 2, "dim": 2, "seeds": [[[1, 0]]],
                   "gamma": [[0, 1, 1, 0]]},
    })
    nested = write(tmp_path, "nested.json", {
        "kind": "vector",
        "vector": {"p": 2, "dim": 2, "seeds": [[[1, 0]]],
                   "gamma": [[[0, 1], [1, 0]]]},
    })
    assert run(["solve", "-i", flat]) == 0
    first = capsys.readouterr().out
    assert run(["solve", "-i", nested]) == 0
    second = capsys.readouterr().out
    assert first == second
