"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.load_program()


def _bindings():
    """Identity of every module attribute and class attribute in closeknit."""
    out = {}
    for mod in tracing.closeknit_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("closeknit."):
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


def _cases(tmp_path, workload, seed=workloads.DEFAULT_SEED):
    return run.write_cases(cli, workload, seed, tmp_path / workload)


def test_tracer_restores_every_patched_attribute():
    import closeknit.engine as engine

    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.install():
            assert engine.solve is not before[("closeknit.engine", "solve")]
            assert engine.Instance.measure is not before[
                ("closeknit.engine", "Instance", "measure")]
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_solve_matches_untraced_and_nests_spans(tmp_path):
    case = _cases(tmp_path, "groups-conj")[0]
    plain = case.solve()
    tracer = tracing.Tracer()
    with tracer.install():
        traced = tracer.root(case.solve)()
    assert traced == plain
    root = tracer.stats[tracing.ROOT]
    assert root.calls == 1
    for stat in tracer.stats.values():
        assert stat.self_time <= stat.total + 1e-9
    assert tracer.stats["galois.solve_galois"].calls == 1
    assert tracer.stats["groups.mult"].calls > 0
    assert tracer.stats["kernel.meet"].by_parent
    parents = {r[2]: r[1] for r in tracer.records}
    assert parents[tracing.ROOT] == -1
    assert tracer.records[parents["engine.verify_certificate"]][2] == tracing.ROOT


def test_tampered_certificate_is_counted_as_failure(tmp_path):
    case = next(c for c in _cases(tmp_path, "proof-both") if c.spec["kind"] == "set")
    text = case.solve()
    gate = checks.Gate("proof-both")
    assert checks.check_certificate(gate, case.spec, text)
    assert not gate.failures

    cert = json.loads(text)
    cert["invariant_element"] = cert["invariant_element"][1:]
    tampered = json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"
    gate = checks.Gate("proof-both")
    assert not checks.check_certificate(gate, case.spec, tampered)
    assert gate.failures["set_rederive"] == 1

    cert = json.loads(text)
    cert["mode_agreement"] = False
    gate = checks.Gate("proof-both")
    assert not checks.check_certificate(gate, case.spec, json.dumps(cert))
    assert gate.failures["mode_agreement"] == 1

    recorded = json.loads(run.BASELINE.read_text())["proof-both"][case.name]
    gate = checks.Gate("proof-both")
    assert checks.check_digest(gate, case.name, text, recorded)
    assert not checks.check_digest(gate, case.name, tampered, recorded)
    assert gate.failures["digest"] == 1


def test_timed_loop_counts_a_wrong_answer(tmp_path):
    cases = _cases(tmp_path, "proof-both")[:2]
    refs = {c.name: c.solve() for c in cases}
    refs[cases[1].name] = refs[cases[1].name].replace("true", "false", 1)
    gate = checks.Gate("proof-both")
    run.timed_loop(gate, cases, refs, seconds=0.0, min_solves=2)
    assert gate.attempted == 2 and gate.failed == 1
    assert gate.failures["repeat"] == 1
    assert not gate.correct


def test_gate_that_examined_nothing_is_not_correct():
    gate = checks.Gate("sets-wide")
    assert gate.failed == 0
    assert set(gate.missing) == set(checks.CLAIMED["sets-wide"])
    assert not gate.correct


def test_oracle_check_runs_on_tabular_instances(tmp_path):
    from closeknit.instancefiles import load_dict

    gate = checks.Gate("proof-both")
    for case in _cases(tmp_path, "proof-both"):
        if case.spec["kind"] == "abstract":
            inst = load_dict(case.spec).instance
            assert checks.check_certificate(gate, case.spec, case.solve(), inst)
    assert gate.checks["oracle"] == 2 and not gate.failures


def test_set_rederivation_agrees_on_example_instance():
    path = run.ROOT / "instances" / "set6.json"
    spec = json.loads(path.read_text())
    gate = checks.Gate("sets-wide")
    assert checks.check_certificate(gate, spec, run.make_solver(cli, str(path))())
    assert gate.checks["set_rederive"] == 1


def test_generation_is_deterministic():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 5)
        assert first == workloads.generate(name, 5)
        assert first != workloads.generate(name, 6)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_digests_do_not_depend_on_hash_seed(workload):
    recorded = json.loads(run.BASELINE.read_text())[workload]
    for hash_seed in ("0", "1", "7"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--digests", "--workload", workload],
            cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=300,
            check=True)
        assert json.loads(proc.stdout)[workload] == recorded, hash_seed
