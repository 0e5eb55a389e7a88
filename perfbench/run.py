"""closeknit benchmark: seeded instance files solved along the `closeknit solve` path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/closeknit`.  The
workload's files are generated from the seed, written under
`.perfbench_work/`, and solved one at a time in this process through
the CLI's own `solve` command (`cli.cmd_solve`: load the file, solve with
the file's mode and options, verify, emit canonical JSON).  Separately,
`python -m closeknit solve -i FILE -o OUT` runs as a child process on
the workload's CLI subset.  Every answer is checked (see checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the same solves
with every closeknit layer wrapped by tracing.py and prints per-layer
metrics, a self-time report, and the tracing overhead.  The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

`--digests` prints the sha256 of every default-seed certificate as
JSON; baseline.json is that output, recorded for the current code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SOLVES = 100        # timed in-process solves per run, so 10 lie beyond p90
MIN_CLI = 30            # timed CLI runs per run
SETUP_REPEATS = 5       # set-up repetitions; setup_s is their median
IMPORT_REPEATS = 7      # fresh children timing `import closeknit.cli`
LOOP_CAP_S = 100.0      # hard stop for any loop, so a run ends within 180 s
INPROC_SHARE = 0.6      # share of --seconds for in-process solves; CLI gets the rest
REFERENCE_S = 0.0025    # nominal duration of reference_work(): defines reference speed

# End-to-end metric -> unit (trace 0).
END_TO_END = {
    "solve_p50_ms": "ms", "solve_p90_ms": "ms", "solves_per_s": "1/s",
    "cli_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}

# Per-layer metric -> unit (trace 1).  "_s" is seconds per solve, total
# time unless the name says self; counts are per solve.
PER_LAYER = {
    "cli.import_ms": "ms",
    "instancefiles.load_s": "s/solve",
    "instancefiles.emit_s": "s/solve",
    "instancefiles.cert_bytes": "B/solve",
    "engine.orbit_closure_s": "s/solve",
    "engine.find_strong_s": "s/solve",
    "engine.solve_s": "s/solve",
    "engine.verify_s": "s/solve",
    "engine.compute_m_calls": "calls/solve",
    "engine.argmax_set_calls": "calls/solve",
    "engine.strong_elements_s": "s/solve",
    "engine.strong_elements_self_s": "s/solve",
    "engine.strong_meets": "calls/solve",
    "engine.strong_distinct": "count/solve",
    "engine.strong_useful_ratio": "ratio",
    "engine.n_of_s": "s/solve",
    "engine.n_of_calls": "calls/solve",
    "kernel.meet_calls": "calls/solve",
    "kernel.delta_calls": "calls/solve",
    "kernel.increment_calls": "calls/solve",
    "kernel.act_calls": "calls/solve",
    "kernel.key_calls": "calls/solve",
    "kernel.measure_calls": "calls/solve",
    "kernel.meet_s": "s/solve",
    "kernel.delta_s": "s/solve",
    "kernel.increment_s": "s/solve",
    "kernel.act_s": "s/solve",
    "sets.apply_permutation_s": "s/solve",
    "sets.apply_permutation_calls": "calls/solve",
    "sets.members_s": "s/solve",
    "groups.permgroup_init_s": "s/solve",
    "groups.mult_calls": "calls/solve",
    "groups.closure_s": "s/solve",
    "groups.closure_self_s": "s/solve",
    "groups.closure_calls": "calls/solve",
    "groups.index_of_s": "s/solve",
    "groups.index_of_calls": "calls/solve",
    "groups.increment_group_s": "s/solve",
    "groups.is_subgroup_s": "s/solve",
    "vect.intersect_s": "s/solve",
    "vect.intersect_calls": "calls/solve",
    "vect.add_s": "s/solve",
    "vect.matrix_action_s": "s/solve",
    "indexposet.downset_of_s": "s/solve",
    "indexposet.leq_calls": "calls/solve",
    "indexposet.index_values": "calls/solve",
    "abstract.load_abstract_s": "s/solve",
    "galois.solve_galois_s": "s/solve",
    "bench.unattributed_s": "s/solve",
    "trace.overhead_pct": "%",
}

# Where the largest self time is expected, per workload (any listed span).
EXPECTED_DOMINANT = {
    "sets-wide": ("sets.apply_permutation",),
    "groups-conj": ("groups.closure", "groups.index_of", "groups.increment_group",
                    "groups.is_subgroup", "groups.permgroup_init"),
    "proof-both": ("engine.strong_elements", "kernel.meet", "vect.intersect",
                   "engine.compute_m", "kernel.delta", "indexposet.downset_of"),
}


class ProgramMissing(Exception):
    pass


def load_program():
    """Import closeknit from this checkout's src/, never from elsewhere."""
    if not (SRC / "closeknit" / "__init__.py").is_file():
        raise ProgramMissing(f"no closeknit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import closeknit.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "closeknit").resolve():
        raise ProgramMissing(f"closeknit imported from {cli.__file__}, not {SRC}")
    return cli


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


@dataclass
class Case:
    name: str
    path: str
    spec: dict
    cli: bool
    solve: Callable[[], str]


def make_solver(cli, path: str) -> Callable[[], str]:
    """The `closeknit solve -i PATH` command run in-process; returns its output."""
    args = cli.build_parser().parse_args(["solve", "-i", path])

    def solve_once() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = args.func(args)
        if code != 0:
            raise RuntimeError(f"solve exited with code {code}")
        return buf.getvalue()
    return solve_once


def write_cases(cli, workload: str, seed: int, directory: Path) -> List[Case]:
    """Generate the workload's files and write them under directory."""
    directory.mkdir(parents=True, exist_ok=True)
    cases = []
    for name, text, in_cli in workloads.generate(workload, seed):
        path = directory / name
        path.write_text(text, encoding="utf-8")
        cases.append(Case(name, str(path), json.loads(text), in_cli,
                          make_solver(cli, str(path))))
    return cases


def setup(cli, workload: str, seed: int, directory: Path) -> List[Case]:
    """Write the workload's files, then one untimed warm-up solve."""
    cases = write_cases(cli, workload, seed, directory)
    cases[0].solve()
    return cases


def reference_work() -> float:
    """Seconds taken by a fixed pure-Python loop that mixes the kinds of work
    the solves do: dict and tuple traffic, big-int shifts (sets), short
    integer rows mod p (subspaces) and frozenset meets (groups).

    The shared machine's speed drifts by tens of percent over seconds, and
    the drift slows this loop and the solves alike.  Every timed operation
    is bracketed by two runs of this loop, and its time is reported at
    reference speed (see at_reference).
    """
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(5000):
        key = (i, i >> 3)
        table[key] = i * i
        acc ^= table[key] & 0xFFFF
    big = (1 << 2048) - 1
    for i in range(1500):
        acc ^= (big >> (i & 1023)) & 0xFF
    row = list(range(24))
    for _ in range(250):
        row = [(a - 3 * b) % 5 for a, b in zip(row, row[1:] + row[:1])]
    members = frozenset(range(0, 400, 3))
    for i in range(100):
        acc ^= len(members & frozenset(range(i, 400, 2)))
    return time.perf_counter() - t0


@dataclass
class Sample:
    raw: float     # seconds of wall time
    before: float  # seconds reference_work() took just before
    after: float   # and just after


def bracketed(fn):
    """(result, exception or None, Sample) for one call of fn.

    The heap is collected first, so every timed operation starts from the
    same garbage-collector state, as a fresh `closeknit solve` process does;
    otherwise a full collection triggered by earlier solves lands in a
    different solve on each run."""
    gc.collect()
    before = reference_work()
    t0 = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # the caller counts it as a failed solve
        result, error = None, exc
    raw = time.perf_counter() - t0
    return result, error, Sample(raw, before, reference_work())


def reference_time(samples: List[Sample]) -> float:
    return statistics.median(t for smp in samples for t in (smp.before, smp.after))


def at_reference(samples: List[Sample], window: int = 2) -> List[float]:
    """Seconds at reference speed: raw * REFERENCE_S / the median reference-loop
    time around this sample and its `window` neighbours on either side.  The
    median over neighbours ignores a reference loop hit by a momentary stall,
    which a solve lasting tens of milliseconds mostly averages out."""
    return [smp.raw * REFERENCE_S / reference_time(samples[max(0, j - window):j + window + 1])
            for j, smp in enumerate(samples)]


def timed_setup(workload: str, seed: int, run_dir: Path) -> List[Sample]:
    """Fresh processes doing only the set-up: interpreter start, import,
    generating and writing the files, one warm-up solve."""
    samples = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(run_dir / f"setup-{k}")]
        proc, error, sample = bracketed(lambda: subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120))
        if error is not None or proc.returncode != 0:
            detail = error or proc.stderr.decode()[-500:]
            raise RuntimeError(f"set-up child failed: {detail}")
        samples.append(sample)
    return samples


def recorded_digests(workload: str) -> Dict[str, str]:
    return json.loads(BASELINE.read_text(encoding="utf-8")).get(workload, {})


def reference_pass(gate: checks.Gate, cases: List[Case], load_dict,
                   recorded: Optional[Dict[str, str]]) -> Dict[str, Optional[str]]:
    """Solve each file once, run the independent checks (and the digest check
    when the files are the default seed's), keep the output."""
    refs: Dict[str, Optional[str]] = {}
    for case in cases:
        try:
            text = case.solve()
        except Exception as exc:  # a failing solve is a measured outcome
            gate.error(f"{case.name}: {type(exc).__name__}: {exc}")
            gate.solve(False)
            refs[case.name] = None
            continue
        instance = None
        if case.spec["kind"] != "galois":
            instance = load_dict(case.spec).instance
        ok = checks.check_certificate(gate, case.spec, text, instance)
        if recorded is not None:
            ok &= checks.check_digest(gate, case.name, text, recorded.get(case.name))
        gate.solve(ok)
        refs[case.name] = text
    return refs


def timed_loop(gate: checks.Gate, cases: List[Case], refs, seconds: float,
               min_solves: int, wrap=None, on_solve=None) -> List[Sample]:
    """Closed loop, one solve at a time, cycling over the files; stops at a
    cycle boundary once `seconds` of solving and `min_solves` are reached.
    Checking is outside the timed region."""
    ref_digests = {name: text and checks.digest(text) for name, text in refs.items()}
    samples: List[Sample] = []
    solving = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        if i % len(cases) == 0 and (
                (solving >= seconds and len(samples) >= min_solves)
                or time.perf_counter() - start >= LOOP_CAP_S):
            break
        case = cases[i % len(cases)]
        i += 1
        text, error, sample = bracketed(wrap(case.solve) if wrap else case.solve)
        samples.append(sample)
        solving += sample.raw
        if error is not None:
            gate.error(f"{case.name}: {type(error).__name__}: {error}")
        ok = text is not None and gate.check(
            "repeat", checks.digest(text) == ref_digests[case.name],
            f"{case.name}: output differs from the checked reference")
        gate.solve(ok)
        if on_solve:
            on_solve(case, text)
    return samples


def run_cli(case: Case, out: Path) -> subprocess.CompletedProcess:
    if out.exists():
        out.unlink()
    return subprocess.run(
        [sys.executable, "-m", "closeknit", "solve", "-i", case.path, "-o", str(out)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=120)


def cli_check(gate: checks.Gate, case: Case, refs, proc, out: Path) -> None:
    ok = proc.returncode == 0 and out.exists() and refs[case.name] is not None \
        and out.read_text(encoding="utf-8") == refs[case.name]
    gate.solve(gate.check("cli_bytes", ok,
                          f"{case.name}: CLI exit {proc.returncode} or bytes differ "
                          "from the in-process certificate"))


def cli_loop(gate: checks.Gate, cases: List[Case], refs, seconds: float,
             run_dir: Path) -> List[Sample]:
    """Wall time of `python -m closeknit solve` children on the CLI subset."""
    subset = [c for c in cases if c.cli]
    out = run_dir / "cli-out.json"
    samples: List[Sample] = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i % len(subset) == 0 and (
                (elapsed >= seconds and len(samples) >= MIN_CLI) or elapsed >= LOOP_CAP_S):
            break
        case = subset[i % len(subset)]
        i += 1
        proc, error, sample = bracketed(lambda: run_cli(case, out))
        if error is not None:
            raise error
        samples.append(sample)
        cli_check(gate, case, refs, proc, out)
    return samples


def cli_all_files(gate: checks.Gate, cases: List[Case], refs, run_dir: Path) -> None:
    """Untimed: every file of the workload through the real CLI, byte-compared."""
    out = run_dir / "cli-out.json"
    for case in cases:
        cli_check(gate, case, refs, run_cli(case, out), out)


def digest_pass(gate: checks.Gate, cli, workload: str, run_dir: Path) -> None:
    """Default-seed certificates against the digests recorded in baseline.json."""
    recorded = recorded_digests(workload)
    for case in write_cases(cli, workload, workloads.DEFAULT_SEED, run_dir / "digest"):
        try:
            text = case.solve()
        except Exception as exc:  # counted as a failed solve
            gate.error(f"default-seed {case.name}: {type(exc).__name__}: {exc}")
            gate.solve(False)
            continue
        gate.solve(checks.check_digest(gate, case.name, text, recorded.get(case.name)))


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_ms() -> float:
    """Median time of `import closeknit.cli` in fresh interpreters, at
    reference speed."""
    code = ("import time; t = time.perf_counter(); import closeknit.cli; "
            "print(time.perf_counter() - t)")
    times: List[Sample] = []
    for _ in range(IMPORT_REPEATS):
        proc, error, sample = bracketed(lambda: subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=60, check=True))
        if error is not None:
            raise error
        times.append(Sample(float(proc.stdout.strip()), sample.before, sample.after))
    return statistics.median(at_reference(times)) * 1000.0


def meet_closure_size(instance, cap: int = 1 << 16) -> int:
    """Distinct meets of non-empty family subsets, by breadth-first search."""
    family = instance.family
    seen = {instance.key(f) for f in family}
    frontier = list(family)
    while frontier and len(seen) <= cap:
        new = []
        for s in frontier:
            for f in family:
                m = instance.meet(s, f)
                k = instance.key(m)
                if k not in seen:
                    seen.add(k)
                    new.append(m)
        frontier = new
    return len(seen)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def ms_at_reference(samples: List[Sample]) -> List[float]:
    return [t * 1000.0 for t in at_reference(samples)]


def speed_report(label: str, samples: List[Sample]) -> None:
    raw = statistics.median(smp.raw for smp in samples) * 1000.0
    print(f"{label}: {len(samples)} samples, raw median {raw:.2f} ms, "
          f"machine speed {REFERENCE_S / reference_time(samples):.3f} x reference")


def measure_end_to_end(gate, cases, refs, args, run_dir) -> Dict[str, float]:
    inproc_s = args.seconds * INPROC_SHARE
    solves = timed_loop(gate, cases, refs, inproc_s, MIN_SOLVES)
    cli_runs = cli_loop(gate, cases, refs, args.seconds - inproc_s, run_dir)
    ms = ms_at_reference(solves)
    speed_report("in-process solves", solves)
    speed_report("CLI runs", cli_runs)
    print("per-file median ms at reference speed: " + ", ".join(
        f"{c.name} {statistics.median(ms[i::len(cases)]):.1f}" for i, c in enumerate(cases)))
    return {
        "solve_p50_ms": statistics.median(ms),
        "solve_p90_ms": quantile(ms, 90),
        "solves_per_s": 1000.0 * len(ms) / sum(ms),
        "cli_p50_ms": statistics.median(ms_at_reference(cli_runs)),
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_layers(gate, cases, refs, args) -> Dict[str, float]:
    from closeknit.instancefiles import load_dict

    plain_s = args.seconds * (1.0 - INPROC_SHARE)
    plain = timed_loop(gate, cases, refs, plain_s, 2 * len(cases))
    distinct = {}
    for case in cases:
        if case.spec.get("options", {}).get("mode") in ("proof", "both"):
            distinct[case.name] = meet_closure_size(load_dict(case.spec).instance)

    tracer = tracing.Tracer()
    strong = tracer.stat("engine.strong_elements")
    totals = {"bytes": 0, "distinct": 0}
    before = {"strong": 0}

    def on_solve(case, text):
        totals["bytes"] += len(text.encode("utf-8")) if text else 0
        runs = strong.calls - before["strong"]
        before["strong"] = strong.calls
        totals["distinct"] += runs * distinct.get(case.name, 0)

    with tracer.install():
        traced = timed_loop(gate, cases, refs, args.seconds * INPROC_SHARE,
                            2 * len(cases), wrap=tracer.root, on_solve=on_solve)
    n = len(traced)
    plain_sps = len(plain) / sum(at_reference(plain))
    traced_sps = n / sum(at_reference(traced))
    # Span times are scaled to reference speed like the end-to-end times.
    scale = REFERENCE_S / reference_time(traced)
    metrics = layer_metrics(tracer, n, totals, scale)
    metrics["cli.import_ms"] = import_ms()
    metrics["trace.overhead_pct"] = (plain_sps / traced_sps - 1.0) * 100.0
    write_trace(tracer, args, n)
    print_layer_report(tracer, n, args.workload, plain_sps, traced_sps)
    return metrics


def layer_metrics(tracer: tracing.Tracer, n: int, totals, scale: float) -> Dict[str, float]:
    empty = tracing.Stat()

    def st(name):
        return tracer.stats.get(name, empty)

    def total(name):
        return st(name).total * scale / n

    def self_time(name):
        return st(name).self_time * scale / n

    def calls(name):
        return st(name).calls / n

    strong_meets = st("kernel.meet").by_parent.get("engine.strong_elements", 0)
    m = {
        "instancefiles.load_s": self_time("instancefiles.load"),
        "instancefiles.emit_s": total("instancefiles.certificate_json")
        + total("instancefiles.dump_canonical"),
        "instancefiles.cert_bytes": totals["bytes"] / n,
        "engine.orbit_closure_s": total("engine.orbit_closure"),
        "engine.find_strong_s": total("engine.find_strong"),
        "engine.solve_s": total("engine.solve"),
        "engine.verify_s": total("engine.verify_certificate"),
        "engine.compute_m_calls": calls("engine.compute_m"),
        "engine.argmax_set_calls": calls("engine.argmax_set"),
        "engine.strong_elements_s": total("engine.strong_elements"),
        "engine.strong_elements_self_s": self_time("engine.strong_elements"),
        "engine.strong_meets": strong_meets / n,
        "engine.strong_distinct": totals["distinct"] / n,
        "engine.strong_useful_ratio": totals["distinct"] / strong_meets if strong_meets else 0.0,
        "engine.n_of_s": total("engine.n_of"),
        "engine.n_of_calls": calls("engine.n_of"),
        "groups.permgroup_init_s": total("groups.permgroup_init"),
        "groups.mult_calls": calls("groups.mult"),
        "groups.closure_self_s": self_time("groups.closure"),
        "indexposet.leq_calls": calls("indexposet.leq"),
        "indexposet.index_values": calls("indexposet.index_value"),
        "galois.solve_galois_s": self_time("galois.solve_galois"),
        "bench.unattributed_s": self_time(tracing.ROOT),
    }
    for op in ("meet", "delta", "increment", "act", "key", "measure"):
        m[f"kernel.{op}_calls"] = calls(f"kernel.{op}")
    for op in ("meet", "delta", "increment", "act"):
        m[f"kernel.{op}_s"] = total(f"kernel.{op}")
    for name in ("sets.apply_permutation", "sets.members", "groups.closure",
                 "groups.index_of", "groups.increment_group", "groups.is_subgroup",
                 "vect.intersect", "vect.add", "vect.matrix_action",
                 "indexposet.downset_of", "abstract.load_abstract"):
        m[f"{name}_s"] = total(name)
    for name in ("sets.apply_permutation", "groups.closure", "groups.index_of",
                 "vect.intersect"):
        m[f"{name}_calls"] = calls(name)
    return m


def write_trace(tracer: tracing.Tracer, args, n: int) -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    out = {
        "workload": args.workload, "seed": args.seed, "solves": n,
        "stats": {name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time,
                         "by_parent": s.by_parent}
                  for name, s in sorted(tracer.stats.items())},
        "span_fields": ["solve", "parent", "name", "start_s", "end_s"],
        "spans": tracer.records,
    }
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(out), encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")


def print_layer_report(tracer, n, workload, plain_sps, traced_sps) -> None:
    root = tracer.stats[tracing.ROOT].total
    rows = sorted(((s.self_time, name, s) for name, s in tracer.stats.items()
                   if s.total > 0 and name != tracing.ROOT), reverse=True)
    print(f"# per-layer report: {workload}, {n} traced solves")
    print("(times are raw wall ms per solve; the metrics are at reference speed)")
    print(f"{'span':34s} {'calls/solve':>12s} {'total ms':>10s} {'self ms':>10s} {'self %':>7s}")
    for self_time, name, s in rows[:16]:
        print(f"{name:34s} {s.calls / n:12.1f} {s.total / n * 1e3:10.3f} "
              f"{self_time / n * 1e3:10.3f} {100 * self_time / root:7.1f}")
    unattributed = tracer.stats[tracing.ROOT].self_time
    print(f"{'(solve, outside any span)':34s} {'':12s} {'':10s} "
          f"{unattributed / n * 1e3:10.3f} {100 * unattributed / root:7.1f}")
    by_module: Dict[str, float] = {}
    for name, s in tracer.stats.items():
        if name != tracing.ROOT:
            mod = name.split(".")[0]
            by_module[mod] = by_module.get(mod, 0.0) + s.self_time
    print("self time by layer: " + ", ".join(
        f"{mod} {100 * t / root:.1f}%" for mod, t in
        sorted(by_module.items(), key=lambda kv: -kv[1])))
    top = rows[0][1] if rows else "none"
    if top in EXPECTED_DOMINANT[workload]:
        print(f"largest self time: {top}, as expected for {workload}")
    else:
        print(f"largest self time: {top}; this differs from the expected "
              f"{' / '.join(EXPECTED_DOMINANT[workload])} on {workload}")
    print(f"tracing overhead: {plain_sps:.3f} solves/s untraced vs "
          f"{traced_sps:.3f} traced ({(plain_sps / traced_sps - 1) * 100:.1f}%)")


def print_digests(cli, workload_names: List[str], run_dir: Path) -> None:
    out = {}
    for wl in workload_names:
        cases = write_cases(cli, wl, workloads.DEFAULT_SEED, run_dir / wl)
        out[wl] = {c.name: checks.digest(c.solve()) for c in cases}
    print(json.dumps(out, indent=1, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="set up in DIR and exit (used to time set-up)")
    parser.add_argument("--digests", action="store_true",
                        help="print default-seed certificate digests and exit")
    args = parser.parse_args(argv)
    if not args.digests and not args.workload:
        parser.error("--workload is required")

    try:
        cli = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    if args.setup_only:
        setup(cli, args.workload, args.seed, Path(args.setup_only))
        return 0

    # One process on one CPU: the reference loop, the solves and the CLI
    # children (which inherit the affinity) then run on the same core, whose
    # speed the reference loop measures.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        if args.digests:
            print_digests(cli, [args.workload] if args.workload else sorted(workloads.WORKLOADS),
                          run_dir)
            return 0
        return measure(cli, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(cli, args, run_dir: Path) -> int:
    from closeknit.instancefiles import load_dict

    gate = checks.Gate(args.workload)
    setups = timed_setup(args.workload, args.seed, run_dir)
    cases = setup(cli, args.workload, args.seed, run_dir / "files")
    default_seed = args.seed == workloads.DEFAULT_SEED
    refs = reference_pass(gate, cases, load_dict,
                          recorded_digests(args.workload) if default_seed else None)
    if args.trace:
        metrics = measure_layers(gate, cases, refs, args)
        units = PER_LAYER
    else:
        metrics = measure_end_to_end(gate, cases, refs, args, run_dir)
        metrics["setup_s"] = statistics.median(at_reference(setups))
        speed_report("set-up children", setups)
        units = END_TO_END
    cli_all_files(gate, cases, refs, run_dir)
    if not default_seed:
        digest_pass(gate, cli, args.workload, run_dir)

    error_rate = gate.failed / gate.attempted
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{gate.attempted} solves checked, {gate.failed} failed "
          f"(error_rate {error_rate:.4f})")
    print("checks run: " + ", ".join(f"{k} {v}" for k, v in sorted(gate.checks.items())))
    if gate.missing:
        print("claimed checks that examined nothing: " + ", ".join(gate.missing))
    for msg in gate.messages:
        print(f"failure: {msg}")
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
