"""Command-line entry points.

Exit codes: 0 success/verified, 2 validation violations found,
3 a hard cap was exceeded, 4 malformed input or unusable files
(including `--samples` below 1, a negative `--bound` or `--n-max`, an
input that is not UTF-8 JSON or is nested too deeply, and an output
path that cannot be written), 5 internal error: a certificate failed
re-verification (`--mode both` routes that disagree included), a
descent did not stabilise, or a kernel consistency check failed.

Each command imports the modules it needs when it runs, so a start-up
loads only what its command and its file's kind use.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .engine import (ValidationReport, solve, validate_conditions,
                     verify_certificate)
from .errors import (CapExceeded, CloseKnitError, ConditionViolation,
                     ContractViolation, InputFormatError, InvalidAction,
                     StructureMismatch)
from .instancefiles import (LoadedFile, certificate_json, dump_canonical,
                            load_file, number_json)

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_CAP = 3
EXIT_BAD_INPUT = 4
EXIT_INTERNAL = 5


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFormatError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _solvable(loaded: LoadedFile):
    if loaded.instance is not None:
        return loaded.instance
    raise InputFormatError(f"kind {loaded.kind!r} has nothing to solve")


def _at_least(low: int, value: Optional[int], flag: str) -> None:
    if value is not None and value < low:
        raise InputFormatError(f"{flag} must be at least {low}, got {value}")


def cmd_solve(args) -> int:
    loaded = load_file(args.input)
    mode = args.mode or loaded.mode
    inst = _solvable(loaded)
    if loaded.kind == "galois":
        from .galois import solve_galois
        cert, descriptor = solve_galois(inst, mode=mode, options=loaded.options,
                                        with_trace=args.trace)
    else:
        descriptor = None
        cert = solve(inst, mode=mode, options=loaded.options,
                     with_trace=args.trace)
    verified = verify_certificate(inst, cert)
    if not verified:
        raise CloseKnitError("certificate failed re-verification")
    payload = certificate_json(inst, cert, verified=True, descriptor=descriptor)
    _emit(dump_canonical(payload), args.output)
    return EXIT_OK


def cmd_check(args) -> int:
    # A check that examined no pair would report a vacuous pass.
    _at_least(1, args.samples, "--samples")
    try:
        loaded = load_file(args.input)
    except ConditionViolation as exc:
        report = ValidationReport(violations=[{
            "condition": exc.clause, "detail": str(exc),
            "type": type(exc).__name__}])
    else:
        if loaded.kind == "metric":
            report = ValidationReport(notes=["structure validated on load"])
        else:
            report = validate_conditions(_solvable(loaded), samples=args.samples)
    _emit(dump_canonical(report.as_dict()), args.output)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def cmd_oracle(args) -> int:
    from .oracle import feasible_set

    _at_least(0, args.bound, "--bound")
    loaded = load_file(args.input)
    inst = _solvable(loaded)
    found = feasible_set(inst, args.bound)
    payload = {
        "bound": args.bound,
        "count": len(found),
        "feasible": [inst.element_json(e) for e in found],
    }
    _emit(dump_canonical(payload), args.output)
    return EXIT_OK


def cmd_eval_delta(args) -> int:
    from .contlogic import KIND_EVALUATORS

    _at_least(0, args.n_max, "--n-max")
    loaded = load_file(args.input)
    if loaded.metric is None:
        raise InputFormatError("eval-delta needs a metric instance file")
    ms = loaded.metric
    n_max = args.n_max if args.n_max is not None else ms.n_points
    subsets = loaded.metric_subsets or [list(range(ms.n_points))]
    kinds = ["set"]
    if ms.mult is not None:
        kinds.append("group")
    if ms.p is not None:
        kinds.append("vector")
    tables = []
    for kind in kinds:
        fn = KIND_EVALUATORS[kind]
        for subset in subsets:
            for phi in sorted(ms.formulas):
                for a in range(ms.n_params or 0):
                    values = [number_json(fn(ms, subset, a, None, phi, n))
                              for n in range(n_max + 1)]
                    tables.append({"kind": kind, "subset": subset,
                                   "formula": phi, "a": a, "values": values})
    payload = {"kinds": kinds, "n_max": n_max, "points": ms.n_points,
               "tables": tables}
    _emit(dump_canonical(payload), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closeknit",
        description="Invariant commensurable sub-objects via lattice fixed points")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance, emit a certificate")
    p_solve.add_argument("-i", "--input", required=True)
    p_solve.add_argument("-o", "--output")
    p_solve.add_argument("--mode", choices=["full", "proof", "both"])
    p_solve.add_argument("--trace", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="validate the defining conditions")
    p_check.add_argument("-i", "--input", required=True)
    p_check.add_argument("-o", "--output")
    p_check.add_argument("--samples", type=int, default=200)
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser("oracle", help="enumerate feasible invariant elements")
    p_oracle.add_argument("-i", "--input", required=True)
    p_oracle.add_argument("-o", "--output")
    p_oracle.add_argument("--bound", type=int, required=True)
    p_oracle.set_defaults(func=cmd_oracle)

    p_eval = sub.add_parser("eval-delta", help="tabulate the distance formulas")
    p_eval.add_argument("-i", "--input", required=True)
    p_eval.add_argument("-o", "--output")
    p_eval.add_argument("--n-max", type=int)
    p_eval.set_defaults(func=cmd_eval_delta)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, StructureMismatch, ContractViolation) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ConditionViolation, InvalidAction) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATIONS
    except CloseKnitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
