"""Correctness gate: every answer the benchmark times is checked here.

Checks run outside the timed region.  Each check is counted by type, so
a run whose gate examined nothing of a type it claims is not correct.

Types:
  verified        the certificate says verified and gamma_fixed
  repeat          a timed output is byte-identical to the file's checked
                  reference output
  digest          default-seed certificates match the sha256 recorded in
                  baseline.json (certificates are byte-stable across commits)
  cli_bytes       `closeknit solve` output equals the in-process output
  set_rederive    for set instances, N re-derived with plain Python sets
  mode_agreement  the two routes agree in mode "both"
  oracle          N is in closeknit.oracle.feasible_set(inst, bound), on
                  instances under the oracle's caps
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import List, Optional

CLAIMED = {
    "sets-wide": ("verified", "repeat", "digest", "cli_bytes", "set_rederive"),
    "groups-conj": ("verified", "repeat", "digest", "cli_bytes"),
    "proof-both": ("verified", "repeat", "digest", "cli_bytes", "set_rederive",
                   "mode_agreement", "oracle"),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Gate:
    """Counts checks and failures by type, and solves attempted and failed."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.checks: Counter = Counter()
        self.failures: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, kind: str, ok: bool, detail: str) -> bool:
        self.checks[kind] += 1
        if not ok:
            self.failures[kind] += 1
            if len(self.messages) < 20:
                self.messages.append(f"{kind}: {detail}")
        return ok

    def solve(self, ok: bool) -> None:
        """Account one solve attempt; ok is False if it raised or failed a check."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def error(self, detail: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(detail)

    @property
    def missing(self) -> List[str]:
        """Claimed check types that examined nothing."""
        return [k for k in CLAIMED[self.workload] if not self.checks[k]]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures and not self.missing


def rederive_set(spec: dict) -> dict:
    """N for a set instance, from the input file alone, with plain sets:
    orbit of the seeds, meet of the orbit, argmax of |s minus f|, and the
    meet of the unions s | f over the argmax."""
    block = spec["set"]
    gamma = [tuple(g) for g in block.get("gamma", [])]
    family = {frozenset(s) for s in block["seeds"]}
    frontier = list(family)
    while frontier:
        new = []
        for f in frontier:
            for g in gamma:
                img = frozenset(g[x] for x in f)
                if img not in family:
                    family.add(img)
                    new.append(img)
        frontier = new
    s = frozenset.intersection(*family)
    worst = max(len(s - f) for f in family)
    n = frozenset.intersection(*(s | f for f in family if len(s - f) == worst))
    return {"invariant_element": sorted(n), "family": family}


def check_certificate(gate: Gate, spec: dict, text: str, instance=None) -> bool:
    """Independent checks of one certificate; instance is the loaded
    closeknit instance, needed only for the oracle check."""
    try:
        cert = json.loads(text)
    except ValueError as exc:
        return gate.check("verified", False, f"output is not JSON: {exc}")
    ok = gate.check("verified", cert.get("verified") is True
                    and cert.get("gamma_fixed") is True,
                    "certificate not verified or not gamma-fixed")
    mode = spec.get("options", {}).get("mode", "full")
    if mode == "both":
        ok &= gate.check("mode_agreement", cert.get("mode_agreement") is True,
                         f"mode_agreement is {cert.get('mode_agreement')!r}")
    if spec["kind"] == "set":
        want = rederive_set(spec)
        got_family = {frozenset(f) for f in cert.get("family", [])}
        ok &= gate.check(
            "set_rederive",
            cert.get("invariant_element") == want["invariant_element"]
            and got_family == want["family"]
            and cert.get("orbit_size") == len(want["family"]),
            "N or the closed family differs from the plain-set derivation")
    if instance is not None and under_oracle_caps(instance):
        from closeknit.oracle import feasible_set

        found = [instance.element_json(e) for e in feasible_set(instance, cert.get("bound"))]
        ok &= gate.check("oracle", cert.get("invariant_element") in found,
                         "N is not in the oracle's feasible set")
    return ok


def under_oracle_caps(instance) -> bool:
    """closeknit.oracle enumerates a tabular lattice outright; every set,
    group and vector rung of the workloads is far above its enumeration caps
    (carrier 24, group order 96, 100000 subspaces)."""
    return instance.all_elements() is not None


def check_digest(gate: Gate, name: str, text: str, recorded: Optional[str]) -> bool:
    return gate.check("digest", recorded is not None and digest(text) == recorded,
                      f"{name}: certificate sha256 differs from baseline.json")
