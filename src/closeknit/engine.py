"""Generic fixed-point engine over a symmetry-closed family in a meet-semilattice.

An instance supplies opaque lattice elements with meet/leq/equals, an
indexed family f_a closed under the symmetry generators, a distance
delta(s, a) into the index poset, and an increment map (s, a) -> s^a
that grows s a little toward f_a.  The engine computes, for each element
s, the down-set m(s) of realized distances; calls s strong when m(s) is
minimal; forms n(s) as the meet of the increments over the indices where
delta(s, a) is maximal; and returns the greatest n(s), which is fixed by
every symmetry generator because it is unique.

Two routes are implemented.  The full-meet route evaluates n at the meet
of the whole family, which at finite scale is always strong and always
realizes the greatest n.  The proof route starts from an arbitrary strong
element (the first found among subset meets) and repeatedly descends by
meeting with strong elements whose n is not yet dominated.
`solve(mode="both")` cross-checks the two.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .errors import (CloseKnitError, ContractViolation, OrbitCapExceeded,
                     StrongSearchExhausted)
from .indexposet import DownSet, IndexValue, downset_of, leq as iv_leq, maximal_in

DEFAULT_ORBIT_CAP = 10_000
DEFAULT_SUBSET_CAP = 1 << 14


class EngineOptions:
    """Hard limits; overruns raise, they never truncate silently."""

    def __init__(self, max_orbit: int = DEFAULT_ORBIT_CAP,
                 max_elements: int = 100_000,
                 strong_subset_cap: int = DEFAULT_SUBSET_CAP):
        self.max_orbit = max_orbit
        self.max_elements = max_elements
        self.strong_subset_cap = strong_subset_cap


class Instance(ABC):
    """Capabilities a solvable problem must provide.

    `family` and `action_table` must already be closed: applying any
    symmetry generator to a family member lands back in the family at
    the index the table records.  Constructors of the concrete
    subclasses obtain this via `orbit_closure`.
    """

    kind: str = "abstract"
    family: List[Any]
    action_table: List[List[int]]

    @abstractmethod
    def meet(self, x, y): ...

    @abstractmethod
    def equals(self, x, y) -> bool: ...

    @abstractmethod
    def key(self, x) -> Hashable:
        """Canonical hashable form used for deduplication."""

    @abstractmethod
    def delta(self, x, a: int) -> IndexValue: ...

    @abstractmethod
    def increment(self, x, a: int): ...

    @abstractmethod
    def gamma_size(self) -> int: ...

    @abstractmethod
    def act(self, g: int, x): ...

    def leq(self, x, y) -> bool:
        return self.equals(self.meet(x, y), x)

    def join_span(self):
        """Upper sandwich element (union/generated/sum), or None if undefined."""
        return None

    def all_elements(self) -> Optional[List[Any]]:
        """Full element list when the lattice is explicitly finite, else None."""
        return None

    def measure(self, x, y) -> Optional[Tuple[int, int]]:
        """Forward/backward commensurability measures, or None if undefined."""
        return None

    def element_json(self, x) -> Any:
        return self.key(x)

    def validation_samples(self, rng: random.Random, samples: int):
        """(elements, comparable pairs) used by validate_conditions."""
        elements = list(self.family)
        pairs = [(self.meet(s, t), s) for s in elements for t in elements]
        return elements, pairs[:samples]


def orbit_closure(seeds: Sequence[Any], gamma_count: int,
                  act: Callable[[int, Any], Any],
                  key: Callable[[Any], Hashable],
                  cap: int = DEFAULT_ORBIT_CAP) -> Tuple[List[Any], List[List[int]]]:
    """Close the seed family under every symmetry generator.

    Returns the deduplicated family and the per-generator index action
    table, which is recorded while closing: every generator is applied
    to every member once.  Finiteness plus injectivity of the generators
    makes closure under forward application enough to capture the full
    group action.
    """
    if not seeds:
        raise ContractViolation("orbit closure needs at least one seed")
    family: List[Any] = []
    index: Dict[Hashable, int] = {}
    for s in seeds:
        k = key(s)
        if k not in index:
            index[k] = len(family)
            family.append(s)
    if len(family) > cap:
        raise OrbitCapExceeded(
            f"seed family of size {len(family)} exceeds max_orbit {cap}")
    # Each member is acted on exactly once per generator, in the round in
    # which it is the frontier [start, end); the image's index is the
    # action table entry, so rows grow in family order.
    action: List[List[int]] = [[] for _ in range(gamma_count)]
    start = 0
    while start < len(family):
        end = len(family)
        for g in range(gamma_count):
            row = action[g]
            for f in family[start:end]:
                img = act(g, f)
                k = key(img)
                i = index.get(k)
                if i is None:
                    if len(family) >= cap:
                        raise OrbitCapExceeded(
                            f"orbit closure reached {len(family) + 1} members, "
                            f"past max_orbit {cap}")
                    i = index[k] = len(family)
                    family.append(img)
                row.append(i)
        start = end
    return family, action


def compute_m(inst: Instance, s) -> DownSet:
    """Down-set of all distances from s to the family."""
    return downset_of([inst.delta(s, a) for a in range(len(inst.family))])


def meet_of_family(inst: Instance):
    out = inst.family[0]
    for f in inst.family[1:]:
        out = inst.meet(out, f)
    return out


def find_strong(inst: Instance):
    """An element realizing the minimal distance down-set: the meet of the
    entire family, which is minimal by monotonicity."""
    return meet_of_family(inst)


def argmax_set(inst: Instance, s) -> List[int]:
    """Family indices whose distance from s is maximal in m(s); s must be strong."""
    values = [inst.delta(s, a) for a in range(len(inst.family))]
    m = downset_of(values)
    out = maximal_in(m, values)
    if not out:
        raise CloseKnitError("empty argmax set; down-set invariant broken")
    return out


def n_of(inst: Instance, s):
    """Meet of the increments of s over its argmax indices; s must be strong."""
    out = None
    for a in argmax_set(inst, s):
        inc = inst.increment(s, a)
        out = inc if out is None else inst.meet(out, inc)
    return out


def strong_elements(inst: Instance, subset_cap: int = DEFAULT_SUBSET_CAP) -> List[Any]:
    """All strong elements among meets of family subsets, deduplicated.

    Raises StrongSearchExhausted when 2^|family| - 1 exceeds the cap.
    """
    n = len(inst.family)
    total = (1 << n) - 1
    if total > subset_cap:
        raise StrongSearchExhausted(
            f"{total} subset meets exceed strong_subset_cap {subset_cap}")
    m_min = compute_m(inst, meet_of_family(inst))
    meets: Dict[int, Any] = {}
    out: List[Any] = []
    seen = set()
    for mask in range(1, total + 1):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        s = inst.family[i] if rest == 0 else inst.meet(meets[rest], inst.family[i])
        meets[mask] = s
        k = inst.key(s)
        if k in seen:
            continue
        seen.add(k)
        if compute_m(inst, s).same_as(m_min):
            out.append(s)
    return out


def greatest_n(inst: Instance, mode: str = "full",
               subset_cap: int = DEFAULT_SUBSET_CAP,
               trace: Optional[List[dict]] = None):
    """The greatest n(s) over strong s, with the strong element that realized it.

    mode "full" evaluates at the full family meet.  mode "proof" runs the
    descent loop: while some strong t has n(t) not below n(s), replace s
    by s meet t; n strictly increases, so the loop ends.
    """
    if mode == "full":
        s = find_strong(inst)
        return n_of(inst, s), s
    if mode != "proof":
        raise ContractViolation(f"unknown mode {mode!r}")
    pool = strong_elements(inst, subset_cap)
    if trace is not None:
        trace.append({"event": "strong_pool", "count": len(pool)})
    n_cache: Dict[Hashable, Any] = {}

    def n_cached(t):
        k = inst.key(t)
        if k not in n_cache:
            n_cache[k] = n_of(inst, t)
        return n_cache[k]

    # Any strong element may start the descent; the first enumerated one
    # keeps the loop honest instead of starting at the full meet.
    s = pool[0]
    ns = n_of(inst, s)
    if trace is not None:
        trace.append({"event": "start", "element": inst.element_json(s),
                      "n": inst.element_json(ns)})
    for _ in range(100_000):
        t_next = None
        for t in pool:
            if not inst.leq(n_cached(t), ns):
                t_next = t
                break
        if t_next is None:
            return ns, s
        s = inst.meet(s, t_next)
        new_ns = n_of(inst, s)
        if inst.leq(new_ns, ns) and not inst.equals(new_ns, ns):
            raise CloseKnitError("descent decreased n; increment data inconsistent")
        ns = new_ns
        if trace is not None:
            trace.append({"event": "descend", "with": inst.element_json(t_next),
                          "n": inst.element_json(ns)})
    raise CloseKnitError("descent failed to stabilize; lattice data inconsistent")


class Certificate:
    """Verifiable output of a solve run."""

    def __init__(self, kind: str, invariant_element: Any, gamma_fixed: bool,
                 measures: List[dict], orbit_size: int, strong_element: Any,
                 argmax_indices: List[int], m_generators: DownSet,
                 bound: Optional[int] = None,
                 mode_agreement: Optional[bool] = None,
                 trace: Optional[List[dict]] = None):
        self.kind = kind
        self.invariant_element = invariant_element
        self.gamma_fixed = gamma_fixed
        self.measures = measures
        self.orbit_size = orbit_size
        self.strong_element = strong_element
        self.argmax_indices = argmax_indices
        self.m_generators = m_generators
        self.bound = bound
        self.mode_agreement = mode_agreement
        self.trace = trace


def _measures_of(inst: Instance, n) -> Tuple[List[dict], Optional[int]]:
    measures: List[dict] = []
    bound: Optional[int] = None
    for a in range(len(inst.family)):
        pair = inst.measure(n, inst.family[a])
        if pair is None:
            coords = list(inst.delta(n, a).coords)
            measures.append({"a": a, "delta": coords})
        else:
            fwd, bwd = pair
            measures.append({"a": a, "forward": fwd, "backward": bwd})
            worst = max(fwd, bwd)
            bound = worst if bound is None else max(bound, worst)
    return measures, bound


def solve(inst: Instance, mode: str = "full",
          options: Optional[EngineOptions] = None,
          with_trace: bool = False) -> Certificate:
    """Compute the invariant element and wrap it in a certificate.

    mode: "full", "proof", or "both" (cross-check the two routes).
    """
    if mode not in ("full", "proof", "both"):
        raise ContractViolation(f"unknown solve mode {mode!r}")
    opts = options or EngineOptions()
    trace: Optional[List[dict]] = [] if with_trace else None
    if trace is not None:
        trace.append({"event": "orbit_closed", "size": len(inst.family)})

    n_full = s_full = n_proof = s_proof = None
    if mode in ("full", "both"):
        n_full, s_full = greatest_n(inst, "full", opts.strong_subset_cap, trace)
    if mode in ("proof", "both"):
        n_proof, s_proof = greatest_n(inst, "proof", opts.strong_subset_cap, trace)

    if mode == "proof":
        result, strong, agreement = n_proof, s_proof, None
    elif mode == "both":
        agreement = inst.equals(n_full, n_proof)
        result, strong = n_full, s_full
    else:
        result, strong, agreement = n_full, s_full, None

    fixed = all(inst.equals(inst.act(g, result), result)
                for g in range(inst.gamma_size()))
    measures, bound = _measures_of(inst, result)
    if trace is not None:
        trace.append({"event": "result", "element": inst.element_json(result)})
    return Certificate(
        kind=inst.kind,
        invariant_element=result,
        gamma_fixed=fixed,
        measures=measures,
        orbit_size=len(inst.family),
        strong_element=strong,
        argmax_indices=argmax_set(inst, strong),
        m_generators=compute_m(inst, strong),
        bound=bound,
        mode_agreement=agreement,
        trace=trace,
    )


class ValidationReport:
    """Outcome of checking the defining conditions on an instance."""

    def __init__(self, violations: Optional[List[dict]] = None,
                 notes: Optional[List[str]] = None, checked_pairs: int = 0,
                 checked_elements: int = 0):
        self.violations: List[dict] = [] if violations is None else violations
        self.notes: List[str] = [] if notes is None else notes
        self.checked_pairs = checked_pairs
        self.checked_elements = checked_elements

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {"violations": self.violations, "notes": self.notes,
                "checked_pairs": self.checked_pairs,
                "checked_elements": self.checked_elements}


def validate_conditions(inst: Instance, samples: int = 1000,
                        rng: Optional[random.Random] = None) -> ValidationReport:
    """Check distance monotonicity, increment growth, and the equal-distance
    increment collapse on sampled (or, for tabular instances, all) pairs.

    Samples repeat; each distinct element and pair (by `inst.key`) is
    checked and counted once.  Violations are returned as data, never
    raised.
    """
    rng = rng or random.Random(0)
    report = ValidationReport()
    elements, pairs = inst.validation_samples(rng, samples)
    n_a = len(inst.family)
    key = inst.key
    elements = {key(s): s for s in elements}.values()
    pairs = {(key(t), key(s)): (t, s) for t, s in pairs}.values()

    for s in elements:
        report.checked_elements += 1
        for a in range(n_a):
            inc = inst.increment(s, a)
            if not inst.leq(s, inc):
                report.violations.append({
                    "condition": "increment-growth",
                    "element": inst.element_json(s), "a": a,
                    "detail": "element not below its increment"})

    for t, s in pairs:
        if not inst.leq(t, s):
            continue
        report.checked_pairs += 1
        for a in range(n_a):
            dt, ds = inst.delta(t, a), inst.delta(s, a)
            if not iv_leq(dt, ds):
                report.violations.append({
                    "condition": "delta-monotone",
                    "lower": inst.element_json(t), "upper": inst.element_json(s),
                    "a": a, "detail": f"{list(dt.coords)} !<= {list(ds.coords)}"})
                continue
            if dt == ds:
                it, i_s = inst.increment(t, a), inst.increment(s, a)
                if not inst.equals(it, i_s):
                    report.violations.append({
                        "condition": "increment-collapse",
                        "lower": inst.element_json(t), "upper": inst.element_json(s),
                        "a": a, "detail": "equal distances, different increments"})

    report.notes.append("compactness condition holds automatically at finite scale")
    report.notes.append("chain-length condition is trivial: all chains are finite")
    return report


def meet_and_sub_samples(inst: Instance, rng: random.Random, samples: int):
    """Random family-subset meets paired with random sub-elements.

    Shared by the concrete instantiations, whose `random_subelement`
    produces a lattice element below the given one.
    """
    n = len(inst.family)
    elements: List[Any] = list(inst.family)
    pairs: List[Tuple[Any, Any]] = []
    for _ in range(samples):
        mask = rng.randrange(1, 1 << n)
        s = None
        for i in range(n):
            if (mask >> i) & 1:
                s = inst.family[i] if s is None else inst.meet(s, inst.family[i])
        elements.append(s)
        if rng.random() < 0.5:
            t = inst.random_subelement(rng, s)
        else:
            extra = inst.family[rng.randrange(n)]
            t = inst.meet(s, extra)
        pairs.append((t, s))
        # Sub-elements of family members exercise monotonicity away from meets.
        f = inst.family[rng.randrange(n)]
        pairs.append((inst.random_subelement(rng, f), f))
    return elements, pairs


def verify_certificate(inst: Instance, cert: Certificate) -> bool:
    """Recompute invariance, measures, and the sandwich bound for a certificate.

    A certificate whose two routes disagreed (`mode_agreement` False)
    certifies nothing and is rejected.
    """
    if cert.mode_agreement is False:
        return False
    n = cert.invariant_element
    fixed = all(inst.equals(inst.act(g, n), n) for g in range(inst.gamma_size()))
    if not (fixed and cert.gamma_fixed):
        return False
    measures, bound = _measures_of(inst, n)
    if measures != cert.measures or bound != cert.bound:
        return False
    if not inst.leq(meet_of_family(inst), n):
        return False
    span = inst.join_span()
    if span is not None and not inst.leq(n, span):
        return False
    return True
