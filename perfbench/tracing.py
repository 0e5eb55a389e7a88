"""In-memory span tracer that wraps closeknit's functions from outside.

`Tracer.install()` replaces each target function or method with a
wrapper for the duration of a `with` block and restores the originals on
exit, so nothing under `src/` is edited.  Module-level functions are
replaced in every closeknit module that imported them, found by
identity, because `from .engine import solve` binds a second name.

Two wrapper kinds:

* span: counts calls and adds the call's duration to the name's total
  time and its self time (the duration minus the time covered by spans
  opened inside it).  Calls are also counted per enclosing span name.
* count: counts calls (per enclosing span name too) without timing, for
  very hot kernel operations where a clock read would dominate.

Per-name aggregates cover every call.  Span records (solve id, parent
record, name, start, end) are kept only for the coarse spans listed in
RECORDED, so memory stays bounded on million-call runs; they are written
out at the end by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Dict, Iterator, List, Tuple

ROOT = "bench.solve"

# (module, class inside the module or "", attribute, span name, kind)
TARGETS: List[Tuple[str, str, str, str, str]] = [
    ("instancefiles", "", "load_file", "instancefiles.load", "span"),
    ("instancefiles", "", "certificate_json", "instancefiles.certificate_json", "span"),
    ("instancefiles", "", "dump_canonical", "instancefiles.dump_canonical", "span"),
    ("engine", "", "orbit_closure", "engine.orbit_closure", "span"),
    ("engine", "", "find_strong", "engine.find_strong", "span"),
    ("engine", "", "greatest_n", "engine.greatest_n", "span"),
    ("engine", "", "solve", "engine.solve", "span"),
    ("engine", "", "verify_certificate", "engine.verify_certificate", "span"),
    ("engine", "", "compute_m", "engine.compute_m", "span"),
    ("engine", "", "argmax_set", "engine.argmax_set", "span"),
    ("engine", "", "n_of", "engine.n_of", "span"),
    ("engine", "", "strong_elements", "engine.strong_elements", "span"),
    ("engine", "", "meet_of_family", "engine.meet_of_family", "span"),
    ("sets", "FiniteSubset", "apply_permutation", "sets.apply_permutation", "span"),
    ("sets", "FiniteSubset", "members", "sets.members", "span"),
    ("groups", "PermGroup", "__init__", "groups.permgroup_init", "span"),
    ("groups", "PermGroup", "mult", "groups.mult", "count"),
    ("groups", "", "closure", "groups.closure", "span"),
    ("groups", "", "index_of", "groups.index_of", "span"),
    ("groups", "", "increment_group", "groups.increment_group", "span"),
    ("groups", "", "is_subgroup", "groups.is_subgroup", "span"),
    ("vect", "", "intersect", "vect.intersect", "span"),
    ("vect", "", "add", "vect.add", "span"),
    ("vect", "", "matrix_action", "vect.matrix_action", "span"),
    ("indexposet", "", "downset_of", "indexposet.downset_of", "span"),
    ("indexposet", "", "leq", "indexposet.leq", "count"),
    ("indexposet", "IndexValue", "__post_init__", "indexposet.index_value", "count"),
    ("abstract", "", "load_abstract", "abstract.load_abstract", "span"),
    ("galois", "", "solve_galois", "galois.solve_galois", "span"),
]

# Instance protocol methods, wrapped on every concrete class that defines them.
KERNEL_METHODS = {"meet": "span", "delta": "span", "increment": "span",
                  "act": "span", "measure": "span", "join_span": "span",
                  "key": "count"}

RECORDED = {ROOT, "instancefiles.load", "instancefiles.certificate_json",
            "instancefiles.dump_canonical", "engine.orbit_closure",
            "engine.solve", "engine.greatest_n", "engine.strong_elements",
            "engine.verify_certificate", "kernel.join_span",
            "groups.permgroup_init", "abstract.load_abstract",
            "galois.solve_galois"}


class Stat:
    """Aggregate for one span or counter name."""

    __slots__ = ("calls", "total", "self_time", "by_parent")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.by_parent: Dict[str, int] = {}


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.records: List[tuple] = []
        self.solve_id = -1
        # Open spans, innermost last: [name, time covered by child spans].
        self._stack: List[list] = [["", 0.0]]
        self._record_stack: List[int] = [-1]

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        stat = self.stat(name)
        by_parent = stat.by_parent
        stack, records, record_stack = self._stack, self.records, self._record_stack
        clock = time.perf_counter
        record = name in RECORDED
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = stack[-1][0]
            by_parent[parent] = by_parent.get(parent, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            if record:
                rid = len(records)
                records.append(None)
                record_stack.append(rid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                stack[-1][1] += dur
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[1]
                if record:
                    record_stack.pop()
                    records[rid] = (tracer.solve_id, record_stack[-1], name, start, end)
        return wrapped

    def _count(self, name: str, fn):
        stat = self.stat(name)
        by_parent = stat.by_parent
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = stack[-1][0]
            by_parent[parent] = by_parent.get(parent, 0) + 1
            stat.calls += 1
            return fn(*args, **kwargs)
        return wrapped

    def _wrap(self, name: str, kind: str, fn):
        return self._span(name, fn) if kind == "span" else self._count(name, fn)

    def root(self, fn):
        """Wrap one benchmark solve: the root span every other span nests in."""
        return self._span(ROOT, fn)

    # -- patching ---------------------------------------------------------

    @contextlib.contextmanager
    def install(self) -> Iterator[None]:
        """Patch every target for the duration of the block, then restore."""
        patches = plan_patches()
        done: List[Tuple[object, str, object]] = []
        try:
            wrappers: Dict[int, object] = {}
            for owner, attr, original, name, kind in patches:
                key = id(original)
                if key not in wrappers:
                    wrappers[key] = self._wrap(name, kind, original)
                setattr(owner, attr, wrappers[key])
                done.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(done):
                setattr(owner, attr, original)


def closeknit_modules() -> List[object]:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "closeknit" or n.startswith("closeknit."))]


def plan_patches() -> List[Tuple[object, str, object, str, str]]:
    """(owner, attribute, original, span name, kind) for every binding to wrap."""
    import closeknit.engine as engine

    modules = closeknit_modules()
    out = []
    for mod_name, owner_name, attr, name, kind in TARGETS:
        # A target the program no longer has is skipped; its metrics read 0.
        mod = sys.modules.get(f"closeknit.{mod_name}")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            continue
        if owner_name:
            out.append((owner, attr, original, name, kind))
            continue
        for m in modules:
            for binding, value in list(vars(m).items()):
                if value is original:
                    out.append((m, binding, original, name, kind))
    classes = [engine.Instance]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if not cls.__module__.startswith("closeknit."):
            continue
        for attr, kind in KERNEL_METHODS.items():
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                out.append((cls, attr, fn, f"kernel.{attr}", kind))
    return out
