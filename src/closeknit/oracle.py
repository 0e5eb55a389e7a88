"""Brute-force filter of invariant commensurable candidates.

Used to certify engine outputs independently.  Each instance kind
enumerates its own candidates (`Instance.candidates`), and every cap of
those enumerators is a hard error: an oracle that samples is not an
oracle.
"""

from __future__ import annotations

from typing import List, Optional

from .engine import Instance


def feasible_set(inst: Instance, bound: Optional[int],
                 candidates: Optional[List] = None) -> List:
    """All elements fixed by every symmetry generator whose measure against
    each family member stays within the bound.

    A pre-enumerated candidate list may be passed to amortize repeated
    calls over one ambient object.  For tabular instances no two-sided
    measure exists; the bound is ignored there and the result is the
    full fixed-point list.
    """
    out = []
    for cand in (candidates if candidates is not None else inst.candidates()):
        if not all(inst.act(g, cand) == cand
                   for g in range(len(inst.action_table))):
            continue
        if bound is not None:
            ok = True
            for f in inst.family:
                pair = inst.measure(cand, f)
                if pair is None:
                    break
                if max(pair) > bound:
                    ok = False
                    break
            if not ok:
                continue
        out.append(cand)
    return out
