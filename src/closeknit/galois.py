"""Galois-side core step: invariant subgroup plus a fixed-field descriptor.

Inputs live on the group side: a `GroupInstance` whose ambient group is
a finite automorphism-group surrogate, whose family stands for the
stabilizers of the field family, and whose symmetry generators are
normalizing permutations for the outer symmetry.  The engine finds the
invariant subgroup H; the descriptor states the fixed field of H
symbolically through index data, with no field arithmetic.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .engine import Certificate, EngineOptions, solve
from .groups import GroupInstance, Subgroup, index_of


def family_commensurability(inst: GroupInstance) -> int:
    """Verify pairwise commensurability of the closed family and return the
    largest index either way (always finite here; the bound is reported
    rather than assumed)."""
    worst = 1
    for i, f in enumerate(inst.family):
        for g in inst.family[i + 1:]:
            worst = max(worst, index_of(f, g), index_of(g, f))
    return worst


def solve_galois(inst: GroupInstance, mode: str = "full",
                 options: Optional[EngineOptions] = None,
                 with_trace: bool = False) -> Tuple[Certificate, dict]:
    """Run the group engine on the stabilizer family and describe Fix(H)."""
    uniform_bound = family_commensurability(inst)
    cert = solve(inst, mode=mode, options=options, with_trace=with_trace)
    h: Subgroup = cert.invariant_element
    whole = Subgroup(inst.ambient, frozenset(range(len(inst.ambient))))
    per_family = []
    for a, f in enumerate(inst.family):
        per_family.append({
            "a": a,
            "stabilizer_order": len(f),
            "index_in_stabilizer": index_of(f, h),
            "index_in_h": index_of(h, f),
        })
    descriptor = {
        "ambient_order": len(inst.ambient),
        "h_order": len(h),
        "index_of_h": index_of(whole, h),
        "per_family": per_family,
        "family_uniform_index_bound": uniform_bound,
        "fixed_field": (
            "Fix(H): the subfield fixed pointwise by H; its degree data are "
            f"the indices above, with [G:H] = {index_of(whole, h)}"),
        "closed": "H is closed: finite extension of a finite intersection",
    }
    return cert, descriptor
