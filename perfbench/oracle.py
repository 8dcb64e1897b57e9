"""Seed-independent answers, derived without calling crepant.

The class group of the terminalization is Z^m + Ab(G/H)^dual, with m the
number of junior conjugacy classes and H the subgroup the junior elements
generate; the class group of V/G is Ab(G)^dual.
"""

from __future__ import annotations

import itertools
import json


def _cubed_juniors(n: int) -> int:
    # C_n^3 = {diag(z^a, z^b, z^c, z^d) : a+b+c+d = 0 mod n}.  Abelian, so
    # every element is a class; age (a+b+c+d)/n is 1 exactly when the
    # exponents in [0, n-1] sum to n.
    return sum(1 for v in itertools.product(range(n), repeat=4) if sum(v) == n)


def _cyclic(k: int) -> dict:
    # <diag(z_k^u, z_k^-u)>: every nontrivial element has age 1 and the
    # juniors generate G, so m = k - 1, no torsion, Cl(V/G) = Z/k.
    return {"order": k, "free_rank": k - 1, "torsion": [],
            "quotient_class_group": [k]}


def _cubed(n: int) -> dict:
    # the juniors generate C_n^3, so there is no torsion
    return {"order": n ** 3, "free_rank": _cubed_juniors(n), "torsion": [],
            "quotient_class_group": [n, n, n]}


EXPECTED: dict[str, dict] = {f"C{k}": _cyclic(k) for k in range(2, 19)}
EXPECTED.update({f"C{n}^3": _cubed(n) for n in (5, 6)})
EXPECTED.update({
    # 6 nontrivial classes of 2T (all of age 1 in SL2) plus the 2 of C3;
    # an element nontrivial in both blocks has age 2.  Ab(2T) = Z/3, so
    # Cl(V/G) = Z/3 + Z/3.
    "2TxC3": {"order": 72, "free_rank": 8, "torsion": [],
              "quotient_class_group": [3, 3]},
    # check mode runs 8 report checks, galois_sweep, freeness_routes and
    # three checks per character of Ab(G): 10 + 3|Ab(G)|.
    "Q8": {"order": 8, "check_count": 10 + 3 * 4},  # Ab(Q8) = (Z/2)^2
    "2T": {"order": 24, "check_count": 10 + 3 * 3},  # Ab(2T) = Z/3
})


def problems(group: str, mode: str, status: int, rendered: str) -> list[str]:
    """Every way the job's exit status and rendered JSON report differ from
    the expected answer; empty when the job is correct."""
    want = EXPECTED[group]
    if status != 0:
        return [f"exit status {status}"]
    try:
        report = json.loads(rendered)
        got_order = report["group"]["order"]
        payload = report[mode]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    out = []
    if got_order != want["order"]:
        out.append(f"order {got_order} != {want['order']}")
    if mode == "analyze":
        for key in ("free_rank", "torsion", "quotient_class_group"):
            if payload.get(key) != want[key]:
                out.append(f"{key} {payload.get(key)} != {want[key]}")
        if payload.get("all_checks_passed") is not True:
            out.append("all_checks_passed is not true")
    else:
        checks = payload.get("checks", [])
        if payload.get("all_passed") is not True:
            failed = [c.get("name") for c in checks if not c.get("passed")]
            out.append(f"failed checks {failed}")
        if len(checks) != want["check_count"]:
            out.append(f"{len(checks)} checks != {want['check_count']}")
    return out
