"""Seeded job documents for the three benchmark workloads.

Pure string work: nothing here imports crepant, so the generator and the
oracle stay independent of the code under test.  The seed changes only the
presentation of each group, never the group itself:

* each generator g is replaced by a unit power g^u (u prime to the order of
  g), which generates the same cyclic subgroup;
* the generators are put in a random order;
* all generators are conjugated by one random signed permutation matrix,
  which keeps the entry field, det = 1 and diagonality.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("cyclic_series", "block_groups", "graded_check")

Rows = list[list[str]]


@dataclass(frozen=True)
class Job:
    job_id: str
    group: str  # key into oracle.EXPECTED
    mode: str
    text: str  # the job document, JSON


def _neg(s: str) -> str:
    return "0" if s == "0" else f"-({s})"


def diag(n: int, *exps: int) -> list[Rows]:
    """Every unit power of diag(E(n)^e for e in exps)."""
    order = n // math.gcd(n, *exps)
    units = [u for u in range(1, order + 1) if math.gcd(u, order) == 1]
    return [
        [[(f"E({n})^{e * u % n}" if e * u % n else "1") if i == j else "0"
          for j in range(len(exps))] for i, e in enumerate(exps)]
        for u in units
    ]


def sl2_block(block, dim: int = 2, offset: int = 0) -> list[Rows]:
    """g and g^-1 for the SL2 block g, of order 3, 4 or 6, placed at
    `offset` in an identity of size `dim`.  Only +-1 are units mod 3, 4 and
    6, and
    the inverse of an SL2 block is its adjugate."""
    (a, b), (c, d) = block
    out = []
    for (p, q), (r, s) in (((a, b), (c, d)), ((d, _neg(b)), (_neg(c), a))):
        rows = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
        rows[offset][offset:offset + 2] = [p, q]
        rows[offset + 1][offset:offset + 2] = [r, s]
        out.append(rows)
    return out


# Quaternion j in SL2: [[0, 1], [-1, 0]], of order 4.
_QUAT_J = (("0", "1"), ("-1", "0"))
# An element of order 3 of the binary tetrahedral group 2T in SL2 over
# Q(i): (-1 + i + j + k)/2 with i = diag(i, -i), j as above and k = ij.
_TETRA_T = (
    ("(-1+E(4))/2", "(1+E(4))/2"),
    ("(-1+E(4))/2", "(-1-E(4))/2"),
)


def group_generators(group: str) -> list[list[Rows]]:
    """Per generator, the candidate presentations the seed picks from."""
    if group.startswith("C") and group[1:].isdigit():
        k = int(group[1:])
        return [diag(k, 1, k - 1)]
    if group.startswith("C") and group.endswith("^3"):
        # C_n^3 = <diag(z, 1, 1, z^-1), diag(1, z, 1, z^-1), diag(1, 1, z, z^-1)>
        n = int(group[1:-2])
        return [diag(n, *(1 if i == j else 0 for j in range(3)), n - 1)
                for i in range(3)]
    return {
        "2TxC3": [diag(4, 1, 3, 0, 0), sl2_block(_QUAT_J, 4),
                  sl2_block(_TETRA_T, 4), diag(3, 0, 0, 1, 2)],
        "Q8": [diag(4, 1, 3), sl2_block(_QUAT_J)],
        "2T": [diag(4, 1, 3), sl2_block(_QUAT_J), sl2_block(_TETRA_T)],
    }[group]


def workload_groups(workload: str) -> list[tuple[str, str]]:
    """(group, mode) pairs of a workload, in run order."""
    return {
        "cyclic_series": [(f"C{k}", "analyze") for k in range(2, 19)],
        "block_groups": [("2TxC3", "analyze"), ("C5^3", "analyze"),
                         ("C6^3", "analyze")],
        "graded_check": [("Q8", "check"), ("2T", "check")],
    }[workload]


def present(gens: list[list[Rows]], rng: random.Random) -> list[Rows]:
    """One seeded presentation of the group generated by `gens`."""
    mats = [rng.choice(powers) for powers in gens]
    rng.shuffle(mats)
    dim = len(mats[0])
    perm = rng.sample(range(dim), dim)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    # (P g P^-1)[i][j] = s_i s_j g[perm i][perm j] for P[i][perm i] = s_i
    return [
        [[m[perm[i]][perm[j]] if signs[i] == signs[j]
          else _neg(m[perm[i]][perm[j]]) for j in range(dim)]
         for i in range(dim)]
        for m in mats
    ]


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for group, mode in workload_groups(workload):
        rows = present(group_generators(group), rng)
        doc = {"dimension": len(rows[0]), "generators": rows}
        jobs.append(Job(f"{workload}/{group}", group, mode, json.dumps(doc)))
    return jobs
