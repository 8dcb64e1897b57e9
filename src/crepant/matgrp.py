"""Matrices over cyclotomic fields and finite matrix group machinery.

`close_group` closes a generating set by breadth-first search (queue order,
generators applied in input order, left multiplication), which makes element
ids, conjugacy class representatives, and everything derived from them
deterministic for a given input.  Each discovered element remembers the
generator word that produced it, so group multiplication afterwards is a walk
through the per-generator permutation tables rather than a matrix product.

Subgroups are handles onto a parent group's label set; quotients get their own
contiguous label set (coset indices, representative = least parent label).
The table algorithms below (closure, conjugacy, commutators, quotients,
abelian structure) only require the small group-protocol surface
(carrier_labels / generator_labels / mul / inv / identity_label), so they work
uniformly on groups, subgroup handles, quotients, and ad-hoc table groups.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .cyclo import (
    CyclotomicNumber,
    _factorize,
    as_root_of_unity,
    parse_cyclotomic,
    rational,
)

__all__ = [
    "AbelianDecomposition",
    "AbelianStructure",
    "CycMatrix",
    "FiniteMatrixGroup",
    "GroupTooLargeError",
    "NotAbelianError",
    "NotNormalError",
    "QuotientGroup",
    "SingularMatrixError",
    "SubgroupHandle",
    "abelian_decomposition",
    "abelian_invariants",
    "abelianization",
    "close_group",
    "commutator_subgroup",
    "conjugacy_classes",
    "kernel_basis",
    "order_of",
    "power",
    "quotient",
    "subgroup_generated",
]


class SingularMatrixError(ZeroDivisionError):
    pass


class GroupTooLargeError(RuntimeError):
    """Closure exceeded max_size; carries the partial element count."""

    def __init__(self, partial_count: int, max_size: int):
        super().__init__(
            f"group closure exceeded max_size={max_size} "
            f"(at least {partial_count} elements found; "
            "the group may be infinite or max_size too small)"
        )
        self.partial_count = partial_count
        self.max_size = max_size


class NotNormalError(ValueError):
    pass


class NotAbelianError(ValueError):
    pass


Entry = Union[CyclotomicNumber, int, Fraction, str]


def _entry(value: Entry) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        return value
    if isinstance(value, str):
        return parse_cyclotomic(value)
    return rational(value)


class CycMatrix:
    """A square matrix over a cyclotomic field.

    All entries are normalized to a single common conductor at construction.
    Matrices are immutable.
    """

    __slots__ = ("dim", "conductor", "rows", "_hash")

    def __init__(self, dim: int, conductor: int, rows: tuple):
        self.dim = dim
        self.conductor = conductor
        self.rows = rows
        self._hash: Optional[int] = None

    @staticmethod
    def from_rows(entries: Sequence[Sequence[Entry]]) -> "CycMatrix":
        parsed = [[_entry(e) for e in row] for row in entries]
        dim = len(parsed)
        if dim == 0 or any(len(row) != dim for row in parsed):
            raise ValueError("matrix must be square and non-empty")
        conductor = 1
        for row in parsed:
            for e in row:
                conductor = conductor * e.conductor // math.gcd(conductor, e.conductor)
        rows = tuple(tuple(e.embed(conductor) for e in row) for row in parsed)
        return CycMatrix(dim, conductor, rows)

    @staticmethod
    def identity(dim: int, conductor: int = 1) -> "CycMatrix":
        one = rational(1).embed(conductor)
        zero = rational(0).embed(conductor)
        return CycMatrix(
            dim,
            conductor,
            tuple(
                tuple(one if i == j else zero for j in range(dim)) for i in range(dim)
            ),
        )

    def lift(self, conductor: int) -> "CycMatrix":
        if conductor == self.conductor:
            return self
        return CycMatrix(
            self.dim,
            conductor,
            tuple(tuple(e.embed(conductor) for e in row) for row in self.rows),
        )

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in matrix product")
        n = self.dim
        m = self.conductor * other.conductor // math.gcd(
            self.conductor, other.conductor
        )
        a = self.lift(m).rows
        b = other.lift(m).rows
        zero = rational(0).embed(m)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    aik = a[i][k]
                    if not aik.is_zero:
                        bkj = b[k][j]
                        if not bkj.is_zero:
                            acc = acc + aik * bkj
                row.append(acc)
            out.append(tuple(row))
        return CycMatrix(n, m, tuple(out))

    def __mul__(self, other):
        if isinstance(other, CycMatrix):
            return self.__matmul__(other)
        return NotImplemented

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in matrix difference")
        m = self.conductor * other.conductor // math.gcd(
            self.conductor, other.conductor
        )
        a = self.lift(m).rows
        b = other.lift(m).rows
        return CycMatrix(
            self.dim,
            m,
            tuple(
                tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
            ),
        )

    def __neg__(self) -> "CycMatrix":
        return CycMatrix(
            self.dim,
            self.conductor,
            tuple(tuple(-e for e in row) for row in self.rows),
        )

    def trace(self) -> CyclotomicNumber:
        acc = rational(0)
        for i in range(self.dim):
            acc = acc + self.rows[i][i]
        return acc

    def det(self) -> CyclotomicNumber:
        work = [list(row) for row in self.rows]
        n = self.dim
        det = rational(1).embed(self.conductor)
        for col in range(n):
            pivot_row = next(
                (r for r in range(col, n) if not work[r][col].is_zero), None
            )
            if pivot_row is None:
                return rational(0).embed(self.conductor)
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                det = -det
            pivot = work[col][col]
            det = det * pivot
            inv_pivot = pivot.inverse()
            for r in range(col + 1, n):
                factor = work[r][col]
                if factor.is_zero:
                    continue
                ratio = factor * inv_pivot
                for c in range(col, n):
                    work[r][c] = work[r][c] - ratio * work[col][c]
        return det

    def rank(self) -> int:
        # Fraction-free elimination: row_r <- pivot*row_r - factor*row_pivot
        # scales row_r by the nonzero pivot before cancelling, so the rank is
        # kept and no field inverse is taken.  Columns at or left of the
        # pivot are not read again, so they are not updated.
        work = [list(row) for row in self.rows]
        n = self.dim
        rank = 0
        pivot_col = 0
        while pivot_col < n and rank < n:
            pivot_row = next(
                (r for r in range(rank, n) if not work[r][pivot_col].is_zero), None
            )
            if pivot_row is None:
                pivot_col += 1
                continue
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            top = work[rank]
            pivot = top[pivot_col]
            for r in range(rank + 1, n):
                row = work[r]
                factor = row[pivot_col]
                if factor.is_zero:
                    continue
                for c in range(pivot_col + 1, n):
                    row[c] = pivot * row[c] - factor * top[c]
            rank += 1
            pivot_col += 1
        return rank

    def inverse(self) -> "CycMatrix":
        n = self.dim
        one = rational(1).embed(self.conductor)
        zero = rational(0).embed(self.conductor)
        work = [
            list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        for col in range(n):
            pivot_row = next(
                (r for r in range(col, n) if not work[r][col].is_zero), None
            )
            if pivot_row is None:
                raise SingularMatrixError("matrix is singular")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inv_pivot = work[col][col].inverse()
            work[col] = [e * inv_pivot for e in work[col]]
            for r in range(n):
                if r == col:
                    continue
                factor = work[r][col]
                if factor.is_zero:
                    continue
                work[r] = [e - factor * p for e, p in zip(work[r], work[col])]
        return CycMatrix(n, self.conductor, tuple(tuple(row[n:]) for row in work))

    def is_diagonal(self) -> bool:
        return all(
            self.rows[i][j].is_zero
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        )

    def key(self) -> tuple:
        # Identity key for dict lookup; only comparable between matrices that
        # share a conductor (group machinery lifts everything first).  Entry
        # numerators, then entry denominators, in one flat tuple.
        entries = [e for row in self.rows for e in row]
        return tuple([e.nums for e in entries] + [e.den for e in entries])

    def render_rows(self) -> list[list[str]]:
        return [[e.render() for e in row] for row in self.rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        m = self.conductor * other.conductor // math.gcd(
            self.conductor, other.conductor
        )
        return self.lift(m).key() == other.lift(m).key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.dim, tuple(hash(e) for row in self.rows for e in row))
            )
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(", ".join(e.render() for e in row) for row in self.rows)
        return f"<mat [{body}]>"


def kernel_basis(m: CycMatrix) -> list[tuple[CyclotomicNumber, ...]]:
    """Basis of the null space, deterministic: reduced row echelon form with
    free columns taken in ascending order."""
    n = m.dim
    work = [list(row) for row in m.rows]
    one = rational(1).embed(m.conductor)
    zero = rational(0).embed(m.conductor)
    pivots = []
    row = 0
    for col in range(n):
        pivot_row = next(
            (r for r in range(row, n) if not work[r][col].is_zero), None
        )
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        inv_pivot = work[row][col].inverse()
        work[row] = [e * inv_pivot for e in work[row]]
        for r in range(n):
            if r != row and not work[r][col].is_zero:
                factor = work[r][col]
                work[r] = [e - factor * p for e, p in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * n
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(tuple(vec))
    return basis


def _power_traces(g: CycMatrix, max_order: int):
    """(order r, [tr(g^0), ..., tr(g^(r-1))]); errors out past max_order."""
    ident = CycMatrix.identity(g.dim, g.conductor)
    traces = []
    p = ident
    k = 0
    while True:
        traces.append(p.trace())
        p = g @ p
        k += 1
        if p == ident:
            return k, traces
        if k >= max_order:
            raise ValueError(
                f"no finite order up to {max_order}; the matrix may have "
                "infinite order"
            )


# ---------------------------------------------------------------------------
# group protocol helpers


def power(grp, label, k: int):
    """label^k in any group-like object (binary powering, k may be negative)."""
    if k < 0:
        label = grp.inv(label)
        k = -k
    acc = grp.identity_label
    base = label
    while k:
        if k & 1:
            acc = grp.mul(acc, base)
        if k > 1:
            base = grp.mul(base, base)
        k >>= 1
    return acc


def order_of(grp, label) -> int:
    p = label
    k = 1
    while p != grp.identity_label:
        p = grp.mul(label, p)
        k += 1
    return k


def _dedup(labels: Iterable) -> list:
    seen = set()
    out = []
    for x in labels:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# closed matrix groups


def per_group(fn):
    """Memoise `fn(G, ...)` in `G._memo`, keyed by `fn` and the arguments
    after `G` with defaults filled in, so `f(G)` and `f(G, default)` share
    one entry.  Only for results fixed by `G` and those arguments."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def memoised(G, *args, **kwargs):
        bound = signature.bind(G, *args, **kwargs)
        bound.apply_defaults()
        key = (fn, bound.args[1:])
        if key not in G._memo:
            G._memo[key] = fn(G, *args, **kwargs)
        return G._memo[key]

    return memoised


class FiniteMatrixGroup:
    """A finite matrix group closed from generators; see `close_group`.

    Element labels are the ids 0..order-1 in discovery order (0 is the
    identity).  Multiplication replays the stored generator word of the left
    operand through the per-generator permutation tables.

    What is derived from the group (conjugacy classes, Ab(G) and its
    decomposition, multiplicities, junior data, K and H) is computed once per
    group object: `per_group` functions keep it in `_memo`, so a second
    closure shares nothing.
    """

    def __init__(
        self,
        dim: int,
        generators: list[CycMatrix],
        entry_conductor: int,
        elements: list[CycMatrix],
        index: dict,
        words: list[tuple[int, ...]],
        lmul: list[list[int]],
        is_special_linear: bool,
    ):
        self.dim = dim
        self.generators = tuple(generators)
        self.entry_conductor = entry_conductor
        self.elements = tuple(elements)
        self._index = index
        self._words = words
        self._lmul = lmul
        self._linv = [_inverse_permutation(t) for t in lmul]
        self.identity_label = 0
        self.generator_ids = tuple(lmul[gi][0] for gi in range(len(generators)))
        self.inverse_ids = [self._compute_inverse(i) for i in range(len(elements))]
        self.element_orders = [order_of(self, i) for i in range(len(elements))]
        self.exponent = 1
        for o in self.element_orders:
            self.exponent = self.exponent * o // math.gcd(self.exponent, o)
        self.working_conductor = (
            entry_conductor * self.exponent
            // math.gcd(entry_conductor, self.exponent)
        )
        self.traces = [m.trace() for m in self.elements]
        self.is_special_linear = is_special_linear
        self._memo: dict = {}

    # protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def carrier_labels(self):
        return range(len(self.elements))

    def generator_labels(self):
        return self.generator_ids

    def mul(self, a: int, b: int) -> int:
        y = b
        for gi in reversed(self._words[a]):
            y = self._lmul[gi][y]
        return y

    def inv(self, a: int) -> int:
        return self.inverse_ids[a]

    # matrix access -------------------------------------------------------

    def matrix(self, label: int) -> CycMatrix:
        return self.elements[label]

    def id_of(self, m: CycMatrix) -> Optional[int]:
        lifted_conductor = self.entry_conductor * m.conductor // math.gcd(
            self.entry_conductor, m.conductor
        )
        if lifted_conductor == self.entry_conductor:
            return self._index.get(m.lift(self.entry_conductor).key())
        # Entry conductor does not contain the given representation; fall back
        # to slow elementwise comparison at a common conductor.
        for i, el in enumerate(self.elements):
            if el == m:
                return i
        return None

    @per_group
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        return conjugacy_classes(self)

    @per_group
    def abelianization(self) -> "QuotientGroup":
        """Ab(G) = G / [G, G]; its `normal` is the derived subgroup."""
        return abelianization(self)

    @per_group
    def abelian_decomposition(self) -> "AbelianDecomposition":
        """The decomposition of Ab(G), with its discrete-log table."""
        return abelian_decomposition(self.abelianization())

    # internals ---------------------------------------------------------

    def _compute_inverse(self, a: int) -> int:
        y = 0
        for gi in self._words[a]:
            y = self._linv[gi][y]
        return y

    def __repr__(self) -> str:
        return (
            f"<FiniteMatrixGroup dim={self.dim} order={len(self)} "
            f"conductor={self.entry_conductor}>"
        )


def _inverse_permutation(perm: list[int]) -> list[int]:
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return out


def close_group(
    generators: Sequence[CycMatrix], max_size: int = 20000
) -> FiniteMatrixGroup:
    """Close a generating set under multiplication.

    BFS from the identity, applying generators in input order by left
    multiplication, so the element ids are deterministic.  Raises
    GroupTooLargeError (with the partial count) if the closure exceeds
    max_size elements.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise ValueError("generators must share one dimension")
    for i, g in enumerate(gens):
        d = g.det()
        if d.is_zero:
            raise SingularMatrixError(f"generator {i} is singular")
        if as_root_of_unity(d) is None:
            raise ValueError(
                f"generator {i} has determinant {d.render()}, not a root of "
                "unity; the generated group cannot be finite"
            )
    conductor = 1
    for g in gens:
        conductor = conductor * g.conductor // math.gcd(conductor, g.conductor)
    gens = [g.lift(conductor) for g in gens]
    is_sl = all(g.det().is_one for g in gens)

    identity = CycMatrix.identity(dim, conductor)
    elements = [identity]
    index = {identity.key(): 0}
    words: list[tuple[int, ...]] = [()]
    lmul: list[list[int]] = [[] for _ in gens]
    i = 0
    while i < len(elements):
        x = elements[i]
        for gi, g in enumerate(gens):
            y = g @ x
            key = y.key()
            known = index.get(key)
            if known is None:
                if len(elements) >= max_size:
                    raise GroupTooLargeError(len(elements), max_size)
                known = len(elements)
                index[key] = known
                elements.append(y)
                words.append((gi,) + words[i])
            lmul[gi].append(known)
        i += 1
    return FiniteMatrixGroup(
        dim, gens, conductor, elements, index, words, lmul, is_sl
    )


# ---------------------------------------------------------------------------
# subgroups, quotients


class SubgroupHandle:
    """A subgroup as a subset of a parent group's labels.  Group operations
    delegate to the parent, so handles nest without label translation."""

    def __init__(self, parent, members: tuple, generators: tuple):
        self.parent = parent
        self.members = members
        self.member_set = frozenset(members)
        self._generators = generators
        self.identity_label = parent.identity_label

    def carrier_labels(self):
        return self.members

    def generator_labels(self):
        return self._generators

    def mul(self, a, b):
        return self.parent.mul(a, b)

    def inv(self, a):
        return self.parent.inv(a)

    def __contains__(self, label) -> bool:
        return label in self.member_set

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"<SubgroupHandle order={len(self)}>"


def subgroup_generated(grp, seed_labels: Iterable) -> SubgroupHandle:
    """The subgroup of `grp` generated by `seed_labels`, grown by Dimino's
    algorithm (G. Butler, Fundamental Algorithms for Permutation Groups,
    LNCS 559, 1991).  A seed already in the subgroup S grown so far is
    skipped.  A kept seed s grows S to <S, s>, a union of left cosets y.S:
    starting from the representative 1, each product y = t.r of a kept seed
    t and a representative r that is not yet a member adds the coset y.S
    and becomes a representative itself.  The kept seeds, in seed order,
    are the handle's generators; each lies outside the span of those before
    it, so there are at most log2 |H| of them.  Members are sorted."""
    members = [grp.identity_label]
    member_set = {grp.identity_label}
    kept = []
    for s in seed_labels:
        if s in member_set:
            continue
        kept.append(s)
        block = tuple(members)
        reps = [grp.identity_label]
        ri = 0
        while ri < len(reps):
            r = reps[ri]
            ri += 1
            for t in kept:
                y = grp.mul(t, r)
                if y not in member_set:
                    coset = [grp.mul(y, h) for h in block]
                    members.extend(coset)
                    member_set.update(coset)
                    reps.append(y)
    return SubgroupHandle(grp, tuple(sorted(members)), tuple(kept))


def conjugacy_classes(grp) -> tuple[tuple[int, ...], ...]:
    """Partition into conjugacy classes; each class is sorted and classes are
    ordered by least member, so representatives (= first entries) are
    deterministic."""
    gens = _dedup(grp.generator_labels())
    gen_invs = [grp.inv(g) for g in gens]
    assigned = set()
    classes = []
    for x in sorted(grp.carrier_labels()):
        if x in assigned:
            continue
        orbit = {x}
        queue = [x]
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            for g, gi in zip(gens, gen_invs):
                z = grp.mul(grp.mul(g, y), gi)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        assigned |= orbit
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def commutator_subgroup(grp) -> SubgroupHandle:
    """The derived subgroup: the normal closure of the generators'
    commutators (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005), grown by conjugates under the generators until stable."""
    gens = _dedup(grp.generator_labels())
    seed = set()
    for a in gens:
        for b in gens:
            seed.add(
                grp.mul(grp.mul(grp.mul(grp.inv(a), grp.inv(b)), a), b)
            )
    while True:
        sub = subgroup_generated(grp, sorted(seed))
        new = set()
        for h in sub.members:
            for g in gens:
                c = grp.mul(grp.mul(g, h), grp.inv(g))
                if c not in sub.member_set:
                    new.add(c)
        if not new:
            return sub
        seed |= new


class QuotientGroup:
    """G/N for N normal in G.  Labels are coset indices; representative of a
    coset is its least parent label and cosets are indexed by representative
    in ascending order (so index 0 is the identity coset).

    Up to 256 cosets the Cayley table is materialised from the action of the
    parent's generators on the cosets (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005): g.(xN) = (gx)N, so one permutation
    per generator costs q parent multiplies, and the row of the coset g.c is
    that permutation applied to the row of c.  Rows grow breadth-first from
    the identity coset; if the parent's generator labels leave a coset
    unreached, construction raises ArithmeticError.  Above 256 cosets `mul`
    multiplies representatives in the parent."""

    def __init__(self, parent, normal: SubgroupHandle):
        _check_normal(parent, normal)
        self.parent = parent
        self.normal = normal
        coset_of = {}
        reps = []
        for x in sorted(parent.carrier_labels()):
            if x in coset_of:
                continue
            idx = len(reps)
            reps.append(x)
            for nn in normal.members:
                coset_of[parent.mul(x, nn)] = idx
        self.coset_reps = tuple(reps)
        self.coset_of = coset_of
        self.identity_label = 0
        q = len(reps)
        self.table = None
        if q <= 256:
            self.table = _coset_table(parent, reps, coset_of)
        self._inv = tuple(coset_of[parent.inv(r)] for r in reps)
        self._generators = tuple(
            _dedup(coset_of[g] for g in parent.generator_labels())
        )

    def carrier_labels(self):
        return range(len(self.coset_reps))

    def generator_labels(self):
        return self._generators

    def mul(self, a: int, b: int) -> int:
        if self.table is not None:
            return self.table[a][b]
        return self.coset_of[
            self.parent.mul(self.coset_reps[a], self.coset_reps[b])
        ]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def __len__(self) -> int:
        return len(self.coset_reps)

    def __repr__(self) -> str:
        return f"<QuotientGroup order={len(self)}>"


def _coset_table(parent, reps, coset_of) -> tuple:
    q = len(reps)
    perms = [
        [coset_of[parent.mul(g, r)] for r in reps]
        for g in _dedup(parent.generator_labels())
    ]
    rows = [None] * q
    rows[0] = tuple(range(q))
    queue = [0]
    qi = 0
    while qi < len(queue):
        c = queue[qi]
        qi += 1
        for perm in perms:
            d = perm[c]
            if rows[d] is None:
                rows[d] = tuple([perm[v] for v in rows[c]])
                queue.append(d)
    if len(queue) != q:
        raise ArithmeticError(
            f"the parent's generators reach {len(queue)} of {q} cosets"
        )
    return tuple(rows)


def _check_normal(parent, normal: SubgroupHandle):
    member_set = normal.member_set
    for g in _dedup(parent.generator_labels()):
        gi = parent.inv(g)
        for nn in normal.members:
            if parent.mul(parent.mul(g, nn), gi) not in member_set:
                raise NotNormalError(
                    f"subgroup is not normal: conjugate of {nn!r} by {g!r} escapes"
                )


def quotient(grp, normal: SubgroupHandle) -> QuotientGroup:
    """G/N with normality verified (NotNormalError otherwise)."""
    return QuotientGroup(grp, normal)


def abelianization(grp) -> QuotientGroup:
    """G / [G, G]."""
    return quotient(grp, commutator_subgroup(grp))


# ---------------------------------------------------------------------------
# abelian structure


@dataclass(frozen=True)
class AbelianStructure:
    """Invariant factor decomposition d_1 | d_2 | ... | d_k, each d_i >= 2.
    The trivial group has an empty chain and order 1."""

    invariant_factors: tuple[int, ...]
    order: int

    def __post_init__(self):
        prod = 1
        prev = 1
        for d in self.invariant_factors:
            if d < 2 or d % prev:
                raise ValueError(
                    f"not a divisibility chain: {self.invariant_factors}"
                )
            prev = d
            prod *= d
        if prod != self.order:
            raise ValueError("order does not match invariant factors")


@dataclass(frozen=True)
class AbelianDecomposition:
    """An abelian group-like together with independent generators realizing
    the invariant factors, and a discrete-log table for the whole group."""

    group: object
    structure: AbelianStructure
    generators: tuple
    dlog: dict

    def exponents_of(self, label) -> tuple[int, ...]:
        return self.dlog[label]


def _verify_abelian(grp):
    gens = _dedup(grp.generator_labels())
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if grp.mul(a, b) != grp.mul(b, a):
                raise NotAbelianError("group is not abelian")


def _merge_primary(partitions: dict[int, list[int]]) -> tuple[int, ...]:
    # partitions[p] = exponents of the cyclic p-power factors, descending.
    width = max((len(v) for v in partitions.values()), default=0)
    factors = []
    for slot in range(width):
        d = 1
        for p, part in partitions.items():
            if slot < len(part):
                d *= p ** part[slot]
        factors.append(d)
    return tuple(reversed(factors))  # ascending divisibility chain


def abelian_invariants(grp) -> AbelianStructure:
    """Invariant factors of a finite abelian group, from the counts
    N_k = #{x : x^(p^k) = 1} per prime p (recovered via element orders)."""
    _verify_abelian(grp)
    if isinstance(grp, FiniteMatrixGroup):
        orders = list(grp.element_orders)
    else:
        orders = [order_of(grp, x) for x in grp.carrier_labels()]
    n = len(orders)
    partitions: dict[int, list[int]] = {}
    for p, _ in _factorize(n):
        # exps[e] = number of elements of order exactly p^e
        exps: dict[int, int] = {}
        for o in orders:
            e = 0
            while o % p == 0:
                o //= p
                e += 1
            if o == 1:
                exps[e] = exps.get(e, 0) + 1
        e_max = max(exps)
        counts = []  # N_k for k = 0..e_max
        running = 0
        for k in range(e_max + 1):
            running += exps.get(k, 0)
            counts.append(running)
        logs = []
        for c in counts:
            lg = 0
            while c > 1:
                if c % p:
                    raise ArithmeticError("subgroup count is not a prime power")
                c //= p
                lg += 1
            logs.append(lg)
        conj = [logs[k] - logs[k - 1] for k in range(1, e_max + 1)]
        partition = [
            sum(1 for s in conj if s >= i) for i in range(1, max(conj) + 1)
        ]
        partitions[p] = partition  # already descending
    factors = _merge_primary(partitions)
    order = 1
    for d in factors:
        order *= d
    if order != n:
        raise ArithmeticError("invariant factors do not multiply to the order")
    return AbelianStructure(factors, n)


def _p_group_basis(grp, p: int) -> list:
    """Independent generators of an abelian p-group-like, orders descending.
    Classical peel-off: take x of maximal order, recurse on the quotient, and
    adjust lifts so orders are preserved."""
    labels = sorted(grp.carrier_labels())
    if len(labels) == 1:
        return []
    orders = {x: order_of(grp, x) for x in labels}
    # max order, ties broken by least label
    best = max(orders.values())
    x = min(l for l in labels if orders[l] == best)
    cyc = subgroup_generated(grp, [x])
    if len(cyc) == len(labels):
        return [x]
    quo = quotient(grp, cyc)
    x_powers = {power(grp, x, k): k for k in range(orders[x])}
    lam = _p_valuation(orders[x], p)
    basis = [x]
    for ybar in _p_group_basis(quo, p):
        y = quo.coset_reps[ybar]
        mu = _p_valuation(order_of(quo, ybar), p)
        z = power(grp, y, p**mu)
        s = x_powers[z]
        if s:
            # y^(p^mu) = x^s with p^mu | s; correct y by a power of x so the
            # lift has the same order as its image.
            c = (-(s // p**mu)) % (p ** (lam - mu))
            y = grp.mul(y, power(grp, x, c))
        assert order_of(grp, y) == p**mu
        assert quo.coset_of[y] == ybar
        basis.append(y)
    return basis


def _p_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def abelian_decomposition(grp) -> AbelianDecomposition:
    """Invariant factors together with explicit independent generators and a
    full discrete-log table (label -> exponent tuple)."""
    _verify_abelian(grp)
    labels = sorted(grp.carrier_labels())
    n = len(labels)
    primes = [p for p, _ in _factorize(n)]
    per_prime: dict[int, list] = {}
    for p in primes:
        handle = subgroup_generated(
            grp, [x for x in labels if _is_p_power(order_of(grp, x), p)]
        )
        per_prime[p] = _p_group_basis(handle, p)
    width = max((len(b) for b in per_prime.values()), default=0)
    gens = []
    factors = []
    for slot in range(width):
        g = grp.identity_label
        d = 1
        for p in primes:
            pb = per_prime[p]
            if slot < len(pb):
                g = grp.mul(g, pb[slot])
                d *= order_of(grp, pb[slot])
        gens.append(g)
        factors.append(d)
    gens.reverse()
    factors.reverse()  # ascending chain
    structure = AbelianStructure(tuple(factors), n)
    dlog = {grp.identity_label: (0,) * len(gens)}
    for j, g in enumerate(gens):
        current = list(dlog.items())
        for label, exps in current:
            acc = label
            for k in range(1, factors[j]):
                acc = grp.mul(acc, g)
                e = list(exps)
                e[j] = k
                if acc in dlog:
                    raise ArithmeticError("generators are not independent")
                dlog[acc] = tuple(e)
    if len(dlog) != n:
        raise ArithmeticError("decomposition does not span the group")
    if abelian_invariants(grp).invariant_factors != structure.invariant_factors:
        raise ArithmeticError("decomposition disagrees with counting invariants")
    return AbelianDecomposition(grp, structure, tuple(gens), dlog)


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1
