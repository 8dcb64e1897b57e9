"""Matrices over cyclotomic fields and finite matrix group machinery.

`close_group` closes a generating set by breadth-first search (queue order,
generators applied in input order, left multiplication), which makes element
ids, conjugacy class representatives, and everything derived from them
deterministic for a given input.  Each discovered element remembers only
its parent in the search tree and the generator that reached it from there
(a Schreier vector), and group multiplication afterwards walks that tree
through per-generator permutation tables rather than taking a matrix
product.

The search runs on a modular shadow of the group, not on exact matrices.
With N the entry conductor and p a prime with p = 1 (mod N) dividing no
entry denominator, zeta_N -> omega (omega of exact order N in F_p) is a ring
map Z[zeta_N][1/den] -> F_p.  It is injective on every finite subgroup of
GL_n(Z[zeta_N][1/den]): the prime above p it defines is unramified, and the
kernel of reduction modulo an unramified prime above p >= 3 is torsion-free
(H. Minkowski, J. reine angew. Math. 101, 1887; J.-P. Serre, "Rigidite du
foncteur de Jacobi d'echelon n >= 3", Sem. H. Cartan 13, 1960/61, appendix).
So for a finite group the search over F_p meets the elements, ids, tree
and tables of the exact search; an infinite group can close to a finite
image, so `close_group` then proves exactly that the group is finite.
Exact matrices are built on demand, one product each along the search
tree; ids are found from F_p images and confirmed exactly.
The primes searched for exceed 2^60, so they do not divide |G|; then
reduction keeps distinct roots of unity distinct, and eigenvalue
multiplicities and rank(g - 1) can be read over F_p.  A candidate is
proven prime by one gcd with the odd primes below 100 and Miller-Rabin
with Sinclair's seven bases (2011), exact below 2^64; the first thirteen
prime bases take over above 2^64, exact below psi_13 (J. Sorenson and
J. Webster, Math. Comp. 86, 2017, who also give the psi_12 that twelve
bases accept).  Each proof is kept for the life of the process, so the
many groups of one conductor, and conductors that share a prime, prove
it once.
`FiniteMatrixGroup.working_shadow` gives the images modulo a prime = 1
modulo the working conductor.

Subgroups are handles onto a parent group's label set, known by generators
that generate their members, so normality and normal closures are tested on
the conjugates of those generators; quotients get their own contiguous label
set (coset indices, representative = least parent label) and multiply their
representatives in the parent.
Each group-like holds one element-order table, `element_orders`, indexed by
label: a closed group's comes with its closure and a quotient's from one walk
of its cyclic subgroups on first read (`_cyclic_walks`), while a handle reads
its parent's, so no subgroup is walked again.
The table algorithms below (closure, conjugacy, commutators, quotients) only
require the small group-protocol surface (carrier_labels / generator_labels /
mul / inv / identity_label), so they work uniformly on groups, subgroup
handles, quotients, and ad-hoc table groups; abelian structure also reads
`element_orders`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .cyclo import (
    CyclotomicNumber,
    _canonical,
    _dot,
    _factorize,
    _is_prime,
    _power,
    _times,
    _zero,
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

# The default caps: the most elements `close_group` builds, and the highest
# order `_power_traces` powers a matrix up to.
MAX_GROUP_SIZE = 20000
MAX_ORDER = 10000


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

    __slots__ = ("dim", "conductor", "rows", "_hash", "_sparse_rows")

    def __init__(self, dim: int, conductor: int, rows: tuple):
        self.dim = dim
        self.conductor = conductor
        self.rows = rows
        self._hash: Optional[int] = None
        self._sparse_rows: Optional[tuple] = None

    def _nonzero(self) -> tuple:
        """The rows as (column, entry) pairs of their nonzero entries,
        found once per matrix."""
        if self._sparse_rows is None:
            self._sparse_rows = _sparse(self.rows)
        return self._sparse_rows

    @staticmethod
    def from_rows(entries: Sequence[Sequence[Entry]]) -> "CycMatrix":
        parsed = [[_entry(e) for e in row] for row in entries]
        dim = len(parsed)
        if dim == 0 or any(len(row) != dim for row in parsed):
            raise ValueError("matrix must be square and non-empty")
        conductor = math.lcm(*(e.conductor for row in parsed for e in row))
        rows = tuple(tuple(e.embed(conductor) for e in row) for row in parsed)
        return CycMatrix(dim, conductor, rows)

    @staticmethod
    def identity(dim: int, conductor: int = 1) -> "CycMatrix":
        one = rational(1).embed(conductor)
        zero = _zero(conductor)
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
        """The product at the lcm of the two conductors.  A row of self
        with one nonzero entry a_ik scales row k of other, one product
        per nonzero entry (`cyclo._times`: two roots of unity add their
        exponents; a zero, told by its numerator tuple, stays the shared
        zero), and a_ik = 1 takes row k as it is.  Every other
        output entry is one fused `_dot` over the nonzero a_ik b_kj, read
        from the sparse rows of other, which are built only when such a
        row comes up."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in matrix product")
        n = self.dim
        m = math.lcm(self.conductor, other.conductor)
        other = other.lift(m)
        zero = _zero(m)
        zeros = zero.nums
        b = None
        out = []
        for row in self.lift(m)._nonzero():
            if len(row) == 1:
                k, a = row[0]
                out.append(other.rows[k] if a._root == 0 else tuple(
                    zero if x is zero or x.nums == zeros else _times(a, x)
                    for x in other.rows[k]
                ))
                continue
            if b is None:
                b = other._nonzero()
            terms: list[list] = [[] for _ in range(n)]
            for k, aik in row:
                for j, bkj in b[k]:
                    terms[j].append((aik, bkj))
            out.append(tuple(_dot(m, t) if t else zero for t in terms))
        return CycMatrix(n, m, tuple(out))

    def _mul_vector(self, v: tuple) -> tuple:
        """self v for a vector v at self's conductor, row by row as in
        `__matmul__`: a row with one nonzero entry a_ik scales v_k
        (`cyclo._times`), or passes it through when a_ik is tagged 1;
        any other row is one `_dot` over its nonzero a_ik."""
        out = []
        for row in self._nonzero():
            if len(row) == 1:
                k, a = row[0]
                x = v[k]
                out.append(x if a._root == 0 or not x else _times(a, x))
            else:
                out.append(_dot(self.conductor, [(a, v[k]) for k, a in row]))
        return tuple(out)

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in matrix difference")
        m = math.lcm(self.conductor, other.conductor)
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
        diagonal = [row[i] for i, row in enumerate(self.rows)]
        den = math.lcm(*(e.den for e in diagonal))
        nums = [
            sum(column)
            for column in zip(*(
                e.nums if e.den == den else [den // e.den * c for c in e.nums]
                for e in diagonal
            ))
        ]
        return _canonical(self.conductor, nums, den)

    def det(self) -> CyclotomicNumber:
        """(-1)^swaps * prod_k p_k^(1 - s_k) over the pivots p_k of
        `_fraction_free`, p_k having scaled s_k rows by itself; one division,
        and none when no pivot scaled two rows.  At the matrix's conductor."""
        pivots, scaled, swaps = _fraction_free(self)
        if len(pivots) < self.dim:
            return rational(0).embed(self.conductor)
        num = den = rational(1)
        for pivot, s in zip(pivots, scaled):
            if s == 0:
                num = num * pivot
            for _ in range(s - 1):
                den = den * pivot
        det = num if den.is_one else num / den
        return -det if swaps % 2 else det

    def rank(self) -> int:
        """The pivot count of `_fraction_free`, which takes no inverse: a
        route apart from the Gauss-Jordan behind `kernel_basis`."""
        return len(_fraction_free(self)[0])

    def inverse(self) -> "CycMatrix":
        n = self.dim
        one = rational(1).embed(self.conductor)
        zero = rational(0).embed(self.conductor)
        work = [
            list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        if len(_row_reduce(work, n)) < n:
            raise SingularMatrixError("matrix is singular")
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
        m = math.lcm(self.conductor, other.conductor)
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


def _fraction_free(m: CycMatrix) -> tuple[list, list[int], int]:
    """Forward elimination without fractions: row_r <- pivot*row_r -
    factor*row_pivot scales row_r by the nonzero pivot before cancelling,
    so the rank is kept and no field inverse is taken; each updated entry
    is one `_dot`.  Columns at or left of the pivot are not read again, so
    they are not updated.  Returns the pivots in order (as many as the
    rank), the number of rows each pivot scaled, and the number of row
    swaps.  `CycMatrix.rank` and `CycMatrix.det` read it."""
    work = [list(row) for row in m.rows]
    n, c = m.dim, m.conductor
    pivots, scaled, swaps = [], [], 0
    for col in range(n):
        rank = len(pivots)
        pivot_row = next(
            (r for r in range(rank, n) if not work[r][col].is_zero), None
        )
        if pivot_row is None:
            continue
        if pivot_row != rank:
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            swaps += 1
        top = work[rank]
        pivot = top[col]
        below = [row for row in work[rank + 1 :] if not row[col].is_zero]
        for row in below:
            minus = -row[col]
            for j in range(col + 1, n):
                row[j] = _dot(c, ((pivot, row[j]), (minus, top[j])))
        pivots.append(pivot)
        scaled.append(len(below))
    return pivots, scaled, swaps


def _row_reduce(work: list, ncols: int) -> list[int]:
    """Gauss-Jordan elimination in place: bring the rows `work` to reduced
    row echelon form in their first `ncols` columns, dividing each pivot
    row by its pivot; later columns (an adjoined identity) are carried
    along.  Each cleared row is updated entry by entry with one `_dot`
    (e * 1 - factor * t).  Returns the pivot columns.  `inverse` and
    `kernel_basis` share it; `rank` and `det` take `_fraction_free`, which
    divides by nothing, so `kernel_basis` is checked against a second
    route."""
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        pivot_row = next(
            (r for r in range(row, len(work)) if not work[r][col].is_zero), None
        )
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        pivot = work[row][col]
        inv_pivot = pivot.inverse()
        top = work[row] = [e * inv_pivot for e in work[row]]
        n = pivot.conductor
        one = rational(1).embed(n)
        for r, other in enumerate(work):
            factor = other[col]
            if r != row and not factor.is_zero:
                minus = -factor
                work[r] = [
                    e if t.is_zero else _dot(n, ((e, one), (minus, t)))
                    for e, t in zip(other, top)
                ]
        pivots.append(col)
    return pivots


def kernel_basis(m: CycMatrix) -> list[tuple[CyclotomicNumber, ...]]:
    """Basis of the null space, deterministic: reduced row echelon form with
    free columns taken in ascending order."""
    n = m.dim
    work = [list(row) for row in m.rows]
    pivots = _row_reduce(work, n)
    one = rational(1).embed(m.conductor)
    zero = rational(0).embed(m.conductor)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [zero] * n
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(tuple(vec))
    return basis


def _power_traces(g: CycMatrix, max_order: int = MAX_ORDER):
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
    """label^k in any group-like object.  A negative k powers the inverse;
    the square-and-multiply is `cyclo._power`, as for every other power."""
    base = label if k >= 0 else grp.inv(label)
    return _power(base, abs(k), grp.mul, grp.identity_label)


def order_of(grp, label) -> int:
    return len(_powers(grp, label))


def _powers(grp, x) -> list:
    """[1, x, ..., x^(r-1)] for x of order r in any group-like.  Each
    power is the one before times x, with x on the right, where
    `FiniteMatrixGroup.mul` walks the depth of x alone."""
    powers = [grp.identity_label]
    y = x
    while y != grp.identity_label:
        powers.append(y)
        y = grp.mul(y, x)
    return powers


def _cyclic_walks(grp) -> tuple[list[int], list[int], list]:
    """(orders, inverses, walks) of a group-like labelled 0..n-1, the
    first two indexed by label: the powers [1, x, ..., x^(r-1)] of each
    label x not yet reached, in label order, are walked once and kept, and
    each x^j gets the order r / gcd(r, j) and the inverse x^(r - j).  A
    closed group and a quotient call it, once each (`element_orders`)."""
    orders = [0] * len(grp)
    inverses = [0] * len(grp)
    walks = []
    for x in grp.carrier_labels():
        if orders[x]:
            continue
        powers = _powers(grp, x)
        walks.append(powers)
        r = len(powers)
        for j, y in enumerate(powers):
            orders[y] = r // math.gcd(r, j)
            inverses[y] = powers[-j]
    return orders, inverses, walks


# ---------------------------------------------------------------------------
# closed matrix groups


def per_group(fn):
    """Memoise `fn(G, ...)` in `G._memo`, keyed by `fn` and the arguments
    after `G` with defaults filled in, so `f(G)` and `f(G, default)` share
    one entry.  Only for results fixed by `G` and those arguments."""
    signature = inspect.signature(fn)
    arity = len(signature.parameters) - 1

    @functools.wraps(fn)
    def memoised(G, *args, **kwargs):
        # a call that names every argument positionally needs no binding
        key = (fn, args)
        if kwargs or len(args) != arity:
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
    identity).  Element y != 0 was found as h.p, h the generator `_steps[y]`
    and p = `_parents[y]`, and `_lmul[h]` is left multiplication by h.  The
    right multiplications `_rmul[g]` by each generator g follow from those
    tables by lookups alone, in search order: y.g = h.(p.g), so they are
    right wherever `_lmul` is, which `_certify_finite` proves.  a.b walks
    the tree from b up to the root, one lookup per step: a.b = (a.h).p, so
    its cost is the depth of the right operand, while conjugation by a
    generator takes two lookups (`_conjugator`).  This is the Schreier
    vector of Holt, Eick and O'Brien, Handbook of Computational Group
    Theory (2005), section 4.1.  The ids, tree and tables
    come from the closure over F_p (module docstring); the index behind
    `id_of` is keyed by F_p images, and a match is confirmed exactly.
    Element orders and inverses come from one walk per cyclic subgroup
    (`_cyclic_walks`), whose power lists `walks` keeps for the eigen pass.

    Exact matrices are built on demand: `matrix(x)` is the generator that
    discovered x times the matrix of x's parent in the search tree, one
    product per element, memoised.  `elements` holds the exact matrices of
    every element, built on first access.

    What is derived from the group (conjugacy classes, Ab(G) and its
    decomposition, eigenvalues, junior data, K and H) is computed once per
    group object: `per_group` functions keep it in `_memo`, so a second
    closure shares nothing.
    """

    def __init__(
        self,
        dim: int,
        generators: list[CycMatrix],
        entry_conductor: int,
        shadow: "_Shadow",
        index: dict,
        steps: list[int],
        parents: list[int],
        lmul: list[list[int]],
        is_special_linear: bool,
    ):
        self.dim = dim
        self.generators = tuple(generators)
        self.entry_conductor = entry_conductor
        self._shadow = shadow
        self._index = index
        self._steps = steps
        self._parents = parents
        self._lmul = lmul
        self._rmul = [[left[0]] for left in lmul]
        self._matrices: list[Optional[CycMatrix]] = [None] * len(steps)
        self._matrices[0] = CycMatrix.identity(dim, entry_conductor)
        for x in range(1, len(steps)):
            for right in self._rmul:
                right.append(lmul[steps[x]][right[parents[x]]])
            if parents[x] == 0:
                self._matrices[x] = self.generators[steps[x]]
        self.identity_label = 0
        self.generator_ids = tuple(lmul[gi][0] for gi in range(len(generators)))
        self.element_orders, self.inverse_ids, self.walks = _cyclic_walks(self)
        self.exponent = math.lcm(*self.element_orders)
        self.working_conductor = math.lcm(entry_conductor, self.exponent)
        self.is_special_linear = is_special_linear
        self._memo: dict = {}

    # protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._steps)

    def carrier_labels(self):
        return range(len(self._steps))

    def generator_labels(self):
        return self.generator_ids

    def mul(self, a: int, b: int) -> int:
        steps, parents, rmul = self._steps, self._parents, self._rmul
        while b:
            a = rmul[steps[b]][a]
            b = parents[b]
        return a

    def inv(self, a: int) -> int:
        return self.inverse_ids[a]

    @functools.cached_property
    def _lmul_inverses(self) -> list[list[int]]:
        """The inverse permutation of each `_lmul[h]`, which is left
        multiplication by h^-1, built on first read."""
        tables = []
        for left in self._lmul:
            back = [0] * len(left)
            for y, z in enumerate(left):
                back[z] = y
            tables.append(back)
        return tables

    # matrix access -------------------------------------------------------

    def matrix(self, label: int) -> CycMatrix:
        chain = []
        x = label
        while self._matrices[x] is None:
            chain.append(x)
            x = self._parents[x]
        m = self._matrices[x]
        for y in reversed(chain):
            m = self.generators[self._steps[y]] @ m
            self._matrices[y] = m
        return m

    @functools.cached_property
    def elements(self) -> tuple[CycMatrix, ...]:
        return tuple(self.matrix(x) for x in self.carrier_labels())

    def id_of(self, m: CycMatrix) -> Optional[int]:
        if self.entry_conductor % m.conductor == 0:
            shadow = self._shadow
            image = _reduce_matrix(
                m.lift(self.entry_conductor), shadow.prime, shadow.root
            )
            x = None if image is None else self._index.get(image)
            if x is not None and self.matrix(x) == m:
                return x
            return None
        # The entry conductor does not contain the given representation; fall
        # back to elementwise comparison at a common conductor.
        for x in self.carrier_labels():
            if self.matrix(x) == m:
                return x
        return None

    @per_group
    def working_shadow(self) -> "_Shadow":
        """The F_q images of every element, for a prime q = 1 modulo the
        working conductor W dividing no generator-entry denominator, with a
        root of exact order W that reduces zeta_W; so every element order
        r has the root root^(W / r).  When W is the entry conductor this is
        the closure's shadow; otherwise the search tree is replayed once
        over F_q."""
        base = self._shadow
        n, modulus = self.entry_conductor, self.working_conductor
        if modulus == n:
            return base
        q = _shadow_prime(modulus, _denominators(self.generators))
        root = _root_of_unity(q, modulus)
        zeta_n = pow(root, modulus // n, q)
        gens = [_sparse(_reduce_matrix(g, q, zeta_n)) for g in self.generators]
        images = [base.images[0]]
        for x in range(1, len(self)):
            parent = images[self._parents[x]]
            images.append(_mul_mod(gens[self._steps[x]], parent, q))
        return _Shadow(q, modulus, root, images)

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

    def __repr__(self) -> str:
        return (
            f"<FiniteMatrixGroup dim={self.dim} order={len(self)} "
            f"conductor={self.entry_conductor}>"
        )


def close_group(
    generators: Sequence[CycMatrix], max_size: int = MAX_GROUP_SIZE
) -> FiniteMatrixGroup:
    """Close a generating set under multiplication.

    BFS from the identity, applying generators in input order by left
    multiplication, so the element ids are deterministic.  Each new element
    keeps its parent and the index of the generator that found it, and
    nothing longer (a Schreier vector).  The search runs over F_p (module
    docstring): p is the first prime = 1 (mod N) from (2^61 // N) * N + 1
    upwards, N the entry conductor, that divides no generator-entry
    denominator (`_shadow_prime`, whose proofs are kept for the life of
    the process), and zeta_N maps to an element of exact order N.
    Determinants are checked on the exact generators, and must reduce to
    those of their images.  `_certify_finite` then proves exactly that the
    group is finite, so that the tables are its own.  Raises
    GroupTooLargeError (with the partial count) if the closure exceeds
    max_size elements, and ValueError if the group is not finite.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise ValueError("generators must share one dimension")
    dets = [g.det() for g in gens]
    for i, d in enumerate(dets):
        if d.is_zero:
            raise SingularMatrixError(f"generator {i} is singular")
        if as_root_of_unity(d) is None:
            raise ValueError(
                f"generator {i} has determinant {d.render()}, not a root of "
                "unity; the generated group cannot be finite"
            )
    conductor = math.lcm(*(g.conductor for g in gens))
    gens = [g.lift(conductor) for g in gens]
    is_sl = all(d.is_one for d in dets)

    p = _shadow_prime(conductor, _denominators(gens))
    root = _root_of_unity(p, conductor)
    images_of_gens = []
    for gi, g in enumerate(gens):
        image = _reduce_matrix(g, p, root)
        # The determinant must reduce to the image's determinant, a nonzero
        # root of unity; a singular image would close a semigroup whose
        # tables are not permutations.
        det = _reduce_value(dets[gi].embed(conductor), p, root)
        if _det_mod(image, p) != det:
            raise ArithmeticError(
                f"generator {gi} and its image modulo {p} have different "
                "determinants"
            )
        images_of_gens.append(_sparse(image))
    identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    images = [identity]
    index = {identity: 0}
    steps = [0]
    parents = [0]
    lmul: list[list[int]] = [[] for _ in gens]
    i = 0
    while i < len(images):
        x = images[i]
        for gi, g in enumerate(images_of_gens):
            y = _mul_mod(g, x, p)
            known = index.get(y)
            if known is None:
                if len(images) >= max_size:
                    raise GroupTooLargeError(len(images), max_size)
                known = len(images)
                index[y] = known
                images.append(y)
                steps.append(gi)
                parents.append(i)
            lmul[gi].append(known)
        i += 1
    G = FiniteMatrixGroup(
        dim,
        gens,
        conductor,
        _Shadow(p, conductor, root, images),
        index,
        steps,
        parents,
        lmul,
        is_sl,
    )
    _certify_finite(G)
    return G


# ---------------------------------------------------------------------------
# the modular shadow


class _Shadow:
    """Images over F_prime of the elements of a closed group, under the ring
    map zeta_n -> root^(order / n) (n the entry conductor; `root` has exact
    order `order`), with their traces."""

    __slots__ = ("prime", "order", "root", "images", "traces")

    def __init__(self, prime: int, order: int, root: int, images: list):
        self.prime = prime
        self.order = order
        self.root = root
        self.images = images
        self.traces = [
            sum(row[i] for i, row in enumerate(img)) % prime for img in images
        ]


def _denominators(gens: Iterable[CycMatrix]) -> set[int]:
    return {e.den for g in gens for row in g.rows for e in row}


def _certify_finite(G: FiniteMatrixGroup) -> None:
    """Prove that the exact group is finite, so that the search over F_p
    found its tables; raise ValueError otherwise.

    When the images of the generators commute, `_certify_abelian` does.
    Otherwise, over F_p, vectors v are taken from (1, ..., 1), e_1, ...,
    e_n while v lies outside the span of the orbits taken so far (the orbit
    of v is {image . v}), until the orbits span F_p^n; then the exact
    orbits span V.  Exactly, w_x = M_x v is built along the search tree,
    and every other edge x -> g.x of the tables must hold: g w_x ==
    w_(g.x).  Each g w is one `CycMatrix._mul_vector`, the row kernel of
    the matrix product.  Then each generator maps the finite set of all
    w_x, which spans V, into itself, so G acts faithfully on a finite set
    and is finite."""
    gens, images, p = G.generators, G._shadow.images, G._shadow.prime
    steps, parents, lmul, ids = G._steps, G._parents, G._lmul, G.generator_ids
    if all(lmul[i][ids[j]] == lmul[j][ids[i]]
           for i in range(len(ids)) for j in range(i)):
        _certify_abelian(G)
        return
    n = G.dim
    basis: dict[int, list[int]] = {}
    chosen = []
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for v in [(1,) * n] + units:
        if len(basis) == n:
            break
        if not _insert_mod(list(v), basis, p):
            continue
        chosen.append(v)
        for img in images:
            if len(basis) == n:
                break
            orbit_point = [sum(a * b for a, b in zip(row, v)) for row in img]
            _insert_mod([c % p for c in orbit_point], basis, p)
    conductor = gens[0].conductor
    values = [rational(c).embed(conductor) for c in (0, 1)]
    for v in chosen:
        w = [tuple(values[c] for c in v)]
        for y in range(1, len(images)):
            w.append(gens[steps[y]]._mul_vector(w[parents[y]]))
        for gi, table in enumerate(lmul):
            for x, y in enumerate(table):
                if y and parents[y] == x and steps[y] == gi:
                    continue  # the search-tree edge that defined w_y
                if gens[gi]._mul_vector(w[x]) != w[y]:
                    raise ValueError(
                        f"generator {gi} maps element {x} outside the "
                        f"element {y} it meets modulo {p}; the generated "
                        "group is not finite"
                    )


def _certify_abelian(G: FiniteMatrixGroup) -> None:
    """Commuting generators of finite order generate a finite group, a
    quotient of the product of the cyclic groups they generate.  So each
    generator must commute exactly with the others, and its power to the
    order of its image (`element_orders`) must be exactly 1, that power
    taken by square-and-multiply (`cyclo._power`) on the exact matrix; a
    finite group would pass both, as reduction is injective on it."""
    gens, p = G.generators, G._shadow.prime
    for gi, g in enumerate(gens):
        order = G.element_orders[G.generator_ids[gi]]
        one = CycMatrix.identity(g.dim, g.conductor)
        if _power(g, order, operator.matmul, one) != one:
            raise ValueError(
                f"generator {gi} has order {order} modulo {p} but not "
                "exactly; the generated group is not finite"
            )
        for gj in range(gi):
            if g @ gens[gj] != gens[gj] @ g:
                raise ValueError(
                    f"generators {gj} and {gi} commute modulo {p} but not "
                    "exactly; the generated group is not finite"
                )


def _insert_mod(vec: list[int], basis: dict, p: int) -> int:
    """Reduce vec (entries in [0, p)) against the echelon rows `basis`
    (pivot -> row with a 1 at its pivot, in insertion order) over F_p.  If
    it is independent, divide it by its leading coefficient, add it and
    return that coefficient; otherwise return 0."""
    for pivot, row in basis.items():
        c = vec[pivot]
        if c:
            vec = [(a - c * b) % p for a, b in zip(vec, row)]
    for k, c in enumerate(vec):
        if c:
            inv = pow(c, -1, p)
            basis[k] = [a * inv % p for a in vec]
            return c
    return 0


def _shadow_prime(n: int, dens: Iterable[int]) -> int:
    """The first prime p = 1 (mod n) from (2^61 // n) * n + 1 upwards that
    divides none of `dens`.  Each odd candidate is sieved by the odd primes
    below 100, then tested by Miller-Rabin with Sinclair's seven bases
    (2011), exact below 2^64 (`cyclo._is_prime`); each answer is kept for
    the life of the process, so a prime that several conductors or groups
    reach is proven once."""
    dens = tuple(dens)
    c = max(1, 2**61 // n) * n + 1
    while not (c % 2 and _is_prime(c) and all(d % c for d in dens)):
        c += n
    return c


def _root_of_unity(p: int, n: int) -> int:
    """An element of exact order n in F_p, for n dividing p - 1: the first
    g^((p - 1) / n), g = 2, 3, ..., with omega^(n / q) != 1 for every prime
    q dividing n."""
    primes = [q for q, _ in _factorize(n)]
    g = 2
    while True:
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in primes):
            return w
        g += 1


def _reduce_matrix(m: CycMatrix, p: int, zeta_image: int) -> Optional[tuple]:
    """The rows of m over F_p under zeta_N -> zeta_image (N = m.conductor),
    or None when p divides an entry denominator."""
    rows = tuple(
        tuple(_reduce_value(e, p, zeta_image) for e in row) for row in m.rows
    )
    return None if any(None in row for row in rows) else rows


def _reduce_value(e: CyclotomicNumber, p: int, zeta_image: int) -> Optional[int]:
    """e over F_p under zeta_N -> zeta_image (N = e.conductor), or None when
    p divides its denominator."""
    if e.den % p == 0:
        return None
    value = 0
    power = 1
    for c in e.nums:
        if c:
            value += c * power
        power = power * zeta_image % p
    return value * pow(e.den, -1, p) % p


def _sparse(rows: tuple) -> tuple:
    """Rows as (column, value) pairs of their nonzero entries."""
    return tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in rows)


def _mul_mod(a: tuple, x: tuple, p: int) -> tuple:
    """a @ x over F_p, with a in `_sparse` form and x as rows."""
    out = []
    for row in a:
        if len(row) == 1:
            k, c = row[0]
            out.append(x[k] if c == 1 else tuple([c * v % p for v in x[k]]))
        else:
            acc = [0] * len(x)
            for k, c in row:
                acc = [s + c * v for s, v in zip(acc, x[k])]
            out.append(tuple([s % p for s in acc]))
    return tuple(out)


def _det_mod(rows, p: int) -> int:
    """Determinant over F_p.  `_insert_mod` reduces each row, in order,
    against the rows before it, which keeps the determinant, then divides
    it by its leading coefficient.  The stored rows, columns permuted into
    pivot order, are unitriangular, so the determinant is the product of
    those coefficients times the sign of that permutation."""
    basis: dict[int, list[int]] = {}
    det = 1
    for row in rows:
        c = _insert_mod(list(row), basis, p)
        if not c:
            return 0
        det = det * c % p
    order = list(basis)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -det % p if inversions % 2 else det


# ---------------------------------------------------------------------------
# subgroups, quotients


class SubgroupHandle:
    """A subgroup as a subset of a parent group's labels.  Group operations
    delegate to the parent, so handles nest without label translation.
    The generators generate the members: normality is read off them."""

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

    @property
    def element_orders(self):
        """The parent's order table: a handle's labels are its parent's."""
        return self.parent.element_orders

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


def _conjugator(grp, g):
    """y -> g^-1 y g for a generator g of `grp`.  On a closed group that is
    two lookups: left multiplication by g^-1, the inverse of g's left
    table (`FiniteMatrixGroup._lmul_inverses`), then right multiplication
    by g (`_rmul`).  Any other group-like has no left tables and takes two
    products."""
    if isinstance(grp, FiniteMatrixGroup):
        h = grp.generator_ids.index(g)
        back, right = grp._lmul_inverses[h], grp._rmul[h]
        return lambda y: right[back[y]]
    gi = grp.inv(g)
    return lambda y: grp.mul(grp.mul(gi, y), g)


def conjugacy_classes(grp) -> tuple[tuple[int, ...], ...]:
    """Partition into conjugacy classes; each class is sorted and classes are
    ordered by least member, so representatives (= first entries) are
    deterministic.  Orbits grow by y -> g^-1 y g over the generators g
    (`_conjugator`): two lookups on a closed group, two products on any
    other group-like."""
    gens = dict.fromkeys(grp.generator_labels())
    conjugators = [_conjugator(grp, g) for g in gens]
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
            for conjugate in conjugators:
                z = conjugate(y)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        assigned |= orbit
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def commutator_subgroup(grp) -> SubgroupHandle:
    """The derived subgroup: the normal closure of the generators'
    commutators (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005).  While a generator of the subgroup S grown so far has a
    conjugate outside S, S is regrown from its generators and the escaping
    conjugates; each round at least doubles |S|, so there are at most
    log2 |G| rounds."""
    gens = list(dict.fromkeys(grp.generator_labels()))
    seed = set()
    for a in gens:
        for b in gens:
            seed.add(
                grp.mul(grp.mul(grp.mul(grp.inv(a), grp.inv(b)), a), b)
            )
    sub = subgroup_generated(grp, sorted(seed))
    while True:
        new = {c for _, _, c in _escaping_conjugates(grp, sub)}
        if not new:
            return sub
        sub = subgroup_generated(grp, [*sub.generator_labels(), *sorted(new)])


def _escaping_conjugates(grp, sub: SubgroupHandle):
    """(g, h, g^-1 h g) for every generator g of `grp` and generator h of
    `sub` whose conjugate lies outside `sub`, g-major.  Conjugation by g is
    an automorphism, so g^-1 S g lies in S exactly when the conjugate of
    each generator of S does: none escapes exactly when S is normal in the
    group the g generate.  The conjugate is g^-1 h g (`_conjugator`: two
    lookups on a closed group, two products on any other group-like); for
    a finite group the verdict is that of g h g^-1, as g S g^-1 lies in S
    exactly when g^-1 S g does."""
    for g in dict.fromkeys(grp.generator_labels()):
        conjugate = _conjugator(grp, g)
        for h in sub.generator_labels():
            c = conjugate(h)
            if c not in sub.member_set:
                yield g, h, c


class QuotientGroup:
    """G/N for N normal in G.  Labels are coset indices; representative of a
    coset is its least parent label and cosets are indexed by representative
    in ascending order (so index 0 is the identity coset).  `mul` multiplies
    the two representatives in the parent and looks the product's coset up
    in `coset_of`; inverses are read off once, at construction."""

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
        self._inv = tuple(coset_of[parent.inv(r)] for r in reps)
        self._generators = tuple(
            dict.fromkeys(coset_of[g] for g in parent.generator_labels())
        )

    def carrier_labels(self):
        return range(len(self.coset_reps))

    def generator_labels(self):
        return self._generators

    def mul(self, a: int, b: int) -> int:
        return self.coset_of[
            self.parent.mul(self.coset_reps[a], self.coset_reps[b])
        ]

    def inv(self, a: int) -> int:
        return self._inv[a]

    @functools.cached_property
    def element_orders(self) -> list[int]:
        """The order of each coset, from one `_cyclic_walks` of the
        quotient, kept on first read."""
        return _cyclic_walks(self)[0]

    def __len__(self) -> int:
        return len(self.coset_reps)

    def __repr__(self) -> str:
        return f"<QuotientGroup order={len(self)}>"


def _check_normal(parent, normal: SubgroupHandle):
    for g, nn, _ in _escaping_conjugates(parent, normal):
        raise NotNormalError(
            f"subgroup is not normal: conjugate of {nn!r} by {g!r} escapes"
        )


def quotient(grp, normal: SubgroupHandle) -> QuotientGroup:
    """G/N with normality verified on the conjugates of N's generators by
    G's generators (NotNormalError otherwise)."""
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
        chain = self.invariant_factors
        if any(d < 2 for d in chain) or any(b % a for a, b in zip(chain, chain[1:])):
            raise ValueError(f"not a divisibility chain: {chain}")
        if math.prod(chain) != self.order:
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
    gens = list(dict.fromkeys(grp.generator_labels()))
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
    N_k = #{x : x^(p^k) = 1} per prime p, recovered from the group's
    order table (`element_orders`)."""
    _verify_abelian(grp)
    orders = grp.element_orders
    return _counted_invariants([orders[x] for x in grp.carrier_labels()])


def _counted_invariants(orders) -> AbelianStructure:
    """The invariant factors of an abelian group read off the orders of
    its elements (`abelian_invariants`); `orders` is sized and may be
    iterated more than once."""
    n = len(orders)
    partitions: dict[int, list[int]] = {}
    for p, _ in _factorize(n):
        # exps[e] = number of elements of order exactly p^e
        exps: dict[int, int] = {}
        for o in orders:
            e = _p_valuation(o, p)
            if o == p**e:
                exps[e] = exps.get(e, 0) + 1
        e_max = max(exps)
        # N_k for k = 0..e_max
        counts = itertools.accumulate(exps.get(k, 0) for k in range(e_max + 1))
        logs = []
        for c in counts:
            lg = _p_valuation(c, p)
            if c != p**lg:
                raise ArithmeticError("subgroup count is not a prime power")
            logs.append(lg)
        conj = [logs[k] - logs[k - 1] for k in range(1, e_max + 1)]
        partition = [
            sum(1 for s in conj if s >= i) for i in range(1, max(conj) + 1)
        ]
        partitions[p] = partition  # already descending
    factors = _merge_primary(partitions)
    if math.prod(factors) != n:
        raise ArithmeticError("invariant factors do not multiply to the order")
    return AbelianStructure(factors, n)


def _p_group_basis(grp, p: int) -> list:
    """Independent generators of an abelian p-group-like, orders descending.
    Classical peel-off: take x of maximal order, recurse on the quotient, and
    adjust lifts so orders are preserved.  Orders are read from
    `element_orders`: a handle's are its parent's, and each quotient walks
    its own once."""
    orders = grp.element_orders
    labels = sorted(grp.carrier_labels())
    # max order, ties broken by least label
    best = max(orders[l] for l in labels)
    x = min(l for l in labels if orders[l] == best)
    powers = _powers(grp, x)
    if len(powers) == len(labels):
        return [x]
    quo = quotient(grp, SubgroupHandle(grp, tuple(sorted(powers)), (x,)))
    log_x = {y: k for k, y in enumerate(powers)}
    lam = _p_valuation(orders[x], p)
    basis = [x]
    for ybar in _p_group_basis(quo, p):
        y = quo.coset_reps[ybar]
        mu = _p_valuation(quo.element_orders[ybar], p)
        z = power(grp, y, p**mu)
        s = log_x[z]
        if s:
            # y^(p^mu) = x^s with p^mu | s; correct y by a power of x so the
            # lift has the same order as its image.
            c = (-(s // p**mu)) % (p ** (lam - mu))
            y = grp.mul(y, powers[c])
        if orders[y] != p**mu or quo.coset_of[y] != ybar:
            raise ArithmeticError(f"lift {y} left coset {ybar} or order {p**mu}")
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
    full discrete-log table (label -> exponent tuple).  The group must be
    abelian (`_verify_abelian`).  The group's order table
    (`element_orders`: a closed group's from its closure, a quotient's
    walked once, a handle's its parent's) serves the per-prime filter,
    the peel-off and the cross-check, which reads the factors off counts
    of elements by order (`_counted_invariants`, as `abelian_invariants`
    does), a route of its own."""
    _verify_abelian(grp)
    labels = sorted(grp.carrier_labels())
    n = len(labels)
    orders = grp.element_orders
    counted = _counted_invariants([orders[x] for x in labels])
    primes = [p for p, _ in _factorize(n)]
    per_prime: dict[int, list] = {}
    for p in primes:
        p_part = [x for x in labels if orders[x] == p ** _p_valuation(orders[x], p)]
        handle = subgroup_generated(grp, p_part)
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
                d *= orders[pb[slot]]
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
    if counted.invariant_factors != structure.invariant_factors:
        raise ArithmeticError("decomposition disagrees with counting invariants")
    return AbelianDecomposition(grp, structure, tuple(gens), dlog)
