"""Ages of finite-order matrices, junior and reflection detection, and the
weight data behind monomial valuations.

For g of order r with eigenvalues zeta_r^{a_1}, ..., zeta_r^{a_n}
(0 <= a_i < r), the age of g is (1/r) sum a_i.  Elements of age exactly 1 are
junior.  The exponents a_i depend on which primitive r-th root of unity plays
the role of zeta_r; GaloisTwist makes that choice explicit (t means "use
zeta^t instead of zeta"), and galois_sweep verifies that the downstream
answers do not depend on it.

Eigenvalues are read in one pass per group (`_eigen_pass`), and those of a
single matrix g in the pass of the cyclic group <g> it generates
(`_cyclic_group`, `_single_eigen`): every power of g is its own class
there, so the exponents of each get the exact checks.
The pass works over F_q (the group's modular shadow, see `matgrp`),
walking each cyclic subgroup once: Newton's identities give
the characteristic polynomial of its generator x from the traces of x,
..., x^dim, and the powers of the root of unity of order r that divide it
give the dim exponents a of its eigenvalues zeta_r^a, in O(r * dim).
Every power of x derives its exponents from them and must reproduce its
own order and F_q trace.  What depends only on an element's type is
found once per type and dropped with the pass: the exponents once per
order and F_q traces of x, ..., x^dim, the derived exponents and F_q trace
of x^j once per order, exponents and j, and the expected exact trace once
per conductor, order and exponents.  The comparisons with them stay per
element and per class representative.  Each element keeps its dim
exponents, ascending; the length-r multiplicity vector (m_a counting the
eigenvalue zeta_r^a) is built only where the public API or a report shows
it.  The same pass flags rank(x - 1) == 1 over F_q (`_rank_is_one`) and
checks every conjugacy-class representative exactly.  In a diagonal group
with roots of unity on its generators' diagonals, the flag counts the
diagonal entries other than 1 of x's F_q image, and the exponents and
flag are compared with the roots on its diagonal, summed along the search tree
(`_diagonal_roots`); in any other group its exact trace is compared with
sum_a zeta_r^a, and the exact rank-one test (`is_reflection`) with its
flag.  The pass also checks the facts every twist relies on, once
per group: order and exponents are constant on each class, and in a
determinant-one group the exponents of x sum to a multiple of its order r
(det x = zeta_r^(sum a) = 1).  A twist t turns the exponents a into t^-1 a mod r,
so its ages are then a class function and integral as well.  Each twist
makes one `age_records` pass, in `_juniors`, which computes the weights
once per distinct order and exponents and reads the age off them.  What
the junior elements determine is kept on one record per junior set
(`_JuniorSet`, keyed by the ids in `_junior_set`): the id tuple, the
class scan, G/H, Ab(G/H), Ab(G/H)'s invariant factors, whether Cl(X) is
free and the class members the junior gradings are read at.  `_juniors`
is the one route from a twist to its record, and every junior reader
takes it.  A twist t replaces the junior elements by their t-th powers,
so every twist generates the same H, and twists with one junior set
share that record.  Building G/H is the proof that H is normal.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .cyclo import (
    CyclotomicNumber,
    _dot,
    _reduce_ints,
    _zero,
    as_root_of_unity,
    zeta,
)
from .matgrp import (
    CycMatrix,
    FiniteMatrixGroup,
    GroupTooLargeError,
    MAX_ORDER,
    NotNormalError,
    QuotientGroup,
    SingularMatrixError,
    SubgroupHandle,
    abelian_invariants,
    abelianization,
    close_group,
    kernel_basis,
    per_group,
    quotient,
    subgroup_generated,
)

__all__ = [
    "AgeRecord",
    "ConsistencyError",
    "GaloisTwist",
    "GradingData",
    "IDENTITY_TWIST",
    "NotSpecialLinearError",
    "SweepEntry",
    "age",
    "age_records",
    "eigen_multiplicities",
    "galois_sweep",
    "is_reflection",
    "junior_classes",
    "junior_elements",
    "valuation_weights",
]


class NotSpecialLinearError(ValueError):
    pass


class ConsistencyError(RuntimeError):
    """An invariant the theory guarantees failed to hold; never expected."""


class GaloisTwist(NamedTuple):
    """The substitution zeta -> zeta^t on the fixed primitive roots."""

    t: int = 1

    def inverse_mod(self, r: int) -> int:
        try:
            return pow(self.t, -1, r)
        except ValueError:
            raise ValueError(
                f"twist {self.t} is not invertible modulo {r}"
            ) from None


IDENTITY_TWIST = GaloisTwist(1)


class AgeRecord(NamedTuple):
    element_id: int
    order: int
    exponents: tuple[int, ...]  # eigenvalues zeta_order^a, a ascending
    age: Fraction
    is_junior: bool
    is_reflection: bool
    weights: tuple[int, ...]  # twisted exponents, ascending

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """(m_0, ..., m_{order-1}), m_j counting the eigenvalue
        zeta_order^j."""
        return tuple(_multiplicity_vector(self.exponents, self.order))


class GradingData(NamedTuple):
    """Weight data of one junior element: the grading deg(x_j) := weights[j]
    lives in the coordinates y with x = basis . y; column j of basis spans
    the eigenspace matching weights[j].  `junior_gradings` gives each
    junior class the grading of one chosen member, which need not be the
    class representative it is listed under."""

    order: int
    weights: tuple[int, ...]
    basis: CycMatrix
    basis_is_standard: bool


class SweepEntry(NamedTuple):
    twist: int
    junior_count: int
    junior_class_representatives: tuple[int, ...]
    junior_element_ids: tuple[int, ...]
    junior_subgroup_order: int
    torsion_factors: tuple[int, ...]


# ---------------------------------------------------------------------------
# multiplicities and ages


def _cyclic_group(g: CycMatrix, max_order: int = MAX_ORDER) -> FiniteMatrixGroup:
    """The closure of <g>, whose order is the order of g.  A singular g,
    or one with no order up to max_order, is a ValueError."""
    try:
        return close_group([g], max_size=max_order)
    except (GroupTooLargeError, SingularMatrixError):
        raise ValueError(
            f"no finite order up to {max_order}; the matrix may have "
            "infinite order"
        ) from None


def _single_eigen(
    g: CycMatrix, max_order: int = MAX_ORDER
) -> tuple[int, tuple[int, ...]]:
    """(order r, exponents a ascending of the eigenvalues zeta_r^a) of one
    matrix, read off the eigen pass of the cyclic group <g>
    (`_cyclic_group`): each of its elements is its own class, so every
    power of g gets the exact eigenvalue and rank checks."""
    G = _cyclic_group(g, max_order)
    return len(G), _eigen_pass(G)[0][G.generator_ids[0]]


def eigen_multiplicities(
    g: CycMatrix, order: Optional[int] = None, max_order: int = MAX_ORDER
) -> tuple[int, ...]:
    """Multiplicity vector (m_0, ..., m_{r-1}) where m_j counts the
    eigenvalue zeta_r^j and r is the order of g (`_single_eigen`)."""
    r, exponents = _single_eigen(g, max_order)
    if order is not None and order != r:
        raise ValueError(f"stated order {order} but computed order {r}")
    return tuple(_multiplicity_vector(exponents, r))


def _multiplicity_vector(exponents, r: int) -> list[int]:
    """[m_0, ..., m_{r-1}], m_a counting a among the exponents: the one
    place a vector of length r is built from them."""
    m = [0] * r
    for a in exponents:
        m[a] += 1
    return m


def _weights(exponents, r: int, twist: GaloisTwist) -> tuple[int, ...]:
    """The twisted exponents, ascending: zeta_r^a becomes weight
    t^-1 * a mod r.  The age is their sum over r."""
    t_inv = twist.inverse_mod(r)
    return tuple(sorted(t_inv * a % r for a in exponents))


def age(g: CycMatrix, twist: GaloisTwist = IDENTITY_TWIST) -> Fraction:
    r, exponents = _single_eigen(g)
    return Fraction(sum(_weights(exponents, r, twist)), r)


def _shifted(g: CycMatrix, lam: CyclotomicNumber) -> CycMatrix:
    """g - lam * 1 at the lcm of the two conductors, lam subtracted on the
    diagonal only."""
    m = math.lcm(g.conductor, lam.conductor)
    return CycMatrix(
        g.dim,
        m,
        tuple(
            tuple(e - lam if i == j else e for j, e in enumerate(row))
            for i, row in enumerate(g.lift(m).rows)
        ),
    )


def _rank_is_one(supports, entry, vanishes) -> bool:
    """rank == 1 for a matrix given by the supports of its rows (the
    columns of their nonzero entries), an iterable read in row order, and
    by `entry(i, j)`, asked only for the entries a minor needs.  With no
    nonzero row the rank is 0.  Two nonzero rows with different supports
    are independent, which takes no arithmetic, and no later support is
    read.  Otherwise every nonzero row i must be a multiple of the first
    one, row t: with p the first column of the common support, each minor
    entry(t, p) * entry(i, j) - entry(t, j) * entry(i, p) must vanish,
    which `vanishes(a, b, c, d)` (a*b - c*d == 0) decides."""
    nonzero = ((i, s) for i, s in enumerate(supports) if s)
    top, support = next(nonzero, (None, None))
    if support is None:
        return False
    rest = []
    for i, s in nonzero:
        if s != support:
            return False
        rest.append(i)
    p, others = support[0], support[1:]
    if not (rest and others):
        return True
    pivot, tops = entry(top, p), [entry(top, j) for j in others]
    for i in rest:
        lead = entry(i, p)
        if not all(
            vanishes(pivot, entry(i, j), t, lead) for j, t in zip(others, tops)
        ):
            return False
    return True


def is_reflection(g: CycMatrix) -> bool:
    """rank(g - id) = 1; the classical pseudo-reflection condition, by
    `_rank_is_one`.  The support of each row of g - 1 is read off g, one
    row at a time as the test asks for it, by comparing numerators: a
    diagonal entry is in it unless it is 1, any other entry unless it is
    0.  An entry of g - 1 is built only when a minor needs it, with 1
    subtracted on the diagonal only, and each minor is one `_dot`."""
    rows, n = g.rows, g.conductor
    zeros = _zero(n).nums
    one = (1,) + zeros[1:]
    return _rank_is_one(
        (
            [j for j, e in enumerate(row)
             if e.nums != (one if j == i and e.den == 1 else zeros)]
            for i, row in enumerate(rows)
        ),
        lambda i, j: rows[i][j] - 1 if i == j else rows[i][j],
        lambda a, b, c, d: not _dot(n, ((a, b), (-c, d))),
    )


def _is_diagonal_mod(image) -> bool:
    """Whether an element's F_q image, its rows, is diagonal; an exact
    diagonal matrix has a diagonal image, not conversely."""
    return not any(
        v for i, row in enumerate(image) for j, v in enumerate(row) if i != j
    )


def _is_reflection_mod(image, q: int) -> bool:
    """rank(image - 1) == 1 over F_q, `image` the rows of an element's
    F_q image, by `_rank_is_one`, each row's support read as the test
    asks for it."""
    return _rank_is_one(
        ([j for j, v in enumerate(row) if v != (i == j)]
         for i, row in enumerate(image)),
        lambda i, j: (image[i][j] - (i == j)) % q,
        lambda a, b, c, d: (a * b - c * d) % q == 0,
    )


# ---------------------------------------------------------------------------
# per-group records


def _power_exponents(e: tuple[int, ...], r: int, j: int) -> tuple[int, ...]:
    """The exponents of x^j from those of x, of order r: with
    g = gcd(r, j), x^j has order r/g and zeta_r^a becomes
    zeta_{r/g}^(a*j/g)."""
    g = math.gcd(r, j)
    return tuple(sorted(a * (j // g) % (r // g) for a in e))


def _root_tables(shadow, orders) -> dict[int, list[int]]:
    """For each element order r, the powers omega_r^k (k < r) over F_q of
    omega_r = root^(W / r), which has exact order r (the shadow's root has
    exact order W).  One table per order, not one of length W: W can be
    far larger than any element order."""
    q, tables = shadow.prime, {}
    for r in set(orders):
        omega, table = pow(shadow.root, shadow.order // r, q), [1]
        for _ in range(1, r):
            table.append(table[-1] * omega % q)
        tables[r] = table
    return tables


def _diagonal_roots(G: FiniteMatrixGroup) -> Optional[list[tuple[int, ...]]]:
    """The exponents k of zeta_2N on the diagonal of every element, N the
    entry conductor, when every generator is diagonal with roots of unity
    on its diagonal (`as_root_of_unity`); else None.  A root zeta_r^j in
    Q(zeta_N) has r dividing 2N, so it is zeta_2N^(j 2N / r).  The
    exponents are read along the search tree: y = h.p has the exponents
    of h plus those of p, mod 2N, the exact product of two roots."""
    m, gens = 2 * G.entry_conductor, []
    for g in G.generators:
        if not g.is_diagonal():
            return None
        k = []
        for i in range(g.dim):
            root = as_root_of_unity(g.rows[i][i])
            if root is None:
                return None
            r, j = root
            k.append(j * (m // r))
        gens.append(k)
    roots = [(0,) * G.dim]
    for h, p in zip(G._steps[1:], G._parents[1:]):
        roots.append(tuple([(a + b) % m for a, b in zip(gens[h], roots[p])]))
    return roots


@per_group
def _eigen_pass(G: FiniteMatrixGroup):
    """(eigenvalue exponents, reflection flags) of every element, over
    F_q (`FiniteMatrixGroup.working_shadow`: q = 1 mod the working
    conductor W, so every element order r has the root omega_r =
    root^(W/r), its powers read from one table per order,
    `_root_tables`).  The exponents of x, of order r, are the dim values a
    of its eigenvalues zeta_r^a, ascending.

    Each walk the group kept (`FiniteMatrixGroup.walks`) is the powers of
    an x no earlier walk reached; the exponents of x come from the traces
    of x, ..., x^dim by Newton's identities (`_exponents_mod`).  Every
    power x^j not yet filled gets its exponents by `_power_exponents`, and
    must have the derived order r / gcd(r, j) as its stored order and
    reproduce its F_q trace, a sum of dim table entries.  The flag of x is
    rank(x - 1) == 1 over F_q: `_is_reflection_mod`, or, in a group with
    `_diagonal_roots`, whose F_q images are diagonal, the count of
    diagonal entries other than 1.  Then every conjugacy-class
    representative x is checked exactly, by one of two routes.  When `_diagonal_roots` gives the zeta_2N exponents k of x's
    diagonal (every generator diagonal, with roots of unity on it), each
    k * r must be a multiple of 2N, the sorted k * r / 2N must be the
    exponents of x, which implies the trace equality, and #(k != 0),
    which is rank(x - 1) for a diagonal x, must be 1 exactly when x is
    flagged; no matrix, trace or minor is built.  Otherwise its exact matrix is built, tr(x)
    must equal sum_a zeta_r^a, compared as numerators at n = lcm(its
    conductor, r), and the exact rank-one test `is_reflection` must give
    its flag.  On both routes its flag, order and exponents must be those
    of every member of its class; else ArithmeticError.  What depends only
    on a type is computed once per type, in dicts dropped on return: the
    exponents per (r, traces of x, ..., x^dim), which fix the
    characteristic polynomial; the derived order, exponents and F_q trace
    of x^j per (r, exponents of x, j); the expected numerators per (n, r,
    exponents).  Every element and every representative is still compared
    with them.  Last, every flag must match the eigenvalue test
    (exactly dim - 1 exponents are 0), and in a determinant-one group the
    exponents of every element must sum to a multiple of its order; else
    ConsistencyError.  Both facts hold under every twist, so no twist
    checks them again."""
    shadow = G.working_shadow()
    q, traces = shadow.prime, shadow.traces
    orders, dim = G.element_orders, G.dim
    roots = _root_tables(shadow, orders)
    result: list[Optional[tuple[int, ...]]] = [None] * len(G)
    solved: dict[tuple, tuple[int, ...]] = {}  # (r, sums) -> exponents
    derived: dict[tuple, list] = {}  # (r, e) -> [(s, e_j, F_q trace) per j]
    expected: dict[tuple, tuple[int, ...]] = {}  # (n, r, e) -> numerators
    for powers in G.walks:
        r = len(powers)
        sums = tuple(traces[powers[k % r]] for k in range(1, dim + 1))
        e = solved.get((r, sums))
        if e is None:
            e = solved[r, sums] = _exponents_mod(sums, r, dim, q, roots[r])
        by_power, table = derived.setdefault((r, e), [None] * r), roots[r]
        for j, y in enumerate(powers):
            if result[y] is not None:
                continue
            if by_power[j] is None:
                # x^j has order s, and omega_s = omega_r^(r/s)
                s = r // math.gcd(r, j)
                ej = _power_exponents(e, r, j)
                by_power[j] = s, ej, sum([table[a * (r // s)] for a in ej]) % q
            s, ej, trace = by_power[j]
            if s != orders[y]:
                raise ArithmeticError(
                    f"derived eigenvalues of element {y} give order "
                    f"{s}, but its order is {orders[y]}"
                )
            if trace != traces[y]:
                raise ArithmeticError(
                    f"derived eigenvalue exponents {list(ej)} of element {y} "
                    f"do not reproduce its trace modulo {q}"
                )
            result[y] = ej
    diagonal, m = _diagonal_roots(G), 2 * G.entry_conductor
    if diagonal is None:
        flags = tuple(_is_reflection_mod(img, q) for img in shadow.images)
    else:
        # every F_q image is diagonal: rank(x - 1) counts entries other than 1
        flags = tuple(
            sum([row[i] != 1 for i, row in enumerate(img)]) == 1
            for img in shadow.images
        )
    for cls in G.conjugacy_classes():
        x = cls[0]
        r, e = orders[x], result[x]
        if diagonal is not None:
            # zeta_2N^k = zeta_r^(k r / 2N), and rank(x - 1) counts k != 0
            k = diagonal[x]
            own = tuple(sorted([a * r // m for a in k]))
            if own != e or any(a * r % m for a in k):
                raise ArithmeticError(
                    f"the E({m}) exponents {list(k)} on the diagonal of class "
                    f"representative {x} do not give its order {r} and the "
                    f"eigenvalue exponents {list(e)} read modulo {q}"
                )
            rank_one = len(k) - k.count(0) == 1
        else:
            g = G.matrix(x)
            exact = g.trace()
            n = math.lcm(exact.conductor, r)
            nums = expected.get((n, r, e))
            if nums is None:
                counts = [0] * n
                for a in e:
                    counts[a * n // r] += 1
                nums = expected[n, r, e] = tuple(_reduce_ints(n, counts))
            if exact.den != 1 or exact._lifted_nums(n) != nums:
                raise ArithmeticError(
                    f"eigenvalue exponents {list(e)} of class representative {x} "
                    f"do not reproduce its exact trace {exact.render()}"
                )
            rank_one = is_reflection(g)
        if rank_one != flags[x]:
            raise ArithmeticError(
                f"the exact rank test and the rank modulo {q} disagree on "
                f"class representative {x}"
            )
        if any((flags[y], orders[y], result[y]) != (flags[x], r, e) for y in cls):
            raise ArithmeticError(
                f"the reflection flag or the eigenvalue exponents {list(e)} "
                f"of {x} are not constant on its class"
            )
    for x, e in enumerate(result):
        if flags[x] != (e.count(0) == dim - 1):
            raise ConsistencyError(
                f"rank test and eigenvalue test disagree on reflection {x}"
            )
        if G.is_special_linear and sum(e) % orders[x]:
            raise ConsistencyError(
                f"exponents {list(e)} of element {x} sum to {sum(e)}, not a "
                f"multiple of its order {orders[x]}: its determinant is not 1"
            )
    return tuple(result), flags


def _exponents_mod(sums, r: int, dim: int, q: int, roots) -> tuple[int, ...]:
    """The exponents a, ascending, of the eigenvalues omega^a over F_q of
    an element of order r, from `sums` = [tr(x), ..., tr(x^dim)] mod q;
    `roots` holds the powers omega^k (k < r) of an omega of exact order r.
    Newton's identities give the characteristic polynomial x^dim + c_1
    x^(dim-1) + ... + c_dim: k c_k = -(c_(k-1) p_1 + ... + c_0 p_k), c_0 =
    1, with k <= dim < q invertible.  Each omega^a, a ascending, is then
    divided out as often as it is a root, O(r * dim); the last root, -c_1
    of what is left, is looked up in `roots` from a on.  Fewer than dim
    roots is an ArithmeticError."""
    poly = [1]
    for k in range(1, dim + 1):
        poly.append(-sum(map(operator.mul, reversed(poly), sums)) * pow(k, -1, q) % q)
    found = []
    for a, w in enumerate(roots):
        while len(poly) > 2:
            value = 0
            for c in poly:
                value = value * w + c
            if value % q:
                break
            quotient, b = [], 0
            for c in poly[:-1]:
                b = (b * w + c) % q
                quotient.append(b)
            poly = quotient
            found.append(a)
        if len(poly) == 2:
            try:
                found.append(roots.index(-poly[1] % q, a))
            except ValueError:
                break
            return tuple(found)
    raise ArithmeticError(
        f"the characteristic polynomial modulo {q} has {len(found)} of its "
        f"{dim} roots among the powers of omega_{r}: omega_{r}^a for a in "
        f"{found}"
    )


def age_records(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> tuple[AgeRecord, ...]:
    """One AgeRecord per element id.  Eigenvalue exponents and reflection
    flags are twist-independent and come from the per-group `_eigen_pass`;
    only the weights vary with t, and they are computed once per distinct
    order and exponents (`_weights`), with the age read off them as their
    sum over the order.  That sum is integral in a determinant-one group
    because `_eigen_pass` checks that the exponents sum to a multiple of
    the order, and t^-1 times that sum is the twisted sum mod r.  A record
    builds its multiplicity vector only when asked for it.  The records
    are not memoised: the sweep would keep |G| per twist."""
    exponents, reflections = _eigen_pass(G)
    ages: dict[tuple, tuple[Fraction, tuple[int, ...]]] = {}
    records = []
    for x in G.carrier_labels():
        r, e = G.element_orders[x], exponents[x]
        if (r, e) not in ages:
            weights = _weights(e, r, twist)
            ages[r, e] = Fraction(sum(weights), r), weights
        a, weights = ages[r, e]
        # positional, in field order: half the cost of keywords per record
        records.append(AgeRecord(x, r, e, a, a == 1, reflections[x], weights))
    return tuple(records)


def junior_elements(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> tuple[int, ...]:
    """The ids of age exactly 1 under `twist`, ascending: the tuple of the
    twist's junior set record (`_juniors`), so twists with the same junior
    elements share one tuple."""
    return _juniors(G, twist).ids


def junior_gradings(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> tuple[tuple[int, "GradingData"], ...]:
    """(representative id, GradingData) for every junior conjugacy class.
    The grading is that of the class member y its junior set chose
    (`_JuniorSet.graded_members`), not of the representative x: for a
    semi-invariant f and y = h x h^-1, an eigenbasis B of x gives the
    eigenbasis h B of y with the same weights, and f(h B) is f(B) times
    a root of unity, so both give f one valuation.  A diagonal y gets
    the standard basis (`_diagonal_grading`, given x's order, which is
    y's).  Any other y = z^k lies in a walk
    of `G.walks`, z = powers[1], and lends z's eigenbasis
    (`_walk_eigenbasis`, built once per group and z, whatever the twist),
    in which y's weights are derived from z's exponents.  Classes that
    meet one walk then share one basis, so the checks substitute each
    polynomial into it once.  The weights must give age 1 and have no
    common factor (`_junior_grading`)."""
    _, reps = junior_classes(G, twist)
    chosen = _juniors(G, twist).graded_members
    gradings = []
    for x, (y, powers, k) in zip(reps, chosen):
        r = G.element_orders[x]
        if powers is None:
            gradings.append((x, _diagonal_grading(G.matrix(y), r, twist)))
            continue
        basis, column_exponents = _walk_eigenbasis(G, powers[1])
        # zeta_R^a on a column of z is zeta_r^(a k / gcd(R, k)) for y = z^k
        step, t_inv = k // math.gcd(len(powers), k), twist.inverse_mod(r)
        weights = tuple(t_inv * a * step % r for a in column_exponents)
        gradings.append((x, _junior_grading(r, weights, basis, False, twist)))
    return tuple(gradings)


@per_group
def _walk_eigenbasis(
    G: FiniteMatrixGroup, z: int
) -> tuple[CycMatrix, tuple[int, ...]]:
    """An eigenbasis of element z and the exponent a of each column's
    eigenvalue zeta_R^a, R the order of z, columns by ascending a
    (`_eigenbasis`); kept per group and z, and shared by every power of
    z and every twist."""
    r = G.element_orders[z]
    m = _multiplicity_vector(_eigen_pass(G)[0][z], r)
    return _eigenbasis(G.matrix(z), r, m, range(r))


class _JuniorSet:
    """What G's junior elements determine, whichever twist found them: their
    ids, (m, class representatives) and, on first read, G/H and Ab(G/H)
    for H generated by them (`quotients`), Ab(G/H)'s invariant factors (an
    AbelianStructure, `torsion`), whether Cl(X) is free (`freeness`) and
    the members the gradings are read at (`graded_members`).  Building G/H
    verifies that H is normal: a conjugate of a member of H by a generator
    of G that escapes H is a ConsistencyError."""

    def __init__(self, G: FiniteMatrixGroup, ids: tuple[int, ...]):
        self.group, self.ids, members = G, ids, set(ids)
        reps = tuple(cls[0] for cls in G.conjugacy_classes() if cls[0] in members)
        self.classes = len(reps), reps

    @functools.cached_property
    def quotients(self) -> tuple[QuotientGroup, QuotientGroup]:
        try:
            G_H = quotient(self.group, subgroup_generated(self.group, self.ids))
        except NotNormalError as exc:
            raise ConsistencyError(
                "the junior subgroup failed its normality check"
            ) from exc
        return G_H, abelianization(G_H)

    @functools.cached_property
    def torsion(self):
        return abelian_invariants(self.quotients[1])

    @functools.cached_property
    def freeness(self) -> tuple[bool, Optional[int]]:
        """(free, witness): Cl(X) is free exactly when the juniors together
        with [G, G] generate G, and else the least id outside the subgroup
        they generate is the witness.  That generation route must agree
        with the torsion route, Ab(G/H) trivial; else ConsistencyError,
        which is not kept and is raised again on the next read."""
        G = self.group
        derived = G.abelianization().normal.generator_labels()
        span = subgroup_generated(G, [*self.ids, *derived])
        generated = len(span) == len(G)
        if generated != (len(self.quotients[1]) == 1):
            raise ConsistencyError(
                "the generation route and the torsion route to freeness disagree"
            )
        witness = None if generated else min(set(G.carrier_labels()) - span.member_set)
        return generated, witness

    @functools.cached_property
    def graded_members(self) -> tuple[tuple[int, Optional[list], int], ...]:
        """For each class representative, in order, the member y whose
        eigenbasis its junior grading is read in: (y, None, 0) for a
        diagonal y, else (y, powers, k) with y = powers[k] in the walk
        `powers` of `G.walks`.  A class with a diagonal member takes the
        first one, found among the members whose F_q image is diagonal
        and confirmed on its exact matrix; a diagonal representative is
        its own choice.  The other classes take the first member met on
        the walks read longest first, ties in walk order, so that one walk
        serves as many classes as it meets.  Every twist with these
        junior elements reads the same choice."""
        G, (_, reps) = self.group, self.classes
        wanted = set(reps)
        classes = [cls for cls in G.conjugacy_classes() if cls[0] in wanted]
        images = G.working_shadow().images
        chosen: dict[int, tuple] = {}
        for cls in classes:
            for y in cls:
                if _is_diagonal_mod(images[y]) and G.matrix(y).is_diagonal():
                    chosen[cls[0]] = y, None, 0
                    break
        class_of = {
            y: cls[0] for cls in classes if cls[0] not in chosen for y in cls
        }
        for powers in sorted(G.walks, key=len, reverse=True):
            if len(chosen) == len(reps):
                break
            for k, y in enumerate(powers):
                x = class_of.get(y)
                if x is not None and x not in chosen:
                    chosen[x] = y, powers, k
        return tuple(chosen[x] for x in reps)


_junior_set = per_group(_JuniorSet)


@per_group
def _juniors(G: FiniteMatrixGroup, twist: GaloisTwist) -> _JuniorSet:
    """The record of the junior set under `twist`: the ids of age exactly
    1, read off the twist's one `age_records` pass (the age is a class
    function because `_eigen_pass` checks that order and exponents are),
    keyed by those ids (`_junior_set`), so twists with one junior set
    share one record.  The one route from a twist to its junior facts."""
    ids = tuple(rec.element_id for rec in age_records(G, twist) if rec.is_junior)
    return _junior_set(G, ids)


def junior_classes(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> tuple[int, tuple[int, ...]]:
    """(m, class representatives): the conjugacy classes of age exactly 1,
    kept on their junior set's record (`_juniors`).  Requires determinant
    one throughout."""
    if not G.is_special_linear:
        raise NotSpecialLinearError(
            "junior classes are defined for determinant-one groups only"
        )
    return _juniors(G, twist).classes


def junior_subgroup(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> SubgroupHandle:
    """H: generated by every junior element (class representatives alone do
    not suffice in general).  Normality is verified, not assumed: H is the
    normal subgroup of G/H on its junior set's record (`_juniors`), whose
    construction checks it.  Requires determinant one."""
    if not G.is_special_linear:
        raise NotSpecialLinearError(
            "the junior subgroup is defined for determinant-one groups only"
        )
    return _juniors(G, twist).quotients[0].normal


# ---------------------------------------------------------------------------
# valuation weights


def valuation_weights(
    g: CycMatrix, twist: GaloisTwist = IDENTITY_TWIST
) -> GradingData:
    """Weight vector and eigenbasis of a junior element.

    Diagonal matrices keep the standard basis and variable order, so the
    weights read straight off the diagonal (`_diagonal_grading`).
    Otherwise eigenvectors are computed per eigenvalue by exact
    elimination, grouped by ascending weight.
    """
    r, exponents = _single_eigen(g)
    if g.is_diagonal():
        return _diagonal_grading(g, r, twist)
    t_inv = twist.inverse_mod(r)
    m = _multiplicity_vector(exponents, r)
    basis, exponents = _eigenbasis(g, r, m, (twist.t * w % r for w in range(r)))
    return _junior_grading(
        r, tuple(t_inv * j % r for j in exponents), basis, False, twist
    )


def _diagonal_grading(g: CycMatrix, r: int, twist: GaloisTwist) -> GradingData:
    """The grading of a diagonal g of order r in the standard basis: the
    diagonal entry zeta_s^k gives the weight t^-1 k (r / s) mod r."""
    t_inv = twist.inverse_mod(r)
    weights = []
    for i in range(g.dim):
        root = as_root_of_unity(g.rows[i][i])
        if root is None:
            raise ArithmeticError("diagonal entry is not a root of unity")
        sub_r, k = root
        weights.append(t_inv * k * (r // sub_r) % r)
    return _junior_grading(
        r, tuple(weights), CycMatrix.identity(g.dim, g.conductor), True, twist
    )


def _eigenbasis(
    g: CycMatrix, r: int, m: Sequence[int], order
) -> tuple[CycMatrix, tuple[int, ...]]:
    """(basis, exponents): eigenvectors of g, of order r and multiplicity
    vector m, as columns, by exact elimination, one eigenspace per
    exponent j with m_j > 0, in the order `order` gives; and the exponent
    j of each column's eigenvalue zeta_r^j.  Each eigenspace must have
    dimension m_j and the basis must be invertible; else
    ConsistencyError."""
    columns, exponents = [], []
    for j in order:
        if m[j] == 0:
            continue
        eigenvectors = kernel_basis(_shifted(g, zeta(r, j)))
        if len(eigenvectors) != m[j]:
            raise ConsistencyError(
                f"eigenspace for exponent {j} has dimension "
                f"{len(eigenvectors)}, expected {m[j]}"
            )
        columns.extend(eigenvectors)
        exponents.extend([j] * m[j])
    basis = CycMatrix.from_rows(
        [[columns[c][p] for c in range(g.dim)] for p in range(g.dim)]
    )
    if basis.rank() != g.dim:
        raise ConsistencyError("eigenbasis is not invertible")
    return basis, tuple(exponents)


def _junior_grading(
    r: int,
    weights: tuple[int, ...],
    basis: CycMatrix,
    standard: bool,
    twist: GaloisTwist,
) -> GradingData:
    """The grading of an element of order r with these twisted weights.
    They must sum to r, age 1, else ValueError, and have no common
    factor, else ConsistencyError."""
    a = Fraction(sum(weights), r)
    if a != 1:
        raise ValueError(f"element has age {a}, not junior under twist {twist.t}")
    if math.gcd(*weights) != 1:
        raise ConsistencyError(
            f"junior weights {weights} have a common factor"
        )
    return GradingData(order=r, weights=weights, basis=basis, basis_is_standard=standard)


# ---------------------------------------------------------------------------
# Galois sweep


def galois_sweep(G: FiniteMatrixGroup) -> tuple[SweepEntry, ...]:
    """Recompute the junior data under every root choice zeta -> zeta^t.

    Twists congruent modulo the group exponent act identically on all
    element orders, so only one representative per residue is computed.
    Each twist reads its junior set's record (`_juniors`): the id tuple,
    the class scan, H, G/H, Ab(G/H) and its invariant factors are made
    once per junior set, not once per twist, so twists with the same
    junior elements share them, and twist 1 reads those the report
    already built.  The junior element sets may genuinely differ between
    twists; the class count and the invariant factors of Ab(G/H) must not,
    and a violation is raised as a ConsistencyError.
    """
    if not G.is_special_linear:
        raise NotSpecialLinearError("the sweep is defined for determinant-one groups")
    modulus = G.working_conductor
    twists: dict[int, int] = {}  # t mod the exponent -> least such t
    for t in range(1, modulus + 1):
        if math.gcd(t, modulus) == 1:
            twists.setdefault(t % G.exponent, t)
    entries = []
    for t in twists.values():
        juniors = _juniors(G, GaloisTwist(t))
        (count, reps), (G_H, _) = juniors.classes, juniors.quotients
        entries.append(
            SweepEntry(
                twist=t,
                junior_count=count,
                junior_class_representatives=reps,
                junior_element_ids=juniors.ids,
                junior_subgroup_order=len(G_H.normal),
                torsion_factors=juniors.torsion.invariant_factors,
            )
        )
    counts = {e.junior_count for e in entries}
    torsions = {e.torsion_factors for e in entries}
    if len(counts) != 1 or len(torsions) != 1:
        raise ConsistencyError(
            "junior class count or torsion factors vary with the root choice: "
            + "; ".join(
                f"t={e.twist}: m={e.junior_count}, torsion={list(e.torsion_factors)}"
                for e in entries
            )
        )
    return tuple(entries)
