"""Ages of finite-order matrices, junior and reflection detection, and the
weight data behind monomial valuations.

For g of order r with eigenvalues zeta_r^{a_1}, ..., zeta_r^{a_n}
(0 <= a_i < r), the age of g is (1/r) sum a_i.  Elements of age exactly 1 are
junior.  The exponents a_i depend on which primitive r-th root of unity plays
the role of zeta_r; GaloisTwist makes that choice explicit (t means "use
zeta^t instead of zeta"), and galois_sweep verifies that the downstream
answers do not depend on it.

Eigenvalue multiplicities of a single matrix are read off by an exact discrete
Fourier transform of the trace sequence k -> tr(g^k).  The transform must land
on nonnegative integers summing to the dimension; anything else is reported as
an internal arithmetic failure rather than silently accepted.  For a whole
group one pass (`_eigen_pass`) works over F_q (the group's modular shadow,
see `matgrp`), walking each cyclic subgroup once: Newton's identities give
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
checks every conjugacy-class representative exactly: its exact trace
against sum_a zeta_r^a, and the exact rank-one test (`is_reflection`)
against its flag.  The pass also checks the facts every twist relies on, once
per group: order and exponents are constant on each class, and in a
determinant-one group the exponents of x sum to a multiple of its order r
(det x = zeta_r^(sum a) = 1).  A twist t turns the exponents a into t^-1 a mod r,
so its ages are then a class function and integral as well.  Each twist
makes one `age_records` pass, in `junior_elements`, which computes the
weights once per distinct order and exponents and reads the age off
them.  What the junior elements determine is kept on one record per
junior set (`_junior_set`): the id tuple, the class scan, G/H, Ab(G/H)
and Ab(G/H)'s invariant factors.  A twist t replaces the junior elements
by their t-th powers, so every twist generates the same H, and twists
with one junior set share that record.  Building G/H is the proof that H
is normal.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cyclo import (
    CyclotomicNumber,
    _dot,
    _reduce_ints,
    _zero,
    as_root_of_unity,
    rational,
    zeta,
)
from .matgrp import (
    CycMatrix,
    FiniteMatrixGroup,
    MAX_ORDER,
    NotNormalError,
    QuotientGroup,
    SubgroupHandle,
    _power_traces,
    abelian_invariants,
    abelianization,
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


@dataclass(frozen=True)
class GaloisTwist:
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


@dataclass(frozen=True)
class AgeRecord:
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


@dataclass(frozen=True)
class GradingData:
    """Weight data of one junior element: the grading deg(x_j) := weights[j]
    lives in the coordinates y with x = basis . y; column j of basis spans
    the eigenspace matching weights[j]."""

    order: int
    weights: tuple[int, ...]
    basis: CycMatrix
    basis_is_standard: bool


@dataclass(frozen=True)
class SweepEntry:
    twist: int
    junior_count: int
    junior_class_representatives: tuple[int, ...]
    junior_element_ids: tuple[int, ...]
    junior_subgroup_order: int
    torsion_factors: tuple[int, ...]


# ---------------------------------------------------------------------------
# multiplicities and ages


def _multiplicities_from_traces(traces, r: int, dim: int) -> tuple[int, ...]:
    """m_j = (1/r) sum_k tr(g^k) zeta_r^(-jk); exact, must be integral."""
    roots = [zeta(r, k) for k in range(r)]
    out = []
    for j in range(r):
        acc = rational(0)
        for k in range(r):
            tk = traces[k]
            if not tk.is_zero:
                acc = acc + tk * roots[(-j * k) % r]
        value = acc.rational_value
        if value is None:
            raise ArithmeticError(
                f"eigenvalue multiplicity m_{j} is not rational: {acc.render()}"
            )
        m_j = value / r
        if m_j.denominator != 1 or m_j < 0:
            raise ArithmeticError(
                f"eigenvalue multiplicity m_{j} = {m_j} is not a nonnegative integer"
            )
        out.append(int(m_j))
    if sum(out) != dim:
        raise ArithmeticError(
            f"multiplicities {out} do not sum to the dimension {dim}"
        )
    return tuple(out)


def eigen_multiplicities(
    g: CycMatrix, order: Optional[int] = None, max_order: int = MAX_ORDER
) -> tuple[int, ...]:
    """Multiplicity vector (m_0, ..., m_{r-1}) where m_j counts the
    eigenvalue zeta_r^j and r is the order of g (verified by powering)."""
    r, traces = _power_traces(g, max_order)
    if order is not None and order != r:
        raise ValueError(f"stated order {order} but computed order {r}")
    return _multiplicities_from_traces(traces, r, g.dim)


def _exponents(m) -> tuple[int, ...]:
    """The exponents a, ascending, of the eigenvalues zeta_r^a that the
    multiplicity vector m (r = len(m)) counts, a repeated m_a times."""
    return tuple(a for a, ma in enumerate(m) for _ in range(ma))


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
    m = eigen_multiplicities(g)
    return Fraction(sum(_weights(_exponents(m), len(m), twist)), len(m))


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
    rank(x - 1) == 1 over F_q (`_is_reflection_mod`).  Then every
    conjugacy-class representative x is checked exactly: its exact matrix
    is built, tr(x) must equal sum_a zeta_r^a, compared as numerators at
    n = lcm(its conductor, r), the exact rank-one test `is_reflection`
    must give its flag, and its flag, order and exponents must be those of
    every member of its class; else ArithmeticError.  What depends only on
    a type is computed once per type, in dicts dropped on return: the
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
    flags = tuple(_is_reflection_mod(img, q) for img in shadow.images)
    for cls in G.conjugacy_classes():
        x = cls[0]
        r, e = orders[x], result[x]
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
        if is_reflection(g) != flags[x]:
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
        records.append(
            AgeRecord(
                element_id=x,
                order=r,
                exponents=e,
                age=a,
                is_junior=(a == 1),
                is_reflection=reflections[x],
                weights=weights,
            )
        )
    return tuple(records)


@per_group
def junior_elements(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> tuple[int, ...]:
    """The ids of age exactly 1 under `twist`, ascending, read off the
    twist's one `age_records` pass.  The age is a class function because
    `_eigen_pass` checks that order and exponents are.  The tuple is that
    of the junior set's record (`_junior_set`), so twists with the same
    junior elements share one tuple."""
    ids = tuple(rec.element_id for rec in age_records(G, twist) if rec.is_junior)
    return _junior_set(G, ids).ids


def junior_gradings(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> tuple[tuple[int, "GradingData"], ...]:
    """(representative id, GradingData) for every junior conjugacy class."""
    exponents, _ = _eigen_pass(G)
    _, reps = junior_classes(G, twist)
    return tuple(
        (x, valuation_weights(G.matrix(x), twist, _multiplicity_vector(
            exponents[x], G.element_orders[x])))
        for x in reps
    )


class _JuniorSet:
    """What G's junior elements determine, whichever twist found them: their
    ids, (m, class representatives) and, on first read, G/H and Ab(G/H)
    for H generated by them and Ab(G/H)'s invariant factors (an
    AbelianStructure).  Building G/H verifies that H is normal: a
    conjugate of a member of H by a generator of G that escapes H is a
    ConsistencyError."""

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


_junior_set = per_group(_JuniorSet)


def junior_classes(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> tuple[int, tuple[int, ...]]:
    """(m, class representatives): the conjugacy classes of age exactly 1,
    read off `junior_elements` (age is a class function: `_eigen_pass`)
    and kept on their junior set's record (`_junior_set`).  Requires
    determinant one throughout."""
    if not G.is_special_linear:
        raise NotSpecialLinearError(
            "junior classes are defined for determinant-one groups only"
        )
    return _junior_set(G, junior_elements(G, twist)).classes


def _junior_quotient(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> tuple[QuotientGroup, QuotientGroup]:
    """(G/H, Ab(G/H)) for the junior elements under `twist`, kept on their
    junior set's record (`_junior_set`).  Requires determinant one."""
    if not G.is_special_linear:
        raise NotSpecialLinearError(
            "the junior subgroup is defined for determinant-one groups only"
        )
    return _junior_set(G, junior_elements(G, twist)).quotients


def junior_subgroup(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> SubgroupHandle:
    """H: generated by every junior element (class representatives alone do
    not suffice in general).  Normality is verified, not assumed: H is the
    normal subgroup of G/H (`_junior_quotient`), whose construction checks
    it."""
    return _junior_quotient(G, twist)[0].normal


# ---------------------------------------------------------------------------
# valuation weights


def valuation_weights(
    g: CycMatrix,
    twist: GaloisTwist = IDENTITY_TWIST,
    multiplicities: Optional[Sequence[int]] = None,
) -> GradingData:
    """Weight vector and eigenbasis of a junior element.

    Diagonal matrices keep the standard basis and variable order, so the
    weights read straight off the diagonal.  Otherwise eigenvectors are
    computed per eigenvalue by exact elimination, grouped by ascending
    weight.
    """
    m = eigen_multiplicities(g) if multiplicities is None else multiplicities
    r = len(m)
    a = Fraction(sum(_weights(_exponents(m), r, twist)), r)
    if a != 1:
        raise ValueError(f"element has age {a}, not junior under twist {twist.t}")
    t_inv = twist.inverse_mod(r)

    if g.is_diagonal():
        weights = []
        for i in range(g.dim):
            root = as_root_of_unity(g.rows[i][i])
            if root is None:
                raise ArithmeticError("diagonal entry is not a root of unity")
            sub_r, k = root
            j = k * (r // sub_r) % r
            weights.append((t_inv * j) % r)
        weights = tuple(weights)
        basis = CycMatrix.identity(g.dim, g.conductor)
        standard = True
    else:
        columns = []
        weights = []
        for w in range(r):
            j = (twist.t * w) % r
            if m[j] == 0:
                continue
            eigenvectors = kernel_basis(_shifted(g, zeta(r, j)))
            if len(eigenvectors) != m[j]:
                raise ConsistencyError(
                    f"eigenspace for exponent {j} has dimension "
                    f"{len(eigenvectors)}, expected {m[j]}"
                )
            columns.extend(eigenvectors)
            weights.extend([w] * m[j])
        weights = tuple(weights)
        basis = CycMatrix.from_rows(
            [[columns[c][p] for c in range(g.dim)] for p in range(g.dim)]
        )
        if basis.rank() != g.dim:
            raise ConsistencyError("eigenbasis is not invertible")
        standard = False
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
    Each twist reads its junior set's record (`_junior_set`): the id tuple,
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
        juniors = _junior_set(G, junior_elements(G, GaloisTwist(t)))
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
