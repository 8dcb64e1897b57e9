"""Ages, junior detection, valuation weights, and Galois sweeps."""

import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant import cli, matgrp, mckay
from crepant.cyclo import CyclotomicNumber, rational, zeta
from crepant.matgrp import (
    CycMatrix,
    FiniteMatrixGroup,
    close_group,
    _denominators,
    _reduce_matrix,
    _root_of_unity,
    _shadow_prime,
)
from crepant.mckay import (
    GaloisTwist,
    NotSpecialLinearError,
    age,
    age_records,
    eigen_multiplicities,
    galois_sweep,
    is_reflection,
    junior_classes,
    junior_elements,
    valuation_weights,
)

from conftest import Q8_ROWS, S3_ROWS, TETRA_C3_ROWS, cyclic_sl2
from helpers import (
    dense_conjugate,
    dense_minus_identity,
    dense_rank,
    diagonal_exponents,
    kernel_multiplicities,
    rank_mod,
)


G1_ROWS = [
    ["1", "0", "0", "0"],
    ["0", "1", "0", "0"],
    ["0", "0", "E(3)^2", "0"],
    ["0", "0", "0", "E(3)"],
]


# --- eigen multiplicities ----------------------------------------------------


def test_identity_multiplicities():
    assert eigen_multiplicities(CycMatrix.identity(3)) == (3,)


def test_minus_identity_multiplicities():
    m = eigen_multiplicities(CycMatrix.from_rows([["-1", "0"], ["0", "-1"]]))
    assert m == (0, 2)


def test_junior_generator_multiplicities():
    g1 = CycMatrix.from_rows(G1_ROWS)
    assert eigen_multiplicities(g1) == (2, 1, 1)


def test_stated_order_mismatch():
    with pytest.raises(ValueError):
        eigen_multiplicities(CycMatrix.identity(2), order=5)


def test_infinite_order_detected():
    shear = CycMatrix.from_rows([["1", "1"], ["0", "1"]])
    with pytest.raises(ValueError):
        eigen_multiplicities(shear, max_order=50)


def test_multiplicities_are_conjugation_invariant():
    g1 = CycMatrix.from_rows(G1_ROWS)
    h = CycMatrix.from_rows(
        [["1", "1", "0", "0"], ["0", "1", "0", "0"],
         ["1", "0", "1", "2"], ["0", "0", "0", "1"]]
    )
    conj = h @ g1 @ h.inverse()
    assert not conj.is_diagonal()
    assert eigen_multiplicities(conj) == (2, 1, 1)


def test_multiplicities_against_diagonal_reading():
    rng = random.Random(41)
    for _ in range(12):
        r = rng.choice([2, 3, 4, 6, 8, 12])
        dim = rng.randint(2, 4)
        exps = [rng.randrange(r) for _ in range(dim)]
        rows = [
            [(f"E({r})^{exps[i]}" if i == j else "0") for j in range(dim)]
            for i in range(dim)
        ]
        mat = CycMatrix.from_rows(rows)
        got = eigen_multiplicities(mat)
        true_r = len(got)
        # oracle: read each diagonal entry directly
        read = diagonal_exponents(mat, true_r)
        expected = [0] * true_r
        for e in read:
            expected[e] += 1
        assert list(got) == expected


def test_high_order_single_matrix_matches_the_kernel_oracle():
    # diag(E(401), E(401)^400): order 401, far above the dimension; read
    # off the eigen pass of the cyclic group it generates
    g = CycMatrix.from_rows([["E(401)", "0"], ["0", "E(401)^400"]])
    expected = kernel_multiplicities(g, 401)
    assert [j for j, m in enumerate(expected) if m] == [1, 400]
    assert eigen_multiplicities(g) == expected
    assert age(g) == _oracle_age(expected, 1) == 1


@pytest.mark.parametrize(
    "r, sums, message",
    [
        # tr(x) = 1 and tr(x^2) = tr(1) = 2 give x^2 - x - 1/2, with
        # neither 1 nor -1 as a root
        (2, (1, 2), r"has 0 of its 2 roots among the powers of omega_2: "
                    r"omega_2\^a for a in \[\]$"),
        # tr(x) = tr(x^2) = 3 give x^2 - 3x + 3, which 1 does not annul
        (1, (3, 3), r"has 0 of its 2 roots among the powers of omega_1: "
                    r"omega_1\^a for a in \[\]$"),
        # tr(x) = tr(x^2) = 1 give x^2 - x: the root 1 once, and -1 is none
        (2, (1, 1), r"has 1 of its 2 roots among the powers of omega_2: "
                    r"omega_2\^a for a in \[0\]$"),
    ],
    ids=["half-integral", "above-the-dimension", "short-of-the-dimension"],
)
def test_multiplicity_guards_modulo_q(r, sums, message):
    q = _shadow_prime(r, ())
    roots = [pow(_root_of_unity(q, r), k, q) for k in range(r)]
    with pytest.raises(ArithmeticError, match=message):
        mckay._exponents_mod(sums, r, 2, q, roots)


@pytest.mark.parametrize(
    "exponents, found",
    [((3, 9), []), ((0, 3), [0]), ((3, 3), [])],
    ids=["i-and-minus-i", "1-and-i", "i-twice"],
)
def test_dim_roots_guard_fires_when_the_polynomial_does_not_split(
    exponents, found
):
    # eigenvalues omega_12^b over F_q, q = 1 mod 12, passed as an element
    # of order 3: i and -i, 1 and i, or i twice split over F_q but not over
    # the cube roots of unity omega_12^(0, 4, 8), so fewer than dim roots
    # are found among them
    q = _shadow_prime(12, ())
    omega = _root_of_unity(q, 12)
    sums = [sum(pow(omega, b * k, q) for b in exponents) % q for k in (1, 2)]
    cube_roots = [pow(omega, 4 * a, q) for a in range(3)]
    with pytest.raises(ArithmeticError) as info:
        mckay._exponents_mod(sums, 3, 2, q, cube_roots)
    assert str(info.value) == (
        f"the characteristic polynomial modulo {q} has {len(found)} of its 2 "
        f"roots among the powers of omega_3: omega_3^a for a in {found}"
    )


def _minus_identity_id(G):
    (y,) = [x for x in G.carrier_labels() if G.element_orders[x] == 2]
    return y


# C6^3 = <diag(z, 1, 1, z^-1), diag(1, z, 1, z^-1), diag(1, 1, z, z^-1)>,
# z = z6: its walks repeat a few eigen types
C6_CUBED_ROWS = [
    [[f"E(6)^{a}" if i == j else "0" for j in range(4)] for i, a in enumerate(row)]
    for row in [(1, 0, 0, 5), (0, 1, 0, 5), (0, 0, 1, 5)]
]


def _type_keys(G):
    """(order, F_q traces of x, ..., x^dim) of each walk's generator x."""
    traces = G.working_shadow().traces
    return [
        (len(p), tuple(traces[p[k % len(p)]] for k in range(1, G.dim + 1)))
        for p in G.walks
    ]


def test_exponents_are_solved_once_per_eigen_type(monkeypatch):
    G = close_group([CycMatrix.from_rows(r) for r in C6_CUBED_ROWS])
    solved = []
    solve = mckay._exponents_mod
    monkeypatch.setattr(
        mckay, "_exponents_mod", lambda *args: solved.append(args) or solve(*args)
    )
    age_records(G)
    keys = _type_keys(G)
    assert len(solved) == len(set(keys)) < len(keys)


def test_integrality_guard_covers_derived_powers():
    # -I is a proper power in <diag(z6, z6^-1)>, so its vector is derived,
    # never transformed on its own; a bogus trace must still be refused.
    # The derived-power check reads the trace modulo the shadow's prime.
    G = cyclic_sl2(6)
    G.working_shadow().traces[_minus_identity_id(G)] = 2
    with pytest.raises(ArithmeticError):
        age_records(G)

    # A power's derived exponents and F_q trace are kept per (order,
    # exponents) of its walk, but every element is still compared with
    # them: in C6^3 a bogus trace on x^5 (not among x, ..., x^4, which
    # fix the key) of the second walk of one type must be refused.
    G = close_group([CycMatrix.from_rows(r) for r in C6_CUBED_ROWS])
    exponents, _ = mckay._eigen_pass.__wrapped__(G)
    seen, filled, target = set(), set(), None
    for powers in G.walks[1:]:  # the first walk is the identity's
        kind = (len(powers), exponents[powers[1]])
        if kind in seen and len(powers) > G.dim + 1 and powers[-1] not in filled:
            target = powers[-1]
            break
        seen.add(kind)
        filled.update(powers)
    assert target is not None
    traces = G.working_shadow().traces
    traces[target] = (traces[target] + 1) % G.working_shadow().prime
    with pytest.raises(ArithmeticError, match="trace modulo"):
        age_records(G)


def test_exact_trace_guard_covers_class_representatives():
    # Every element of an abelian group is a class representative, and its
    # exact trace must match the multiplicities read modulo q.
    G = cyclic_sl2(6)
    y = _minus_identity_id(G)
    G.matrix(y)
    G._matrices[y] = CycMatrix.from_rows([["-1", "0"], ["0", "1"]])
    with pytest.raises(ArithmeticError, match="exact trace"):
        age_records(G)

    # The expected numerators are kept per (conductor, order, exponents):
    # x and x^-1 share (6, 6, (1, 5)), and the one checked second must
    # still be compared with its own exact trace.
    G = cyclic_sl2(6)
    y = max(G.generator_ids[0], G.inv(G.generator_ids[0]))
    G.matrix(y)
    G._matrices[y] = CycMatrix.from_rows([["E(6)", "0"], ["0", "E(6)"]])
    with pytest.raises(ArithmeticError, match="exact trace"):
        age_records(G)


def test_derived_multiplicities_are_checked(monkeypatch):
    G = cyclic_sl2(6)
    G.element_orders[_minus_identity_id(G)] = 1
    with pytest.raises(ArithmeticError, match="order"):
        age_records(G)

    # a faulty derivation that keeps the order is caught by the trace check:
    # every derived exponent one too high, as a vector rotated by one
    derive = mckay._power_exponents
    monkeypatch.setattr(
        mckay, "_power_exponents",
        lambda e, r, j: tuple(sorted(
            (a + 1) % (r // math.gcd(r, j)) for a in derive(e, r, j)
        )),
    )
    with pytest.raises(ArithmeticError, match="trace modulo"):
        age_records(cyclic_sl2(6))


def _transposition_class(G):
    return next(
        cls for cls in G.conjugacy_classes() if G.element_orders[cls[0]] == 2
    )


def test_exact_rank_guard_covers_class_representatives():
    # diag(1, i, -i) has the trace of a transposition but rank(g - 1) = 2
    G = close_group([CycMatrix.from_rows(r) for r in S3_ROWS])
    x = _transposition_class(G)[0]
    G.matrix(x)
    G._matrices[x] = CycMatrix.from_rows(
        [["1", "0", "0"], ["0", "E(4)", "0"], ["0", "0", "-E(4)"]]
    )
    with pytest.raises(ArithmeticError, match="rank"):
        age_records(G)


def test_reflection_flags_must_be_constant_on_classes():
    G = close_group([CycMatrix.from_rows(r) for r in S3_ROWS])
    y = _transposition_class(G)[1]
    shadow = G.working_shadow()
    shadow.images[y] = shadow.images[G.identity_label]
    with pytest.raises(ArithmeticError, match="constant"):
        age_records(G)


def test_eigenvalue_exponents_must_be_constant_on_classes():
    # merge the class of -1 (exponents 1, 1 of order 2) with one of order 4
    # (exponents 1, 3): the eigen pass refuses the partition, once for
    # every twist
    G = close_group([CycMatrix.from_rows(r) for r in Q8_ROWS])
    classes = G.conjugacy_classes()
    two, four = (
        next(c for c in classes if G.element_orders[c[0]] == r) for r in (2, 4)
    )
    merged = tuple(sorted(two + four))
    G.conjugacy_classes = lambda: (merged,) + tuple(
        c for c in classes if c not in (two, four)
    )
    rep = merged[0]
    exponents = "[1, 1]" if G.element_orders[rep] == 2 else "[1, 3]"
    with pytest.raises(ArithmeticError, match="not constant") as info:
        age_records(G)
    assert f"exponents {exponents} of {rep} " in str(info.value)


def test_exponents_must_sum_to_a_multiple_of_the_order_in_sl():
    # a transposition has eigenvalues 1, 1, -1, so determinant -1: its
    # exponents (0, 0, 1) sum to 1, not a multiple of its order 2
    G = close_group([CycMatrix.from_rows(r) for r in S3_ROWS])
    G.is_special_linear = True
    with pytest.raises(mckay.ConsistencyError, match="determinant is not 1") as info:
        age_records(G)
    found = re.search(r"exponents \[0, 0, 1\] of element (\d+)", str(info.value))
    assert found and int(found[1]) in _transposition_class(G)


# S3 and 2T x C3 conjugated by a dense unimodular P (`dense_conjugate`):
# the only groups here whose elements have dense rows, so the root test,
# the flags over F_q and the exact rank-one test see full supports
DENSE_ROWS = {
    "s3_dense": dense_conjugate(S3_ROWS, 1),
    "2t_c3_dense": dense_conjugate(TETRA_C3_ROWS, 1),
}


def _eigen_group(group, request):
    if group in DENSE_ROWS:
        return close_group([CycMatrix.from_rows(r) for r in DENSE_ROWS[group]])
    if group in ("c30", "c1009"):
        return cyclic_sl2(int(group[1:]))
    return request.getfixturevalue(group)


@pytest.mark.parametrize(
    "group",
    ["ex72", "q8", "s3", "icosa", "icosa_diag", "c7", "c15", "scalar3", "c30",
     "s3_dense", "2t_c3_dense"],
)
def test_group_multiplicities_match_per_element_dft(group, request):
    # Each element's multiplicities against the eigenspace dimensions of
    # the kernel oracle; the name is that of the single-matrix trace DFT
    # the pass was once compared with, which crepant no longer has
    G = _eigen_group(group, request)
    records = age_records(G)
    for x in G.carrier_labels():
        assert records[x].multiplicities == kernel_multiplicities(
            G.matrix(x), G.element_orders[x]
        ), f"element {x}"


@pytest.mark.parametrize(
    "group",
    ["ex72", "q8", "s3", "icosa", "icosa_diag", "c7", "c15", "scalar3", "c30",
     "c1009", "s3_dense", "2t_c3_dense"],
)
def test_eigen_pass_keeps_dim_exponents_per_element(group, request):
    # C1009 has prime order, far above the dimension: each element keeps
    # the dim exponents of its eigenvalues, and only a record asked for its
    # multiplicities builds a vector of length r
    G = _eigen_group(group, request)
    exponents, flags = mckay._eigen_pass(G)
    records = age_records(G)
    for x, e in enumerate(exponents):
        # the flag against the rank of x - 1 from Leibniz minors
        minus_one = dense_minus_identity(G.matrix(x))
        assert flags[x] == (dense_rank(minus_one) == 1), f"element {x}"
        r = G.element_orders[x]
        assert type(e) is tuple and len(e) == G.dim
        assert list(e) == sorted(e)
        assert all(type(a) is int and 0 <= a < r for a in e)
        assert records[x].exponents == e
        assert len(records[x].multiplicities) == r
        assert sum(records[x].multiplicities) == G.dim


# --- ages --------------------------------------------------------------------


def _oracle_age(m, t):
    """The age under the twist t read off the kernel oracle's
    multiplicities m, r = len(m): zeta_r^j has the weight t^-1 j mod r."""
    r = len(m)
    t_inv = pow(t, -1, r)
    return Fraction(sum(mj * (t_inv * j % r) for j, mj in enumerate(m)), r)


def test_age_of_junior_generators():
    assert age(CycMatrix.from_rows(G1_ROWS)) == 1
    assert age(CycMatrix.from_rows([["-1", "0"], ["0", "-1"]])) == 1


def test_age_records_of_order_six_group(ex72):
    records = age_records(ex72)
    assert [rec.age for rec in records] == [0, 2, 1, 2, 1, 2]
    assert [rec.order for rec in records] == [1, 6, 3, 2, 3, 6]
    assert records[2].weights == (0, 0, 1, 2)
    assert records[3].multiplicities == (0, 4)
    assert not any(rec.is_reflection for rec in records)


@pytest.mark.parametrize(
    "name", ["q8", "ex72", "s3", "icosa", "c7", "c15", "scalar3"]
)
def test_ages_are_the_weight_sums(name, request):
    # the age is read off the twisted weights, and the kernel oracle gives
    # the same age on every class representative, as does `age` on its
    # matrix alone
    G = request.getfixturevalue(name)
    twists = [t for t in (1, 2, 7) if math.gcd(t, G.exponent) == 1]
    reps = [cls[0] for cls in G.conjugacy_classes()]
    oracle = [kernel_multiplicities(G.matrix(x), G.element_orders[x]) for x in reps]
    for t in twists:
        twist = GaloisTwist(t)
        records = age_records(G, twist)
        for rec in records:
            assert len(rec.weights) == G.dim
            assert rec.age == Fraction(sum(rec.weights), rec.order)
        for x, m in zip(reps, oracle):
            expected = _oracle_age(m, t)
            assert records[x].age == expected
            assert age(G.matrix(x), twist) == expected


def test_age_inverse_pairing(q8, ex72, icosa):
    for grp in (q8, ex72, icosa):
        records = age_records(grp)
        for x in grp.carrier_labels():
            if x == grp.identity_label:
                continue
            rec = records[x]
            paired = records[grp.inv(x)]
            assert rec.age + paired.age == grp.dim - rec.multiplicities[0]


def test_det_age_consistency(s3):
    # sum j*m_j = 0 mod r exactly for determinant-one elements
    for x in s3.carrier_labels():
        m = age_records(s3)[x].multiplicities
        r = len(m)
        weighted = sum(j * mj for j, mj in enumerate(m))
        if s3.matrix(x).det() == 1:
            assert weighted % r == 0
        else:
            assert weighted % r != 0


def test_fractional_age_outside_sl(s3):
    records = age_records(s3)
    transposition = next(x for x in s3.carrier_labels() if s3.element_orders[x] == 2)
    assert records[transposition].age == Fraction(1, 2)


def test_twisted_ages_permute():
    g1 = CycMatrix.from_rows(G1_ROWS)
    assert age(g1, GaloisTwist(2)) == 1  # other primitive cube root: swaps a=1,2
    minus = CycMatrix.from_rows([["-1", "0"], ["0", "-1"]])
    assert age(minus, GaloisTwist(3)) == 1


def test_twist_must_be_invertible():
    g1 = CycMatrix.from_rows(G1_ROWS)
    with pytest.raises(ValueError):
        age(g1, GaloisTwist(3))


# --- reflections ---------------------------------------------------------------


# s = 1 - (1 - E(3)) u w^T with u = (1, E(4)), w = (1/2, -E(4)/2), w^T u = 1:
# a reflection of order 3 over Q(zeta_12) that is not diagonal
ORDER_THREE_REFLECTION = [
    ["1-(1-E(3))/2", "(1-E(3))*E(4)/2"],
    ["-(1-E(3))*E(4)/2", "1-(1-E(3))/2"],
]


REFLECTION_CASES = [
    ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]], True),
    ([["-1", "0"], ["0", "-1"]], False),
    ([["1", "1"], ["0", "1"]], True),  # a transvection: rank(g - 1) = 1
    ([["E(3)"]], True),
    (ORDER_THREE_REFLECTION, True),
    ([["0", "1"], ["1", "0"]], True),
    ([["0", "1"], ["-1", "0"]], False),
]


def test_reflection_detection():
    for rows, expected in REFLECTION_CASES:
        assert is_reflection(CycMatrix.from_rows(rows)) is expected, rows
    assert not is_reflection(CycMatrix.identity(3))


def test_non_diagonal_reflection_at_conductor_12():
    assert not is_reflection(CycMatrix.identity(2, 12))
    s = CycMatrix.from_rows(ORDER_THREE_REFLECTION)
    assert s.conductor == 12 and not s.is_diagonal()
    assert s @ s @ s == CycMatrix.identity(2)


@st.composite
def _identity_plus_outer_products(draw):
    """1 + u v^T or 1 + u v^T + u' v'^T over Q(zeta_n), dims 1-4,
    conductors 1, 4 and 12.  u and u' take zero entries often, so the
    nonzero rows of the matrix minus 1 sometimes share one support and
    sometimes do not; rank(m - 1) = 1 is common."""
    dim = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 4, 12]))
    entry = st.builds(
        lambda c, k: Fraction(c, 2) * zeta(n, k),
        st.integers(-2, 2),
        st.integers(0, n - 1),
    )
    sparse = st.one_of(st.just(rational(0)), entry)
    rows = [[rational(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(1, 2))):
        u = [draw(sparse) for _ in range(dim)]
        v = [draw(entry) for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                rows[i][j] = rows[i][j] + u[i] * v[j]
    return CycMatrix.from_rows(rows)


def _dense_rank_one_mod(image, q):
    """rank(image - 1) == 1 over F_q, by elimination."""
    return rank_mod(
        [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(image)],
        q,
    ) == 1


@given(_identity_plus_outer_products())
@settings(max_examples=150, deadline=None)
def test_rank_one_tests_match_dense_ranks(m):
    # the exact test against Leibniz minors, and the test over F_q on the
    # matrix's image against elimination modulo q
    assert is_reflection(m) == (dense_rank(dense_minus_identity(m)) == 1)
    q = _shadow_prime(m.conductor, _denominators([m]))
    image = _reduce_matrix(m, q, _root_of_unity(q, m.conductor))
    assert mckay._is_reflection_mod(image, q) == _dense_rank_one_mod(image, q)


@given(
    st.sampled_from([2, 3, 5, 13]),
    st.integers(1, 4),
    st.integers(1, 2),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_rank_one_test_mod_small_primes(q, dim, terms, data):
    # 1 + u v^T (+ u' v'^T) over the integers, then reduced: small primes
    # make minors vanish modulo q that are not zero over Z
    image = [[int(i == j) for j in range(dim)] for i in range(dim)]
    vectors = st.lists(st.integers(0, 12), min_size=dim, max_size=dim)
    sparse = st.lists(st.sampled_from([0, 0, 1, 2, 7]), min_size=dim, max_size=dim)
    for _ in range(terms):
        u, v = data.draw(sparse), data.draw(vectors)
        image = [[a + ui * vj for a, vj in zip(row, v)] for row, ui in zip(image, u)]
    image = [[a % q for a in row] for row in image]
    assert mckay._is_reflection_mod(image, q) == _dense_rank_one_mod(image, q)


def _count_additions(monkeypatch):
    """The signs of every cyclotomic addition or subtraction from now on."""
    calls = []
    add = CyclotomicNumber._add

    def counting_add(self, other, sign):
        calls.append(sign)
        return add(self, other, sign)

    monkeypatch.setattr(CyclotomicNumber, "_add", counting_add)
    return calls


@pytest.mark.parametrize("exponents", [(1, 4, 0, 0), (1, 2, 3, 4, 0, 0)])
def test_reflection_test_subtracts_on_the_diagonal_only(exponents, monkeypatch):
    g = CycMatrix.from_rows(
        [[f"E(5)^{a}" if i == j else "0" for j in range(len(exponents))]
         for i, a in enumerate(exponents)]
    )
    calls = _count_additions(monkeypatch)
    assert not is_reflection(g)
    # rows of g - 1 with different supports settle it before any entry of
    # g - 1 is built
    assert len(calls) <= g.dim


def test_reflection_test_subtracts_when_the_minors_need_it(monkeypatch):
    # both rows of g - 1 have support {0, 1}, so the minor through the
    # first row decides, and it needs the two diagonal entries of g - 1
    g = CycMatrix.from_rows([["0", "1"], ["1", "0"]])
    calls = _count_additions(monkeypatch)
    assert is_reflection(g)
    assert 1 <= len(calls) <= 2


def test_transpositions_are_reflections(s3):
    records = age_records(s3)
    flags = [records[x].is_reflection for x in s3.carrier_labels()]
    # 3 transpositions among the 6 permutation matrices
    assert sum(flags) == 3
    for x in s3.carrier_labels():
        assert records[x].is_reflection == (s3.matrix(x) != CycMatrix.identity(3)
                                            and records[x].multiplicities[0] == 2)


def test_sl_groups_have_no_reflections(ex72, q8, icosa):
    for grp in (ex72, q8, icosa):
        assert not any(rec.is_reflection for rec in age_records(grp))


# --- junior classes ------------------------------------------------------------


def test_junior_classes_of_order_six_group(ex72):
    count, reps = junior_classes(ex72)
    assert count == 2
    assert reps == (2, 4)
    g1 = CycMatrix.from_rows(G1_ROWS)
    assert ex72.matrix(2) == g1


def test_junior_classes_of_q8(q8):
    count, reps = junior_classes(q8)
    assert count == 4
    sizes = sorted(
        len(c) for c in q8.conjugacy_classes() if c[0] in reps
    )
    assert sizes == [1, 2, 2, 2]


def test_junior_elements_by_brute_force(q8, ex72, icosa):
    for grp in (q8, ex72, icosa):
        records = age_records(grp)
        expected = tuple(
            x for x in grp.carrier_labels()
            if _oracle_age(
                kernel_multiplicities(grp.matrix(x), grp.element_orders[x]), 1
            ) == 1
        )
        assert junior_elements(grp) == expected
        assert all(records[x].is_junior for x in expected)


def test_cyclic_series_junior_counts():
    for k in range(2, 9):
        grp = cyclic_sl2(k)
        count, reps = junior_classes(grp)
        assert count == k - 1  # every nontrivial power has age (a + (k-a))/k = 1
        assert len(junior_elements(grp)) == k - 1


def test_no_juniors_in_diagonal_icosahedral(icosa_diag):
    count, reps = junior_classes(icosa_diag)
    assert count == 0
    assert reps == ()


def test_junior_classes_reject_gl_input(s3):
    with pytest.raises(NotSpecialLinearError):
        junior_classes(s3)


# --- valuation weights -----------------------------------------------------------


def test_weights_of_diagonal_junior():
    g1 = CycMatrix.from_rows(G1_ROWS)
    data = valuation_weights(g1)
    assert data.order == 3
    assert data.weights == (0, 0, 2, 1)
    assert data.basis_is_standard
    assert data.basis == CycMatrix.identity(4)


def test_weights_of_minus_identity():
    data = valuation_weights(CycMatrix.from_rows([["-1", "0"], ["0", "-1"]]))
    assert data.weights == (1, 1)


def test_weights_of_conjugated_junior():
    g1 = CycMatrix.from_rows(G1_ROWS)
    h = CycMatrix.from_rows(
        [["1", "0", "1", "0"], ["2", "1", "0", "0"],
         ["0", "0", "1", "0"], ["1", "0", "0", "1"]]
    )
    conj = h @ g1 @ h.inverse()
    data = valuation_weights(conj)
    assert tuple(sorted(data.weights)) == (0, 0, 1, 2)
    assert not data.basis_is_standard
    # each basis column is an eigenvector for the exponent it is labeled with
    conductor = data.basis.conductor
    lifted = conj.lift(conductor)
    for col, w in enumerate(data.weights):
        vec = [data.basis.rows[p][col] for p in range(4)]
        image = [
            sum(
                (lifted.rows[p][q] * vec[q] for q in range(4)),
                rational(0),
            )
            for p in range(4)
        ]
        lam = zeta(data.order, w)
        assert all(image[p] == lam * vec[p] for p in range(4))


def test_weights_under_twist():
    g1 = CycMatrix.from_rows(G1_ROWS)
    data = valuation_weights(g1, GaloisTwist(2))
    # swapping the primitive cube root swaps exponents 1 and 2
    assert data.weights == (0, 0, 1, 2)


def test_weights_reject_non_junior():
    minus_i4 = CycMatrix.from_rows(
        [["-1", "0", "0", "0"], ["0", "-1", "0", "0"],
         ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    )
    with pytest.raises(ValueError):
        valuation_weights(minus_i4)  # age 2


# --- Galois sweep ------------------------------------------------------------------


def test_sweep_of_order_six_group(ex72):
    entries = galois_sweep(ex72)
    assert [e.twist for e in entries] == [1, 5]
    for e in entries:
        assert e.junior_count == 2
        assert e.junior_element_ids == (2, 4)  # same juniors for both roots
        assert e.junior_subgroup_order == 3
        assert e.torsion_factors == (2,)


def test_sweep_junior_sets_can_differ(c7):
    entries = galois_sweep(c7)
    assert len(entries) == 6
    assert all(e.junior_count == 3 for e in entries)
    assert all(e.torsion_factors == () for e in entries)
    distinct_sets = {e.junior_element_ids for e in entries}
    assert len(distinct_sets) > 1


def test_sweep_with_two_odd_primes(c15):
    entries = galois_sweep(c15)
    assert len(entries) == 8
    assert all(e.junior_count == 8 for e in entries)
    assert all(e.junior_subgroup_order == 15 for e in entries)
    assert all(e.torsion_factors == () for e in entries)
    assert len({e.junior_element_ids for e in entries}) > 1


def test_sweep_terminal_case(scalar3):
    entries = galois_sweep(scalar3)
    for e in entries:
        assert e.junior_count == 0
        assert e.junior_subgroup_order == 1
        assert e.torsion_factors == (3,)


def test_sweep_rejects_gl(s3):
    with pytest.raises(NotSpecialLinearError):
        galois_sweep(s3)


def test_sweep_of_trivial_group():
    grp = close_group([CycMatrix.identity(2)])
    entries = galois_sweep(grp)
    assert len(entries) == 1
    assert entries[0].junior_count == 0
    assert entries[0].torsion_factors == ()


def test_sweep_walks_a_shared_abelian_quotient_once(monkeypatch):
    # <diag(z15, z15^-1)>: eight twists share one junior set, so one
    # Ab(G/H), whose element orders are walked once, not once per twist
    G = cyclic_sl2(15)
    walked = []
    walks = matgrp._cyclic_walks

    def counted(grp):
        walked.append(grp)
        return walks(grp)

    monkeypatch.setattr(matgrp, "_cyclic_walks", counted)
    entries = galois_sweep(G)
    assert len(entries) == 8
    assert len({e.junior_element_ids for e in entries}) == 1
    _, ab = mckay._juniors(G, mckay.IDENTITY_TWIST).quotients
    assert sum(grp is ab for grp in walked) == 1


def test_sweep_scans_the_classes_once_per_junior_set(c7, monkeypatch):
    # the eight twists of <diag(z15, z15^-1)> share one junior set; the six
    # of c7 have six.  Each group is closed afresh, so no memo is shared
    # with other tests, and its eigen pass, which reads the classes too,
    # is made before counting.
    scans = []
    classes = FiniteMatrixGroup.conjugacy_classes

    def counted(G):
        scans.append(G)
        return classes(G)

    for G, twists, sets in (
        (cyclic_sl2(15), 8, 1), (close_group(c7.generators), 6, 6)
    ):
        mckay._eigen_pass(G)
        monkeypatch.setattr(FiniteMatrixGroup, "conjugacy_classes", counted)
        entries = galois_sweep(G)
        monkeypatch.undo()
        assert len(entries) == twists
        assert len({e.junior_element_ids for e in entries}) == sets
        assert sum(g is G for g in scans) == sets


def test_junior_memo_is_keyed_by_the_filled_in_arguments():
    # `junior_elements` fills in its default twist and reads `_juniors`,
    # which is keyed by that positional twist alone, so `f(G)`,
    # `f(G, default)` and `f(G, twist=default)` share one entry; a
    # `per_group` memo refuses keywords
    G = cyclic_sl2(6)
    ids = junior_elements(G)
    assert junior_elements(G, mckay.IDENTITY_TWIST) is ids
    assert junior_elements(G, twist=mckay.IDENTITY_TWIST) is ids
    entries = [key for key in G._memo if key[0] is mckay._juniors.__wrapped__]
    assert entries == [(mckay._juniors.__wrapped__, (mckay.IDENTITY_TWIST,))]
    juniors = G._memo[entries[0]]
    assert juniors.ids is ids
    assert mckay._junior_set(G, ids) is juniors
    assert G._memo[mckay._JuniorSet, (ids,)] is juniors
    kept = dict(G._memo)
    for call in (
        lambda: junior_elements(G, tweak=mckay.IDENTITY_TWIST),
        lambda: junior_elements(G, mckay.IDENTITY_TWIST, mckay.IDENTITY_TWIST),
        lambda: junior_elements(G, mckay.IDENTITY_TWIST, twist=GaloisTwist(5)),
        lambda: mckay._juniors(G),
        lambda: mckay._juniors(G, twist=mckay.IDENTITY_TWIST),
        lambda: mckay._junior_set(G),
        lambda: mckay._junior_set(G, ids, ids),
        lambda: mckay._junior_set(G, ids=ids),
    ):
        with pytest.raises(TypeError):
            call()
    assert G._memo == kept


def test_per_group_refuses_parameters_it_cannot_key():
    # the memo is keyed by the positional arguments after G, so a default
    # would give `f(G)` and `f(G, default)` two entries
    for fn in (
        lambda G, t=1: t,
        lambda G, s, t=1: t,
        lambda G, *, t=1: t,
    ):
        with pytest.raises(TypeError, match="no defaults"):
            matgrp.per_group(fn)
    memoised = matgrp.per_group(lambda G, t: [t])
    G = cyclic_sl2(3)
    assert memoised(G, 1) is memoised(G, 1) == [1]
    with pytest.raises(TypeError):
        memoised(G, t=1)


def _count_age_records(monkeypatch):
    calls = []
    records = mckay.age_records

    def counted(G, twist=mckay.IDENTITY_TWIST):
        calls.append(twist.t)
        return records(G, twist)

    monkeypatch.setattr(mckay, "age_records", counted)
    return calls


def test_analyze_job_makes_one_age_pass(monkeypatch):
    calls = _count_age_records(monkeypatch)
    text = json.dumps({"dimension": 2, "generators": Q8_ROWS})
    _, status = cli.run(cli.parse_job(text, "analyze"))
    assert status == cli.EXIT_OK
    assert calls == [1]


def test_sweep_makes_one_age_pass_per_twist(monkeypatch):
    calls = _count_age_records(monkeypatch)
    text = json.dumps({"dimension": 2, "generators": Q8_ROWS})
    payload, status = cli.run(cli.parse_job(text, "sweep"))
    assert status == cli.EXIT_OK
    twists = [entry["twist"] for entry in payload["sweep"]["twists"]]
    assert twists == [1, 3]
    assert calls == twists
