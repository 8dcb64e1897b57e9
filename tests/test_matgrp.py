"""Matrix arithmetic and finite group machinery against brute-force oracles."""

import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant import cli, cyclo, matgrp
from crepant.cyclo import (
    _dot,
    _factorize,
    _is_prime,
    parse_cyclotomic,
    rational,
    zeta,
)
from crepant.matgrp import (
    AbelianStructure,
    CycMatrix,
    GroupTooLargeError,
    NotAbelianError,
    NotNormalError,
    SingularMatrixError,
    abelian_decomposition,
    abelian_invariants,
    abelianization,
    close_group,
    commutator_subgroup,
    conjugacy_classes,
    kernel_basis,
    order_of,
    power,
    quotient,
    subgroup_generated,
    _cyclic_walks,
    _denominators,
    _det_mod,
    _reduce_matrix,
    _reduce_value,
    _root_of_unity,
    _shadow_prime,
)
from crepant.mckay import age_records, eigen_multiplicities, is_reflection

from conftest import EX72_ROWS, ICOSA_ROWS, Q8_ROWS, TETRA_ROWS, cyclic_sl2

CYCLIC6_ROWS = [["E(6)", "0"], ["0", "E(6)^5"]]
from helpers import (
    ExplicitGroup,
    assert_independent_generators,
    brute_commutators,
    brute_conjugacy,
    dense_apply,
    dense_det,
    dense_minus_identity,
    dense_product,
    dense_rank,
    dense_trace,
    exact_closure,
    invariant_factors_of_product,
    member_scan_escapes,
    member_scan_normal_closure,
    naive_closure,
    schoolbook_dot,
    seed_closure,
    two_product_conjugacy,
    value_key,
    verify_group_law,
)


# --- matrix arithmetic -------------------------------------------------------


def test_rank_of_zero_difference():
    i2 = CycMatrix.identity(2)
    assert (i2 - i2).rank() == 0


def test_det_of_order_six_generator():
    g = CycMatrix.from_rows(EX72_ROWS)
    assert g.det() == 1


@pytest.mark.parametrize(
    "rows",
    [
        [["0", "1"], ["1", "0"]],  # a row swap, conductor 1
        [["2", "3", "5"], ["4", "6", "7"], ["1", "1", "1"]],  # a zero pivot
        [["1", "E(4)"], ["E(4)", "-1"]],  # singular, conductor 4
        [["0", "E(4)", "1"], ["E(4)", "1", "0"], ["1", "0", "E(4)"]],
        [["E(12)", "1", "0"], ["E(12)^5", "E(3)", "E(4)"], ["1", "0", "1/2"]],
        [["E(12)", "E(4)", "0"], ["E(12)^2", "E(12)*E(4)", "1"],
         ["0", "0", "E(3)"]],  # a zero pivot at conductor 12
        [["E(12)", "E(3)"], ["E(12)^2", "E(12)*E(3)"]],  # singular
    ],
)
def test_det_matches_leibniz_at_the_matrix_conductor(rows):
    m = CycMatrix.from_rows(rows)
    assert value_key(m.det()) == value_key(dense_det(m))
    assert m.det().conductor == m.conductor


def test_det_of_a_diagonal_matrix_inverts_nothing(monkeypatch):
    # every pivot scales no row, so no division at all
    from crepant.cyclo import CyclotomicNumber

    inverted = []
    inverse = CyclotomicNumber.inverse

    def counting(self):
        if self.rational_value is None:
            inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(CyclotomicNumber, "inverse", counting)
    m = CycMatrix.from_rows(
        [["E(3)", "0", "0"], ["0", "1+E(5)", "0"], ["0", "0", "E(4)/3"]]
    )
    assert value_key(m.det()) == value_key(dense_det(m))
    assert inverted == []


def test_non_root_of_unity_determinant_is_rendered_at_its_conductor():
    gen = CycMatrix.from_rows(
        [["E(4)", "0", "0"], ["0", "2*E(3)", "0"], ["0", "0", "E(3)^2"]]
    )
    with pytest.raises(ValueError, match=r"determinant 2\*E\(12\)\^3,"):
        close_group([gen])


def test_reflection_has_rank_one_displacement():
    refl = CycMatrix.from_rows([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]])
    assert (refl - CycMatrix.identity(3)).rank() == 1


def test_matrix_inverse_round_trip():
    m = CycMatrix.from_rows([["1", "E(3)"], ["E(3)^2", "2"]])
    assert m @ m.inverse() == CycMatrix.identity(2)
    assert m.inverse() @ m == CycMatrix.identity(2)


def test_singular_inverse_raises():
    m = CycMatrix.from_rows([["1", "2"], ["2", "4"]])
    with pytest.raises(SingularMatrixError):
        m.inverse()
    assert m.det().is_zero
    assert m.rank() == 1


def test_dimension_mismatch():
    a = CycMatrix.identity(2)
    b = CycMatrix.identity(3)
    with pytest.raises(ValueError):
        a @ b


def test_from_rows_requires_square():
    with pytest.raises(ValueError):
        CycMatrix.from_rows([["1", "0"], ["0"]])
    with pytest.raises(ValueError):
        CycMatrix.from_rows([])


def test_kernel_basis_of_rank_one():
    m = CycMatrix.from_rows([["1", "2"], ["2", "4"]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0][0] == -2 and basis[0][1] == 1
    assert kernel_basis(CycMatrix.identity(3)) == []


@st.composite
def _entries(draw, n):
    acc = rational(0).embed(n)
    terms = st.tuples(
        st.integers(-2, 2), st.integers(1, 2), st.integers(0, n - 1)
    )
    for num, den, e in draw(st.lists(terms, max_size=2)):
        acc = acc + Fraction(num, den) * zeta(n, e)
    return acc


@st.composite
def _matrices_with_rank_bound(draw):
    """(matrix, upper bound on its rank): a general matrix, or a sum of one
    or two outer products u v^T, so rank-deficient matrices are common."""
    dim = draw(st.integers(2, 4))
    n = draw(st.sampled_from([1, 3, 4, 5, 12]))
    terms = draw(st.integers(0, 2))
    if terms == 0:
        rows = [[draw(_entries(n)) for _ in range(dim)] for _ in range(dim)]
        return CycMatrix.from_rows(rows), dim
    rows = [[rational(0)] * dim for _ in range(dim)]
    for _ in range(terms):
        u = [draw(_entries(n)) for _ in range(dim)]
        v = [draw(_entries(n)) for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                rows[i][j] = rows[i][j] + u[i] * v[j]
    return CycMatrix.from_rows(rows), terms


@given(_matrices_with_rank_bound())
@settings(max_examples=120, deadline=None)
def test_rank_agrees_with_kernel_basis(case):
    # kernel_basis and inverse eliminate with field inverses; rank and det
    # take the fraction-free elimination
    m, bound = case
    rank = m.rank()
    assert rank + len(kernel_basis(m)) == m.dim
    assert rank <= bound
    assert m.det().is_zero == (rank < m.dim)
    if rank == m.dim:
        assert m @ m.inverse() == CycMatrix.identity(m.dim)
    else:
        with pytest.raises(SingularMatrixError):
            m.inverse()
    # the F_p determinant takes its sign from the pivot order
    p = _shadow_prime(m.conductor, _denominators([m]))
    omega = _root_of_unity(p, m.conductor)
    assert _det_mod(_reduce_matrix(m, p, omega), p) == _reduce_value(
        m.det(), p, omega
    )


@st.composite
def _zero_matrices(draw):
    dim = draw(st.integers(1, 4))
    zero = rational(0).embed(draw(st.sampled_from([1, 3, 4, 12])))
    return CycMatrix.from_rows([[zero] * dim for _ in range(dim)]), 0


@st.composite
def _operand_pairs(draw):
    """Two matrices of one dimension: at conductors 4 and 3 (their product
    lifts to 12), or both at one conductor; zero matrices are common."""
    dim = draw(st.integers(1, 4))
    pair = draw(st.sampled_from([(4, 3), (3, 4), (12, 12), (5, 1)]))
    out = []
    for n in pair:
        if draw(st.integers(0, 3)) == 0:
            rows = [[rational(0).embed(n)] * dim for _ in range(dim)]
        else:
            rows = [[draw(_entries(n)) for _ in range(dim)] for _ in range(dim)]
        out.append(CycMatrix.from_rows(rows))
    return tuple(out)


@given(st.one_of(_matrices_with_rank_bound(), _zero_matrices()))
@settings(max_examples=120, deadline=None)
def test_matrix_kernels_match_dense_reference(case):
    # conductor, numerators and denominator must match, not only the value
    m, _ = case
    assert value_key(m.trace()) == value_key(dense_trace(m))
    rank = dense_rank(m)
    assert m.rank() == rank
    assert is_reflection(m) == (dense_rank(dense_minus_identity(m)) == 1)
    assert value_key(m.det()) == value_key(dense_det(m))
    zero = value_key(rational(0).embed(m.conductor))
    basis = kernel_basis(m)
    assert len(basis) == m.dim - rank
    for v in basis:
        assert [value_key(x) for x in dense_apply(m, v)] == [zero] * m.dim
    if rank < m.dim:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    inverse = m.inverse()
    assert inverse.conductor == m.conductor
    identity = CycMatrix.identity(m.dim, m.conductor).key()
    assert dense_product(m, inverse).key() == identity


@given(_operand_pairs())
@settings(max_examples=120, deadline=None)
def test_product_matches_dense_reference(pair):
    a, b = pair
    product, expected = a @ b, dense_product(a, b)
    assert product.conductor == expected.conductor
    assert product.key() == expected.key()
    assert value_key(product.trace()) == value_key(dense_trace(expected))


def _row_entries(n):
    """Entry texts at conductor n: +-1, roots of unity (E(n)^0 among them)
    and values that are not roots, one of them the untagged 1 =
    (1+E(1))/2."""
    k = st.integers(0, n - 1)
    return st.one_of(
        st.sampled_from(["1", "-1", f"(1+E({n}))/2", "(1+E(4))/2"]),
        k.map(lambda j: f"E({n})^{j}"),
        k.map(lambda j: f"-E({n})^{j}"),
        k.map(lambda j: f"2/3-E({n})^{j}"),
    )


def _draw_monomial_rows(draw, dim):
    """A matrix at a conductor from 1, 4, 5 and 12 whose rows have a single
    nonzero entry or are dense."""
    entry = _row_entries(draw(st.sampled_from([1, 4, 5, 12])))
    rows = []
    for _ in range(dim):
        if draw(st.booleans()):
            row = ["0"] * dim
            row[draw(st.integers(0, dim - 1))] = draw(entry)
        else:
            row = [draw(st.one_of(st.just("0"), entry)) for _ in range(dim)]
        rows.append(row)
    return CycMatrix.from_rows(rows)


@st.composite
def _monomial_row_pairs(draw):
    """Two matrices of one dimension, drawn by `_draw_monomial_rows`."""
    dim = draw(st.integers(1, 4))
    return tuple(_draw_monomial_rows(draw, dim) for _ in range(2))


@st.composite
def _monomial_rows_and_vectors(draw):
    """A matrix drawn by `_draw_monomial_rows` and a vector at its
    conductor, some of whose entries are zero."""
    m = _draw_monomial_rows(draw, draw(st.integers(1, 4)))
    n = m.conductor
    entry = st.one_of(st.just("0"), _row_entries(n)).map(parse_cyclotomic)
    fits = entry.filter(lambda x: n % x.conductor == 0)
    return m, tuple(draw(fits).embed(n) for _ in range(m.dim))


@given(_monomial_row_pairs())
@settings(max_examples=120, deadline=None)
def test_monomial_rows_multiply_to_the_schoolbook_product(pair):
    # rows with one nonzero entry scale a row of the right factor; every
    # entry, its conductor included, is the schoolbook sum of products
    a, b = pair
    m = math.lcm(a.conductor, b.conductor)
    product = a @ b
    assert product.conductor == m
    for i in range(a.dim):
        for j in range(a.dim):
            pairs = [
                (a.rows[i][k].embed(m), b.rows[k][j].embed(m)) for k in range(a.dim)
            ]
            assert value_key(product.rows[i][j]) == schoolbook_dot(m, pairs)


@given(_monomial_rows_and_vectors())
@settings(max_examples=120, deadline=None)
def test_matrix_vector_rows_match_the_dense_reference(case):
    # the row kernel of the finiteness certificate: a row with one nonzero
    # entry scales one vector entry, and only a tagged 1 passes it through
    m, v = case
    assert [value_key(x) for x in m._mul_vector(v)] == [
        value_key(x) for x in dense_apply(m, v)
    ]


def test_dot_sums_at_a_common_denominator():
    half, third = Fraction(1, 2), Fraction(1, 3)
    a, b = zeta(12, 1) * half, zeta(12, 5)
    c, d = zeta(12, 7) * third, rational(3).embed(12)
    # a sum that cancels is the canonical zero, with denominator 1
    cancelled = _dot(12, [(a, b), (-a, b)])
    assert value_key(cancelled) == (12, (0, 0, 0, 0), 1)
    expected = a * b + c * d
    assert value_key(_dot(12, [(a, b), (c, d)])) == value_key(expected)


def test_trace():
    g = CycMatrix.from_rows(EX72_ROWS)
    assert g.trace() == -2 - zeta(3) - zeta(3, 2)  # = -2 + 1 = -1
    assert g.trace() == -1


def test_cross_conductor_matrix_equality():
    a = CycMatrix.from_rows([["E(3)", "0"], ["0", "1"]])
    b = CycMatrix.from_rows([["E(6)^2", "0"], ["0", "1"]])
    assert a == b
    assert hash(a) == hash(b)


# --- closure -----------------------------------------------------------------


def test_order_six_closure(ex72):
    assert len(ex72) == 6
    assert ex72.is_special_linear
    assert ex72.exponent == 6
    assert sorted(ex72.element_orders) == [1, 2, 3, 3, 6, 6]


def test_trivial_closure():
    g = close_group([CycMatrix.identity(3)])
    assert len(g) == 1
    assert g.element_orders == [1]


def test_q8_closure_matches_naive_oracle(q8):
    gens = [CycMatrix.from_rows(r) for r in Q8_ROWS]
    oracle = naive_closure(gens)
    assert len(q8) == 8
    assert len(oracle) == 8
    assert set(q8.elements) == oracle


def test_closure_is_deterministic():
    a = close_group([CycMatrix.from_rows(r) for r in Q8_ROWS])
    b = close_group([CycMatrix.from_rows(r) for r in Q8_ROWS])
    assert [m.key() for m in a.elements] == [m.key() for m in b.elements]
    assert a._lmul == b._lmul


def test_closure_idempotent(q8):
    elems = set(q8.elements)
    for a in q8.elements:
        for b in q8.elements:
            assert (a @ b) in elems


def test_table_multiplication_matches_matrices(q8, ex72):
    for grp in (q8, ex72):
        for a in grp.carrier_labels():
            for b in grp.carrier_labels():
                product = grp.matrix(a) @ grp.matrix(b)
                assert grp.id_of(product) == grp.mul(a, b)
            assert grp.matrix(a) @ grp.matrix(grp.inv(a)) == CycMatrix.identity(
                grp.dim, grp.entry_conductor
            )


def test_lagrange(q8, s3, ex72, icosa):
    for grp in (q8, s3, ex72, icosa):
        for o in grp.element_orders:
            assert len(grp) % o == 0


def test_id_of(ex72):
    minus_i = CycMatrix.from_rows(
        [["-1", "0", "0", "0"], ["0", "-1", "0", "0"],
         ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    )
    assert ex72.id_of(minus_i) == 3
    assert ex72.id_of(CycMatrix.identity(4)) == 0
    assert ex72.id_of(CycMatrix.from_rows([["2", "0", "0", "0"], ["0", "1", "0", "0"],
                                           ["0", "0", "1", "0"], ["0", "0", "0", "1"]])) is None


def test_id_of_a_matrix_past_the_entry_conductor(q8):
    # conductor 12 does not divide Q8's entry conductor 4, so the F_p index
    # cannot be read; the elements are compared at a common conductor
    assert q8.entry_conductor == 4
    i_12 = CycMatrix.from_rows([["E(12)^3", "0"], ["0", "-E(12)^3"]])
    assert i_12.conductor == 12
    i_4 = CycMatrix.from_rows([["E(4)", "0"], ["0", "-E(4)"]])
    assert q8.id_of(i_12) == q8.id_of(i_4) is not None
    assert q8.id_of(CycMatrix.from_rows([["E(12)", "0"], ["0", "E(12)^11"]])) is None


def test_power_and_order(ex72):
    g = 1
    acc = ex72.identity_label
    for k in range(1, 7):
        acc = ex72.mul(g, acc)
        assert power(ex72, g, k) == acc
    assert power(ex72, g, -1) == ex72.inv(g)
    assert order_of(ex72, g) == 6
    assert [order_of(ex72, x) for x in ex72.carrier_labels()] == ex72.element_orders
    # square-and-multiply on 2T labels against k products by x, or by its
    # inverse for negative k
    G = close_group([CycMatrix.from_rows(r) for r in TETRA_ROWS])
    for x in G.carrier_labels():
        for base, sign in ((x, 1), (G.inv(x), -1)):
            acc = G.identity_label
            for k in range(65):
                assert power(G, x, sign * k) == acc, (x, sign * k)
                acc = G.mul(acc, base)


def test_too_large_closure_reports_partial_count():
    gen = CycMatrix.from_rows([["E(97)", "0"], ["0", "E(97)^96"]])
    with pytest.raises(GroupTooLargeError) as err:
        close_group([gen], max_size=50)
    assert err.value.partial_count == 50


def test_infinite_group_rejected_by_determinant():
    with pytest.raises(ValueError):
        close_group([CycMatrix.from_rows([["2", "0"], ["0", "1"]])])


@pytest.mark.parametrize("second", ["-1", "1"])
def test_infinite_group_with_a_finite_shadow_rejected(second):
    # s = diag(-1, 1) and t = [[second, p], [0, -1]] with p the closure's
    # prime: t = s or t = -s modulo p, but s t is a shear of infinite order.
    # The images commute and s, t do not.
    p = _shadow_prime(1, ())
    corner = "-1" if second == "1" else "1"
    rows = [[["-1", "0"], ["0", "1"]], [[second, str(p)], ["0", corner]]]
    with pytest.raises(ValueError, match="not finite"):
        close_group([CycMatrix.from_rows(r) for r in rows])
    text = json.dumps({"dimension": 2, "generators": rows})
    with pytest.raises(cli.JobError, match="finite"):
        cli.run(cli.parse_job(text, "age"))


def test_infinite_group_with_a_nonabelian_shadow_rejected():
    # the swap and diag(-1, 1) generate D4; t = [[-1, p], [0, 1]] is
    # diag(-1, 1) modulo p, but diag(-1, 1) t is a shear of infinite order
    p = _shadow_prime(1, ())
    gens = [CycMatrix.from_rows(r) for r in (
        [["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]],
        [["-1", str(p)], ["0", "1"]],
    )]
    assert len(close_group(gens[:2])) == 8
    with pytest.raises(ValueError, match="not finite"):
        close_group(gens)


def test_generator_orders_are_checked_exactly():
    # [[-1, p], [0, -1]] is -1 modulo p, but its square is a shear;
    # [[-1, p], [0, 1]] is diag(-1, 1) modulo p and of order 2
    p = _shadow_prime(1, ())
    with pytest.raises(ValueError, match="not finite"):
        close_group([CycMatrix.from_rows([["-1", str(p)], ["0", "-1"]])])
    gen = CycMatrix.from_rows([["-1", str(p)], ["0", "1"]])
    G = close_group([gen])
    assert len(G) == 2 and G.matrix(1) == gen


def test_singular_generator_rejected():
    with pytest.raises(SingularMatrixError):
        close_group([CycMatrix.from_rows([["1", "1"], ["1", "1"]])])


def test_binary_icosahedral(icosa):
    assert len(icosa) == 120
    assert icosa.is_special_linear
    assert len(icosa.conjugacy_classes()) == 9


# --- modular shadow -----------------------------------------------------------

# <diag(-z3, -z3, z3)>: entry conductor 3, working conductor 6, and traces
# that are not real, so eigenvalues are counted over a second prime
NONREAL6_ROWS = [["-E(3)", "0", "0"], ["0", "-E(3)", "0"], ["0", "0", "E(3)"]]
SHADOW_ZOO = ["ex72", "q8", "s3", "icosa", "icosa_diag", "c7", "c15",
              "scalar3", "c30", "2t", "nonreal6", "diag3_0", "diag3_1",
              "diag4_0", "diag4_1"]


def _random_diagonal_sl(rng, dim):
    """<1 or 2 diagonal generators in SL_dim> with random root orders."""
    gens = []
    for _ in range(rng.randint(1, 2)):
        k = rng.choice([2, 3, 4, 5, 6, 8, 9, 10, 12])
        exps = [rng.randrange(k) for _ in range(dim - 1)]
        exps.append(-sum(exps) % k)
        gens.append(CycMatrix.from_rows(
            [[(f"E({k})^{exps[i]}" if i == j else "0") for j in range(dim)]
             for i in range(dim)]
        ))
    return close_group(gens)


def _shadow_group(name, request):
    if name == "c30":
        return cyclic_sl2(30)
    if name == "2t":
        return close_group([CycMatrix.from_rows(r) for r in TETRA_ROWS])
    if name == "nonreal6":
        return close_group([CycMatrix.from_rows(NONREAL6_ROWS)])
    if name.startswith("diag"):
        dim, seed = int(name[4]), int(name[6:])
        return _random_diagonal_sl(random.Random(100 * dim + seed), dim)
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", SHADOW_ZOO)
def test_modular_closure_matches_exact_oracle(name, request):
    G = _shadow_group(name, request)
    elements, words, lmul = exact_closure(G.generators)
    # each element's generator and parent rebuild the oracle's word
    assert [()] + [
        (G._steps[x],) + words[G._parents[x]] for x in range(1, len(G))
    ] == words
    assert G._lmul == lmul
    assert list(G.elements) == elements
    index = {m.key(): x for x, m in enumerate(elements)}
    assert G.inverse_ids == [index[m.inverse().key()] for m in elements]
    records = age_records(G)
    for x, m in enumerate(elements):
        mults = eigen_multiplicities(m)
        assert G.element_orders[x] == len(mults)
        assert records[x].multiplicities == mults
        assert records[x].is_reflection == is_reflection(m)
        assert G.id_of(m) == x


@pytest.mark.parametrize("name, pairs", [
    ("q8", None), ("s3", None), ("2t", None), ("ex72", None),
    ("icosa", 300), ("c30", 300),
])
def test_group_law_matches_exact_products(name, pairs, request):
    # mul walks the search tree of its right operand through the right
    # multiplication tables; every product must be the exact one, also in
    # Ab(G), whose mul multiplies coset representatives in G
    G = _shadow_group(name, request)
    labels = list(G.carrier_labels())
    rng = random.Random(0)
    if pairs is None:
        todo = list(itertools.product(labels, repeat=2))
    else:
        todo = [(rng.choice(labels), rng.choice(labels)) for _ in range(pairs)]
    for a, b in todo:
        assert G.mul(a, b) == G.id_of(G.matrix(a) @ G.matrix(b))
    ab = abelianization(G)
    reps = ab.coset_reps
    for a, b in itertools.product(ab.carrier_labels(), repeat=2):
        exact = G.id_of(G.matrix(reps[a]) @ G.matrix(reps[b]))
        assert ab.mul(a, b) == ab.coset_of[exact]


def test_search_tree_memory_is_bounded():
    # <diag(E(6000), E(6000)^5999)> closes to a path 6000 elements deep: a
    # tree that kept each element's generator word would hold 18 M letters
    g = CycMatrix.from_rows([["E(6000)", "0"], ["0", "E(6000)^5999"]])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        G = close_group([g])
        elapsed = time.perf_counter() - start
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(G) == 6000
    assert retained < 20 * 2**20
    assert elapsed < 5
    # each power of the generator is the one before times it, one step of
    # the walk; with the generator on the left, a power would walk the
    # whole path below it, 18 M steps in all
    reads = [0]

    class Counted(list):
        def __getitem__(self, i):
            reads[0] += 1
            return list.__getitem__(self, i)

    G._parents = Counted(G._parents)
    assert order_of(G, G.generator_ids[0]) == 6000
    assert reads[0] <= len(G)


@pytest.mark.parametrize("name", SHADOW_ZOO)
def test_element_orders_match_powering(name, request):
    G = _shadow_group(name, request)
    assert G.element_orders == [order_of(G, x) for x in G.carrier_labels()]
    _assert_walks(G, G.walks)
    assert all(G.mul(x, G.inv(x)) == 0 for x in G.carrier_labels())
    ab = abelianization(G)
    orders, inverses, walks = _cyclic_walks(ab)
    assert orders == ab.element_orders
    assert orders == [order_of(ab, x) for x in ab.carrier_labels()]
    assert all(
        ab.mul(x, inverses[x]) == ab.identity_label for x in ab.carrier_labels()
    )
    _assert_walks(ab, walks)
    # a handle is not walked: its labels, and so its orders, are its parent's
    handle = subgroup_generated(G, G.generator_ids[-1:])
    for sub in (commutator_subgroup(G), handle):
        assert all(
            sub.element_orders[x] == order_of(sub, x) for x in sub.carrier_labels()
        )


def _assert_walks(grp, walks):
    """Each walk is [1, x, ..., x^(r-1)] for a label x that no earlier
    walk reached, taken in label order, and the walks reach every label."""
    reached: set = set()
    starts = []
    for powers in walks:
        x = powers[1] if len(powers) > 1 else powers[0]
        assert x not in reached
        assert powers == [power(grp, x, j) for j in range(len(powers))]
        assert power(grp, x, len(powers)) == grp.identity_label
        starts.append(x)
        reached.update(powers)
    assert starts == sorted(starts)
    assert reached == set(grp.carrier_labels())


def test_element_orders_walk_each_cyclic_subgroup_once(monkeypatch):
    calls = [0]
    mul = matgrp.FiniteMatrixGroup.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(matgrp.FiniteMatrixGroup, "mul", counted)
    G = cyclic_sl2(300)
    assert len(G) == 300
    # one walk of the generator's 300 powers gives every order and inverse;
    # powering every element separately would take about n^2 / 2 = 45 000
    # products
    assert calls[0] <= 2 * len(G)
    assert all(G.mul(x, G.inv(x)) == 0 for x in G.carrier_labels())


@pytest.mark.parametrize("name", ["q8", "icosa", "2t", "c30", "scalar3"])
def test_shadow_primes_and_roots(name, request):
    G = _shadow_group(name, request)
    dens = {e.den for g in G.generators for row in g.rows for e in row}
    assert G._shadow.order == G.entry_conductor
    assert G.working_shadow().order == G.working_conductor
    for shadow in (G._shadow, G.working_shadow()):
        modulus, p, root = shadow.order, shadow.prime, shadow.root
        assert _is_prime(p) and p > 2**60
        assert (p - 1) % modulus == 0
        assert all(d % p for d in dens)
        assert pow(root, modulus, p) == 1
        assert all(pow(root, modulus // q, p) != 1 for q, _ in _factorize(modulus))
        # the images are the reductions of the exact elements
        zeta_n = pow(root, modulus // G.entry_conductor, p)
        for x in G.carrier_labels():
            assert shadow.images[x] == _reduce_matrix(G.matrix(x), p, zeta_n)


def test_shadow_prime_avoids_denominators():
    # diag(-1, 1) conjugated by [[1, 1/p0], [0, 1]], with p0 the first
    # candidate prime for conductor 1: its entry 2/p0 rules p0 out
    p0 = _shadow_prime(1, ())
    gen = CycMatrix.from_rows([["-1", f"2/{p0}"], ["0", "1"]])
    G = close_group([gen])
    assert G._shadow.prime > p0
    assert len(G) == 2
    assert G.id_of(gen) == 1
    assert G.id_of(CycMatrix.from_rows([["-1", f"1/{p0}"], ["0", "1"]])) is None


# p - 2^61 for the shadow prime of each conductor n = 1..199, 2003, 4096,
# 30030 and 65536, as found before the sieve and Sinclair's bases: ids,
# exponents and reports follow from these primes and their roots.
PINNED_SHADOW_PRIMES = [
    15, 15, -1, 21, -1, -1, -1, 57, -1, -1, -1, 65, -1, -1, -1, 65, 1397, -1,
    899, 429, -1, -1, 305, 65, -1, -1, 197, 545, 491, -1, -1, 65, -1, -31, -1,
    197, 1239, 899, -1, -31, -1, -1, -31, 21, -1, 305, 885, -31, 2267, -1,
    -31, 545, 1397, 197, -1, 545, 899, -31, 1409, -31, -1, -1, -1, 65, -1,
    -1, 2369, -31, 305, -1, 8715, 305, 1479, 1239, -1, 2457, -1, -1, 1071,
    -31, 197, -1, -45, 545, -31, -31, -31, 65, 15245, -1, -1, 305, -1, 885,
    899, -31, 539, 2267, -1, 1049, 3059, -31, 7217, 545, -1, 1397, 899, 197,
    5579, -1, 3977, 545, -31, 899, 1409, -31, -1, 1409, 18941, -31, 65, -1,
    -1, 2045, 1049, -1, -31, 1409, -31, -1, 20609, 65, 2267, 2369, 899, -31,
    2391, 305, 9851, 1049, 1919, 8715, -1, 305, -31, 1479, 2267, 3977, 3527,
    -1, -1, 2457, 4967, -1, -1, 545, 1059, 1071, 1397, -31, 2421, 197, 4619,
    1557, -1, -45, 2145, 545, 3327, -31, 899, -31, 5769, -31, -1, 65, 1409,
    15245, 3297, 3149, 2439, -1, -1, 305, 1239, -1, 7347, 885, 14237, 899,
    4725, 65, 5105, 539, -1, 3149, 1397, -1, 6801, 4175, 106497, -1, 720897,
]


def test_shadow_primes_are_pinned():
    conductors = [*range(1, 200), 2003, 4096, 30030, 65536]
    got = [_shadow_prime(n, {1}) - 2**61 for n in conductors]
    assert got == PINNED_SHADOW_PRIMES


def test_each_shadow_prime_is_proven_once(monkeypatch):
    # C3 and C5 both land on 2^61 - 1.  Proving it takes Sinclair's seven
    # Miller-Rabin rounds, one modular power each; the second closure
    # finds it in the memo and takes none.
    calls = []

    def counted(*args):
        calls.append(args)
        return pow(*args)

    cyclo._is_prime.cache_clear()
    monkeypatch.setattr(cyclo, "pow", counted, raising=False)
    assert cyclic_sl2(3)._shadow.prime == 2**61 - 1
    assert len(calls) == 7
    assert {args[2] for args in calls} == {2**61 - 1}
    calls.clear()
    assert cyclic_sl2(5)._shadow.prime == 2**61 - 1
    assert calls == []


@pytest.mark.parametrize(
    "rows", [Q8_ROWS, TETRA_ROWS, [CYCLIC6_ROWS], ICOSA_ROWS]
)
def test_wrong_root_of_unity_is_refused(rows, monkeypatch):
    # zeta_n -> omega^2 is no ring map at even n.  Q8, 2T and C6 (entry
    # conductors 4, 4, 6) meet it in the closure's determinant check; 2I
    # (entry conductor 5, working conductor 60) in the multiplicities.
    find = matgrp._root_of_unity
    monkeypatch.setattr(
        matgrp, "_root_of_unity",
        lambda p, n: pow(find(p, n), 2, p) if n % 2 == 0 else find(p, n),
    )
    text = json.dumps({"dimension": len(rows[0]), "generators": rows})
    with pytest.raises(ArithmeticError):
        cli.run(cli.parse_job(text, "analyze"))


# --- conjugacy ---------------------------------------------------------------


def test_abelian_classes_are_singletons(ex72):
    classes = ex72.conjugacy_classes()
    assert len(classes) == 6
    assert all(len(c) == 1 for c in classes)


def test_q8_classes_match_oracle(q8):
    assert q8.conjugacy_classes() == brute_conjugacy(q8)
    assert sorted(len(c) for c in q8.conjugacy_classes()) == [1, 1, 2, 2, 2]


def test_s3_classes(s3):
    assert conjugacy_classes(s3) == brute_conjugacy(s3)
    assert sorted(len(c) for c in s3.conjugacy_classes()) == [1, 2, 3]


def test_icosa_classes_match_oracle(icosa):
    assert icosa.conjugacy_classes() == brute_conjugacy(icosa)


def test_class_partition(q8, s3, icosa):
    for grp in (q8, s3, icosa):
        classes = grp.conjugacy_classes()
        all_ids = sorted(x for c in classes for x in c)
        assert all_ids == list(grp.carrier_labels())
        # representatives are least members, classes ordered by representative
        reps = [c[0] for c in classes]
        assert reps == sorted(reps)
        assert all(c[0] == min(c) for c in classes)


GROUP_FIXTURES = ["ex72", "q8", "s3", "icosa", "icosa_diag", "c7", "c15", "scalar3"]


@pytest.mark.parametrize("name", GROUP_FIXTURES)
def test_classes_match_the_two_product_oracle(name, request):
    # a closed group conjugates by table lookups, its abelianization (a
    # quotient, with no left tables) by two products: both give the orbits
    # of y -> (g^-1 y) g
    G = request.getfixturevalue(name)
    for grp in (G, abelianization(G)):
        assert conjugacy_classes(grp) == two_product_conjugacy(grp)


@pytest.mark.parametrize("name", GROUP_FIXTURES)
def test_closed_group_classes_take_no_product(name, request, monkeypatch):
    # conjugation by a generator is two lookups: g^-1 y through the inverse
    # of g's left table, then (g^-1 y) g through its right table
    G = request.getfixturevalue(name)
    expected = two_product_conjugacy(G)

    def no_product(self, a, b):
        raise AssertionError("conjugacy_classes took a product")

    monkeypatch.setattr(matgrp.FiniteMatrixGroup, "mul", no_product)
    assert conjugacy_classes(G) == expected


def test_conjugation_by_generators_preserves_classes(s3):
    for c in s3.conjugacy_classes():
        for g in s3.generator_labels():
            gi = s3.inv(g)
            image = {s3.mul(s3.mul(g, x), gi) for x in c}
            assert image == set(c)


# --- subgroups ---------------------------------------------------------------


def test_trivial_subgroup(q8):
    sub = subgroup_generated(q8, [])
    assert len(sub) == 1
    assert sub.members == (0,)


def test_center_of_q8(q8):
    minus_one = next(
        x for x in q8.carrier_labels()
        if q8.matrix(x) == -CycMatrix.identity(2) and x != 0
    )
    center = subgroup_generated(q8, [minus_one])
    assert len(center) == 2
    assert minus_one in center


def test_subgroup_closure_property(icosa):
    rng = random.Random(11)
    seeds = rng.sample(range(len(icosa)), 2)
    sub = subgroup_generated(icosa, seeds)
    assert len(icosa) % len(sub) == 0
    members = sub.member_set
    for a in sub.members:
        assert icosa.inv(a) in members
        for b in sub.members:
            assert icosa.mul(a, b) in members


def _binary_tetrahedral_in(icosa):
    """A subgroup of order 24 of 2I, generated by elements of orders 4, 6."""
    return next(
        h for h in (
            subgroup_generated(icosa, [x, y])
            for x in icosa.carrier_labels() if icosa.element_orders[x] == 4
            for y in icosa.carrier_labels() if icosa.element_orders[y] == 6
        )
        if len(h) == 24
    )


def _seed_lists(grp, rng, count):
    """Seed lists with repeats, the identity and seeds already inside."""
    labels = list(grp.carrier_labels())
    for _ in range(count):
        seeds = rng.sample(labels, min(len(labels), rng.randint(1, 4)))
        seeds += [grp.mul(seeds[0], seeds[-1]), seeds[0], grp.identity_label]
        seeds.append(grp.inv(seeds[0]))
        rng.shuffle(seeds)
        yield seeds


def test_subgroup_generated_matches_seed_closure(q8, s3, ex72, icosa, icosa_diag, c15):
    rng = random.Random(23)
    zoo = [q8, s3, ex72, icosa, icosa_diag, c15]
    zoo += [_random_block_group(rng)[0] for _ in range(6)]
    # 2I / {+-1}: -I is the only element of order 2
    minus_one = icosa.element_orders.index(2)
    zoo.append(quotient(icosa, subgroup_generated(icosa, [minus_one])))
    # a handle: 2I's subgroup of order 24
    zoo.append(_binary_tetrahedral_in(icosa))
    for grp in zoo:
        for seeds in _seed_lists(grp, rng, 5):
            sub = subgroup_generated(grp, seeds)
            assert sub.members == seed_closure(grp, seeds)
            kept = list(sub.generator_labels())
            # the kept seeds are a subsequence of the seeds
            it = iter(seeds)
            assert all(any(g == s for s in it) for g in kept)
            assert_independent_generators(sub)
        # every label as a seed: the whole group from few generators
        whole = subgroup_generated(grp, list(grp.carrier_labels()))
        assert len(whole) == len(grp)
        assert_independent_generators(whole)


# --- commutators -------------------------------------------------------------


def test_commutator_of_cyclic_is_trivial(ex72):
    assert len(commutator_subgroup(ex72)) == 1


def test_commutator_of_q8(q8):
    derived = commutator_subgroup(q8)
    assert len(derived) == 2
    oracle = subgroup_generated(q8, sorted(brute_commutators(q8)))
    assert derived.members == oracle.members


def test_commutator_of_s3(s3):
    derived = commutator_subgroup(s3)
    assert len(derived) == 3
    assert set(s3.element_orders[x] for x in derived.members) == {1, 3}


def test_commutator_normal_closure_route_agrees(q8, s3, icosa, ex72):
    # the normal closure of generator commutators against the subgroup
    # generated by every pairwise commutator
    for grp in (q8, s3, icosa, ex72):
        oracle = subgroup_generated(grp, sorted(brute_commutators(grp)))
        assert commutator_subgroup(grp).members == oracle.members


def test_perfect_group(icosa):
    assert len(commutator_subgroup(icosa)) == 120


# --- quotients ---------------------------------------------------------------


def test_quotient_by_whole_group(q8):
    q = quotient(q8, subgroup_generated(q8, list(q8.carrier_labels())))
    assert len(q) == 1


def test_q8_mod_center_is_klein(q8):
    q = quotient(q8, commutator_subgroup(q8))
    assert len(q) == 4
    assert all(order_of(q, x) in (1, 2) for x in q.carrier_labels())
    assert verify_group_law(q)


def test_quotient_rejects_non_normal(s3):
    # a transposition generates a non-normal order-2 subgroup
    transposition = next(
        x for x in s3.carrier_labels()
        if s3.element_orders[x] == 2
    )
    sub = subgroup_generated(s3, [transposition])
    with pytest.raises(NotNormalError):
        quotient(s3, sub)


def test_quotient_of_s3_by_a3(s3):
    a3 = commutator_subgroup(s3)
    q = quotient(s3, a3)
    assert len(q) == 2
    assert order_of(q, 1) == 2


def _two_t():
    return close_group([CycMatrix.from_rows(r) for r in TETRA_ROWS])


def test_normality_from_generators_matches_the_member_scan(s3, q8):
    # <a, b> for every ordered pair: G/<a, b> is built exactly when no
    # member of <a, b> has a conjugate outside it
    for grp in (s3, q8, _two_t()):
        for a, b in itertools.product(grp.carrier_labels(), repeat=2):
            sub = subgroup_generated(grp, [a, b])
            if member_scan_escapes(grp, sub.members):
                with pytest.raises(NotNormalError, match="^subgroup is not normal"):
                    quotient(grp, sub)
            else:
                assert len(quotient(grp, sub)) * len(sub) == len(grp)


def test_normality_reads_every_generator_of_the_subgroup():
    # <-1, b> in 2T, b of order 4: -1 is central, so only the second kept
    # seed b has a conjugate that escapes
    grp = _two_t()
    minus_one = grp.element_orders.index(2)
    b = grp.element_orders.index(4)
    sub = subgroup_generated(grp, [minus_one, b])
    assert sub.generator_labels() == (minus_one, b)
    assert len(sub) == 4 and member_scan_escapes(grp, sub.members)
    with pytest.raises(NotNormalError, match=f"conjugate of {b!r} by"):
        quotient(grp, sub)


def test_commutator_subgroup_is_the_member_scan_normal_closure(
    ex72, q8, s3, icosa, icosa_diag, c7, c15, scalar3
):
    for G in (ex72, q8, s3, icosa, icosa_diag, c7, c15, scalar3, _two_t()):
        for grp in (G, G.abelianization()):
            gens = list(dict.fromkeys(grp.generator_labels()))
            seeds = {
                grp.mul(grp.mul(grp.mul(grp.inv(a), grp.inv(b)), a), b)
                for a in gens
                for b in gens
            }
            derived = commutator_subgroup(grp)
            assert derived.members == member_scan_normal_closure(grp, seeds)
            assert not member_scan_escapes(grp, derived.members)


def _c4_times_c12():
    """C4 x C12 = <a> x <b> in SL3, order 48."""
    g = close_group([
        CycMatrix.from_rows([["E(4)", "0", "0"], ["0", "1", "0"], ["0", "0", "E(4)^3"]]),
        CycMatrix.from_rows([["1", "0", "0"], ["0", "E(12)", "0"], ["0", "0", "E(12)^11"]]),
    ])
    assert len(g) == 48
    return g


def _quotient_shape(name, icosa, q8):
    """(quotient, its order) for each parent shape a quotient is taken of."""
    if name == "icosa_by_1":
        return quotient(icosa, subgroup_generated(icosa, [])), 120
    if name == "icosa_by_centre":
        # of a FiniteMatrixGroup by a nontrivial normal subgroup: 2I / {+-1}
        centre = subgroup_generated(icosa, [icosa.element_orders.index(2)])
        return quotient(icosa, centre), 60
    if name == "ab_q8":
        return quotient(q8, commutator_subgroup(q8)), 4
    if name == "c300_by_1":
        big = close_group([CycMatrix.from_rows([["E(300)", "0"], ["0", "E(300)^299"]])])
        return quotient(big, subgroup_generated(big, [])), 300
    if name == "tetra_by_centre":
        # of a non-abelian SubgroupHandle: 2I's subgroup of order 24 by its
        # centre
        tetra = _binary_tetrahedral_in(icosa)
        centre = subgroup_generated(tetra, [icosa.element_orders.index(2)])
        return quotient(tetra, centre), 12
    g = _c4_times_c12()
    a, b = g.generator_labels()
    if name == "two_part_by_cyclic":
        # of a SubgroupHandle, the _p_group_basis shape: the 2-part of g, by
        # the cyclic subgroup of one of its elements of largest order
        two_part = subgroup_generated(
            g, [x for x in g.carrier_labels() if g.element_orders[x] in (1, 2, 4)]
        )
        assert len(two_part) == 16
        x = g.element_orders.index(4)
        return quotient(two_part, subgroup_generated(two_part, [x])), 4
    # of a QuotientGroup, the Ab(G/K) shape: g / <a b^3> of order 12, then
    # its abelianization and its quotient by the image of <b^4>
    mid = quotient(g, subgroup_generated(g, [g.mul(a, power(g, b, 3))]))
    if name == "c4xc12_by_ab3":
        return mid, 12
    if name == "ab_of_c4xc12_by_ab3":
        return abelianization(mid), 12
    assert name == "c4xc12_by_ab3_by_b4"
    return quotient(mid, subgroup_generated(mid, [mid.coset_of[power(g, b, 4)]])), 4


@pytest.mark.parametrize("name", [
    "icosa_by_1", "icosa_by_centre", "ab_q8", "c300_by_1", "tetra_by_centre",
    "two_part_by_cyclic", "c4xc12_by_ab3", "ab_of_c4xc12_by_ab3",
    "c4xc12_by_ab3_by_b4",
])
def test_quotient_multiplies_in_the_parent(name, icosa, q8):
    q, order = _quotient_shape(name, icosa, q8)
    assert len(q) == order
    parent, reps = q.parent, q.coset_reps
    labels = list(q.carrier_labels())
    pairs = [(a, b) for a in labels for b in labels]
    if len(pairs) > 20000:
        pairs = random.Random(5).sample(pairs, 2000)
    for a, b in pairs:
        assert q.mul(a, b) == q.coset_of[parent.mul(reps[a], reps[b])]
    for a in labels:
        assert q.coset_of[parent.inv(reps[a])] == q.inv(a)
        assert all(q.coset_of[parent.mul(reps[a], n)] == a for n in q.normal.members)
    if order <= 60:
        assert verify_group_law(q)


def test_verify_group_law_catches_breakage():
    broken = ExplicitGroup(
        labels=range(3),
        mul=lambda a, b: a,  # not a group law
        inv=lambda a: a,
        identity_label=0,
    )
    assert not verify_group_law(broken)
    with pytest.raises(ValueError):
        verify_group_law(ExplicitGroup(range(1000), min, lambda a: a, 0))


# --- abelian structure -------------------------------------------------------


def test_invariants_of_cyclic_six(ex72):
    assert abelian_invariants(ex72).invariant_factors == (6,)


def test_invariants_of_klein(q8):
    klein = quotient(q8, commutator_subgroup(q8))
    assert abelian_invariants(klein).invariant_factors == (2, 2)


def test_abelianization_of_q8(q8):
    ab = abelianization(q8)
    assert abelian_invariants(ab).invariant_factors == (2, 2)


def test_abelianization_of_perfect_group(icosa):
    ab = abelianization(icosa)
    assert len(ab) == 1
    assert abelian_invariants(ab).invariant_factors == ()


def test_non_abelian_rejected(q8, s3):
    with pytest.raises(NotAbelianError):
        abelian_invariants(q8)
    with pytest.raises(NotAbelianError):
        abelian_decomposition(s3)


def _random_block_group(rng, max_order=200):
    """Direct product of cyclic groups as block-scalar generators; ground
    truth invariant factors come from the construction."""
    while True:
        factor_count = rng.randint(1, 3)
        orders = [rng.randint(2, 12) for _ in range(factor_count)]
        total = 1
        for k in orders:
            total *= k
        if total <= max_order:
            break
    dim = len(orders)
    gens = []
    for i, k in enumerate(orders):
        rows = [
            [(f"E({k})" if (r == c == i) else "1" if r == c else "0")
             for c in range(dim)]
            for r in range(dim)
        ]
        gens.append(CycMatrix.from_rows(rows))
    return close_group(gens), orders


def test_invariants_match_construction_oracle():
    rng = random.Random(2024)
    for _ in range(10):
        grp, orders = _random_block_group(rng)
        expected = invariant_factors_of_product(orders)
        got = abelian_invariants(grp)
        assert got.invariant_factors == expected
        assert got.order == len(grp)


def test_decomposition_round_trip(ex72, q8):
    for grp in (ex72, abelianization(q8)):
        dec = abelian_decomposition(grp)
        inv = abelian_invariants(grp)
        assert dec.structure == inv
        # generator orders realize the factors
        for g, d in zip(dec.generators, dec.structure.invariant_factors):
            assert order_of(grp, g) == d
        # dlog covers the group and respects multiplication
        assert len(dec.dlog) == len(grp)
        labels = list(grp.carrier_labels())
        rng = random.Random(7)
        for _ in range(20):
            a, b = rng.choice(labels), rng.choice(labels)
            ea = dec.exponents_of(a)
            eb = dec.exponents_of(b)
            combined = tuple(
                (x + y) % d
                for x, y, d in zip(ea, eb, dec.structure.invariant_factors)
            )
            assert dec.exponents_of(grp.mul(a, b)) == combined


def test_peel_off_corrects_a_lift_by_a_power_of_x():
    # order 32, Ab = Z/4 x Z/8: the lift to G of the quotient's generator
    # has a power in <x> that must be cancelled to keep its order
    grp = close_group([
        CycMatrix.from_rows([["-E(8)^3", "0"], ["0", "E(8)^2"]]),
        CycMatrix.from_rows([["E(8)^3", "0"], ["0", "1"]]),
    ])
    dec = abelian_decomposition(grp)
    factors = dec.structure.invariant_factors
    assert factors == (4, 8)
    assert [grp.element_orders[g] for g in dec.generators] == list(factors)
    for label in grp.carrier_labels():
        acc = grp.identity_label
        for g, e in zip(dec.generators, dec.exponents_of(label)):
            acc = grp.mul(acc, power(grp, g, e))
        assert acc == label


def test_peel_off_refuses_a_lift_that_keeps_a_wrong_order(monkeypatch):
    # the lift check is a raise, not an assert, so it survives python -O:
    # with y^(p^mu) misread as 1 the lift is never corrected
    grp = close_group([
        CycMatrix.from_rows([["-E(8)^3", "0"], ["0", "E(8)^2"]]),
        CycMatrix.from_rows([["E(8)^3", "0"], ["0", "1"]]),
    ])
    monkeypatch.setattr(
        matgrp, "power", lambda g, label, k: g.identity_label
    )
    with pytest.raises(ArithmeticError, match=r"^lift \d+ left coset \d+ or order 4$"):
        abelian_decomposition(grp)


def test_decomposition_of_random_products():
    rng = random.Random(99)
    for _ in range(6):
        grp, orders = _random_block_group(rng, max_order=120)
        dec = abelian_decomposition(grp)
        assert dec.structure.invariant_factors == invariant_factors_of_product(orders)


def test_trivial_group_structure():
    g = close_group([CycMatrix.identity(2)])
    assert abelian_invariants(g).invariant_factors == ()
    dec = abelian_decomposition(g)
    assert dec.generators == ()
    assert dec.dlog == {0: ()}


def test_decomposition_walks_its_group_once(monkeypatch):
    # one order table serves the counting route and the peel-off: a closed
    # group's comes with its closure, a quotient's is walked once, and the
    # peel-off still walks each of its own quotients
    grp, orders = _random_block_group(random.Random(5), max_order=120)
    walked = []

    def counted(g):
        walked.append(g)
        return real(g)

    real = matgrp._cyclic_walks
    monkeypatch.setattr(matgrp, "_cyclic_walks", counted)
    dec = abelian_decomposition(grp)
    assert dec.structure.invariant_factors == invariant_factors_of_product(orders)
    assert sum(g is grp for g in walked) == 0
    ab = abelianization(grp)
    assert abelian_decomposition(ab).structure == dec.structure
    assert abelian_invariants(ab) == dec.structure
    assert sum(g is ab for g in walked) == 1


def test_decomposition_checks_the_counting_route(ex72, monkeypatch):
    # counting and peel-off share the order table, but each reads the
    # factors its own way, and a disagreement is refused
    monkeypatch.setattr(
        matgrp, "_counted_invariants", lambda orders: AbelianStructure((), 1)
    )
    with pytest.raises(ArithmeticError, match="counting invariants"):
        abelian_decomposition(ex72)
