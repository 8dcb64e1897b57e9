"""Polynomial action, valuations, graded degrees, and relative invariants."""

import collections
import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crepant.cyclo import rational, zeta
from crepant.matgrp import (
    CycMatrix,
    abelian_decomposition,
    abelianization,
    close_group,
    subgroup_generated,
)
from crepant.mckay import (
    ConsistencyError,
    GaloisTwist,
    junior_elements,
    junior_gradings,
    valuation_weights,
)
from crepant import cli, invariants, mckay
from crepant.invariants import (
    CharacterOfAb,
    SparsePolynomial,
    _molien_coefficients,
    act,
    characters_of,
    check_congruence_lemma,
    check_junior_ring_membership,
    graded_degree,
    monomial_valuation,
    monomials_of_degree,
    relative_invariant,
)

from conftest import (
    ICOSA_ROWS,
    Q8_ROWS,
    S3_ROWS,
    TETRA_C3_ROWS,
    TETRA_ROWS,
    cyclic_sl2,
    in_corner,
)
from helpers import (
    character_value_by_product,
    chi_averages,
    dense_conjugate,
    exhaustive_relative_invariant,
    pairwise_product,
    per_element_averages,
    repeated_power,
    scale_and_add_averages,
    termwise_substitute,
    value_key,
)


def x(nvars, index):
    return SparsePolynomial.variable(nvars, index)


def ab_characters(grp):
    return characters_of(abelian_decomposition(abelianization(grp)))


# --- polynomial arithmetic ---------------------------------------------------


def test_zero_coefficients_dropped():
    f = SparsePolynomial(2, {(1, 0): rational(0), (0, 1): rational(2)})
    assert f.terms == {(0, 1): rational(2)}
    assert not f.is_zero
    assert SparsePolynomial(2, {(1, 0): 0}).is_zero


def test_constructor_validation():
    with pytest.raises(ValueError):
        SparsePolynomial(0, {})
    with pytest.raises(ValueError):
        SparsePolynomial(2, {(1,): rational(1)})
    with pytest.raises(ValueError):
        SparsePolynomial(2, {(-1, 0): rational(1)})
    with pytest.raises(ValueError):
        SparsePolynomial.variable(2, 5)


def test_binomial_square():
    a, b = x(2, 0), x(2, 1)
    square = (a + b) ** 2
    expected = a * a + a * b * 2 + b * b
    assert square == expected
    assert square.total_degree() == 2
    assert square.is_homogeneous()
    assert not (square + a).is_homogeneous()


def test_mixed_scalar_types():
    f = x(2, 0)
    assert f * 2 == 2 * f
    assert f * Fraction(1, 2) + f * Fraction(1, 2) == f
    assert (f * zeta(4)) * zeta(4, 3) == f


def test_nvars_mismatch_rejected():
    with pytest.raises(ValueError):
        x(2, 0) + x(3, 0)
    with pytest.raises(ValueError):
        x(2, 0) * x(3, 0)


def test_pow_matches_repeated_product():
    f = x(2, 0) + x(2, 1) * 2
    assert f ** 0 == SparsePolynomial.constant(2, 1)
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        f ** -1


def test_substitute_difference_of_squares():
    f = x(2, 0) * x(2, 1)
    u, v = x(2, 0), x(2, 1)
    g = f.substitute([u + v, u - v])
    assert g == u * u - v * v


def test_substitute_validation():
    f = x(2, 0)
    with pytest.raises(ValueError):
        f.substitute([x(2, 0)])
    with pytest.raises(ValueError):
        f.substitute([x(2, 0), x(3, 0)])


def test_render_format():
    assert SparsePolynomial.zero(2).render() == "0"
    assert SparsePolynomial.monomial(2, (1, 0), 2).render() == "2*x1"
    assert SparsePolynomial.monomial(2, (2, 3)).render() == "x1^2*x2^3"
    det = SparsePolynomial(
        4, {(1, 0, 0, 1): rational(1), (0, 1, 1, 0): rational(-1)}
    )
    assert det.render() == "x1*x4+(-1)*x2*x3"
    mixed = SparsePolynomial.constant(2, Fraction(-1, 2)) + x(2, 0)
    assert mixed.render() == "(-1/2)+x1"
    assert (x(1, 0) * zeta(3)).render() == "(E(3))*x1"


def _poly_strategy():
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    coeffs = st.integers(-3, 3)
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda d: SparsePolynomial(2, {e: rational(c) for e, c in d.items()})
    )


@settings(max_examples=60, deadline=None)
@given(_poly_strategy(), _poly_strategy(), _poly_strategy())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == SparsePolynomial.zero(2)


@settings(max_examples=40, deadline=None)
@given(_poly_strategy(), _poly_strategy())
def test_substitution_is_a_ring_map(f, g):
    forms = [x(2, 0) + x(2, 1), x(2, 0) - x(2, 1)]
    assert (f + g).substitute(forms) == f.substitute(forms) + g.substitute(forms)
    assert (f * g).substitute(forms) == f.substitute(forms) * g.substitute(forms)


# Coefficients from Q(zeta_12) at conductors 1, 3 and 4, so that sums
# cancel across conductors.
_COEFFS = [rational(1), rational(-1), rational(Fraction(1, 2)), zeta(3),
           zeta(3, 2), zeta(4), zeta(4, 3), -zeta(3) - zeta(3, 2)]


def _cyclotomic_poly_strategy():
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(exps, st.sampled_from(_COEFFS), max_size=4).map(
        lambda d: SparsePolynomial(2, d)
    )


def _validated(nvars, pairs):
    """The sum of (exponents, coefficient) pairs, through the validating
    constructor."""
    acc = {}
    for exps, coeff in pairs:
        acc[exps] = acc.get(exps, rational(0)) + coeff
    return SparsePolynomial(nvars, acc)


def _product_pairs(f, g):
    return [
        (tuple(a + b for a, b in zip(ea, eb)), ca * cb)
        for ea, ca in f.terms.items() for eb, cb in g.terms.items()
    ]


def _assert_well_formed(p):
    assert all(not c.is_zero for c in p.terms.values())
    assert SparsePolynomial(p.nvars, p.terms).terms == p.terms


@settings(max_examples=80, deadline=None)
@given(
    _cyclotomic_poly_strategy(),
    _cyclotomic_poly_strategy(),
    st.sampled_from(_COEFFS + [rational(0)]),
    st.lists(_cyclotomic_poly_strategy(), min_size=2, max_size=2),
)
def test_internal_arithmetic_matches_the_validating_constructor(f, g, c, forms):
    total = f + g
    assert total == _validated(2, [*f.terms.items(), *g.terms.items()])
    difference = f - g
    assert difference == _validated(
        2, [*f.terms.items(), *((e, -v) for e, v in g.terms.items())]
    )
    product = f * g
    assert product == _validated(2, _product_pairs(f, g))
    scaled = f.scale(c)
    assert scaled == _validated(2, [(e, v * c) for e, v in f.terms.items()])
    # substitution, term by term through repeated validated products
    pairs = []
    for exps, coeff in f.terms.items():
        piece = SparsePolynomial.constant(2, coeff)
        for form, a in zip(forms, exps):
            for _ in range(a):
                piece = _validated(2, _product_pairs(piece, form))
        pairs.extend(piece.terms.items())
    image = f.substitute(forms)
    assert image == _validated(2, pairs)
    for p in (total, difference, product, scaled, image):
        _assert_well_formed(p)


# --- monomial enumeration ----------------------------------------------------


def test_degree_one_monomials_start_with_x1():
    assert list(monomials_of_degree(4, 1)) == [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ]


def test_monomial_order_is_descending():
    tuples = list(monomials_of_degree(2, 3))
    assert tuples == [(3, 0), (2, 1), (1, 2), (0, 3)]
    tuples = list(monomials_of_degree(3, 2))
    assert tuples == sorted(tuples, reverse=True)
    assert len(tuples) == len(set(tuples)) == math.comb(2 + 2, 2)
    assert all(sum(t) == 2 for t in tuples)


# --- the group action --------------------------------------------------------


def test_identity_acts_trivially():
    f = x(3, 0) * x(3, 1) + x(3, 2) ** 2
    assert act(CycMatrix.identity(3), f) == f


def test_diagonal_action_twists_by_inverse_eigenvalue(ex72):
    # element 2 is diag(1, 1, z3^2, z3); functions pick up the inverse scalar
    g = ex72.matrix(2)
    assert act(g, x(4, 2)) == x(4, 2) * zeta(3)
    assert act(g, x(4, 3)) == x(4, 3) * zeta(3, 2)
    assert act(g, x(4, 0)) == x(4, 0)


def test_permutation_action_swaps_variables(s3):
    # generator 0 is the transposition (1 2) as a permutation matrix
    swap = s3.matrix(s3.generator_ids[0])
    f = x(3, 0) + x(3, 1) * 2
    assert act(swap, f) == x(3, 1) + x(3, 0) * 2


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        act(CycMatrix.identity(2), x(3, 0))


def test_action_is_a_homomorphism(q8, icosa):
    rng = random.Random(11)
    f = x(2, 0) ** 2 + x(2, 0) * x(2, 1) * zeta(4) + x(2, 1) * 3
    for grp in (q8, icosa):
        for _ in range(6):
            a = rng.randrange(len(grp))
            b = rng.randrange(len(grp))
            lhs = act(grp.matrix(a), act(grp.matrix(b), f))
            rhs = act(grp.matrix(grp.mul(a, b)), f)
            assert lhs == rhs


# --- monomial valuations -----------------------------------------------------


def test_valuation_worked_examples(ex72):
    grading = valuation_weights(ex72.matrix(2))
    assert grading.weights == (0, 0, 2, 1)
    f1 = x(4, 2)
    f2 = x(4, 2) ** 2 + x(4, 3)
    f3 = x(4, 0) + x(4, 2) * x(4, 3)
    assert monomial_valuation(grading, f1) == 2
    assert monomial_valuation(grading, f2) == 1
    assert monomial_valuation(grading, f3) == 0


def test_valuation_rejects_zero(ex72):
    grading = valuation_weights(ex72.matrix(2))
    with pytest.raises(ValueError):
        monomial_valuation(grading, SparsePolynomial.zero(4))


def test_valuation_is_multiplicative(ex72):
    grading = valuation_weights(ex72.matrix(2))
    rng = random.Random(5)
    for _ in range(20):
        f = SparsePolynomial(
            4,
            {
                tuple(rng.randrange(3) for _ in range(4)): rational(
                    rng.choice([1, 2, -1])
                )
                for _ in range(rng.randrange(1, 4))
            },
        )
        g = SparsePolynomial.monomial(
            4, tuple(rng.randrange(3) for _ in range(4)), rng.choice([1, -2])
        )
        if f.is_zero:
            continue
        assert monomial_valuation(grading, f * g) == monomial_valuation(
            grading, f
        ) + monomial_valuation(grading, g)
        total = f + g
        if not total.is_zero:
            assert monomial_valuation(grading, total) >= min(
                monomial_valuation(grading, f), monomial_valuation(grading, g)
            )


def test_valuation_in_a_conjugated_basis(ex72):
    # shear-conjugate the diagonal junior; its grading basis is no longer
    # standard and valuations must transport through the change of coordinates
    shear_rows = [
        ["1", "1", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "1"],
        ["0", "0", "0", "1"],
    ]
    k = CycMatrix.from_rows(shear_rows)
    g = ex72.matrix(2)
    conj = k @ g @ k.inverse()
    grading_g = valuation_weights(g)
    grading_c = valuation_weights(conj)
    assert not grading_c.basis_is_standard
    assert sorted(grading_c.weights) == sorted(grading_g.weights)
    rng = random.Random(7)
    for _ in range(10):
        f = SparsePolynomial(
            4,
            {
                tuple(rng.randrange(2) for _ in range(4)): rational(
                    rng.randrange(1, 3)
                )
                for _ in range(rng.randrange(1, 4))
            },
        )
        if f.is_zero:
            continue
        assert monomial_valuation(grading_c, f) == monomial_valuation(
            grading_g, act(k.inverse(), f)
        )


# --- graded degrees ----------------------------------------------------------


def test_graded_degree_examples(ex72):
    g1 = ex72.matrix(2)
    assert graded_degree(g1, x(4, 2), order=3) == 2
    assert graded_degree(g1, x(4, 2), order=None) == 2
    assert graded_degree(g1, x(4, 0)) == 0
    assert graded_degree(g1, x(4, 2) * x(4, 3)) == 0
    assert graded_degree(g1, x(4, 0) + x(4, 2)) is None
    g = ex72.matrix(1)
    assert graded_degree(g, x(4, 2), order=6) == 5
    assert graded_degree(g, SparsePolynomial.zero(4)) is None


def test_graded_degree_reads_the_order_off_the_closure(monkeypatch):
    # with no stated order, the order of g is that of its closure <g>: no
    # eigen pass runs, and the residue is the one at the stated order
    passes = []
    real = mckay._eigen_pass

    def counted(G):
        passes.append(G)
        return real(G)

    monkeypatch.setattr(mckay, "_eigen_pass", counted)
    monkeypatch.setattr(invariants, "_eigen_pass", counted)
    g = CycMatrix.from_rows([["E(401)", "0"], ["0", "E(401)^400"]])
    for f in (x(2, 0) * x(2, 1), x(2, 0), x(2, 1) ** 3):
        assert graded_degree(g, f) == graded_degree(g, f, order=401)
    assert graded_degree(g, x(2, 0)) == 1
    assert passes == []
    # a shear fixes x2 but has no finite order
    shear = CycMatrix.from_rows([["1", "1"], ["0", "1"]])
    with pytest.raises(ValueError, match="no finite order"):
        graded_degree(shear, x(2, 1))


def test_graded_degree_twisted(ex72):
    g1 = ex72.matrix(2)
    assert graded_degree(g1, x(4, 2), order=3, twist=GaloisTwist(2)) == 1
    grading = valuation_weights(g1, GaloisTwist(2))
    assert grading.weights == (0, 0, 1, 2)
    assert monomial_valuation(grading, x(4, 2)) == 1


def test_graded_degree_respects_products(q8):
    f = x(2, 0) * x(2, 1)
    g = x(2, 0) ** 2 + x(2, 1) ** 2
    for gid in q8.generator_ids:
        m = q8.matrix(gid)
        r = q8.element_orders[gid]
        cf = graded_degree(m, f, order=r)
        cg = graded_degree(m, g, order=r)
        cfg = graded_degree(m, f * g, order=r)
        assert cf is not None and cg is not None
        assert cfg == (cf + cg) % r


# --- characters of the abelianization ----------------------------------------


def test_character_count_and_order(ex72, q8):
    chars = ab_characters(ex72)
    assert len(chars) == 6
    assert chars[0].is_trivial()
    assert sorted(c.order() for c in chars) == [1, 2, 3, 3, 6, 6]
    chars = ab_characters(q8)
    assert len(chars) == 4
    assert sorted(c.order() for c in chars) == [1, 2, 2, 2]


def test_characters_are_homomorphisms(ex72):
    dec = abelian_decomposition(abelianization(ex72))
    ab = dec.group
    for chi in characters_of(dec):
        for a in ab.carrier_labels():
            for b in ab.carrier_labels():
                lhs = chi.value_on_coset(ab.mul(a, b))
                rhs = chi.value_on_coset(a) * chi.value_on_coset(b)
                assert lhs == rhs


def test_character_sum_orthogonality(ex72, q8):
    for grp in (ex72, q8):
        dec = abelian_decomposition(abelianization(grp))
        ab = dec.group
        for chi in characters_of(dec):
            total = rational(0)
            for a in ab.carrier_labels():
                total = total + chi.value_on_coset(a)
            if chi.is_trivial():
                assert total == rational(len(ab))
            else:
                assert total.is_zero


def test_characters_pairwise_distinct(q8):
    dec = abelian_decomposition(abelianization(q8))
    ab = dec.group
    tables = [
        tuple(chi.value_on_coset(a) for a in ab.carrier_labels())
        for chi in characters_of(dec)
    ]
    assert len(set(tables)) == len(tables)


def test_character_exponents_normalized(ex72):
    dec = abelian_decomposition(abelianization(ex72))
    assert CharacterOfAb(dec, (7,)) == CharacterOfAb(dec, (1,))
    assert CharacterOfAb(decomposition=dec, exponents=(-5,)).exponents == (1,)
    with pytest.raises(ValueError):
        CharacterOfAb(dec, (1, 1))
    with pytest.raises(ValueError):
        CharacterOfAb(decomposition=dec, exponents=())


# --- relative invariants -----------------------------------------------------


def test_trivial_group_returns_first_variable():
    grp = close_group([CycMatrix.identity(3)])
    (chi,) = ab_characters(grp)
    f = relative_invariant(grp, chi)
    assert f == x(3, 0)


def test_lowest_invariant_of_ex72_is_x1_squared(ex72):
    chars = ab_characters(ex72)
    f = relative_invariant(ex72, chars[0])
    assert set(f.terms) == {(2, 0, 0, 0)}
    assert f.coefficient((2, 0, 0, 0)) == rational(6)


def test_every_character_of_ex72_realized_below_degree_three(ex72):
    for chi in ab_characters(ex72):
        f = relative_invariant(ex72, chi)
        assert f is not None
        assert f.total_degree() <= 2
        for gid in ex72.generator_ids:
            r = ex72.element_orders[gid]
            c = graded_degree(ex72.matrix(gid), f, order=r)
            assert c is not None
            assert chi.value_on_element(ex72, gid) == zeta(r, (r - c) % r)


def test_q8_semi_invariants(q8):
    found = {}
    for chi in ab_characters(q8):
        f = relative_invariant(q8, chi)
        assert f is not None
        assert f.total_degree() <= 4
        for gid in q8.generator_ids:
            expected = f.scale(chi.value_on_element(q8, gid))
            assert act(q8.matrix(gid), f) == expected
        found[chi.exponents] = f
    degrees = sorted(f.total_degree() for f in found.values())
    assert degrees == [2, 2, 2, 4]


def test_degree_bound_exhaustion_returns_none(q8):
    chars = ab_characters(q8)
    trivial = next(c for c in chars if c.is_trivial())
    assert relative_invariant(q8, trivial, degree_bound=3) is None
    f = relative_invariant(q8, trivial)
    assert f is not None and f.total_degree() == 4


def test_block_icosahedral_finds_the_determinant_form(icosa_diag):
    (chi,) = ab_characters(icosa_diag)
    f = relative_invariant(icosa_diag, chi)
    assert set(f.terms) == {(1, 0, 0, 1), (0, 1, 1, 0)}
    c = f.coefficient((1, 0, 0, 1))
    assert f.coefficient((0, 1, 1, 0)) == -c


def test_cyclic_characters_all_realized():
    grp = cyclic_sl2(5)
    for chi in ab_characters(grp):
        f = relative_invariant(grp, chi)
        assert f is not None
        assert f.total_degree() <= 3
        for gid in grp.generator_ids:
            r = grp.element_orders[gid]
            c = graded_degree(grp.matrix(gid), f, order=r)
            assert chi.value_on_element(grp, gid) == zeta(r, (r - c) % r)


def test_character_from_wrong_group_rejected(ex72, q8):
    chi = ab_characters(ex72)[0]
    with pytest.raises(ValueError):
        relative_invariant(q8, chi)


def test_degree_bound_validation(ex72):
    chi = ab_characters(ex72)[0]
    with pytest.raises(ValueError):
        relative_invariant(ex72, chi, degree_bound=0)


def _span_dimension(polys):
    """Dimension of the span, by elimination on leading monomials."""
    pivots = {}
    for p in polys:
        while not p.is_zero:
            lead = max(p.terms)
            if lead not in pivots:
                pivots[lead] = p.scale(p.terms[lead].inverse())
                break
            p = p - pivots[lead].scale(p.terms[lead])
    return len(pivots)


def _diag_553():
    # diag(z5, z5, z5^3): chi and conj(chi) start in different degrees
    return close_group([CycMatrix.from_rows(
        [["E(5)", "0", "0"], ["0", "E(5)", "0"], ["0", "0", "E(5)^3"]]
    )])


def test_molien_dimensions_match_averaged_ranks(q8, ex72, c7, scalar3):
    d553 = _diag_553()
    for grp in (q8, ex72, c7, scalar3, d553):
        for chi in ab_characters(grp):
            dims = list(itertools.islice(_molien_coefficients(grp, chi), 7))
            ranks = [_span_dimension(chi_averages(grp, chi, d)) for d in range(7)]
            assert dims == ranks, (grp, chi.exponents)
    first = {
        chi.exponents: relative_invariant(d553, chi).total_degree()
        for chi in ab_characters(d553)
    }
    assert first[(1,)] != first[(4,)]


def test_molien_start_matches_exhaustive_scan(
    ex72, q8, icosa, icosa_diag, c7, c15, scalar3
):
    groups = [
        close_group([CycMatrix.identity(2)]),
        ex72, q8, icosa_diag, c7, c15, scalar3, cyclic_sl2(6), icosa,
    ]
    for grp in groups:
        for chi in ab_characters(grp):
            expected = exhaustive_relative_invariant(grp, chi, len(grp))
            assert relative_invariant(grp, chi) == expected, (grp, chi.exponents)


def _count_substitutions(monkeypatch):
    """Record every polynomial substituted; the averaging, every action by
    a group element and `substitute` all go through `_substitute`."""
    calls = []
    substitute = SparsePolynomial._substitute

    def counted(self, powers):
        calls.append(self)
        return substitute(self, powers)

    monkeypatch.setattr(SparsePolynomial, "_substitute", counted)
    return calls


def test_no_molien_degree_below_bound_averages_nothing(monkeypatch):
    # a group of its own, so that no image is already kept in it
    q8 = close_group([CycMatrix.from_rows(r) for r in Q8_ROWS])
    calls = _count_substitutions(monkeypatch)
    trivial = ab_characters(q8)[0]
    assert trivial.is_trivial()
    assert relative_invariant(q8, trivial, degree_bound=3) is None
    assert calls == []
    # the control: with bound 4 the same hook sees the degree-4 averaging
    assert relative_invariant(q8, trivial, degree_bound=4) is not None
    assert SparsePolynomial.monomial(2, (4, 0)) in calls


def test_check_job_acts_once_per_element_and_polynomial(monkeypatch):
    # A check job on 2T: its three characters are averaged and each gets
    # the two lemma checks, yet no element acts on a polynomial twice and
    # no element's powers of its linear forms are built twice.  The
    # averaging acts on monomials with the 8 elements of [G, G] = Q8 only,
    # and on their sums with one representative of each other coset.
    groups = []
    build = cli._build_group

    def captured(job):
        groups.append(build(job))
        return groups[-1]

    monkeypatch.setattr(cli, "_build_group", captured)
    built = []

    class CountedPowers(invariants._Powers):
        __slots__ = ()

        def __init__(self, forms):
            super().__init__(forms)
            built.append(self)

    monkeypatch.setattr(invariants, "_Powers", CountedPowers)
    images = collections.Counter()
    substitute = SparsePolynomial._substitute

    def counted(self, powers):
        images[(id(powers), self)] += 1
        return substitute(self, powers)

    monkeypatch.setattr(SparsePolynomial, "_substitute", counted)
    text = json.dumps({"dimension": 2, "generators": TETRA_ROWS})
    report, status = cli.run(cli.parse_job(text, mode="check"))
    assert status == 0
    assert len(report["check"]["checks"]) == 10 + 3 * 3
    (G,) = groups
    assert len(G) == 24
    # `built` keeps every powers object alive, so ids are not reused
    by_forms = collections.Counter(p.forms for p in built)
    element_powers = {}
    for x in G.carrier_labels():
        forms = tuple(invariants._linear_forms(G.matrix(G.inv(x))))
        assert by_forms[forms] <= 1, f"powers of element {x} built twice"
        element_powers.update(
            (id(p), x) for p in built if p.forms == forms
        )
    acted = [key for key in images if key[0] in element_powers]
    ab = G.abelianization()
    assert len(ab.normal) == 8
    on_monomials = {element_powers[p] for p, f in acted if len(f.terms) == 1}
    assert on_monomials == set(ab.normal.members)
    coset_sums = invariants._coset_sums.__wrapped__
    over_derived = {
        sums[0] for (fn, _), sums in G._memo.items() if fn is coset_sums
    }
    on_sums = {element_powers[p] for p, f in acted if f in over_derived}
    assert on_sums == set(ab.coset_reps[1:])
    repeated = [key for key, n in images.items() if n > 1]
    assert repeated == []


ORACLE_GROUPS = {
    "Q8": Q8_ROWS,
    "2T": TETRA_ROWS,
    "2TxC3": TETRA_C3_ROWS,
    "2TxC3_dense": dense_conjugate(TETRA_C3_ROWS, 1),
}


def _oracle_polynomials(G, name):
    """The relative invariants of G, only those of degree at most 2 on the
    dense presentation, and the product of the last two: a semi-invariant
    the search does not return."""
    found = [relative_invariant(G, chi) for chi in ab_characters(G)]
    found = [f for f in found if f.total_degree() <= 2 or "dense" not in name]
    product = found[-1] * found[-2]
    assert product not in found
    return found + [product]


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_junior_valuation_shares_basis_powers(name):
    # The checks move every relative invariant into a junior eigenbasis
    # through one set of powers per basis, and junior representatives in
    # one walk share that basis; each valuation must still be the one
    # read in the representative's own eigenbasis, and two groups built
    # from one document must keep their own powers.
    rows = ORACLE_GROUPS[name]
    text = json.dumps({"dimension": len(rows[0]), "generators": rows})
    groups = [cli._build_group(cli.parse_job(text, mode="check")) for _ in (0, 1)]
    shared = invariants._basis_powers.__wrapped__
    kept = []
    for G in groups:
        found = _oracle_polynomials(G, name)
        bases = set()
        for t in (1, G.exponent - 1):
            for x, grading in junior_gradings(G, GaloisTwist(t)):
                own = valuation_weights(G.matrix(x), GaloisTwist(t))
                if not grading.basis_is_standard:
                    bases.add(id(grading.basis))
                for f in found:
                    assert invariants._junior_valuation(
                        G, grading, f
                    ) == monomial_valuation(own, f), (x, t, f)
        powers = {
            id(args[0]): id(v) for (fn, args), v in G._memo.items() if fn is shared
        }
        assert set(powers) == bases
        kept.append(set(powers.values()))
    assert kept[0] and kept[1]
    assert not kept[0] & kept[1]


def test_junior_representatives_in_one_walk_share_a_basis():
    # Each junior class reads its grading at a diagonal member when it has
    # one, else at the first member met on the walks read longest first.
    # Dense 2T x C3: its 8 junior classes, none with a diagonal member,
    # meet 2 walks, so the checks substitute each relative invariant into
    # 2 eigenbases, not 8.  2T: the diagonal classes of -1 and of the
    # elements of order 4 take the standard basis, and the other 4 meet
    # one walk of an element of order 6, so 1 eigenbasis.
    jobs = Path(__file__).parent / "data" / "jobs"
    for name, classes, standard, bases in (
        ("2t_c3_dense", 8, 0, 2),
        ("2t", 6, 2, 1),
    ):
        source = (jobs / f"{name}.json").read_text(encoding="utf-8")
        G = cli._build_group(cli.parse_job(source, mode="check"))
        gradings = junior_gradings(G, GaloisTwist(1))
        assert len(gradings) == classes, name
        assert sum(g.basis_is_standard for _, g in gradings) == standard, name
        shared = {id(g.basis) for _, g in gradings if not g.basis_is_standard}
        assert len(shared) == bases, name
        twisted = junior_gradings(G, GaloisTwist(G.exponent - 1))
        assert {
            id(g.basis) for _, g in twisted if not g.basis_is_standard
        } == shared, name


def _eigen_member(G, cls, grading, twist):
    """The first member of the class `cls` of which every column of the
    grading's basis is an exact eigenvector with the eigenvalue its weight
    grades, zeta_r^(t w) for the weight w of the column, or None."""
    r, basis = grading.order, grading.basis
    columns = [
        [basis.rows[i][j] for i in range(basis.dim)] for j in range(basis.dim)
    ]
    for y in cls:
        g = G.matrix(y)
        if all(
            all(
                sum((g.rows[i][k] * v[k] for k in range(g.dim)), rational(0))
                == zeta(r, twist.t * w % r) * v[i]
                for i in range(g.dim)
            )
            for v, w in zip(columns, grading.weights)
        ):
            return y
    return None


GRADED_MEMBER_GROUPS = {**ORACLE_GROUPS, "2I": ICOSA_ROWS}


@pytest.mark.parametrize("name", sorted(GRADED_MEMBER_GROUPS))
def test_junior_grading_is_that_of_a_member_of_the_class(name):
    # The grading of each junior class is read at one member of the class,
    # not always at its representative: every basis column is an exact
    # eigenvector of that member with the eigenvalue its weight grades,
    # the basis is standard exactly when that member is diagonal, which
    # is whenever the class has a diagonal member, and the congruence
    # records are those of the representative's own eigenbasis, under the
    # identity twist and under t = E - 1.
    rows = GRADED_MEMBER_GROUPS[name]
    G = close_group([CycMatrix.from_rows(r) for r in rows])
    if name == "2I":
        (f,) = [relative_invariant(G, chi) for chi in ab_characters(G)]
        found = [f, f * f]
    else:
        found = _oracle_polynomials(G, name)
    classes = {cls[0]: cls for cls in G.conjugacy_classes()}
    for t in (1, G.exponent - 1):
        twist = GaloisTwist(t)
        gradings = junior_gradings(G, twist)
        for x, grading in gradings:
            cls = classes[x]
            y = _eigen_member(G, cls, grading, twist)
            assert y is not None, (name, t, x)
            diagonal = G.matrix(y).is_diagonal()
            assert grading.basis_is_standard == diagonal, (name, t, x, y)
            assert diagonal == any(G.matrix(z).is_diagonal() for z in cls)
        oracle = [(x, valuation_weights(G.matrix(x), twist)) for x, _ in gradings]
        for f in found:
            assert check_congruence_lemma(
                G, gradings, f, twist
            ) == check_congruence_lemma(G, oracle, f, twist), (name, t, f)


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_tree_residues_match_exact_images(name):
    # The residue the checks read along the Schreier tree, for every
    # element and not only the junior ones, is the graded degree of the
    # exact image, under the identity twist and under t = E - 1; f ranges
    # over the relative invariants of low degree and a product of two of
    # them, which the search does not return, so the residues come from
    # f's generator images, not from a character.
    rows = ORACLE_GROUPS[name]
    G = close_group([CycMatrix.from_rows(r) for r in rows])
    for f in _oracle_polynomials(G, name):
        for t in (1, G.exponent - 1):
            twist = GaloisTwist(t)
            exponents = invariants._tree_exponents(G, f)
            for y in G.carrier_labels():
                exact = graded_degree(G.matrix(y), f, G.element_orders[y], twist)
                assert exact is not None
                assert invariants._tree_residue(G, exponents, y, twist) == exact


def test_tree_residue_refuses_a_root_of_the_wrong_order(q8):
    # a generator residue that puts an eigenvalue of order 4 on an element
    # of order 2 is an arithmetic failure, raised, not asserted
    f = x(2, 0) * x(2, 1)
    exponents = list(invariants._tree_exponents(q8, f))
    minus_one = next(y for y in q8.carrier_labels() if q8.element_orders[y] == 2)
    exponents[minus_one] = q8.exponent // 4
    with pytest.raises(ArithmeticError, match="eigenvalue of order 4"):
        invariants._tree_residue(q8, exponents, minus_one, GaloisTwist(1))


# Ab = C2 x C6: diag(-1, -1, 1) and diag(z6, 1, z6^5)
C2_C6_ROWS = [
    [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
    [["E(6)", "0", "0"], ["0", "1", "0"], ["0", "0", "E(6)^5"]],
]


@pytest.mark.parametrize(
    "rows",
    [Q8_ROWS, TETRA_C3_ROWS, C2_C6_ROWS],
    ids=["Q8", "2TxC3", "C2xC6"],
)
def test_value_on_coset_matches_zeta_product(rows):
    # one root of unity zeta_n^k, n the lcm of the factors whose term is
    # not 1: the value and the conductor of the product of the terms
    G = close_group([CycMatrix.from_rows(r) for r in rows])
    dec = G.abelian_decomposition()
    if rows is C2_C6_ROWS:
        assert dec.structure.invariant_factors == (2, 6)
    for chi in characters_of(dec):
        for coset in dec.group.carrier_labels():
            assert value_key(chi.value_on_coset(coset)) == value_key(
                character_value_by_product(chi, coset)
            )


# Q8 x C4 in SL4: Q8 on x1, x2 and diag(1, 1, i, -i); Ab = C2 x C2 x C4
Q8_C4_ROWS = [in_corner(r, 4) for r in Q8_ROWS] + [
    [["1", "0", "0", "0"], ["0", "1", "0", "0"],
     ["0", "0", "E(4)", "0"], ["0", "0", "0", "-E(4)"]]
]


def test_dense_2i_c12_job_is_the_conjugated_monomial_job():
    # CI runs `analyze` on both job files and compares their answers
    jobs = Path(__file__).parent / "data" / "jobs"
    mono = json.loads((jobs / "2i_c12.json").read_text(encoding="utf-8"))
    dense = json.loads((jobs / "2i_c12_dense.json").read_text(encoding="utf-8"))
    assert dense == {
        "dimension": mono["dimension"],
        "generators": dense_conjugate(mono["generators"], 1),
    }


def test_dense_2t_c3_job_is_the_conjugated_job():
    # CI runs `check` on this job: dense forms of four terms each, so every
    # power and substitution meets several pairs on each monomial
    jobs = Path(__file__).parent / "data" / "jobs"
    dense = json.loads((jobs / "2t_c3_dense.json").read_text(encoding="utf-8"))
    assert dense == {
        "dimension": 4,
        "generators": dense_conjugate(TETRA_C3_ROWS, 1),
    }


COSET_GROUPS = {
    "Q8": Q8_ROWS,
    "2T": TETRA_ROWS,
    "2TxC3": TETRA_C3_ROWS,
    "C2xC6": C2_C6_ROWS,
    "Q8xC4": Q8_C4_ROWS,
    # the sums over [G, G] = C3 of some cubics have more than 3 terms
    "S3_dense": dense_conjugate(S3_ROWS, 1),
}


@functools.lru_cache(maxsize=None)
def _coset_group(name):
    return close_group([CycMatrix.from_rows(r) for r in COSET_GROUPS[name]])


def _molien_degree(G, chi):
    dims = itertools.islice(_molien_coefficients(G, chi), 1, None)
    return next(d for d, dim in enumerate(dims, 1) if dim)


@pytest.mark.parametrize("name", sorted(COSET_GROUPS))
def test_coset_averages_match_the_per_element_loop(name):
    # Every character averages a monomial from one sum per coset of
    # [G, G]; each average must render as the element-by-element sum does,
    # which pins each coefficient's E(n) conductor as well as its value.
    G = _coset_group(name)
    for chi in characters_of(G.abelian_decomposition()):
        degree = _molien_degree(G, chi)
        got = [f.render() for f in invariants._averages(G, chi, degree)]
        want = [f.render() for f in per_element_averages(G, chi, degree)]
        assert got == want, (name, chi.exponents, degree)
        assert any(f != "0" for f in got)


def test_coset_groups_reach_both_sides_of_the_term_count_rule():
    # A coset sum is one image of the sum S over [G, G] when S has at most
    # |[G, G]| terms, and is summed element by element otherwise; the
    # comparison above must see both routes.
    one_image = set()
    for name in COSET_GROUPS:
        G = _coset_group(name)
        derived = G.abelianization().normal
        for chi in characters_of(G.abelian_decomposition()):
            for exps in monomials_of_degree(G.dim, _molien_degree(G, chi)):
                over_derived = invariants._coset_sums(G, exps)[0]
                one_image.add(len(over_derived.terms) <= len(derived))
    assert one_image == {True, False}


# --- sums of products through one kernel -------------------------------------
# Products, powers, substitutions and averages sum each output coefficient
# in one `_dot`; the loops of tests/helpers.py add one product at a time.
# A coefficient that reaches a report must also keep the conductor the loop
# leaves it at, so where that conductor is pinned the rendered text is
# compared: for products, for powers of linear forms, for substitutions of
# linear forms and for averages.  Small numerators over a few conductors
# make sums cancel part-way.

FUSED_CONDUCTORS = (1, 3, 4, 12)


@st.composite
def fused_coefficients(draw):
    n = draw(st.sampled_from(FUSED_CONDUCTORS))
    if draw(st.booleans()):
        return zeta(n, draw(st.integers(0, n - 1)))
    parts = draw(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(0, n - 1)),
            min_size=1,
            max_size=3,
        )
    )
    den = draw(st.sampled_from((1, 2, 3)))
    return sum((k * zeta(n, j) for k, j in parts), rational(0)) / den


def fused_polynomials(nvars, max_exponent=2, max_terms=4):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exponent)] * nvars),
        fused_coefficients(),
        max_size=max_terms,
    ).map(lambda terms: SparsePolynomial(nvars, terms))


def fused_linear_forms(nvars):
    units = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]
    return st.dictionaries(
        st.sampled_from(units), fused_coefficients(), max_size=nvars
    ).map(lambda terms: SparsePolynomial(nvars, terms))


def _is_linear(form):
    return all(sum(e) == 1 for e in form.terms)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(fused_polynomials(n), fused_polynomials(n))
))
def test_products_match_the_pair_loop(operands):
    f, g = operands
    product = f * g
    assert product == pairwise_product(f, g)
    assert product.render() == pairwise_product(f, g).render()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.one_of(
            fused_linear_forms(n),
            fused_polynomials(n, max_exponent=2, max_terms=3),
        )
    ),
    st.integers(1, 5),
)
@example(form=SparsePolynomial.zero(2), a=4)
def test_powers_match_repeated_products(form, a):
    # the multinomial expansion against form^(a-1) * form; forms that are
    # not linear have terms that meet, and the zero form has zero powers
    powers = invariants._Powers([form])
    got = powers.power(0, a)
    assert got == repeated_power(form, a)
    if _is_linear(form):
        assert got.render() == repeated_power(form, a).render()
    assert powers.power(0, a) is got


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        fused_polynomials(n, max_exponent=3, max_terms=4),
        st.lists(
            st.one_of(
                fused_linear_forms(n),
                st.just(SparsePolynomial.zero(n)),
                fused_polynomials(n, max_exponent=2, max_terms=3),
            ),
            min_size=n,
            max_size=n,
        ),
    )
))
# x1 and x2 both go to x1 + x2, so the three terms meet on every monomial,
# in ascending exponent order: E(4) - E(4) is zero, and each sum starts
# afresh at E(3), at conductor 3
@example(case=(
    SparsePolynomial(2, {(0, 2): zeta(4), (1, 1): -zeta(4), (2, 0): zeta(3)}),
    [x(2, 0) + x(2, 1)] * 2,
))
@example(case=(
    x(2, 0) ** 3 * x(2, 1) + x(2, 1) ** 2 + SparsePolynomial.constant(2, 5),
    [SparsePolynomial.zero(2), x(2, 0) - x(2, 1)],
))
def test_substitution_matches_the_term_loop(case):
    f, forms = case
    got = f.substitute(forms)
    assert got == termwise_substitute(f, forms)
    if all(_is_linear(form) for form in forms):
        assert got.render() == termwise_substitute(f, forms).render()


# products drawn from a few values, so that a running sum often cancels
FUSED_POOL = (zeta(4), -zeta(4), zeta(3), -zeta(3), zeta(12), rational(-1))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["2TxC3", "C2xC6", "Q8xC4"]).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.integers(0, 10**6),
            st.lists(
                st.one_of(
                    st.just({}),
                    st.dictionaries(
                        st.sampled_from([(1, 0), (0, 1)]),
                        st.sampled_from(FUSED_POOL),
                        min_size=1,
                        max_size=2,
                    ),
                ),
                min_size=len(_coset_group(name).abelianization()),
                max_size=len(_coset_group(name).abelianization()),
            ),
        )
    )
)
def test_averages_of_drawn_coset_sums_match_scale_and_add(case):
    # coset sums whose products with the character values are drawn from a
    # few values at conductors 1, 3, 4 and 12: keys cancel part-way, and the
    # text must show the conductor the loop leaves each one at
    name, pick, products = case
    G = _coset_group(name)
    characters = characters_of(G.abelian_decomposition())
    chi = characters[pick % len(characters)]
    conj = [
        chi.value_on_element(G, G.inv(r)) for r in G.abelianization().coset_reps
    ]
    pad = (0,) * (G.dim - 2)
    sums = tuple(
        SparsePolynomial(G.dim, {e + pad: c / v for e, c in terms.items()})
        for terms, v in zip(products, conj)
    )

    def drawn(grp, exps):
        return sums

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariants, "_coset_sums", drawn)
        got = [f.render() for f in invariants._averages(G, chi, 1)]
    want = [
        f.render() for f in scale_and_add_averages(G, chi, 1, drawn)
    ]
    assert got == want


def test_average_that_cancels_part_way_keeps_the_smaller_conductor(monkeypatch):
    # On one key the first two cosets add E(4) and -E(4), the second at
    # conductor 12, and the third adds E(3) at conductor 3.  Summed in
    # order the sum is zero after two cosets and starts afresh, so the
    # coefficient is E(3) at conductor 3, not -1+E(12)^2 at conductor 12.
    G = _coset_group("2TxC3")
    chi = characters_of(G.abelian_decomposition())[4]
    conj = [
        chi.value_on_element(G, G.inv(r)) for r in G.abelianization().coset_reps
    ]
    assert conj[1].conductor == 3 and {v.conductor for v in conj} <= {1, 3}
    targets = [zeta(4), -zeta(4), zeta(3)] + [None] * (len(conj) - 3)
    sums = tuple(
        SparsePolynomial.zero(4) if t is None
        else SparsePolynomial.monomial(4, (1, 0, 0, 0), t / v)
        for t, v in zip(targets, conj)
    )

    def drawn(grp, exps):
        return sums

    monkeypatch.setattr(invariants, "_coset_sums", drawn)
    first = next(invariants._averages(G, chi, 1))
    assert first.render() == "(E(3))*x1"
    assert first.terms[(1, 0, 0, 0)].conductor == 3
    want = next(scale_and_add_averages(G, chi, 1, drawn))
    assert first.render() == want.render()


def _count_images(monkeypatch):
    """A Counter of the exact images of each polynomial that reach
    `invariants._eigenvalue`, which every image taken for a residue does."""
    images = collections.Counter()
    eigenvalue = invariants._eigenvalue

    def counted(gf, f):
        images[f] += 1
        return eigenvalue(gf, f)

    monkeypatch.setattr(invariants, "_eigenvalue", counted)
    return images


def test_check_reads_each_generator_residue_once_per_invariant(monkeypatch):
    # The congruence and membership checks read every residue along the
    # Schreier tree from the generators' eigenvalues, one table per
    # invariant, so a check on 2T takes one image per generator of each
    # relative invariant and none per junior grading.  Two generators
    # with one id take that id's image once.
    groups = []
    build = cli._build_group

    def captured(job):
        groups.append(build(job))
        return groups[-1]

    monkeypatch.setattr(cli, "_build_group", captured)
    images = _count_images(monkeypatch)
    for rows in (TETRA_ROWS, TETRA_ROWS + TETRA_ROWS[:1]):
        images.clear()
        text = json.dumps({"dimension": 2, "generators": rows})
        report, status = cli.run(cli.parse_job(text, mode="check"))
        assert status == 0
        G = groups[-1]
        gradings = junior_gradings(G, GaloisTwist(1))
        found = [
            relative_invariant(G, chi)
            for chi in characters_of(G.abelian_decomposition())
        ]
        assert len(found) == 3
        assert len(gradings) == 6
        assert len(set(G.generator_ids)) == 3
        assert images == {f: 3 for f in found}
    assert len(G.generator_ids) == 4


def test_congruence_lemma_shares_one_table_across_twists(monkeypatch):
    # Twists 1 and 5 read one twist-free table per invariant; each
    # record's residue is the graded degree of its representative's exact
    # image under that twist, the order read off the matrix alone.
    G = close_group([CycMatrix.from_rows(r) for r in TETRA_ROWS])
    found = [
        relative_invariant(G, chi)
        for chi in characters_of(G.abelian_decomposition())
    ]
    images = _count_images(monkeypatch)
    tables = invariants._tree_exponents.__wrapped__
    for t in (1, 5):
        twist = GaloisTwist(t)
        gradings = junior_gradings(G, twist)
        for f in found:
            records = check_congruence_lemma(G, gradings, f, twist)
            assert [rec.element_id for rec in records] == [x for x, _ in gradings]
            for rec in records:
                exact = graded_degree(G.matrix(rec.element_id), f, twist=twist)
                assert rec.graded_residue == exact, (t, rec)
    # the tables were built by the search, and the graded degrees took one
    # image per representative, twist and invariant
    assert len([key for key in G._memo if key[0] is tables]) == len(found)
    assert images == {f: 2 * len(gradings) for f in found}


def test_graded_failure_is_raised_on_every_call(q8):
    # nothing is kept for a polynomial that is not semi-invariant
    f = x(2, 0) + x(2, 1) ** 2
    for _ in range(2):
        with pytest.raises(ValueError, match="not semi-invariant"):
            invariants._tree_exponents(q8, f)
    assert (invariants._tree_exponents.__wrapped__, (f,)) not in q8._memo


@pytest.mark.parametrize("name", ["2TxC3", "Q8xC4", "C2xC6"])
def test_character_on_another_abelianization(name):
    # a character built on a second Ab(G) object of the same group is read
    # through its own cosets and finds the same invariants
    G = close_group([CycMatrix.from_rows(r) for r in COSET_GROUPS[name]])
    other = abelian_decomposition(abelianization(G))
    assert other.group is not G.abelianization()
    own = characters_of(G.abelian_decomposition())
    for chi, twin in zip(own, characters_of(other), strict=True):
        assert chi.exponents == twin.exponents
        f, g = relative_invariant(G, chi), relative_invariant(G, twin)
        assert f.render() == g.render()


def test_check_job_keeps_no_image_of_a_monomial(monkeypatch):
    # The averaging keeps coset sums, not images, and the residues keep
    # one table of ints per relative invariant: after a check job no
    # per-group value is a polynomial, and the tables are keyed by the
    # relative invariants alone.
    groups = []
    build = cli._build_group

    def captured(job):
        groups.append(build(job))
        return groups[-1]

    monkeypatch.setattr(cli, "_build_group", captured)
    text = json.dumps({"dimension": 4, "generators": TETRA_C3_ROWS})
    report, status = cli.run(cli.parse_job(text, mode="check"))
    assert status == 0
    (G,) = groups
    assert not any(isinstance(v, SparsePolynomial) for v in G._memo.values())
    tables = invariants._tree_exponents.__wrapped__
    kept = {args[0]: v for (fn, args), v in G._memo.items() if fn is tables}
    found = {
        relative_invariant(G, chi)
        for chi in characters_of(G.abelian_decomposition())
    }
    assert set(kept) == found
    assert all(
        type(v) is tuple and len(v) == len(G) and all(type(k) is int for k in v)
        for v in kept.values()
    )


def test_both_check_routes_still_bite(monkeypatch, ex72):
    # A valuation off by one fails the congruence record of every
    # character with its message, and the job exits 1; a divisibility
    # route that disagrees with the tree's invariance route is raised.
    valuation = invariants._junior_valuation
    monkeypatch.setattr(
        invariants, "_junior_valuation", lambda *args: valuation(*args) + 1
    )
    text = json.dumps({"dimension": 2, "generators": TETRA_ROWS})
    report, status = cli.run(cli.parse_job(text, mode="check"))
    assert status == cli.EXIT_CHECK_FAILED == 1
    congruence = [
        c for c in report["check"]["checks"]
        if c["name"].startswith("valuation_congruence[")
    ]
    assert len(congruence) == 3
    for c in congruence:
        assert not c["passed"]
        assert re.fullmatch(
            r"element \d+: valuation \d+ != residue \d+ mod \d+", c["detail"]
        ), c["detail"]
    monkeypatch.setattr(
        invariants, "_junior_valuation", lambda G, grading, f: grading.order
    )
    H = subgroup_generated(ex72, junior_elements(ex72))
    with pytest.raises(ConsistencyError, match="divisibility says True"):
        check_junior_ring_membership(ex72, H, junior_gradings(ex72), x(4, 2))


def test_molien_promise_too_low_is_refused(q8, monkeypatch):
    trivial = ab_characters(q8)[0]
    # the first trivial-character invariant of Q8 has degree 4
    monkeypatch.setattr(
        invariants,
        "_molien_coefficients",
        lambda G, chi: itertools.chain([1, 1], itertools.repeat(0)),
    )
    with pytest.raises(ConsistencyError, match="promises"):
        relative_invariant(q8, trivial)


@pytest.mark.parametrize("order, fake", [(2, (0, 1)), (4, (1, 1))])
def test_non_integral_molien_coefficient_is_refused(q8, monkeypatch, order, fake):
    # eigenvalues 1 and -1 on -I leave 2/8 in degree 1; a double eigenvalue
    # E(4) on the elements of order 4 leaves an irrational class sum
    true_exponents, flags = invariants._eigen_pass(q8)
    exponents = [
        fake if q8.element_orders[x] == order else e
        for x, e in enumerate(true_exponents)
    ]
    monkeypatch.setattr(invariants, "_eigen_pass", lambda G: (exponents, flags))
    trivial = ab_characters(q8)[0]
    with pytest.raises(ConsistencyError, match="Molien coefficient"):
        relative_invariant(q8, trivial)


# --- congruence of valuations with graded degrees ----------------------------


def test_congruence_hand_example(ex72):
    gradings = junior_gradings(ex72)
    records = check_congruence_lemma(ex72, gradings, x(4, 2))
    by_id = {rec.element_id: rec for rec in records}
    assert set(by_id) == {2, 4}
    assert by_id[2].valuation == 2 and by_id[2].graded_residue == 2
    assert by_id[4].valuation == 1 and by_id[4].graded_residue == 1
    assert by_id[2].order == by_id[4].order == 3


def test_congruence_for_generated_invariants(ex72, q8):
    for grp in (ex72, q8):
        gradings = junior_gradings(grp)
        for chi in ab_characters(grp):
            f = relative_invariant(grp, chi)
            check_congruence_lemma(grp, gradings, f)


def test_congruence_for_random_products(q8):
    gradings = junior_gradings(q8)
    pieces = [relative_invariant(q8, chi) for chi in ab_characters(q8)]
    rng = random.Random(3)
    for _ in range(10):
        f = SparsePolynomial.constant(2, 1)
        for _ in range(rng.randrange(1, 4)):
            f = f * rng.choice(pieces)
        check_congruence_lemma(q8, gradings, f)


def test_congruence_rejects_inhomogeneous(ex72):
    gradings = junior_gradings(ex72)
    with pytest.raises(ValueError):
        check_congruence_lemma(ex72, gradings, x(4, 0) + x(4, 2))
    with pytest.raises(ValueError):
        check_congruence_lemma(ex72, gradings, SparsePolynomial.zero(4))


def test_congruence_under_twist(ex72):
    twist = GaloisTwist(5)
    gradings = junior_gradings(ex72, twist)
    records = check_congruence_lemma(ex72, gradings, x(4, 2), twist=twist)
    assert len(records) == 2


# --- membership in the invariants of the junior span -------------------------


def test_membership_worked_examples(ex72):
    gradings = junior_gradings(ex72)
    H = subgroup_generated(ex72, junior_elements(ex72))
    f = x(4, 2)
    assert check_junior_ring_membership(ex72, H, gradings, f) == (False, False)
    assert check_junior_ring_membership(ex72, H, gradings, f ** 3) == (
        True,
        True,
    )


def test_group_invariants_always_members(ex72, q8):
    for grp in (ex72, q8):
        gradings = junior_gradings(grp)
        H = subgroup_generated(grp, junior_elements(grp))
        trivial = next(c for c in ab_characters(grp) if c.is_trivial())
        f = relative_invariant(grp, trivial)
        assert check_junior_ring_membership(grp, H, gradings, f) == (
            True,
            True,
        )


def test_membership_on_q8_semi_invariant(q8):
    gradings = junior_gradings(q8)
    H = subgroup_generated(q8, junior_elements(q8))
    f = x(2, 0) * x(2, 1)
    assert check_junior_ring_membership(q8, H, gradings, f) == (False, False)


def test_membership_rejects_inhomogeneous(ex72):
    gradings = junior_gradings(ex72)
    H = subgroup_generated(ex72, junior_elements(ex72))
    with pytest.raises(ValueError):
        check_junior_ring_membership(
            ex72, H, gradings, x(4, 0) + x(4, 2) ** 2
        )
