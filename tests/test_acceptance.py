"""End-to-end acceptance criteria.

One test per criterion; each prints a single pass/fail line (visible with -s
or in captured output) and fails loudly otherwise.  Timed criteria build
their groups from scratch inside the measured window.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from crepant.cyclo import parse_cyclotomic, rational, zeta
from crepant.matgrp import (
    CycMatrix,
    abelian_decomposition,
    abelian_invariants,
    abelianization,
    close_group,
    subgroup_generated,
)
from crepant.mckay import (
    age_records,
    eigen_multiplicities,
    galois_sweep,
    junior_classes,
    junior_elements,
    junior_gradings,
)
from crepant.classgroup import (
    freeness_criterion,
    terminalization_class_group,
)
from crepant.invariants import (
    SparsePolynomial,
    act,
    characters_of,
    check_congruence_lemma,
    check_junior_ring_membership,
    relative_invariant,
)

from conftest import EX72_ROWS, ICOSA_ROWS, block_diag_rows, cyclic_sl2
from helpers import (
    close_enough,
    diagonal_exponents,
    invariant_factors_of_product,
    kernel_multiplicities,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def full_report(grp):
    return terminalization_class_group(grp)


def sl_groups(ex72, q8, icosa, icosa_diag, c7, c15, scalar3):
    trivial = close_group([CycMatrix.identity(2)])
    return {
        "trivial": trivial,
        "order6_diagonal": ex72,
        "quaternion": q8,
        "icosahedral_sl2": icosa,
        "icosahedral_doubled": icosa_diag,
        "cyclic7_3d": c7,
        "cyclic15_3d": c15,
        "scalar_cubed": scalar3,
        "cyclic6_sl2": cyclic_sl2(6),
    }


# --- 1: golden values for the order-6 diagonal group --------------------------


def test_criterion_1_order6_golden():
    with criterion(1, "order-6 diagonal group golden values"):
        start = time.perf_counter()
        G = close_group([CycMatrix.from_rows(EX72_ROWS)])
        report = full_report(G)
        g1 = CycMatrix.from_rows(
            [
                ["1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "E(3)^2", "0"],
                ["0", "0", "0", "E(3)"],
            ]
        )
        g2 = CycMatrix.from_rows(
            [
                ["1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "E(3)", "0"],
                ["0", "0", "0", "E(3)^2"],
            ]
        )
        minus_identity = CycMatrix.from_rows(
            [
                ["-1", "0", "0", "0"],
                ["0", "-1", "0", "0"],
                ["0", "0", "-1", "0"],
                ["0", "0", "0", "-1"],
            ]
        )
        assert report.group_order == 6
        assert report.quotient_class_group.invariant_factors == (6,)
        assert report.free_rank == 2
        reps = {G.matrix(x) for x in report.junior_class_representatives}
        assert reps == {g1, g2}
        assert report.junior_subgroup_order == 3
        assert report.torsion.invariant_factors == (2,)
        free = {G.matrix(x) for x in report.pushforward.free_images}
        assert free == {g1, g2}
        torsion = {G.matrix(x) for x in report.pushforward.torsion_witnesses}
        assert torsion == {minus_identity}
        assert report.all_checks_passed
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


# --- 2: the icosahedral group doubled into four dimensions --------------------


def test_criterion_2_doubled_icosahedral():
    with criterion(2, "doubled icosahedral group"):
        start = time.perf_counter()
        G = close_group(
            [CycMatrix.from_rows(block_diag_rows(r)) for r in ICOSA_ROWS]
        )
        assert len(G) == 120
        records = age_records(G)
        for rec in records:
            expected = Fraction(0) if rec.element_id == 0 else Fraction(2)
            assert rec.age == expected
        count, _reps = junior_classes(G)
        assert count == 0
        report = full_report(G)
        assert report.free_rank == 0
        assert report.torsion.invariant_factors == ()
        assert report.is_free()
        assert freeness_criterion(G) == (True, None)
        assert report.all_checks_passed
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


# --- 3: the cyclic surface series ---------------------------------------------


def test_criterion_3_cyclic_series():
    with criterion(3, "cyclic series k=2..30"):
        start = time.perf_counter()
        for k in range(2, 31):
            G = cyclic_sl2(k)
            report = full_report(G)
            assert report.free_rank == k - 1, f"k={k}"
            assert report.torsion.invariant_factors == (), f"k={k}"
            assert report.quotient_class_group.invariant_factors == (k,), (
                f"k={k}"
            )
            assert report.all_checks_passed, f"k={k}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


# --- 4: the quaternion group --------------------------------------------------


def test_criterion_4_quaternion(q8):
    with criterion(4, "quaternion group"):
        count, reps = junior_classes(q8)
        assert count == 4
        class_of = {cls[0]: cls for cls in q8.conjugacy_classes()}
        sizes = sorted(len(class_of[rep]) for rep in reps)
        assert sizes == [1, 2, 2, 2]
        H = subgroup_generated(q8, junior_elements(q8))
        assert len(H) == len(q8)
        report = full_report(q8)
        assert report.torsion.invariant_factors == ()
        assert report.abelianization_structure.invariant_factors == (2, 2)
        assert report.all_checks_passed


# --- 5: Galois twist invariance -----------------------------------------------


def test_criterion_5_galois_invariance(ex72, q8, icosa, icosa_diag, c7, c15,
                                       scalar3):
    with criterion(5, "Galois twist invariance"):
        groups = sl_groups(ex72, q8, icosa, icosa_diag, c7, c15, scalar3)
        for name, grp in groups.items():
            entries = galois_sweep(grp)
            assert len({e.junior_count for e in entries}) == 1, name
            assert len({e.torsion_factors for e in entries}) == 1, name
            assert len({e.junior_subgroup_order for e in entries}) == 1, name
        # a group of order with two distinct odd prime factors must hit a
        # twist that moves the junior sets without moving the summary
        entries = galois_sweep(c15)
        assert len(entries) == 8
        assert any(e.twist != 1 for e in entries)
        junior_sets = {e.junior_element_ids for e in entries}
        assert len(junior_sets) > 1
        seven = galois_sweep(c7)
        assert len({e.junior_element_ids for e in seven}) > 1


# --- 6: grading lemmas on generated invariants and random products ------------


def _random_products(rng, pool, nvars, count):
    for _ in range(count):
        f = SparsePolynomial.constant(nvars, 1)
        for _ in range(rng.randrange(1, 4)):
            f = f * rng.choice(pool)
        yield f


def test_criterion_6_grading_lemmas(ex72, q8, icosa_diag, c7, c15, scalar3):
    with criterion(6, "grading lemmas per character"):
        trivial = close_group([CycMatrix.identity(2)])
        groups = {
            "trivial": trivial,
            "order6_diagonal": ex72,
            "quaternion": q8,
            "icosahedral_doubled": icosa_diag,
            "cyclic7_3d": c7,
            "cyclic15_3d": c15,
            "scalar_cubed": scalar3,
            "cyclic6_sl2": cyclic_sl2(6),
        }
        rng = random.Random(2026)
        for name, grp in groups.items():
            gradings = junior_gradings(grp)
            H = subgroup_generated(grp, junior_elements(grp))
            decomposition = abelian_decomposition(abelianization(grp))
            pool = []
            for chi in characters_of(decomposition):
                f = relative_invariant(grp, chi, degree_bound=len(grp))
                assert f is not None, (name, chi.exponents)
                check_congruence_lemma(grp, gradings, f)
                check_junior_ring_membership(grp, H, gradings, f)
                pool.append(f)
            for f in _random_products(rng, pool, grp.dim, 100):
                check_congruence_lemma(grp, gradings, f)
                check_junior_ring_membership(grp, H, gradings, f)


# --- 7: order identities across the pipeline ----------------------------------


def test_criterion_7_structural_orders(ex72, q8, icosa, icosa_diag, c7, c15,
                                       scalar3):
    with criterion(7, "structural order identities"):
        groups = sl_groups(ex72, q8, icosa, icosa_diag, c7, c15, scalar3)
        saw_terminal_case = False
        for name, grp in groups.items():
            report = full_report(grp)
            assert report.abelianization_structure.order == (
                report.junior_abelian_image.order * report.torsion.order
            ), name
            if report.free_rank == 0:
                saw_terminal_case = True
                assert (
                    report.torsion.invariant_factors
                    == report.quotient_class_group.invariant_factors
                ), name
            assert report.all_checks_passed, name
        assert saw_terminal_case


# --- 8: randomized oracle equivalence ------------------------------------------


def _random_abelian_case(rng):
    # orders capped at 2000; conductors kept small so closures stay quick
    choices = (2, 3, 4, 5, 6, 8, 9, 12)
    while True:
        ks = [rng.choice(choices) for _ in range(rng.randrange(1, 4))]
        product = 1
        for k in ks:
            product *= k
        if product <= 400:
            return ks


def _diagonal_generator(slots, index, k):
    rows = [
        [("1" if a == b else "0") for b in range(slots)] for a in range(slots)
    ]
    rows[index][index] = f"E({k})"
    return CycMatrix.from_rows(rows)


def test_criterion_8_randomized_oracles():
    with criterion(8, "randomized oracle equivalence"):
        rng = random.Random(40)
        cases = [_random_abelian_case(rng) for _ in range(48)]
        cases.append([8, 9, 9, 3])  # order 1944, near the cap
        cases.append([5, 5, 8, 5])  # order 1000
        assert len(cases) == 50
        for ks in cases:
            gens = [_diagonal_generator(len(ks), i, k) for i, k in enumerate(ks)]
            grp = close_group(gens, max_size=2048)
            expected = invariant_factors_of_product(ks)
            assert abelian_invariants(grp).invariant_factors == expected, ks
        for _ in range(50):
            n = rng.randrange(1, 6)
            r = rng.choice((2, 3, 4, 5, 6, 8, 9, 10, 12, 36))
            exps = [rng.randrange(r) for _ in range(n)]
            rows = [
                [
                    (f"E({r})^{exps[a]}" if a == b else "0")
                    for b in range(n)
                ]
                for a in range(n)
            ]
            mat = CycMatrix.from_rows(rows)
            got = eigen_multiplicities(mat)
            order = r // math.gcd(r, *exps) if any(exps) else 1
            direct = [0] * order
            for e in diagonal_exponents(mat, order):
                direct[e] += 1
            assert got == tuple(direct), (r, exps)


# --- 9: float confirmation of exact identities ---------------------------------


def _complex_matrix(m):
    return [[e.to_complex() for e in row] for row in m.rows]


def _complex_poly(f, point):
    total = 0j
    for exps, coeff in f.terms.items():
        value = coeff.to_complex()
        for z, a in zip(point, exps):
            value *= z ** a
        total += value
    return total


def test_criterion_9_numerical_crosscheck(ex72, q8, icosa):
    with criterion(9, "numerical cross-checks"):
        rng = random.Random(9)

        def sample(conductor):
            value = rational(0)
            for _ in range(rng.randrange(1, 4)):
                k = rng.randrange(conductor)
                c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                value = value + zeta(conductor, k) * c
            return value

        # field operations agree with the complex embedding
        for _ in range(40):
            n = rng.choice((3, 4, 5, 7, 8, 9, 12, 15))
            a, b = sample(n), sample(n)
            assert close_enough(
                (a + b).to_complex(), a.to_complex() + b.to_complex()
            )
            assert close_enough(
                (a * b).to_complex(), a.to_complex() * b.to_complex()
            )
            if not b.is_zero:
                assert close_enough(
                    (a * b.inverse()).to_complex(),
                    a.to_complex() / b.to_complex(),
                )

        # group multiplication agrees with complex matrix products
        for grp in (ex72, q8, icosa):
            for _ in range(8):
                aid = rng.randrange(len(grp))
                bid = rng.randrange(len(grp))
                left = _complex_matrix(grp.matrix(aid))
                right = _complex_matrix(grp.matrix(bid))
                n = grp.dim
                product = [
                    [
                        sum(left[i][k] * right[k][j] for k in range(n))
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
                table = _complex_matrix(grp.matrix(grp.mul(aid, bid)))
                for i in range(n):
                    for j in range(n):
                        assert close_enough(product[i][j], table[i][j])

        # power traces agree with the multiplicity reconstruction, and the
        # eigen pass's multiplicities are the eigenspace dimensions
        for grp in (ex72, q8):
            records = age_records(grp)
            for x in grp.carrier_labels():
                r = grp.element_orders[x]
                mults = records[x].multiplicities
                assert mults == kernel_multiplicities(grp.matrix(x), r)
                for k in range(r):
                    reconstructed = sum(
                        m * zeta(r, (j * k) % r).to_complex()
                        for j, m in enumerate(mults)
                    )
                    gid = 0
                    for _ in range(k):
                        gid = grp.mul(gid, x)
                    exact = grp.matrix(gid).trace().to_complex()
                    assert close_enough(reconstructed, exact)

        # relative invariants transform correctly at random complex points
        for grp in (ex72, q8):
            decomposition = abelian_decomposition(abelianization(grp))
            ab = decomposition.group
            for chi in characters_of(decomposition):
                f = relative_invariant(grp, chi, degree_bound=len(grp))
                point = [
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for _ in range(grp.dim)
                ]
                for gid in grp.generator_ids:
                    inverse = _complex_matrix(grp.matrix(grp.inv(gid)))
                    moved = [
                        sum(inverse[i][j] * point[j] for j in range(grp.dim))
                        for i in range(grp.dim)
                    ]
                    lhs = _complex_poly(f, moved)
                    rhs = (
                        chi.value_on_element(grp, gid).to_complex()
                        * _complex_poly(f, point)
                    )
                    assert close_enough(lhs, rhs)
