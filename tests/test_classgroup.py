"""Class group reports: reflection subgroup, junior subgroup, free rank,
torsion, push-forward data, and the built-in consistency checks."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant import classgroup, matgrp, mckay
from crepant.matgrp import (
    CycMatrix,
    NotNormalError,
    close_group,
    subgroup_generated,
)
from crepant.mckay import (
    ConsistencyError,
    GaloisTwist,
    NotSpecialLinearError,
    galois_sweep,
)
from crepant.classgroup import (
    class_group_of_quotient,
    freeness_criterion,
    junior_subgroup,
    reflection_subgroup,
    terminalization_class_group,
)

from conftest import EX72_ROWS, Q8_ROWS, S3_ROWS, TETRA_ROWS, cyclic_sl2
from helpers import (
    assert_independent_generators,
    dense_conjugate,
    quotient_class_group_via_g_mod_k,
    toric_class_group,
)


# --- reflections and the quotient's class group -------------------------------


def test_reflection_subgroup_of_permutations(s3):
    # the three transpositions generate all of S3
    K = reflection_subgroup(s3)
    assert len(K) == 6


def test_no_reflections_in_determinant_one_groups(ex72, q8, icosa):
    for grp in (ex72, q8, icosa):
        assert len(reflection_subgroup(grp)) == 1


def test_quotient_class_group_of_order_six(ex72):
    assert class_group_of_quotient(ex72).invariant_factors == (6,)


def test_quotient_class_group_of_reflection_group(s3):
    # K = G: the quotient is smooth and its class group is trivial
    assert class_group_of_quotient(s3).invariant_factors == ()


def test_quotient_class_group_of_trivial_group():
    grp = close_group([CycMatrix.identity(2)])
    assert class_group_of_quotient(grp).invariant_factors == ()


def test_quotient_class_group_of_q8(q8):
    assert class_group_of_quotient(q8).invariant_factors == (2, 2)


def _matrix_group(*rows):
    return close_group([CycMatrix.from_rows(r) for r in rows])


def _scalar_rows(entry, dim):
    return [[entry if i == j else "0" for j in range(dim)] for i in range(dim)]


def test_quotient_class_group_matches_the_g_mod_k_route(monkeypatch):
    # Ab(G/K) = Ab(G)/Kbar is read off Ab(G); the oracle builds G/K and
    # abelianizes it.  No quotient of G but Ab(G) itself is built.
    reflection = [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    cases = [
        (_matrix_group(*Q8_ROWS), (2, 2)),
        (_matrix_group(*TETRA_ROWS), (3,)),
        (_matrix_group(EX72_ROWS), (6,)),
        (_matrix_group(*S3_ROWS), ()),
        (_matrix_group([["-1", "0"], ["0", "1"]]), ()),
        (close_group([CycMatrix.identity(2)]), ()),
        # 1 < K < G: K = <diag(-1, 1, 1)> of order 2 in a group of order 6
        (_matrix_group(reflection, _scalar_rows("E(3)", 3)), (3,)),
        # K = the eight diagonal sign changes, in a group of order 48
        (_matrix_group(reflection, S3_ROWS[1], _scalar_rows("E(4)", 3)), (6,)),
    ]
    built = []
    init = matgrp.QuotientGroup.__init__

    def recorded(self, parent, normal):
        init(self, parent, normal)
        built.append(self)

    for G, factors in cases:
        oracle = quotient_class_group_via_g_mod_k(G)
        monkeypatch.setattr(matgrp.QuotientGroup, "__init__", recorded)
        got = class_group_of_quotient(G)
        monkeypatch.undo()
        assert got == oracle
        assert got.invariant_factors == factors
        assert [q for q in built if q.parent is G] == [G.abelianization()]
        built.clear()
    assert [len(G) for G, _ in cases[-2:]] == [6, 48]
    assert [len(reflection_subgroup(G)) for G, _ in cases[-2:]] == [2, 8]


def test_quotient_class_group_accepts_gl_input():
    # diag(-1, 1) is itself a reflection; the quotient is smooth
    grp = close_group([CycMatrix.from_rows([["-1", "0"], ["0", "1"]])])
    assert not grp.is_special_linear
    assert class_group_of_quotient(grp).invariant_factors == ()


# --- junior subgroup -----------------------------------------------------------


def test_junior_subgroup_of_order_six(ex72):
    H = junior_subgroup(ex72)
    assert len(H) == 3
    assert H.members == (0, 2, 4)


def test_junior_subgroup_without_juniors(icosa_diag):
    assert len(junior_subgroup(icosa_diag)) == 1


def test_junior_subgroup_of_q8(q8):
    # all six order-4 elements and -1 are junior; they generate everything
    assert len(junior_subgroup(q8)) == 8


def test_junior_subgroup_rejects_gl(s3):
    with pytest.raises(
        NotSpecialLinearError,
        match="^the junior subgroup is defined for determinant-one groups only$",
    ):
        junior_subgroup(s3)


def test_junior_normality_is_scanned_once_per_twist(monkeypatch):
    # G/H is built once per junior set, and building it is the normality
    # proof of H: H's escaping conjugates are searched once, not once more
    # for junior_subgroup, Ab(G/H) or another twist with the same juniors
    scans = []
    real = matgrp._escaping_conjugates

    def counted(grp, sub):
        scans.append((grp, sub))
        return real(grp, sub)

    monkeypatch.setattr(matgrp, "_escaping_conjugates", counted)
    G = close_group([CycMatrix.from_rows(r) for r in TETRA_ROWS])
    entries = galois_sweep(G)
    assert len(entries) > 1
    for e in entries:
        twist = GaloisTwist(e.twist)
        H = junior_subgroup(G, twist)
        mckay._juniors(G, twist).quotients
        assert len(H) == e.junior_subgroup_order
        assert sum(g is G and sub is H for g, sub in scans) == 1


def test_junior_subgroup_that_is_not_normal_is_a_consistency_error(
    monkeypatch,
):
    def escaping(grp, sub):
        # a conjugate that escapes whatever subgroup is scanned
        yield grp.generator_labels()[0], sub.members[-1], None

    G = close_group([CycMatrix.from_rows(r) for r in Q8_ROWS])
    monkeypatch.setattr(matgrp, "_escaping_conjugates", escaping)
    with pytest.raises(ConsistencyError, match="normality check") as err:
        junior_subgroup(G)
    assert isinstance(err.value.__cause__, NotNormalError)


def test_group_invariants_are_computed_once_per_group(monkeypatch):
    calls = []
    derived = matgrp.commutator_subgroup

    def counted(grp):
        calls.append(grp)
        return derived(grp)

    monkeypatch.setattr(matgrp, "commutator_subgroup", counted)
    G = close_group([CycMatrix.from_rows(r) for r in Q8_ROWS])
    terminalization_class_group(G)
    # Ab(G) and Ab(G/H), once each: Cl(V/G) is read off Ab(G)
    assert len(calls) == 2
    seen = len(calls)

    H = junior_subgroup(G)
    assert freeness_criterion(G, GaloisTwist(1)) == (True, None)
    assert freeness_criterion(G) is freeness_criterion(G, GaloisTwist(1))
    assert junior_subgroup(G, GaloisTwist(1)) is H
    assert len(calls) == seen

    # the sweep reads twist 1 from the memo; twist 3, coprime to the
    # exponent 4, has the same junior set, so it reads the same H and
    # Ab(G/H)
    galois_sweep(G)
    assert len(calls) == seen
    assert junior_subgroup(G, GaloisTwist(3)) is H
    galois_sweep(G)
    assert len(calls) == seen

    # a second closure of the same generators starts from nothing
    before = len(calls)
    G2 = close_group(G.generators)
    terminalization_class_group(G2)
    assert len(calls) - before == seen
    assert junior_subgroup(G2) is not H


def test_sweep_abelianizes_g_mod_h_once_per_junior_set(monkeypatch):
    # every twist of <diag(z15, z15^-1)> makes every nontrivial element
    # junior: eight twists, one junior set, one commutator run on G/H
    runs = []
    derived = matgrp.commutator_subgroup

    def counted(grp):
        runs.append(grp)
        return derived(grp)

    monkeypatch.setattr(matgrp, "commutator_subgroup", counted)
    G = cyclic_sl2(15)
    entries = galois_sweep(G)
    assert len(entries) == 8
    assert len({e.junior_element_ids for e in entries}) == 1
    assert sum(getattr(grp, "parent", None) is G for grp in runs) == 1


def test_sweep_builds_one_quotient_per_junior_set(monkeypatch, c7):
    # the junior sets of diag(z7, z7, z7^5) differ between twists; each
    # set builds its own G/H, and every twist keeps trivial torsion
    built = []
    real = mckay.quotient

    def counted(grp, normal):
        built.append(grp)
        return real(grp, normal)

    monkeypatch.setattr(mckay, "quotient", counted)
    G = close_group(c7.generators)
    entries = galois_sweep(G)
    assert sum(grp is G for grp in built) == len(
        {e.junior_element_ids for e in entries}
    ) > 1
    assert all(e.torsion_factors == () for e in entries)


def test_twists_share_their_junior_set_record(monkeypatch, c7):
    # every twist with one junior set gets the record's id tuple, class
    # representatives, G/H and Ab(G/H), and Ab(G/H)'s invariants are
    # counted once per junior set, not once per twist or per report
    counted = []
    real = matgrp.abelian_invariants

    def recorded(grp):
        counted.append(grp)
        return real(grp)

    monkeypatch.setattr(matgrp, "abelian_invariants", recorded)
    monkeypatch.setattr(mckay, "abelian_invariants", recorded)
    monkeypatch.setattr(classgroup, "abelian_invariants", recorded)
    for G, sets in ((cyclic_sl2(15), 1), (close_group(c7.generators), 6)):
        terminalization_class_group(G)
        entries = galois_sweep(G)
        galois_sweep(G)
        records = {}
        for e in entries:
            twist = GaloisTwist(e.twist)
            ids = mckay.junior_elements(G, twist)
            juniors = records.setdefault(ids, mckay._junior_set(G, ids))
            assert e.junior_element_ids is ids is juniors.ids
            assert e.junior_class_representatives is juniors.classes[1]
            assert mckay._juniors(G, twist).quotients is juniors.quotients
        assert len(records) == len({id(r) for r in records.values()}) == sets
        for juniors in records.values():
            assert sum(grp is juniors.quotients[1] for grp in counted) == 1


def test_twists_with_one_junior_set_share_one_freeness(monkeypatch):
    # <diag(z15, z15^4, z15^10)>: 8 twists find 4 junior sets, each shared
    # by two twists, (1, 4), (2, 8), (7, 13) and (11, 14); freeness is
    # made once per junior set, not once per twist
    made = []
    real = mckay._JuniorSet.freeness.func

    def counted(juniors):
        made.append(juniors.ids)
        return real(juniors)

    freeness = functools.cached_property(counted)
    freeness.__set_name__(mckay._JuniorSet, "freeness")
    monkeypatch.setattr(mckay._JuniorSet, "freeness", freeness)
    G = close_group([CycMatrix.from_rows(
        [["E(15)", "0", "0"], ["0", "E(15)^4", "0"], ["0", "0", "E(15)^10"]]
    )])
    twists = [e.twist for e in galois_sweep(G)]
    assert twists == [1, 2, 4, 7, 8, 11, 13, 14]
    answers = [freeness_criterion(G, GaloisTwist(t)) for t in twists]
    assert answers == [(True, None)] * 8
    assert len(made) == len(set(made)) == 4
    for a, b in ((1, 4), (2, 8), (7, 13), (11, 14)):
        assert freeness_criterion(G, GaloisTwist(a)) is freeness_criterion(
            G, GaloisTwist(b)
        )
        assert mckay._juniors(G, GaloisTwist(a)) is mckay._juniors(
            G, GaloisTwist(b)
        )
    assert len(made) == 4


def test_every_report_handle_has_independent_generators(monkeypatch):
    built = []
    init = matgrp.SubgroupHandle.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(matgrp.SubgroupHandle, "__init__", recorded)
    c6_squared = [
        [["E(6)", "0", "0"], ["0", "1", "0"], ["0", "0", "E(6)^5"]],
        [["1", "0", "0"], ["0", "E(6)", "0"], ["0", "0", "E(6)^5"]],
    ]
    for rows in ([EX72_ROWS], Q8_ROWS, c6_squared):
        G = close_group([CycMatrix.from_rows(r) for r in rows])
        start = len(built)
        terminalization_class_group(G)
        handles = built[start:]
        for named in (junior_subgroup(G), reflection_subgroup(G),
                      G.abelianization().normal):
            assert any(h is named for h in handles)
        # in Ab(G): the junior image, the annihilator, the image of the
        # class representatives and one handle per prime dividing |Ab(G)|
        ab = G.abelianization()
        primes = {p for p in (2, 3) if len(ab) % p == 0}
        assert sum(h.parent is ab for h in handles) >= 3 + len(primes)
        # handles inside those: the annihilator's per-prime handles and the
        # cyclic subgroups the p-group bases peel off
        assert any(getattr(h.parent, "parent", None) is ab for h in handles)
        for h in handles:
            assert_independent_generators(h)


# --- the golden order-six report -------------------------------------------------


def test_order_six_report(ex72):
    report = terminalization_class_group(ex72)
    assert report.group_order == 6
    assert report.is_special_linear
    assert report.reflection_subgroup_order == 1
    assert report.quotient_class_group.invariant_factors == (6,)
    assert report.junior_class_count == 2
    assert report.junior_class_representatives == (2, 4)
    assert report.junior_subgroup_order == 3
    assert report.free_rank == 2
    assert report.torsion.invariant_factors == (2,)
    assert report.junior_abelian_image.invariant_factors == (3,)
    assert not report.is_free()
    assert report.all_checks_passed, [c for c in report.consistency if not c.passed]


def test_order_six_pushforward(ex72):
    report = terminalization_class_group(ex72)
    # free part lands on the two junior generators, torsion on -id
    assert set(report.pushforward.free_images) == {2, 4}
    assert report.pushforward.torsion_witnesses == (3,)
    minus_identity = CycMatrix.from_rows(
        [["-1", "0", "0", "0"], ["0", "-1", "0", "0"],
         ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    )
    assert ex72.matrix(3) == minus_identity


def test_order_six_report_is_twist_stable(ex72):
    for t in (1, 5):
        report = terminalization_class_group(ex72, GaloisTwist(t))
        assert report.junior_class_count == 2
        assert report.torsion.invariant_factors == (2,)
        assert report.all_checks_passed


# --- other groups ---------------------------------------------------------------


def test_icosahedral_report(icosa_diag):
    report = terminalization_class_group(icosa_diag)
    assert report.junior_class_count == 0
    assert report.free_rank == 0
    assert report.torsion.invariant_factors == ()
    assert report.is_free()
    assert report.quotient_class_group.invariant_factors == ()
    assert report.pushforward.free_images == ()
    assert report.pushforward.torsion_witnesses == ()
    assert report.all_checks_passed, [c for c in report.consistency if not c.passed]


def test_scalar_group_report(scalar3):
    # no juniors, but a nontrivial abelianization: the terminal case with
    # torsion, where Cl(X) must equal Cl(V/G)
    report = terminalization_class_group(scalar3)
    assert report.junior_class_count == 0
    assert report.torsion.invariant_factors == (3,)
    assert report.quotient_class_group.invariant_factors == (3,)
    assert not report.is_free()
    assert report.all_checks_passed
    # the single torsion generator maps onto a generator of Ab(G) = G
    assert len(report.pushforward.torsion_witnesses) == 1
    witness = report.pushforward.torsion_witnesses[0]
    assert scalar3.element_orders[witness] == 3


def test_q8_report(q8):
    report = terminalization_class_group(q8)
    assert report.junior_class_count == 4
    assert report.junior_subgroup_order == 8
    assert report.torsion.invariant_factors == ()
    assert report.junior_abelian_image.invariant_factors == (2, 2)
    assert report.abelianization_structure.invariant_factors == (2, 2)
    assert report.is_free()
    assert report.pushforward.torsion_witnesses == ()
    assert report.all_checks_passed


def test_cyclic_series_reports():
    for k in (2, 3, 5, 8):
        grp = cyclic_sl2(k)
        report = terminalization_class_group(grp)
        assert report.junior_class_count == k - 1
        assert report.torsion.invariant_factors == ()
        assert report.quotient_class_group.invariant_factors == (k,)
        assert report.is_free()
        assert report.all_checks_passed


def test_two_prime_cyclic_report(c15):
    report = terminalization_class_group(c15)
    assert report.junior_class_count == 8
    assert report.junior_subgroup_order == 15
    assert report.torsion.invariant_factors == ()
    assert report.all_checks_passed


def test_report_rejects_gl(s3):
    with pytest.raises(NotSpecialLinearError):
        terminalization_class_group(s3)


# --- freeness ---------------------------------------------------------------------


def test_freeness_of_order_six(ex72):
    free, witness = freeness_criterion(ex72)
    assert not free
    # juniors generate {e, g^2, g^4}; the least element outside is g itself
    assert witness == 1


def test_freeness_routes_that_disagree_are_raised_on_every_read(monkeypatch):
    # Ab(G/H) = Z/2 says "not free"; a generation route faked to give all
    # of G says "free".  The disagreement is raised, not kept, so the
    # real route answers once the fake is gone.
    G = close_group([CycMatrix.from_rows(EX72_ROWS)])
    junior_subgroup(G)
    for module in (mckay, classgroup):
        monkeypatch.setattr(module, "subgroup_generated", lambda grp, seeds: grp)
    for _ in range(2):
        with pytest.raises(ConsistencyError, match="route to freeness disagree"):
            freeness_criterion(G)
    monkeypatch.undo()
    assert freeness_criterion(G) == (False, 1)


def test_freeness_of_icosahedral(icosa_diag):
    # no juniors at all, yet free: the commutator subgroup is everything
    free, witness = freeness_criterion(icosa_diag)
    assert free
    assert witness is None


def test_freeness_of_q8(q8):
    assert freeness_criterion(q8) == (True, None)


def test_freeness_of_scalar_group(scalar3):
    free, witness = freeness_criterion(scalar3)
    assert not free
    assert witness == 1


def test_freeness_rejects_gl(s3):
    with pytest.raises(NotSpecialLinearError):
        freeness_criterion(s3)


def test_freeness_matches_torsion_on_fixtures(ex72, q8, scalar3, icosa_diag, c7, c15):
    for grp in (ex72, q8, scalar3, icosa_diag, c7, c15):
        report = terminalization_class_group(grp)
        free, _ = freeness_criterion(grp)
        assert free == report.is_free()


# --- structure arithmetic -----------------------------------------------------------


def test_order_product_identity(ex72, q8, scalar3, c7, c15, icosa_diag):
    for grp in (ex72, q8, scalar3, c7, c15, icosa_diag):
        report = terminalization_class_group(grp)
        assert (
            report.abelianization_structure.order
            == report.junior_abelian_image.order * report.torsion.order
        )


def test_annihilator_spans_abelianization_when_no_juniors(scalar3):
    report = terminalization_class_group(scalar3)
    witnesses = report.pushforward.torsion_witnesses
    span = subgroup_generated(scalar3, witnesses)
    # H is trivial, so the torsion part is all of Ab(G) = G here
    assert len(span) == report.abelianization_structure.order


# --- oracles stated without crepant: binary dihedral blocks, toric fans ---------


def _binary_dihedral(n):
    """BD_4n = <diag(z_2n, z_2n^-1), [[0, 1], [-1, 0]]> in SL2."""
    return [
        [[f"E({2 * n})", "0"], ["0", f"E({2 * n})^{2 * n - 1}"]],
        [["0", "1"], ["-1", "0"]],
    ]


def _blocks(*grids):
    """The block-diagonal entry-string matrix of square entry-string grids."""
    dim = sum(len(g) for g in grids)
    out = [["0"] * dim for _ in range(dim)]
    at = 0
    for grid in grids:
        for i, row in enumerate(grid):
            out[at + i][at:at + len(row)] = row
        at += len(grid)
    return out


_I2 = [["1", "0"], ["0", "1"]]
# (generators in SL2, number of conjugacy classes)
_SL2_BLOCKS = {
    "Q8": (Q8_ROWS, 5),
    "BD12": (_binary_dihedral(3), 6),
    "BD16": (_binary_dihedral(4), 7),
    "2T": (TETRA_ROWS, 7),
}


def _direct_sum(k, k2):
    return [_blocks(g, _I2) for g in k] + [_blocks(_I2, g) for g in k2]


def _diagonal_copy(k):
    return [_blocks(g, g) for g in k]


def _block_and_diagonal_copy(k, k2):
    return [_blocks(g, _I2, _I2) for g in k] + [_blocks(_I2, g, g) for g in k2]


def _report(rows):
    G = close_group([CycMatrix.from_rows(r) for r in rows])
    report = terminalization_class_group(G)
    assert report.all_checks_passed
    return G, report


@pytest.mark.parametrize("n", range(2, 16))
def test_binary_dihedral_class_groups(n):
    # every element of SL2 but 1 is junior, so the free rank is the number
    # of classes less one and H = G; Ab(BD_4n) is C4 for odd n and C2 x C2
    # for even n
    G, report = _report(_binary_dihedral(n))
    assert len(G) == 4 * n
    assert len(G.conjugacy_classes()) == n + 3
    assert report.free_rank == n + 2
    assert report.torsion.invariant_factors == ()
    expected = (4,) if n % 2 else (2, 2)
    assert report.quotient_class_group.invariant_factors == expected


@pytest.mark.parametrize(
    "first, second", itertools.combinations_with_replacement(_SL2_BLOCKS, 2)
)
def test_direct_sum_of_sl2_blocks(first, second):
    # (k, 1) and (1, k') are junior, and they generate K + K'
    (k, c), (k2, c2) = _SL2_BLOCKS[first], _SL2_BLOCKS[second]
    _, report = _report(_direct_sum(k, k2))
    assert report.free_rank == (c - 1) + (c2 - 1)
    assert report.torsion.invariant_factors == ()


@pytest.mark.parametrize("name, torsion", [("Q8", (2, 2)), ("BD12", (4,))])
def test_diagonal_copy_has_no_juniors(name, torsion):
    # every (k, k) with k != 1 has age 2: H = 1 and Cl(X) = Ab(K)^dual
    _, report = _report(_diagonal_copy(_SL2_BLOCKS[name][0]))
    assert report.free_rank == 0
    assert report.torsion.invariant_factors == torsion


def test_block_beside_a_diagonal_copy():
    # 2T on x1, x2 and a diagonal Q8 on x3..x6: the juniors are (k, 1, 1),
    # so H = 2T and the torsion is Ab(Q8)
    G, report = _report(_block_and_diagonal_copy(TETRA_ROWS, Q8_ROWS))
    assert len(G) == 192
    assert report.free_rank == 6
    assert report.torsion.invariant_factors == (2, 2)


@pytest.mark.parametrize(
    "rows, free_rank, torsion",
    [
        (_direct_sum(_binary_dihedral(3), _binary_dihedral(4)), 11, ()),
        (_diagonal_copy(Q8_ROWS), 0, (2, 2)),
    ],
    ids=["BD12+BD16", "diagonal-Q8"],
)
def test_block_oracles_in_a_dense_presentation(rows, free_rank, torsion):
    _, report = _report(dense_conjugate(rows, 1))
    assert report.free_rank == free_rank
    assert report.torsion.invariant_factors == torsion


def _diagonal_rows(r, exponents):
    return [
        ["0" if i != j else f"E({r})^{a}" for j in range(len(exponents))]
        for i, a in enumerate(exponents)
    ]


def _check_against_the_fan(r, exponent_rows, seed=None):
    """The report on the diagonal group against the toric fan; with a seed,
    on the group conjugated by a dense P (`dense_conjugate`)."""
    rows = [_diagonal_rows(r, a) for a in exponent_rows]
    if seed is not None:
        rows = dense_conjugate(rows, seed)
    G = close_group([CycMatrix.from_rows(g) for g in rows])
    report = terminalization_class_group(G)
    assert report.all_checks_passed
    free_rank, torsion = toric_class_group(r, exponent_rows)
    assert report.free_rank == free_rank
    assert list(report.torsion.invariant_factors) == torsion
    return free_rank, torsion


@st.composite
def _diagonal_sl_groups(draw):
    """(r, exponent rows): one or two generators diag(z_r^a_1, ..., z_r^a_n)
    with n <= 4, r <= 12 and sum a = 0 (mod r)."""
    r = draw(st.integers(2, 12))
    n = draw(st.integers(2, 4))
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        head = draw(st.lists(st.integers(0, r - 1), min_size=n - 1, max_size=n - 1))
        rows.append((*head, -sum(head) % r))
    return r, rows


@given(_diagonal_sl_groups(), st.none() | st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_diagonal_groups_match_the_toric_fan(group, seed):
    _check_against_the_fan(*group, seed)


@pytest.mark.parametrize(
    "r, exponent_rows, answer",
    [
        # EX72 = diag(-1, -1, -z3, -z3^2)
        (6, [(3, 3, 5, 1)], (2, [2])),
        # C3^3 = <diag(z, 1, 1, z^-1), diag(1, z, 1, z^-1), diag(1, 1, z, z^-1)>
        (3, [(1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2)], (16, [])),
        # C12 = diag(z3, z4, z60^-35), written at conductor 60
        (12, [(4, 3, 5)], (8, [])),
        # order 1944: <diag(z18, 1, 1, z18^-1), diag(1, z18, 1, z18^-1),
        # diag(1, 1, z6, z6^-1)>
        (18, [(1, 0, 0, 17), (0, 1, 0, 17), (0, 0, 3, 15)], (507, [])),
    ],
    ids=["ex72", "c3_cubed", "c12_conductor60", "order1944"],
)
def test_golden_diagonal_jobs_match_the_toric_fan(r, exponent_rows, answer):
    assert _check_against_the_fan(r, exponent_rows) == answer
