"""Class groups of linear quotients and of their minimal models.

Two computations, both exact and both reduced to finite group theory:

* the class group of the quotient itself, Hom(G/K, C^x) with K the subgroup
  generated by the reflections in G (so trivial K for determinant-one input;
  Benson, Polynomial Invariants of Finite Groups, 1993, 3.9), read off
  Ab(G): Ab(G/K) = G/(K[G, G]) is Ab(G)/Kbar, Kbar the image of K;
* for determinant-one G, the class group of a Q-factorial terminalization
  X -> V/G, namely Z^m x Ab(G/H)^dual, where m counts the junior conjugacy
  classes and H is the subgroup generated by all junior elements.

The variety X is never constructed.  Exceptional divisor labels exist in the
reports only as the junior class representatives they correspond to, and the
push-forward to the quotient's class group is described on a chosen basis:
the free generators map to the representatives' residues in Ab(G), and the
torsion generators map to the annihilator of the junior image under the
self-pairing of Ab(G).  Every identity the construction promises is recomputed
and reported as a named consistency check rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matgrp import (
    AbelianStructure,
    FiniteMatrixGroup,
    SubgroupHandle,
    abelian_decomposition,
    abelian_invariants,
    per_group,
    quotient,
    subgroup_generated,
)
from .mckay import (
    ConsistencyError,
    GaloisTwist,
    IDENTITY_TWIST,
    NotSpecialLinearError,
    _eigen_pass,
    _junior_set,
    junior_classes,
    junior_elements,
    junior_subgroup,
)

__all__ = [
    "ClassGroupReport",
    "ConsistencyCheck",
    "PushforwardData",
    "class_group_of_quotient",
    "freeness_criterion",
    "junior_subgroup",
    "reflection_subgroup",
    "terminalization_class_group",
]


@dataclass(frozen=True)
class ConsistencyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PushforwardData:
    """Images of a basis of the terminalization's class group down in the
    quotient's class group, reported as group element ids.

    free_images: one residue class per junior conjugacy class, given by the
    class representative.  torsion_witnesses: generators of the subgroup of
    Ab(G) annihilating the junior image (one per torsion invariant factor),
    given by the least group element in the corresponding residue class.
    """

    free_images: tuple[int, ...]
    torsion_witnesses: tuple[int, ...]


@dataclass(frozen=True)
class ClassGroupReport:
    group_order: int
    is_special_linear: bool
    reflection_subgroup_order: int
    quotient_class_group: AbelianStructure
    abelianization_structure: AbelianStructure
    junior_class_count: int
    junior_class_representatives: tuple[int, ...]
    junior_subgroup_order: int
    free_rank: int
    torsion: AbelianStructure
    junior_abelian_image: AbelianStructure
    pushforward: PushforwardData
    consistency: tuple[ConsistencyCheck, ...]

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.consistency)

    def is_free(self) -> bool:
        return self.torsion.order == 1


@per_group
def reflection_subgroup(G: FiniteMatrixGroup) -> SubgroupHandle:
    """K: generated by the elements moving a hyperplane's worth of nothing,
    i.e. rank(g - id) = 1."""
    _, flags = _eigen_pass(G)
    seeds = [x for x in G.carrier_labels() if flags[x]]
    return subgroup_generated(G, seeds)


def class_group_of_quotient(G: FiniteMatrixGroup) -> AbelianStructure:
    """Invariant factors of Hom(G/K, C^x) = Ab(G/K)^dual.  The dual of a
    finite abelian group has the same invariant factors, so the chain is
    reported directly.  Ab(G/K) = G/(K[G, G]) is Ab(G)/Kbar, Kbar the image
    of K in Ab(G), so it is read off `G.abelianization()` and no quotient
    of G itself is built.  Valid for any finite matrix group,
    determinant-one or not."""
    ab, K = G.abelianization(), reflection_subgroup(G)
    return abelian_invariants(quotient(ab, _abelian_image(ab, K.generator_labels())))


def _abelian_image(ab_quotient, labels) -> SubgroupHandle:
    return subgroup_generated(
        ab_quotient, sorted({ab_quotient.coset_of[x] for x in labels})
    )


def _annihilator_of_image(ab_quotient, decomposition, image_generators):
    """Elements of Ab(G) pairing to zero with every generator of the junior
    image, under the self-pairing <a, b> = sum (L/d_j) e_j(a) e_j(b) mod L
    written in the invariant-factor basis; the pairing is bilinear, so they
    pair to zero with the whole image."""
    factors = decomposition.structure.invariant_factors
    L = factors[-1] if factors else 1
    weights = [L // d for d in factors]

    def pairs_to_zero(a, b):
        ea = decomposition.exponents_of(a)
        eb = decomposition.exponents_of(b)
        return sum(w * x * y for w, x, y in zip(weights, ea, eb)) % L == 0

    members = [
        a
        for a in ab_quotient.carrier_labels()
        if all(pairs_to_zero(a, h) for h in image_generators)
    ]
    return subgroup_generated(ab_quotient, members)


def terminalization_class_group(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> ClassGroupReport:
    """The full report: Z^free_rank x torsion, plus the supporting invariants
    and the consistency checks.  Requires determinant one."""
    if not G.is_special_linear:
        raise NotSpecialLinearError(
            "terminalization class groups require a determinant-one group"
        )

    _, flags = _eigen_pass(G)
    K = reflection_subgroup(G)
    cl_vg = class_group_of_quotient(G)

    count, reps = junior_classes(G, twist)
    H = junior_subgroup(G, twist)
    juniors = _junior_set(G, junior_elements(G, twist))
    (_, ab_of_quotient), torsion = juniors.quotients, juniors.torsion

    ab = G.abelianization()
    ab_dec = G.abelian_decomposition()
    ab_structure = ab_dec.structure

    hbar = _abelian_image(ab, H.generator_labels())
    hbar_structure = abelian_invariants(hbar)

    annihilator = _annihilator_of_image(ab, ab_dec, hbar.generator_labels())
    annihilator_dec = abelian_decomposition(annihilator)
    witnesses = tuple(ab.coset_reps[idx] for idx in annihilator_dec.generators)
    pushforward = PushforwardData(free_images=reps, torsion_witnesses=witnesses)

    checks = []

    def check(name, passed, detail):
        checks.append(ConsistencyCheck(name, bool(passed), detail))

    check(
        "order_product",
        ab_structure.order == hbar_structure.order * torsion.order,
        f"|Ab(G)| = {ab_structure.order}, |junior image| = "
        f"{hbar_structure.order}, |Ab(G/H)| = {torsion.order}",
    )
    generated = subgroup_generated(
        ab_of_quotient, list(ab_of_quotient.generator_labels())
    )
    check(
        "quotient_surjective",
        len(generated) == len(ab_of_quotient),
        "images of the group generators generate Ab(G/H)",
    )
    check(
        "terminal_case",
        count != 0 or torsion.invariant_factors == cl_vg.invariant_factors,
        "with no junior classes the quotient is its own terminalization",
    )
    # Cl(V/G) is read off Ab(G), so once K = 1 the orders agree by
    # construction: what this checks is |K| = 1, as no_reflections does
    check(
        "benson_determinant_one",
        len(K) == 1 and cl_vg.order == ab_structure.order,
        f"|K| = {len(K)}, |Cl(V/G)| = {cl_vg.order}, |Ab(G)| = {ab_structure.order}",
    )
    check(
        "no_reflections",
        not any(flags),
        "determinant-one groups contain no reflections",
    )
    rep_image = _abelian_image(ab, reps)
    check(
        "junior_image_from_representatives",
        set(rep_image.members) == set(hbar.members),
        "class representatives generate the junior image in Ab(G)",
    )
    check(
        "annihilator_matches_torsion",
        annihilator_dec.structure.invariant_factors == torsion.invariant_factors,
        f"annihilator factors {list(annihilator_dec.structure.invariant_factors)} "
        f"against torsion {list(torsion.invariant_factors)}",
    )
    # freeness_criterion compares the generation and torsion routes itself
    try:
        freeness_criterion(G, twist)
        routes_agree = True
    except ConsistencyError:
        routes_agree = False
    check(
        "freeness_routes_agree",
        routes_agree,
        "generation by juniors and commutators matches torsion triviality",
    )

    return ClassGroupReport(
        group_order=len(G),
        is_special_linear=G.is_special_linear,
        reflection_subgroup_order=len(K),
        quotient_class_group=cl_vg,
        abelianization_structure=ab_structure,
        junior_class_count=count,
        junior_class_representatives=reps,
        junior_subgroup_order=len(H),
        free_rank=count,
        torsion=torsion,
        junior_abelian_image=hbar_structure,
        pushforward=pushforward,
        consistency=tuple(checks),
    )


@per_group
def freeness_criterion(
    G: FiniteMatrixGroup, twist: GaloisTwist = IDENTITY_TWIST
) -> tuple[bool, int | None]:
    """Whether the terminalization's class group is free: equivalent to G
    being generated by its junior elements together with the commutator
    subgroup.  Returns the flag and, when not free, the least element id
    outside that subgroup as a witness.  Computed once per group and
    twist; a ConsistencyError is not kept and is raised again."""
    if not G.is_special_linear:
        raise NotSpecialLinearError(
            "the freeness criterion requires a determinant-one group"
        )
    juniors = junior_elements(G, twist)
    derived = G.abelianization().normal
    span = subgroup_generated(G, [*juniors, *derived.generator_labels()])
    generated = len(span) == len(G)

    torsion_trivial = len(_junior_set(G, juniors).quotients[1]) == 1
    if generated != torsion_trivial:
        raise ConsistencyError(
            "the generation route and the torsion route to freeness disagree"
        )
    witness = None
    if not generated:
        witness = min(set(G.carrier_labels()) - span.member_set)
    return generated, witness
