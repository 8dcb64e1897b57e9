"""Shared test oracles.

Everything in here recomputes results by the most naive correct method
available, independent of the package's fast paths.  Tests compare the two.
"""

import math

from crepant.cyclo import zeta
from crepant.matgrp import CycMatrix


def naive_closure(mats, cap=30000):
    """Close a set of matrices under multiplication by repeated full passes.

    No BFS bookkeeping, no ordering assumptions; just multiply until the set
    stops growing.
    """
    gens = list(mats)
    elems = set(gens)
    elems.add(CycMatrix.identity(gens[0].dim))
    while True:
        fresh = set()
        for a in elems:
            for b in gens:
                p = a @ b
                if p not in elems:
                    fresh.add(p)
        if not fresh:
            return elems
        elems |= fresh
        if len(elems) > cap:
            raise AssertionError("closure oracle exceeded cap")


def brute_conjugacy(grp):
    """Conjugation orbits computed with every group element as conjugator."""
    labels = sorted(grp.carrier_labels())
    seen = set()
    classes = []
    for x in labels:
        if x in seen:
            continue
        orbit = {grp.mul(grp.mul(h, x), grp.inv(h)) for h in labels}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def brute_commutators(grp):
    """The set of all commutators a^-1 b^-1 a b."""
    labels = list(grp.carrier_labels())
    out = set()
    for a in labels:
        ia = grp.inv(a)
        for b in labels:
            out.add(grp.mul(grp.mul(grp.mul(ia, grp.inv(b)), a), b))
    return out


def invariant_factors_of_product(orders):
    """Invariant factors of Z/k_1 x ... x Z/k_s.

    Smith reduction of the diagonal relation matrix diag(k_1, ..., k_s):
    repeatedly replace non-dividing pairs by (gcd, lcm) until the divisibility
    chain holds.
    """
    d = [k for k in orders if k > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = math.gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
    return tuple(sorted(k for k in d if k > 1))


def diagonal_exponents(mat, r):
    """Exponent vector of a diagonal matrix whose entries are r-th roots of
    unity, read off by direct comparison against the canonical root."""
    root = zeta(r)
    out = []
    for i in range(mat.dim):
        entry = mat.rows[i][i]
        acc = zeta(r, 0)
        for j in range(r):
            if entry == acc:
                out.append(j)
                break
            acc = acc * root
        else:
            raise AssertionError(f"diagonal entry is not an {r}-th root of unity")
    return out


def close_enough(a, b, tol=1e-9):
    return abs(a - b) <= tol


def chi_averages(grp, chi, degree):
    """For each monomial m of the given degree, in monomials_of_degree
    order, the character-weighted sum over x of conj(chi(x)) x.m."""
    from crepant.invariants import (
        SparsePolynomial,
        _linear_forms,
        monomials_of_degree,
    )

    n = grp.dim
    monomials = list(monomials_of_degree(n, degree))
    sums = [SparsePolynomial.zero(n) for _ in monomials]
    for x in grp.carrier_labels():
        weight = chi.value_on_element(grp, grp.inv(x))
        # x.x_j is row j of x^-1 as a linear form; take its powers once
        powers = []
        for form in _linear_forms(grp.matrix(grp.inv(x))):
            row = [SparsePolynomial.constant(n, 1)]
            for _ in range(degree):
                row.append(row[-1] * form)
            powers.append(row)
        for k, exps in enumerate(monomials):
            image = SparsePolynomial.constant(n, weight)
            for row, a in zip(powers, exps):
                image = image * row[a]
            sums[k] = sums[k] + image
    yield from sums


def exhaustive_relative_invariant(grp, chi, degree_bound):
    """The first nonzero character-weighted sum of a monomial, scanning
    every degree from 1 up to the bound; None when all of them vanish."""
    for degree in range(1, degree_bound + 1):
        for acc in chi_averages(grp, chi, degree):
            if not acc.is_zero:
                return acc
    return None
