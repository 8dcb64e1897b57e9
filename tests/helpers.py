"""Shared test oracles.

Everything in here recomputes results by the most naive correct method
available, independent of the package's fast paths.  Tests compare the two.
"""

import itertools
import math
import random
from fractions import Fraction

from crepant.classgroup import reflection_subgroup
from crepant.cyclo import cyclotomic_polynomial, rational, zeta
from crepant.matgrp import CycMatrix, abelian_invariants, abelianization, quotient


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


def exact_closure(generators, max_size=20000):
    """Close a generating set by breadth-first search over exact matrices:
    from the identity, generators applied in input order by left
    multiplication, each product looked up by its exact entries.  Returns
    (elements, words, lmul) as `close_group` numbers them."""
    gens = list(generators)
    conductor = 1
    for g in gens:
        conductor = conductor * g.conductor // math.gcd(conductor, g.conductor)
    gens = [g.lift(conductor) for g in gens]
    identity = CycMatrix.identity(gens[0].dim, conductor)
    elements = [identity]
    index = {identity.key(): 0}
    words = [()]
    lmul = [[] for _ in gens]
    i = 0
    while i < len(elements):
        x = elements[i]
        for gi, g in enumerate(gens):
            y = g @ x
            known = index.get(y.key())
            if known is None:
                if len(elements) >= max_size:
                    raise AssertionError("exact closure exceeded max_size")
                known = len(elements)
                index[y.key()] = known
                elements.append(y)
                words.append((gi,) + words[i])
            lmul[gi].append(known)
        i += 1
    return elements, words, lmul


def seed_closure(grp, seeds):
    """Members of the subgroup generated by `seeds`: breadth-first search
    from the identity multiplying every member by every seed, sorted."""
    seeds = list(seeds)
    members = {grp.identity_label}
    queue = [grp.identity_label]
    for x in queue:
        for s in seeds:
            y = grp.mul(s, x)
            if y not in members:
                members.add(y)
                queue.append(y)
    return tuple(sorted(members))


def assert_independent_generators(handle):
    """Each generator of a subgroup handle lies outside the span of those
    before it, so there are at most log2 |H| of them, and together they
    span its members."""
    gens = list(handle.generator_labels())
    for i, g in enumerate(gens):
        assert g not in seed_closure(handle.parent, gens[:i])
    assert 2 ** len(gens) <= len(handle)
    assert seed_closure(handle.parent, gens) == handle.members


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


def two_product_conjugacy(grp):
    """Conjugation orbits grown over the generators g by two products,
    y -> (g^-1 y) g, whatever tables the group keeps."""
    gens = list(dict.fromkeys(grp.generator_labels()))
    seen = set()
    classes = []
    for x in sorted(grp.carrier_labels()):
        if x in seen:
            continue
        orbit, queue = {x}, [x]
        for y in queue:
            for g in gens:
                z = grp.mul(grp.mul(grp.inv(g), y), g)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
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


def member_scan_escapes(grp, members):
    """The conjugates g^-1 h g that leave `members`, for every generator g
    of `grp` and every h in `members`: normality read off all members."""
    return {
        grp.mul(grp.mul(grp.inv(g), h), g)
        for g in grp.generator_labels()
        for h in members
    } - set(members)


def member_scan_normal_closure(grp, seeds):
    """Members of the normal closure of `seeds`: the closure of the seeds,
    grown by every member's escaping conjugates until none escapes."""
    seeds = set(seeds)
    while True:
        members = seed_closure(grp, sorted(seeds))
        escaping = member_scan_escapes(grp, members)
        if not escaping:
            return members
        seeds |= escaping


class ExplicitGroup:
    """A finite group given by explicit label set and multiplication
    callable; satisfies the same protocol as the package's group classes."""

    def __init__(self, labels, mul, inv, identity_label, generators=None):
        self._labels = tuple(labels)
        self._mul = mul
        self._inv = inv
        self.identity_label = identity_label
        self._generators = tuple(generators) if generators else self._labels

    def carrier_labels(self):
        return self._labels

    def generator_labels(self):
        return self._generators

    def mul(self, a, b):
        return self._mul(a, b)

    def inv(self, a):
        return self._inv(a)

    def __len__(self):
        return len(self._labels)


def quotient_class_group_via_g_mod_k(G):
    """The invariant factors of Cl(V/G) = Ab(G/K)^dual by building G/K, K
    the reflection subgroup, and abelianizing it: a route that never reads
    Ab(G)."""
    return abelian_invariants(abelianization(quotient(G, reflection_subgroup(G))))


def verify_group_law(grp, limit=256):
    """Exhaustively check associativity, identity, and inverses.  Refuses
    groups larger than `limit` (cubic cost)."""
    labels = list(grp.carrier_labels())
    if len(labels) > limit:
        raise ValueError(f"group of order {len(labels)} exceeds check limit {limit}")
    e = grp.identity_label
    for a in labels:
        if grp.mul(a, e) != a or grp.mul(e, a) != a:
            return False
        if grp.mul(a, grp.inv(a)) != e:
            return False
    for a in labels:
        for b in labels:
            ab = grp.mul(a, b)
            for c in labels:
                if grp.mul(ab, c) != grp.mul(a, grp.mul(b, c)):
                    return False
    return True


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


def per_element_averages(grp, chi, degree):
    """For each monomial m of the given degree, in monomials_of_degree
    order, sum_x conj(chi(x)) x.m formed element by element: one weight
    per element, read on the inverse of its coset; its image of m scaled
    by that weight; the images added in element id order by `_add_into`.
    The reference for the per-coset averaging, down to the conductor of
    each coefficient."""
    from crepant.invariants import (
        SparsePolynomial,
        _add_into,
        _linear_forms,
        monomials_of_degree,
    )

    ab = chi.decomposition.group
    n = grp.dim
    elements = [
        (
            chi.value_on_coset(ab.inv(ab.coset_of[x])),
            _linear_forms(grp.matrix(grp.inv(x))),
        )
        for x in grp.carrier_labels()
    ]
    for exps in monomials_of_degree(n, degree):
        mono = SparsePolynomial.monomial(n, exps)
        terms = {}
        for weight, forms in elements:
            _add_into(terms, mono.substitute(forms).scale(weight).terms)
        yield SparsePolynomial(n, terms)


def character_value_by_product(chi, coset):
    """chi(coset) as the product of zeta(d_j, k_j) over the invariant
    factors d_j with k_j = -c_j e_j mod d_j nonzero, from rational 1 up."""
    e = chi.decomposition.exponents_of(coset)
    factors = chi.decomposition.structure.invariant_factors
    acc = rational(1)
    for c, ej, d in zip(chi.exponents, e, factors):
        k = (-c * ej) % d
        if k:
            acc = acc * zeta(d, k)
    return acc


def exhaustive_relative_invariant(grp, chi, degree_bound):
    """The first nonzero character-weighted sum of a monomial, scanning
    every degree from 1 up to the bound; None when all of them vanish."""
    for degree in range(1, degree_bound + 1):
        for acc in chi_averages(grp, chi, degree):
            if not acc.is_zero:
                return acc
    return None


# --- dense matrix reference ---------------------------------------------------
# Schoolbook linear algebra from CyclotomicNumber `+` and `*` alone: no
# sparse walk, no fused accumulation, no elimination.


def value_key(x):
    """A cyclotomic value's stored form: conductor, numerators, denominator."""
    return (x.conductor, x.nums, x.den)


def dense_product(a, b):
    """a @ b by the triple loop, entries summed from zero at the common
    conductor."""
    n = math.lcm(a.conductor, b.conductor)
    zero = rational(0).embed(n)
    rows = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            acc = zero
            for k in range(a.dim):
                acc = acc + a.rows[i][k] * b.rows[k][j]
            row.append(acc)
        rows.append(tuple(row))
    return CycMatrix(a.dim, n, tuple(rows))


def dense_apply(m, v):
    """m v, entries summed from zero at the matrix conductor."""
    out = []
    for row in m.rows:
        acc = rational(0).embed(m.conductor)
        for e, c in zip(row, v):
            acc = acc + e * c
        out.append(acc)
    return out


def dense_trace(m):
    acc = rational(0).embed(m.conductor)
    for i in range(m.dim):
        acc = acc + m.rows[i][i]
    return acc


def dense_det(m):
    """The Leibniz formula: a signed product per permutation."""
    acc = rational(0).embed(m.conductor)
    for perm in itertools.permutations(range(m.dim)):
        inversions = sum(
            perm[i] > perm[j] for i in range(m.dim) for j in range(i + 1, m.dim)
        )
        term = rational(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * m.rows[i][j]
        acc = acc + term
    return acc


def dense_rank(m):
    """The largest k with a nonzero k x k minor (Leibniz determinants)."""
    for k in range(m.dim, 0, -1):
        for rows in itertools.combinations(range(m.dim), k):
            for cols in itertools.combinations(range(m.dim), k):
                minor = tuple(tuple(m.rows[i][j] for j in cols) for i in rows)
                if not dense_det(CycMatrix(k, m.conductor, minor)).is_zero:
                    return k
    return 0


def dense_minus_identity(m):
    """m - 1, as m + (-1) on the diagonal."""
    minus_one = rational(-1)
    return CycMatrix(
        m.dim,
        m.conductor,
        tuple(
            tuple(e + minus_one if i == j else e for j, e in enumerate(row))
            for i, row in enumerate(m.rows)
        ),
    )


def rank_mod(rows, p):
    """Rank over F_p by elimination: each row, in order, is reduced against
    the echelon rows kept before it (each with a 1 at its pivot) and kept,
    divided by its leading entry, if anything is left."""
    basis = {}
    for row in rows:
        vec = [c % p for c in row]
        for pivot, kept in basis.items():
            c = vec[pivot]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, kept)]
        lead = next((k for k, c in enumerate(vec) if c), None)
        if lead is not None:
            inv = pow(vec[lead], -1, p)
            basis[lead] = [c * inv % p for c in vec]
    return len(basis)


# --- schoolbook cyclotomic reference -------------------------------------------
# Fraction polynomials reduced by long division by the whole of
# cyclotomic_polynomial(n): no integer kernel, no common denominator carried
# through the arithmetic, no shortcut for rational operands.


def schoolbook_poly(x, n):
    """x as an unreduced Fraction polynomial in zeta_n, for n a multiple of
    its conductor: zeta_N^j becomes zeta_n^(j*n/N)."""
    step = n // x.conductor
    poly = [Fraction(0)] * ((len(x.nums) - 1) * step + 1)
    for j, c in enumerate(x.coeffs):
        poly[j * step] = c
    return poly


def schoolbook_form(n, poly):
    """The stored form (n, nums, den) of a Fraction polynomial in zeta_n:
    its remainder modulo Phi_n, over the lcm of its denominators."""
    modulus = cyclotomic_polynomial(n)
    deg = len(modulus) - 1
    rem = list(poly) + [Fraction(0)] * max(0, deg - len(poly))
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, m in enumerate(modulus):
                if m:
                    rem[i - deg + j] -= c * m
    rem = rem[:deg]
    den = math.lcm(*(c.denominator for c in rem))
    return (n, tuple(int(c * den) for c in rem), den)


def _schoolbook_product_poly(x, y, n):
    a, b = schoolbook_poly(x, n), schoolbook_poly(y, n)
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    nonzero = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in nonzero:
                out[i + j] += ai * bj
    return out


def schoolbook_product(x, y):
    """The stored form of x * y at the lcm of the two conductors."""
    n = math.lcm(x.conductor, y.conductor)
    return schoolbook_form(n, _schoolbook_product_poly(x, y, n))


def schoolbook_sum(x, y, sign=1):
    """The stored form of x + sign * y at the lcm of the two conductors."""
    n = math.lcm(x.conductor, y.conductor)
    a, b = schoolbook_poly(x, n), schoolbook_poly(y, n)
    size = max(len(a), len(b))
    a += [Fraction(0)] * (size - len(a))
    b += [Fraction(0)] * (size - len(b))
    return schoolbook_form(n, [u + sign * v for u, v in zip(a, b)])


def schoolbook_dot(n, pairs):
    """The stored form of the sum of a * b over pairs, at conductor n."""
    total = [Fraction(0)]
    for a, b in pairs:
        prod = _schoolbook_product_poly(a, b, n)
        total += [Fraction(0)] * (len(prod) - len(total))
        for i, c in enumerate(prod):
            total[i] += c
    return schoolbook_form(n, total)


def schoolbook_embed(x, m):
    """The stored form of x lifted to conductor m."""
    return schoolbook_form(m, schoolbook_poly(x, m))


def miller_rabin_12(n):
    """Miller-Rabin for odd n > 37 with the first twelve prime bases, the
    primality test the package used before its sieve and Sinclair's bases:
    exact below psi_12 = 318665857834031151167461, which it accepts."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --- polynomial sums one coefficient at a time --------------------------------
# The polynomial loops the package used before it summed through `_dot`: one
# CyclotomicNumber product and one `+` per pair of coefficients, and
# `_add_into` where a running sum may cancel and start afresh.


def pairwise_product(f, g):
    """f * g by the pair loop: each product of two coefficients is added
    onto its exponent with `+`, so the sum keeps every conductor it meets."""
    from crepant.invariants import SparsePolynomial

    acc = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            prod = ca * cb
            acc[key] = acc[key] + prod if key in acc else prod
    return SparsePolynomial._trusted(f.nvars, acc)


def repeated_power(form, a):
    """form^a for a >= 1 as form^(a-1) * form by `pairwise_product`."""
    power = form
    for _ in range(a - 1):
        power = pairwise_product(power, form)
    return power


def termwise_substitute(f, forms):
    """f at x_j = forms[j] by the term loop: each term's product of
    `repeated_power`s, scaled by its coefficient and added by `_add_into`,
    terms in ascending exponent order."""
    from crepant.invariants import SparsePolynomial, _add_into

    nvars = forms[0].nvars
    acc = {}
    for exps in sorted(f.terms):
        coeff = f.terms[exps]
        piece = None
        for j, a in enumerate(exps):
            if a:
                p = repeated_power(forms[j], a)
                piece = p if piece is None else pairwise_product(piece, p)
        if piece is None:
            _add_into(acc, {(0,) * nvars: coeff})
        else:
            _add_into(acc, piece.scale(coeff).terms)
    return SparsePolynomial._trusted(nvars, acc)


def scale_and_add_averages(grp, chi, degree, coset_sums):
    """For each monomial of the degree, in monomials_of_degree order, its
    coset sums S_c, as `coset_sums(grp, exponents)` gives them, each scaled
    by conj(chi(c)) and added by `_add_into`, cosets in order."""
    from crepant.invariants import (
        SparsePolynomial,
        _add_into,
        monomials_of_degree,
    )

    conj = [
        chi.value_on_element(grp, grp.inv(r))
        for r in grp.abelianization().coset_reps
    ]
    for exps in monomials_of_degree(grp.dim, degree):
        terms = {}
        for value, sums in zip(conj, coset_sums(grp, exps)):
            _add_into(terms, sums.scale(value).terms)
        yield SparsePolynomial._trusted(grp.dim, terms)


def dense_conjugate(rows, seed):
    """P g P^-1 for each generator g, P = U L with U and L unipotent
    integer triangular matrices whose off-diagonal entries are drawn from
    [-2, 2] by random.Random(seed), U first, row by row: a presentation
    with dense rows of a group given by `rows`."""
    rng = random.Random(seed)
    dim = len(rows[0])

    def triangle(upper):
        return CycMatrix.from_rows(
            [
                [
                    1 if i == j else rng.randint(-2, 2) if (j > i) == upper else 0
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
        )

    P = triangle(True) @ triangle(False)
    P_inv = P.inverse()
    return [(P @ CycMatrix.from_rows(g) @ P_inv).render_rows() for g in rows]


def toric_class_group(r, exponent_rows):
    """(free rank, torsion) of Cl(X) for a terminalization X of C^n / G,
    G <= SL_n diagonal, generated by diag(z_r^a_1, ..., z_r^a_n) for each
    row a of `exponent_rows`, read off the toric fan with the standard
    library alone.  G is enumerated as vectors in (Q/Z)^n; N = Z^n +
    sum Z a/r; the rays are e_1..e_n and each element whose reduced vector
    sums to 1 (a junior element).  Written in a basis of N, the rays form
    an integer matrix whose cokernel is Cl(X): its rank is the number of
    juniors and its torsion the Smith invariants other than 1."""
    n = len(exponent_rows[0])
    steps = [tuple(Fraction(a, r) for a in row) for row in exponent_rows]
    elements = {(Fraction(0),) * n}
    queue = list(elements)
    for x in queue:
        for s in steps:
            y = tuple((u + v) % 1 for u, v in zip(x, s))
            if y not in elements:
                elements.add(y)
                queue.append(y)
    juniors = sorted(x for x in elements if sum(x) == 1)
    rays = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    rays += juniors
    # r N is spanned by r e_1, ..., r e_n and the exponent rows; its
    # triangular basis writes each ray r v with integer coordinates
    basis = _triangular_basis(
        [[r * int(i == j) for j in range(n)] for i in range(n)]
        + [list(row) for row in exponent_rows]
    )
    matrix = []
    for v in rays:
        w = [r * x for x in v]
        coords = []
        for col in range(n):
            rest = w[col] - sum(c * b[col] for c, b in zip(coords, basis))
            assert rest % basis[col][col] == 0, (v, basis)
            coords.append(int(rest // basis[col][col]))
        matrix.append(coords)
    invariants = _smith_invariants(matrix)
    assert len(invariants) == n
    return len(juniors), [d for d in invariants if d != 1]


def _triangular_basis(rows):
    """An upper triangular basis of the full-rank integer lattice spanned
    by `rows`, by gcd elimination one column at a time."""
    n = len(rows[0])
    rows = [list(row) for row in rows]
    basis = []
    for col in range(n):
        while True:
            live = sorted((row for row in rows if row[col]), key=lambda r: abs(r[col]))
            if len(live) == 1:
                break
            for row in live[1:]:
                q = row[col] // live[0][col]
                row[:] = [x - q * y for x, y in zip(row, live[0])]
        rows = [row for row in rows if row is not live[0]]
        basis.append(live[0])
    return basis


def _smith_invariants(matrix):
    """The nonzero Smith invariants d_1 | d_2 | ... of an integer matrix."""
    a = [list(row) for row in matrix]
    out = []
    while a and a[0]:
        entries = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not entries:
            break
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        for row in a[1:]:
            q = row[0] // p
            row[:] = [x - q * y for x, y in zip(row, a[0])]
        qs = [x // p for x in a[0]]
        for row in a:
            row[1:] = [x - q * row[0] for x, q in zip(row[1:], qs[1:])]
        if any(row[0] for row in a[1:]) or any(a[0][1:]):
            continue  # a smaller remainder is the next pivot
        bad = next((row for row in a[1:] if any(x % p for x in row[1:])), None)
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], bad)]
            continue
        out.append(abs(p))
        a = [row[1:] for row in a[1:]]
    return out
