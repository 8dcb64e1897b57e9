"""Polynomial invariants of finite matrix groups.

Sparse multivariate polynomials over cyclotomic fields, the contragredient
group action (g.f)(v) = f(g^-1 v), valuations attached to graded one-parameter
subgroups, characters of the abelianization, and a twisted averaging operator
that produces relative invariants one character at a time.  A character is
constant on the cosets of D = [G, G], so a monomial is averaged from one sum
of its images per coset, kept per group and shared by every character.  The
sum over D is taken once; the sum over a coset r D is its image under r when
the sum over D has at most |D| terms, and is summed element by element
otherwise.  The image of a monomial under a single element is not kept.

How the group scales an invariant f is read from one table per group and
f (`_tree_exponents`): each distinct generator takes one exact image of f,
which must be a root of unity times f, and is not kept.  Every other
element is a product of generators along its path in the closure's
Schreier tree, so its eigenvalue on f is read from theirs.  The
equivariance test of `relative_invariant`, the generator residues of the
`invariant` report and both lemma checks read that table; a Galois twist
enters only where an eigenvalue becomes a graded residue
(`_tree_residue`).  Each junior class's valuation is read at the member
`mckay.junior_gradings` chose: in the standard basis for a diagonal
member, else in an eigenbasis shared by the classes that one cyclic walk
meets, into which f is moved once (`_in_basis`).

Every sum of products goes through `cyclo._dot`, one call per output
monomial: a product of polynomials, the powers of a form (multinomial
expansion), a substitution and a character's average each collect the
coefficient pairs that meet on a monomial and sum them at once, with one
reduction and one gcd, not one value per pair.  Such a sum sits at the lcm
of its operands' conductors, as a running sum does.  Where the running sum
went through `_add_into`, which starts afresh after a cancellation, the
fused sum is brought to the conductor that order gives
(`_summed_in_order`), so the averages, which `invariant` prints, are
written as before.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .cyclo import (
    CyclotomicNumber,
    _canonical,
    _dot,
    _power,
    _reduce_ints,
    _times,
    as_root_of_unity,
    rational,
    zeta,
)
from .matgrp import (
    AbelianDecomposition,
    CycMatrix,
    FiniteMatrixGroup,
    SubgroupHandle,
    per_group,
)
from .mckay import (
    ConsistencyError,
    GaloisTwist,
    GradingData,
    IDENTITY_TWIST,
    _cyclic_group,
    _eigen_pass,
)

Scalar = Union[CyclotomicNumber, int, Fraction]


def _coerce(value: Scalar) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        return value
    return rational(value)


class SparsePolynomial:
    """Polynomial in x1..xn stored as {exponent tuple: nonzero coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], CyclotomicNumber]):
        if nvars < 1:
            raise ValueError("polynomials need at least one variable")
        clean: dict[tuple[int, ...], CyclotomicNumber] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars or any(a < 0 for a in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            c = _coerce(coeff)
            if not c.is_zero:
                clean[exps] = c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _trusted(
        cls, nvars: int, terms: dict[tuple[int, ...], CyclotomicNumber]
    ) -> "SparsePolynomial":
        """Internal constructor for terms built by the arithmetic below:
        exponent tuples already of length nvars and CyclotomicNumber
        coefficients.  Only zero coefficients are dropped."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = {e: c for e, c in terms.items() if not c.is_zero}
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePolynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "SparsePolynomial":
        return cls(nvars, {(0,) * nvars: _coerce(value)})

    @classmethod
    def monomial(
        cls, nvars: int, exps: Sequence[int], coeff: Scalar = 1
    ) -> "SparsePolynomial":
        return cls(nvars, {tuple(exps): _coerce(coeff)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SparsePolynomial":
        """The variable x_{index+1} (index is 0-based)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        exps = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(nvars, {exps: rational(1)})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> CyclotomicNumber:
        return self.terms.get(tuple(exps), rational(0))

    def total_degree(self) -> int:
        """Largest total degree among terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "SparsePolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self.terms)
        _add_into(acc, other.terms)
        return SparsePolynomial._trusted(self.nvars, acc)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial._trusted(
            self.nvars, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other: Union["SparsePolynomial", Scalar]) -> "SparsePolynomial":
        if isinstance(other, (CyclotomicNumber, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._check_compatible(other)
        groups: dict = {}
        add = operator.add
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                groups.setdefault(tuple(map(add, ea, eb)), []).append((ca, cb))
        return SparsePolynomial._trusted(
            self.nvars, {e: _sum_of_products(p) for e, p in groups.items()}
        )

    def __rmul__(self, other: Scalar) -> "SparsePolynomial":
        return self.scale(other)

    def scale(self, value: Scalar) -> "SparsePolynomial":
        """value * self.  Scaling by the rational 1 returns self: it would
        change no coefficient and no conductor."""
        c = _coerce(value)
        if c.is_zero:
            return SparsePolynomial.zero(self.nvars)
        if c.conductor == 1 and c.is_one:
            return self
        return SparsePolynomial._trusted(
            self.nvars, {e: coeff * c for e, coeff in self.terms.items()}
        )

    def __pow__(self, exponent: int) -> "SparsePolynomial":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        one = SparsePolynomial.constant(self.nvars, 1)
        return _power(self, exponent, operator.mul, one)

    # -- substitution and rendering ----------------------------------------

    def substitute(self, forms: Sequence["SparsePolynomial"]) -> "SparsePolynomial":
        """Evaluate at x_j = forms[j]; all forms share one variable count."""
        if len(forms) != self.nvars:
            raise ValueError(
                f"need {self.nvars} substitution forms, got {len(forms)}"
            )
        if not forms:
            raise ValueError("empty substitution")
        nv = forms[0].nvars
        for f in forms:
            if f.nvars != nv:
                raise ValueError("substitution forms disagree on variable count")
        return self._substitute(_Powers(forms))

    def _substitute(self, powers: "_Powers") -> "SparsePolynomial":
        """Evaluate at x_j = powers.forms[j].  Each term's piece is the
        product of its powers of the forms, taken from `powers`.  Every
        output monomial is one `_summed_in_order` over the pairs
        (coefficient, coefficient of the piece) that meet on it, terms in
        ascending exponent order; a one-term polynomial is its piece
        scaled."""
        nvars = powers.nvars
        groups: dict = {}
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            piece = None
            for j, a in enumerate(exps):
                if a:
                    p = powers.power(j, a)
                    piece = p if piece is None else piece * p
            if piece is None:
                piece = SparsePolynomial._trusted(nvars, {(0,) * nvars: _ONE})
            if len(self.terms) == 1:
                return piece.scale(coeff)
            for e, c in piece.terms.items():
                groups.setdefault(e, []).append((coeff, c))
        return SparsePolynomial._trusted(
            nvars, {e: _summed_in_order(p) for e, p in groups.items()}
        )

    def render(self) -> str:
        """Terms like c*x1^a1*x3 joined by +, constants and unit coefficients
        kept minimal; composite coefficients are parenthesized."""
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), tuple(-a for a in e))):
            coeff = self.terms[exps]
            factors = []
            for j, a in enumerate(exps):
                if a == 1:
                    factors.append(f"x{j + 1}")
                elif a > 1:
                    factors.append(f"x{j + 1}^{a}")
            text = coeff.render()
            bare = text.isdigit()
            if not factors:
                pieces.append(text if bare else f"({text})")
            elif text == "1":
                pieces.append("*".join(factors))
            elif bare:
                pieces.append("*".join([text] + factors))
            else:
                pieces.append("*".join([f"({text})"] + factors))
        return "+".join(pieces)

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.render()!r})"


def _add_into(
    acc: dict[tuple[int, ...], CyclotomicNumber],
    terms: dict[tuple[int, ...], CyclotomicNumber],
) -> None:
    """acc += terms in place; a coefficient that cancels is removed at
    once, so a later term on the same exponent starts afresh, at its own
    conductor: a sum's conductor depends on the order of summing.
    `__add__` and `_coset_sums` sum through here; `_summed_in_order` gives
    the same coefficients from one fused sum."""
    for exps, coeff in terms.items():
        old = acc.get(exps)
        if old is None:
            acc[exps] = coeff
        else:
            total = old + coeff
            if total.is_zero:
                del acc[exps]
            else:
                acc[exps] = total


_ONE = rational(1)


def _scaled(c: CyclotomicNumber, k: int) -> CyclotomicNumber:
    """k * c for an integer k, at the conductor of c: its numerators
    scaled and brought to lowest terms."""
    return _canonical(c.conductor, [k * x for x in c.nums], c.den)


def _sum_of_products(pairs: list) -> CyclotomicNumber:
    """The sum of a * b over the (a, b) in `pairs`, at the lcm n of all
    their conductors: one `_dot`, each operand lifted to n by `embed`.
    That is the value and the conductor of the running sum of the
    products, which keeps every conductor it meets.  A single pair is one
    product, and a rational 1 in it returns the other operand."""
    if len(pairs) == 1:
        a, b = pairs[0]
        if a.conductor == 1 and a.is_one:
            return b
        if b.conductor == 1 and b.is_one:
            return a
        return _times(a, b)
    conductors = {x.conductor for pair in pairs for x in pair}
    if len(conductors) == 1:
        return _dot(conductors.pop(), pairs)
    n = math.lcm(*conductors)
    return _dot(
        n,
        [
            (
                a if a.conductor == n else a.embed(n),
                b if b.conductor == n else b.embed(n),
            )
            for a, b in pairs
        ],
    )


def _summed_in_order(pairs: list) -> CyclotomicNumber:
    """`_sum_of_products(pairs)` at the conductor `_add_into` would leave
    it at, adding the products in order.  There a partial sum that is zero
    starts the sum afresh, so the result sits at the lcm of the products'
    conductors after the last such zero.  Only a zero after the last
    product that brings the lcm up to the full conductor n can lower it:
    the products after that one are summed from the end, and the first
    suffix equal to the total is the result.  A key whose last product is
    at n is returned as fused."""
    total = _sum_of_products(pairs)
    n = total.conductor
    a, b = pairs[-1]
    if a.conductor == n or b.conductor == n or total.is_zero:
        return total
    m = 1
    tail = None
    for a, b in reversed(pairs):
        m = math.lcm(m, a.conductor, b.conductor)
        if m == n:
            break
        product = _times(a, b)
        tail = product if tail is None else tail + product
        if tail == total:
            return tail
    return total


class _Powers:
    """Powers of the forms that x_1..x_n are substituted by, each built on
    first use and kept for every later substitution through the same
    object.  One is kept per group element (`_element_powers`) and per
    junior eigenbasis (`_basis_powers`).

    forms[j]^a is expanded by the multinomial theorem, one term at a time:
    with c x^e the first term of the form and r the rest,
    (c x^e + r)^a = sum_b binom(a, b) c^b x^(b e) r^(a - b).  The powers
    c^b are kept (`leads`), and so are the powers of the rests, in one
    `_Powers` of the rests (`rest`).  Each monomial of forms[j]^a is one
    `_sum_of_products` over the pairs (binom(a, b) c^b, coefficient of
    r^(a - b)) that meet on it.  For a linear form one pair meets on each
    monomial, so each coefficient is one product, at the conductor that
    forms[j]^(a-1) * forms[j] gives it; the terms of a form that is not
    linear may meet, and are summed by `_dot`.  The powers of the zero
    form are zero, and a form of one term needs no rest."""

    __slots__ = ("nvars", "forms", "rows", "leads", "rest")

    def __init__(self, forms: Sequence[SparsePolynomial]):
        self.nvars = forms[0].nvars
        self.forms = tuple(forms)
        self.rows = [{1: form} for form in self.forms]  # rows[j][a] = forms[j]^a
        # leads[j] = [c, c^2, ...] for the first coefficient c of forms[j]
        self.leads = [list(itertools.islice(f.terms.values(), 1)) for f in self.forms]
        self.rest: Optional[_Powers] = None

    def power(self, j: int, a: int) -> SparsePolynomial:
        row = self.rows[j]
        if a not in row:
            row[a] = self._expand(j, a)
        return row[a]

    def _expand(self, j: int, a: int) -> SparsePolynomial:
        form = self.forms[j]
        if not form.terms:
            return form
        e = next(iter(form.terms))
        cs = self.leads[j]
        while len(cs) < a:
            cs.append(_times(cs[-1], cs[0]))
        top = tuple([a * x for x in e])
        if len(form.terms) == 1:
            return SparsePolynomial._trusted(self.nvars, {top: cs[a - 1]})
        if self.rest is None:
            self.rest = _Powers([
                SparsePolynomial._trusted(
                    self.nvars, dict(itertools.islice(f.terms.items(), 1, None))
                )
                for f in self.forms
            ])
        groups = {top: [(cs[a - 1], _ONE)]}
        add = operator.add
        for b in range(a):
            head = _scaled(cs[b - 1], math.comb(a, b)) if b else _ONE
            shift = [b * x for x in e]
            for f, c in self.rest.power(j, a - b).terms.items():
                groups.setdefault(tuple(map(add, shift, f)), []).append((head, c))
        return SparsePolynomial._trusted(
            self.nvars, {k: _sum_of_products(p) for k, p in groups.items()}
        )


def act(g: CycMatrix, f: SparsePolynomial) -> SparsePolynomial:
    """Action on functions: (g.f)(v) = f(g^-1 v)."""
    if g.dim != f.nvars:
        raise ValueError(f"matrix dimension {g.dim} vs {f.nvars} variables")
    return f.substitute(_linear_forms(g.inverse()))


def _linear_forms(m: CycMatrix) -> list[SparsePolynomial]:
    """Row j of m as the linear form sum_k m[j][k] * x_{k+1}."""
    n = m.dim
    return [
        SparsePolynomial(
            n,
            {
                tuple(1 if c == k else 0 for c in range(n)): m.rows[j][k]
                for k in range(n)
                if not m.rows[j][k].is_zero
            },
        )
        for j in range(n)
    ]


@per_group
def _element_powers(G: FiniteMatrixGroup, x: int) -> _Powers:
    """The powers through which element x acts: x.x_j is row j of x^-1 as
    a linear form.  Group elements carry their inverses, so nothing is
    inverted.  Built once per group and element, extended lazily to the
    degrees asked for, and shared by every polynomial x acts on: the
    monomials and the sums over [G, G] of the coset sums (`_coset_sums`),
    and each invariant a generator acts on (`_tree_exponents`)."""
    return _Powers(_linear_forms(G.matrix(G.inv(x))))


def monomials_of_degree(nvars: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of the given total degree, x1 filled greedily first
    (descending lexicographic order)."""
    if nvars == 1:
        yield (degree,)
        return
    for a in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - a):
            yield (a,) + rest


# -- valuations and graded degrees ------------------------------------------


def monomial_valuation(grading: GradingData, f: SparsePolynomial) -> int:
    """min over terms of the weighted degree, after moving f into the
    eigencoordinates the grading was computed in."""
    return _valuation(grading, f, None)


def _valuation(
    grading: GradingData, f: SparsePolynomial, support: Optional[tuple]
) -> int:
    """monomial_valuation(grading, f), `support` the exponents of f's
    terms in the grading's basis when the caller has them.  Otherwise a
    basis that is not standard is substituted here (`_support`)."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no valuation")
    if grading.basis.dim != f.nvars:
        raise ValueError("grading dimension does not match the polynomial")
    if support is None:
        support = f.terms if grading.basis_is_standard else _support(
            f, _Powers(_linear_forms(grading.basis))
        )
    w = grading.weights
    return min(sum(map(operator.mul, exps, w)) for exps in support)


def _support(f: SparsePolynomial, powers: _Powers) -> tuple:
    """The exponents of the terms of f substituted through `powers`, the
    powers of a basis's linear forms; ConsistencyError when the change of
    basis leaves nothing."""
    target = f._substitute(powers)
    if target.is_zero:
        raise ConsistencyError("change of basis killed a nonzero polynomial")
    return tuple(target.terms)


def graded_degree(
    g: CycMatrix,
    f: SparsePolynomial,
    order: Optional[int] = None,
    twist: GaloisTwist = IDENTITY_TWIST,
) -> Optional[int]:
    """Residue c mod ord(g) with g.f = zeta^(-c) f for the twisted root zeta,
    or None when f is not an eigenvector of the action of g.  Without a
    stated order, the order of g is read as the order of its closure <g>
    (`mckay._cyclic_group`, no eigen pass) only once f is known to be an
    eigenvector."""
    if f.is_zero:
        return None
    root = _eigenvalue(act(g, f), f)
    if root is None:
        return None
    r = order if order is not None else len(_cyclic_group(g))
    return _residue(*root, r, twist)


def _eigenvalue(gf: SparsePolynomial, f: SparsePolynomial) -> Optional[tuple]:
    """(n, k) with gf = zeta_n^k f, for a nonzero f and its image gf = g.f;
    None when gf is not a root of unity times f."""
    if set(gf.terms) != set(f.terms):
        return None
    pivot = min(f.terms)
    scalar = gf.terms[pivot] * f.terms[pivot].inverse()
    if gf != f.scale(scalar):
        return None
    return as_root_of_unity(scalar)


def _residue(n: int, k: int, r: int, twist: GaloisTwist) -> int:
    """The graded residue of an element of order r that scales f by the
    eigenvalue zeta_n^k: c with zeta_n^k = zeta_r^(-c), twisted to
    t^-1 c mod r.  The eigenvalue's order n / gcd(n, k) must divide r,
    else ArithmeticError."""
    g = math.gcd(n, k)
    if r % (n // g):
        raise ArithmeticError(
            f"eigenvalue of order {n // g} for an element of order {r}"
        )
    c = -(k // g) * (r * g // n) % r
    return twist.inverse_mod(r) * c % r


# -- characters of the abelianization ----------------------------------------


class _CharacterOfAbFields(NamedTuple):
    decomposition: AbelianDecomposition
    exponents: tuple[int, ...]


class CharacterOfAb(_CharacterOfAbFields):
    """Character of a finite abelian group, written against the invariant
    factor basis of a decomposition: the j-th basis generator is sent to
    zeta_{d_j}^(-c_j).  The exponents are kept reduced modulo the d_j."""

    __slots__ = ()

    def __new__(cls, decomposition: AbelianDecomposition, exponents: tuple[int, ...]):
        factors = decomposition.structure.invariant_factors
        if len(exponents) != len(factors):
            raise ValueError("one exponent per invariant factor")
        return super().__new__(
            cls, decomposition, tuple(c % d for c, d in zip(exponents, factors))
        )

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.exponents)

    def order(self) -> int:
        factors = self.decomposition.structure.invariant_factors
        return math.lcm(
            *(d // math.gcd(c, d) for c, d in zip(self.exponents, factors))
        )

    def value_on_coset(self, coset: int) -> CyclotomicNumber:
        """zeta_n^k (`_exponent_on_coset`), n the lcm of the invariant
        factors d_j whose term zeta_{d_j}^(-c_j e_j) is not 1: the
        conductor of the product of those terms."""
        e = self.decomposition.exponents_of(coset)
        factors = self.decomposition.structure.invariant_factors
        n = math.lcm(
            *(d for c, ej, d in zip(self.exponents, e, factors) if c * ej % d)
        )
        return zeta(n, self._exponent_on_coset(coset, n))

    def _exponent_on_coset(self, coset: int, n: int) -> int:
        """k with chi(coset) = prod_j zeta_{d_j}^(-c_j e_j) = zeta_n^k, e the
        coset's exponents in the invariant factor basis, for n a multiple
        of every d_j whose term is not 1."""
        e = self.decomposition.exponents_of(coset)
        factors = self.decomposition.structure.invariant_factors
        return sum(
            (-c * ej) % d * (n // d)
            for c, ej, d in zip(self.exponents, e, factors)
        ) % n

    def value_on_element(self, G: FiniteMatrixGroup, x: int) -> CyclotomicNumber:
        """Value on the image of a group element in the abelianization."""
        ab = self.decomposition.group
        return self.value_on_coset(ab.coset_of[x])


def characters_of(decomposition: AbelianDecomposition) -> tuple[CharacterOfAb, ...]:
    """All characters, exponent tuples in ascending lexicographic order, so
    the trivial character comes first."""
    factors = decomposition.structure.invariant_factors
    return tuple(
        CharacterOfAb(decomposition, exps)
        for exps in itertools.product(*(range(d) for d in factors))
    )


# -- relative invariants ------------------------------------------------------


def _molien_coefficients(
    G: FiniteMatrixGroup, chi: CharacterOfAb
) -> Iterator[int]:
    """Dimensions of the degree-d chi-relative invariants, d = 0, 1, 2, ...

    The coefficients of Stanley's chi-relative Molien series
    (1/|G|) sum_g conj(chi(g)) / det(1 - t g^-1), summed once per conjugacy
    class.  Every root of unity is a power of zeta_N, N the group exponent,
    and each class term lives in the group ring Z[Z/N] as a length-N integer
    vector, zeta_N^s acting by rotation; only the class sum is reduced
    modulo Phi_N.  The complete homogeneous sums of the eigenvalues of x^-1
    follow h_d(l_1..l_i) = h_d(l_1..l_{i-1}) + l_i h_{d-1}(l_1..l_i).  Each
    coefficient must come out a nonnegative rational integer after dividing
    by |G|, else ConsistencyError."""
    N = G.exponent
    ab = chi.decomposition.group
    exponents, _ = _eigen_pass(G)
    # per class of x: (class size, conj(chi(x)) = chi(y), eigenvalues of y),
    # y = x^-1, each root of unity as its exponent of zeta_N
    terms = []
    for cls in G.conjugacy_classes():
        y = G.inv(cls[0])
        step = N // G.element_orders[y]
        shifts = [a * step for a in exponents[y]]
        terms.append((len(cls), chi._exponent_on_coset(ab.coset_of[y], N), shifts))
    # hs[k][i] = h_d(first i eigenvalues of class k), starting at d = 0
    unit = [1] + [0] * (N - 1)
    hs = [[unit] * (len(shifts) + 1) for _, _, shifts in terms]
    for degree in itertools.count():
        total = [0] * N
        for (size, conj, _), h in zip(terms, hs):
            for s, c in enumerate(h[-1]):
                if c:
                    total[(s + conj) % N] += size * c
        reduced = _reduce_ints(N, total)
        value = Fraction(reduced[0], len(G))
        if any(reduced[1:]) or value.denominator != 1 or value < 0:
            raise ConsistencyError(
                f"Molien coefficient in degree {degree} is not a nonnegative "
                f"integer: {reduced} / {len(G)}"
            )
        yield int(value)
        for k, (_, _, shifts) in enumerate(terms):
            nxt = [[0] * N]
            for s, prev in zip(shifts, hs[k][1:]):
                moved = prev[N - s:] + prev[:N - s]
                nxt.append([a + b for a, b in zip(nxt[-1], moved)])
            hs[k] = nxt


@per_group
def _coset_sums(
    G: FiniteMatrixGroup, exps: tuple[int, ...]
) -> tuple[SparsePolynomial, ...]:
    """For the monomial m with these exponents, S_c(m), the sum of x.m over
    the elements x of each coset c of D = [G, G], cosets in the order of
    `G.abelianization()`.  Built once per group and monomial; every
    character averages m from these |Ab(G)| sums, and no image of m under
    a single element is kept.

    S_D(m), the sum over D itself, is summed from the images of m under
    the elements of D.  The cosets are r D, r the representative, and the
    action is a left action, so S_{rD}(m) = r.S_D(m): one image per coset.
    That substitution costs about one image of m per term of S_D(m), so it
    is taken when S_D(m) has at most |D| terms; otherwise each other coset
    sums its |D| images of m.  Either way no monomial costs more than its
    |G| images, and S_D(m) = 0 makes every coset sum 0.  Every element acts
    through its shared powers (`_element_powers`)."""
    ab = G.abelianization()
    derived = ab.normal.members
    mono = SparsePolynomial.monomial(G.dim, exps)
    inner: dict = {}
    for h in derived:
        _add_into(inner, mono._substitute(_element_powers(G, h)).terms)
    s_d = SparsePolynomial._trusted(G.dim, inner)
    if s_d.is_zero:
        return (s_d,) * len(ab)
    if len(s_d.terms) <= len(derived):
        return (s_d,) + tuple(
            s_d._substitute(_element_powers(G, r)) for r in ab.coset_reps[1:]
        )
    sums: list[dict] = [{} for _ in ab.coset_reps]
    for x in range(len(G)):
        c = ab.coset_of[x]
        if c:
            _add_into(sums[c], mono._substitute(_element_powers(G, x)).terms)
    return (s_d,) + tuple(
        SparsePolynomial._trusted(G.dim, terms) for terms in sums[1:]
    )


def _averages(
    G: FiniteMatrixGroup, chi: CharacterOfAb, degree: int
) -> Iterator[SparsePolynomial]:
    """sum_x conj(chi(x)) x.m for each monomial m of the degree, in
    `monomials_of_degree` order.  chi is constant on the cosets c of
    D = [G, G], so this is sum_c conj(chi(c)) S_c(m), S_c(m) the sum of
    x.m over c (`_coset_sums`: one sum over D, then one image of it per
    coset, or the coset's own images when that sum has more than |D|
    terms).  The cosets are those of `G.abelianization()`; chi is read on
    the inverse of each one's representative, through its own Ab(G), so
    chi may be built on any Ab(G) object of G.  Each coefficient of the
    average is one `_summed_in_order` over the pairs (conj(chi(c)),
    coefficient of S_c(m)), cosets in order: one `_dot`, at the conductor
    that scaling each S_c(m) and adding it would leave."""
    conj = [chi.value_on_element(G, G.inv(r)) for r in G.abelianization().coset_reps]
    for exps in monomials_of_degree(G.dim, degree):
        groups: dict = {}
        for value, sums in zip(conj, _coset_sums(G, exps)):
            for e, c in sums.terms.items():
                groups.setdefault(e, []).append((value, c))
        yield SparsePolynomial._trusted(
            G.dim, {e: _summed_in_order(p) for e, p in groups.items()}
        )


def relative_invariant(
    G: FiniteMatrixGroup,
    chi: CharacterOfAb,
    degree_bound: Optional[int] = None,
) -> Optional[SparsePolynomial]:
    """Smallest-degree nonzero f with g.f = chi(g mod [G,G]) f, of degree
    at least 1.

    The chi-relative Molien series names the first degree d0 <= bound with
    a nonzero chi-component; without one the answer is None and nothing is
    averaged.  The monomials of degree d0 are averaged with conjugate
    character weights, x1-heavy tuples first, and the first survivor is
    returned.  Every lower degree is zero by Molien, so this is the
    survivor a scan from degree 1 would find.  If every monomial of degree
    d0 dies, the two routes disagree and ConsistencyError is raised.

    Each average is taken per coset of D = [G, G] (`_averages`): the sum
    S_D(m) of a monomial's images over D is taken once, and each coset
    r D adds r.S_D(m), one image, when S_D(m) has at most |D| terms, or its
    own |D| images of m otherwise (`_coset_sums`).  These |Ab(G)| sums are
    kept per group, so characters whose search reaches the same monomial
    scale the same sums, and no image of a monomial under a single element
    is kept.  The survivor's eigenvalue on each generator, read off its
    tree table (`_tree_exponents`), must be chi's value there."""
    bound = degree_bound if degree_bound is not None else len(G)
    if bound < 1:
        raise ValueError("degree bound must be at least 1")
    ab = chi.decomposition.group
    if getattr(ab, "parent", None) is not G:
        raise ValueError("character does not belong to this group")
    dims = itertools.islice(_molien_coefficients(G, chi), 1, None)
    degree = next((d for d, dim in zip(range(1, bound + 1), dims) if dim), None)
    if degree is None:
        return None
    acc = next((f for f in _averages(G, chi, degree) if not f.is_zero), None)
    if acc is None:
        raise ConsistencyError(
            "the Molien series promises a relative invariant of degree "
            f"{degree}, but every monomial of that degree averages to zero"
        )
    try:
        exponents = _tree_exponents(G, acc)
    except ValueError:  # acc is not semi-invariant
        exponents = None
    if exponents is None or any(
        exponents[gid] != chi._exponent_on_coset(ab.coset_of[gid], G.exponent)
        for gid in G.generator_ids
    ):
        raise ConsistencyError(
            "averaged polynomial fails the defining equivariance"
        )
    return acc


# -- lemma checks -------------------------------------------------------------


class CongruenceRecord(NamedTuple):
    """One junior representative's valuation against its graded residue."""

    element_id: int
    order: int
    valuation: int
    graded_residue: int


@per_group
def _basis_powers(G: FiniteMatrixGroup, basis: CycMatrix) -> _Powers:
    """The powers of the linear forms of a junior eigenbasis, built once
    per group and basis and shared by every polynomial moved into it."""
    return _Powers(_linear_forms(basis))


@per_group
def _in_basis(G: FiniteMatrixGroup, basis: CycMatrix, f: SparsePolynomial) -> tuple:
    """The exponents of f's terms in a junior eigenbasis (`_support`),
    once per group, basis and f: junior classes met on one walk share
    their basis (`mckay.junior_gradings`), and the congruence and the
    membership checks both read it."""
    return _support(f, _basis_powers(G, basis))


def _junior_valuation(
    G: FiniteMatrixGroup, grading: GradingData, f: SparsePolynomial
) -> int:
    """monomial_valuation(grading, f) for a junior class's grading, f
    moved into a basis that is not standard through `_in_basis`."""
    standard = grading.basis_is_standard
    return _valuation(grading, f, None if standard else _in_basis(G, grading.basis, f))


@per_group
def _tree_exponents(
    G: FiniteMatrixGroup, f: SparsePolynomial
) -> tuple[int, ...]:
    """k(x) with x.f = zeta_E^k(x) f for every element x, E = G.exponent,
    once per group and f, whatever the twist.  Each distinct generator
    takes one exact image of f, not kept, which must be a root of unity
    times f (`_eigenvalue`), else ValueError: f is not semi-invariant.
    Its eigenvalue must have an order dividing the generator's
    (`_residue`).  Element y was found as h.p (the Schreier tree of
    `FiniteMatrixGroup`), and acting is a homomorphism, so k(y) = k(h) +
    k(p); labels are read in search order, each after its parent.  No
    image of f under a non-generator is taken."""
    E, orders = G.exponent, G.element_orders
    by_id: dict[int, int] = {}
    for gid in G.generator_ids:
        if gid in by_id:
            continue
        root = _eigenvalue(f._substitute(_element_powers(G, gid)), f)
        if root is None:
            raise ValueError(
                "polynomial is not semi-invariant under the group generators"
            )
        r = orders[gid]
        by_id[gid] = -_residue(*root, r, IDENTITY_TWIST) * (E // r) % E
    by_step = [by_id[gid] for gid in G.generator_ids]
    exponents = [0] * len(G)
    for y, (h, p) in enumerate(zip(G._steps, G._parents)):
        if y:
            exponents[y] = (by_step[h] + exponents[p]) % E
    return tuple(exponents)


def _tree_residue(
    G: FiniteMatrixGroup, exponents: tuple[int, ...], x: int, twist: GaloisTwist
) -> int:
    """The graded residue of element x under `twist`, read off
    `_tree_exponents`: x scales f by zeta_E^k (`_residue`).  The one
    place the twist enters the tree's residues."""
    return _residue(G.exponent, exponents[x], G.element_orders[x], twist)


def check_congruence_lemma(
    G: FiniteMatrixGroup,
    gradings: Sequence[tuple[int, GradingData]],
    f: SparsePolynomial,
    twist: GaloisTwist = IDENTITY_TWIST,
) -> tuple[CongruenceRecord, ...]:
    """For a semi-invariant f and each junior class, listed as (x,
    grading): the monomial valuation in the grading's eigencoordinates
    must agree with the graded residue of the representative x modulo the
    element order.  The grading may be that of another member y = h x h^-1
    (`mckay.junior_gradings`); both sides are class functions for a
    semi-invariant f, and the residue, read first, raises ValueError when
    f is not one.  The residue is read along the Schreier tree from the
    generators' eigenvalues on f (`_tree_exponents`), not from an image
    of f under x.
    Raises ConsistencyError on any mismatch."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no valuation")
    exponents = _tree_exponents(G, f)
    records = []
    for element_id, grading in gradings:
        v = _junior_valuation(G, grading, f)
        c = _tree_residue(G, exponents, element_id, twist)
        if (v - c) % grading.order != 0:
            raise ConsistencyError(
                f"element {element_id}: valuation {v} != residue {c} "
                f"mod {grading.order}"
            )
        records.append(
            CongruenceRecord(
                element_id=element_id,
                order=grading.order,
                valuation=v,
                graded_residue=c,
            )
        )
    return tuple(records)


def check_junior_ring_membership(
    G: FiniteMatrixGroup,
    H: SubgroupHandle,
    gradings: Sequence[tuple[int, GradingData]],
    f: SparsePolynomial,
    twist: GaloisTwist = IDENTITY_TWIST,
) -> tuple[bool, bool]:
    """Two routes to 'f lives on the quotient by the junior span': every
    junior valuation divisible by the element order, versus invariance under
    the subgroup the juniors generate, read as a residue of 0 along the
    Schreier tree (`_tree_exponents`) for each of H's generators.  Returns
    (divisible, invariant) and insists the two answers agree."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no valuation")
    exponents = _tree_exponents(G, f)
    divisible = all(
        _junior_valuation(G, grading, f) % grading.order == 0
        for _, grading in gradings
    )
    invariant = all(
        _tree_residue(G, exponents, x, twist) == 0 for x in H.generator_labels()
    )
    if divisible != invariant:
        raise ConsistencyError(
            f"divisibility says {divisible} but invariance says {invariant}"
        )
    return divisible, invariant
