"""Exact arithmetic in cyclotomic fields.

A `CyclotomicNumber` is the residue of a rational polynomial in a primitive
N-th root of unity modulo the N-th cyclotomic polynomial.  It is stored with
denominators cleared, as GAP stores its cyclotomics: integer numerators
(length phi(N)) over one positive common denominator, in lowest terms.  For a
fixed conductor N that form is unique, so equality tests and dict keying are
sound.  Addition and multiplication work on integers only; `Fraction` appears
at the edges (`coeffs`, `rational_value`, and rational inputs).  Arithmetic
lifts operands to the lcm of their conductors and never tries to shrink a
conductor back down; values that happen to be rational still compare equal
across conductors because comparison always lifts to a common field first.

One routine, `_reduce_ints`, reduces modulo Phi_N: a long division in place
that folds each coefficient of x^i, i >= phi(N), down through the nonzero
lower coefficients of the monic Phi_N (its tail, kept per conductor once
asked for).  Products, the fused sums of `_dot`, lifts to a larger
conductor, `zeta` and the callers' integer sums all go through it.  A
rational operand (conductor 1) of a product only scales the other
operand's numerators, and the product keeps the other operand's conductor,
the lcm of the two; lifting a rational pads it with zeros.  The roots of
unity in Q(zeta_N) are the +-zeta_N^j, so `as_root_of_unity` walks
a * zeta_N^i, one shift and one fold per step, and computes no power.

A value made as a root of unity carries its exponent: `zeta`, `rational`
of +-1, negation, `embed` and the product of two such values (so also
the parser's E(n)^k) set `_root` = e for zeta_2N^e, and nothing searches
for it.  Two such values multiply by adding exponents, the product read
from a table of the most recent 256 roots; such a value times another
rotates the other's numerators in Z[x]/(x^N - 1) and folds them once,
with no gcd, as a unit keeps lowest terms; `_dot` adds such products the
same way; `as_root_of_unity` reads the exponent off.  The power-basis
numerators stay the one canonical form, so `==` and `hash` never look at
`_root`; `render` writes +-zeta_N^j, j < phi(N), from it, a single basis
term, without scanning the phi(N) numerators.

`to_complex` is the only bridge to floating point.  It exists for numerical
cross-check harnesses; no arithmetic in this module depends on it.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

__all__ = [
    "CyclotomicNumber",
    "CycloParseError",
    "as_root_of_unity",
    "cyclotomic_polynomial",
    "divisors",
    "euler_phi",
    "parse_cyclotomic",
    "rational",
    "zeta",
]

Rationalish = Union[int, Fraction]

# The most work a conductor N may imply for one reduction modulo Phi_N:
# (N - phi(N)) * phi(N) bounds the N - phi(N) top coefficients, each folded
# through at most phi(N) tail terms.  Prime conductors, whose N - phi(N) is
# 1, stay cheap (2003 and 1000003 pass); 30030 and 510510 are refused.
MAX_REDUCTION_WORK = 10**7


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, multiplicity), ...)."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in _factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in _factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree,
    from the Moebius product Phi_n = prod over squarefree s | n of
    (x^(n/s) - 1)^mu(s) (Lang, Algebra, ch. VI sec. 3): the binomials with
    mu(s) = 1 are multiplied in, then those with mu(s) = -1 are divided
    out exactly, Q_i = Q_(i-m) - P_i for P = Q * (x^m - 1).  No Phi_d of a
    smaller d is needed."""
    plus, minus = [n], []  # n / s for the squarefree s | n, mu(s) = 1, -1
    for p, _ in _factorize(n):
        plus, minus = plus + [m // p for m in minus], minus + [m // p for m in plus]
    poly = [1]
    for m in plus:
        poly = [a - b for a, b in zip([0] * m + poly, poly + [0] * m)]
    for m in minus:
        quo = [0] * m  # quo[i + m] = Q_i = Q_(i-m) - P_i
        for c in poly[:-m]:
            quo.append(quo[-m] - c)
        if quo[-m:] != poly[-m:]:
            raise ArithmeticError("non-exact polynomial division")
        poly = quo[m:]
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(n), tail): the tail holds (j, c) for each nonzero coefficient c
    of x^j, j < phi(n), in Phi_n."""
    poly = cyclotomic_polynomial(n)
    return len(poly) - 1, tuple((j, c) for j, c in enumerate(poly[:-1]) if c)


def _reduce_ints(n: int, vec: list[int]) -> list[int]:
    """Reduce an integer coefficient vector of any length modulo Phi_n, in
    place: long division by the monic Phi_n, each top coefficient folded
    down through the nonzero lower coefficients of Phi_n.  Returns `vec`,
    cut or padded to length phi(n)."""
    phi, tail = _phi_tail(n)
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            base = i - phi
            for j, p in tail:
                vec[base + j] -= c * p
    if len(vec) > phi:
        del vec[phi:]
    else:
        vec += [0] * (phi - len(vec))
    return vec


@lru_cache(maxsize=None)
def _trace_vector(n: int) -> tuple[int, ...]:
    # Trace of zeta_n^j over Q, j = 0..phi(n)-1 (Ramanujan sum formula).
    phi = euler_phi(n)
    out = []
    for j in range(phi):
        d = n // math.gcd(n, j)
        mu = 1
        for _, e in _factorize(d):
            if e > 1:
                mu = 0
                break
            mu = -mu
        out.append(mu * (phi // euler_phi(d)))
    return tuple(out)


def _canonical(n: int, nums: list[int], den: int) -> "CyclotomicNumber":
    """nums/den at conductor n (den > 0), brought to lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return CyclotomicNumber(n, tuple(nums), den)


class CyclotomicNumber:
    """An element of Q(zeta_N), stored as a reduced residue mod Phi_N.

    The value is (sum of nums[j] * zeta_N^j over j < phi(N)) / den, with
    integer `nums` and a positive integer `den` in lowest terms:
    gcd(den, *nums) == 1.  Each value has exactly one such form at a given
    conductor, so equality at one conductor is equality of (nums, den).

    `_root` is e when the value is known to be zeta_2N^e (0 <= e < 2N; e
    is even unless N is odd, so these are the +-zeta_N^k), else None.  It
    is set where such a value is made (`zeta`, `rational` of +-1,
    negation, `embed`, and the product of two such values, so also the
    parser's E(n)^k) and never searched for: a sum that happens to be a
    root of unity stays untagged.  It is a hint for products and for
    `render`, which writes a root from it the same text the numerators
    give; `nums` and `den` stay the one canonical form, and `==` and
    `hash` ignore it.  `_text` keeps the rendered text, formed at most
    once per value.
    """

    __slots__ = ("conductor", "nums", "den", "_root", "_hash", "_text")

    def __init__(
        self,
        conductor: int,
        nums: tuple[int, ...],
        den: int = 1,
        root: Optional[int] = None,
    ):
        # Internal constructor: `nums` must already be reduced (length
        # phi(conductor)) and in lowest terms with `den`, and equal to
        # zeta_2N^root when `root` is given.  Use rational(), zeta(), or
        # parse_cyclotomic().
        self.conductor = conductor
        self.nums = nums
        self.den = den
        self._root = root
        self._hash: Optional[int] = None
        self._text: Optional[str] = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in the power basis, as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    # -- conductor handling ----------------------------------------------

    def _lifted_nums(self, m: int) -> tuple[int, ...]:
        # Numerators at conductor m (a multiple of N); the denominator is
        # unchanged and stays in lowest terms, because Z[zeta_N] is a direct
        # summand of Z[zeta_m].
        if m == self.conductor:
            return self.nums
        if self.conductor == 1:
            return self.nums + (0,) * (euler_phi(m) - 1)
        step = m // self.conductor
        nums = self.nums
        vec = [0] * ((len(nums) - 1) * step + 1)
        for j, c in enumerate(nums):
            if c:
                vec[j * step] = c
        return tuple(_reduce_ints(m, vec))

    def embed(self, m: int) -> "CyclotomicNumber":
        """Image under Q(zeta_N) -> Q(zeta_m), zeta_N |-> zeta_m^(m/N).

        Requires N | m; this is a ring homomorphism (in fact injective).
        """
        if m % self.conductor:
            raise ValueError(
                f"cannot embed conductor {self.conductor} into {m}: not a multiple"
            )
        if self._root is not None:
            return _root_value(m, self._root * (m // self.conductor))
        return CyclotomicNumber(m, self._lifted_nums(m), self.den)

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    @property
    def rational_value(self) -> Optional[Fraction]:
        """The value as a Fraction if it is rational, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(value) -> Optional["CyclotomicNumber"]:
        if isinstance(value, CyclotomicNumber):
            return value
        if isinstance(value, int):
            return CyclotomicNumber(1, (int(value),))
        if isinstance(value, Fraction):
            return CyclotomicNumber(1, (value.numerator,), value.denominator)
        return None

    def _add(self, other: "CyclotomicNumber", sign: int) -> "CyclotomicNumber":
        # self + sign * other, sign = +-1
        n = math.lcm(self.conductor, other.conductor)
        a = self._lifted_nums(n)
        b = other._lifted_nums(n)
        da, db = self.den, other.den
        if da != db:
            den = math.lcm(da, db)
            fa, fb = den // da, sign * (den // db)
            return _canonical(n, [x * fa + y * fb for x, y in zip(a, b)], den)
        if sign > 0:
            return _canonical(n, [x + y for x, y in zip(a, b)], da)
        return _canonical(n, [x - y for x, y in zip(a, b)], da)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        n, root = self.conductor, self._root
        return CyclotomicNumber(
            n,
            tuple(-c for c in self.nums),
            self.den,
            None if root is None else (root + n) % (2 * n),
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._add(self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _times(self, other)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse (Phi_N is irreducible, so every nonzero
        residue is a unit).

        With a = nums as an integer polynomial and D = Res(Phi_N, a), the
        norm of a, the vector b = D * a^-1 is integral.  The extended
        Euclidean algorithm over F_p gives D and b mod p; primes are added
        and combined by CRT until the balanced residues stop changing and
        a * b == D holds exactly.  Then (a/den)^-1 = den * b / D.
        """
        if self.is_zero:
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        n, a, den = self.conductor, self.nums, self.den
        if not any(a[1:]):
            sign = 1 if a[0] > 0 else -1
            return CyclotomicNumber(n, (sign * den,) + a[1:], abs(a[0]))
        modulus = cyclotomic_polynomial(n)
        zeros = [0] * (len(a) - 1)
        residues: list[int] = []
        m = 1
        balanced: list[int] = []
        for p in _primes():
            image = _norm_and_adjugate_mod(a, modulus, p)
            if image is None:
                continue  # p divides the norm
            if not residues:
                residues = image
            else:
                # CRT: keep residues mod m, fold in the residues mod p
                m_inv = pow(m, -1, p)
                residues = [
                    r + m * ((w - r) * m_inv % p) for r, w in zip(residues, image)
                ]
            m *= p
            half = m // 2
            previous = balanced
            balanced = [r - m if r > half else r for r in residues]
            if balanced == previous:
                norm, adj = balanced[0], balanced[1:]
                if _mul_ints(n, a, adj) == [norm] + zeros:
                    if norm < 0:
                        norm, adj = -norm, [-c for c in adj]
                    return _canonical(n, [den * c for c in adj], norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        return _signed_power(self, exponent, operator.mul)

    # -- comparison and hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den != other.den:
            return False
        if self.conductor == other.conductor:
            return self.nums == other.nums
        n = math.lcm(self.conductor, other.conductor)
        return self._lifted_nums(n) == other._lifted_nums(n)

    def __hash__(self) -> int:
        # Conductor-independent: rational values hash like their Fraction,
        # other values hash on normalized traces of a and a^2 (both invariant
        # under embedding into a larger cyclotomic field).
        if self._hash is None:
            rv = self.rational_value
            if rv is not None:
                self._hash = hash(rv)
            else:
                self._hash = hash((self._trace_avg(), (self * self)._trace_avg()))
        return self._hash

    def _trace_avg(self) -> Fraction:
        tv = _trace_vector(self.conductor)
        total = sum(c * t for c, t in zip(self.nums, tv))
        return Fraction(total, self.den * len(self.nums))

    def __bool__(self) -> bool:
        return any(self.nums)

    # -- output -------------------------------------------------------------

    def to_complex(self) -> complex:
        """Float image at the embedding zeta_N = exp(2*pi*i/N).  Test use only."""
        n = self.conductor
        return sum(
            c / self.den * cmath.exp(2j * cmath.pi * j / n)
            for j, c in enumerate(self.nums)
            if c
        ) or complex(0)

    def render(self) -> str:
        """Canonical expression string; parse_cyclotomic(render()) == self.
        Formed once per value and kept.  A root of unity +-zeta_N^j with
        j < phi(N) is one basis term, written from its exponent."""
        if self._text is None:
            n, e = self.conductor, self._root
            j, sign = (0, 0) if e is None else _root_shift(n, e)
            if sign and j < len(self.nums):
                text = "1" if j == 0 else _power_text(n, j)
                self._text = text if sign > 0 else "-" + text
            else:
                self._text = self._basis_text()
        return self._text

    def _basis_text(self) -> str:
        n = self.conductor
        den = self.den
        parts = []
        for j, c in enumerate(self.nums):
            if not c:
                continue
            g = math.gcd(c, den)
            num, d = c // g, den // g
            coeff = str(num) if d == 1 else f"{num}/{d}"
            if j == 0:
                term = coeff
            else:
                power = _power_text(n, j)
                if c == den:
                    term = power
                elif c == -den:
                    term = "-" + power
                else:
                    term = f"{coeff}*{power}"
            parts.append(term)
        if not parts:
            return "0"
        text = parts[0]
        for term in parts[1:]:
            text += term if term.startswith("-") else "+" + term
        return text

    def __repr__(self) -> str:
        return f"<cyc {self.render()}>"


def _power(x, k: int, mul, one):
    """x^k for k >= 0 by square-and-multiply, `mul` the product of two
    values; `one` is the value of x^0.  The first factor of the result is
    taken as it is, so nothing is multiplied by `one`.  The one powering
    loop for cyclotomic values, polynomials, matrices and group labels."""
    result = None
    while k:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one if result is None else result


def _signed_power(x: CyclotomicNumber, k: int, mul) -> CyclotomicNumber:
    """x^k by `_power` with the product `mul`; a negative k powers the
    inverse, and x^0 is 1 at the conductor of x."""
    base = x if k >= 0 else x.inverse()
    return _power(base, abs(k), mul, rational(1).embed(base.conductor))


def _times(x: CyclotomicNumber, y: CyclotomicNumber) -> CyclotomicNumber:
    """x * y at the lcm of the two conductors.  Two roots of unity (both
    `_root` set) multiply by adding exponents; a rational operand scales
    the other one's numerators; a root times any other value rotates that
    value's numerators (`_rotated`) and keeps its denominator, as a unit
    keeps lowest terms; otherwise the numerators are convolved and
    reduced (`_mul_ints`)."""
    n, m = x.conductor, y.conductor
    c = n if n == m else math.lcm(n, m)
    if x._root is not None and y._root is not None:
        return _root_value(c, (x._root * (c // n) + y._root * (c // m)) % (2 * c))
    den = x.den * y.den
    if n == 1 or m == 1:
        x, r = (x, y.nums[0]) if m == 1 else (y, x.nums[0])
        return _canonical(c, [r * v for v in x.nums], den)
    if y._root is not None:
        x, y, n = y, x, m
    if x._root is not None:
        nums = _rotated(c, y._lifted_nums(c), x._root * (c // n))
        return CyclotomicNumber(c, tuple(nums), y.den)
    return _canonical(c, _mul_ints(c, x._lifted_nums(c), y._lifted_nums(c)), den)


def _power_text(n: int, j: int) -> str:
    """zeta_n^j, 0 < j, as an expression string."""
    return f"E({n})" if j == 1 else f"E({n})^{j}"


def _root_shift(n: int, e: int) -> tuple[int, int]:
    """(j, s) with zeta_2n^e = s * zeta_n^j, 0 <= j < n, s = +-1, for
    0 <= e < 2n (e odd only when n is odd, where -1 = zeta_2n^n)."""
    if e % 2:
        return (e + n) // 2 % n, -1
    return e // 2, 1


def _rotated(n: int, nums, e: int) -> list[int]:
    """The numerators of (nums at conductor n) * zeta_2n^e: a rotation by
    j in Z[x]/(x^n - 1), which Phi_n divides, and one `_reduce_ints`, which
    folds only the n - phi(n) top coefficients."""
    j, sign = _root_shift(n, e)
    vec = list(nums)
    vec += [0] * (n - len(vec))
    if j:
        vec = vec[n - j:] + vec[:n - j]
    if sign < 0:
        vec = [-c for c in vec]
    return _reduce_ints(n, vec)


@lru_cache(maxsize=256)
def _root_value(n: int, e: int) -> CyclotomicNumber:
    """zeta_2n^e at conductor n, tagged.  Kept for the most recent 256
    (n, e) only, so a large conductor leaves few phi(n)-entry values
    behind."""
    return CyclotomicNumber(n, tuple(_rotated(n, (1,), e)), 1, e)


@lru_cache(maxsize=64)
def _zero(n: int) -> CyclotomicNumber:
    """0 at conductor n, one shared value per conductor."""
    return CyclotomicNumber(n, (0,) * euler_phi(n))


def _mul_ints(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Product of two integer residues at conductor n, reduced mod Phi_n."""
    b = [(j, c) for j, c in enumerate(b) if c]
    if not b or not any(a):
        return [0] * len(a)
    conv = [0] * (len(a) + b[-1][0])
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b:
                conv[i + j] += ai * bj
    return _reduce_ints(n, conv)


def _dot(n: int, pairs) -> CyclotomicNumber:
    """The sum of a * b over the (a, b) in `pairs`, every operand already at
    conductor n.  The products are convolved into one integer buffer at the
    lcm of their denominators, then reduced mod Phi_n and brought to lowest
    terms once, so the result is the canonical form that the sum of the
    separate products would have.  A product with a root of unity (`_root`
    set) is added as a rotation mod x^n - 1, and one of two roots as the
    single term of the summed exponents."""
    conv = [0] * max(2 * euler_phi(n) - 1, n)
    den = 1
    for a, b in pairs:
        d = a.den * b.den
        scale = 1
        if d != den:
            if den % d:
                common = math.lcm(den, d)
                grow = common // den
                conv = [c * grow for c in conv]
                den = common
            scale = den // d
        if a._root is not None and b._root is not None:
            j, sign = _root_shift(n, (a._root + b._root) % (2 * n))
            conv[j] += sign * scale
        elif a._root is not None or b._root is not None:
            root, nums = (a._root, b.nums) if b._root is None else (b._root, a.nums)
            j, sign = _root_shift(n, root)
            scale *= sign
            for i, y in enumerate(nums):
                if y:
                    conv[(i + j) % n] += scale * y
        else:
            nonzero = [(j, y) for j, y in enumerate(b.nums) if y]
            for i, x in enumerate(a.nums):
                if x:
                    x *= scale
                    for j, y in nonzero:
                        conv[i + j] += x * y
    return _canonical(n, _reduce_ints(n, conv), den)


# -- inverse: extended Euclid modulo word-sized primes ----------------------


# The product of the odd primes below 100: one gcd sieves a candidate.
_SIEVE = math.prod(
    (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
     73, 79, 83, 89, 97)
)
# Sinclair's seven bases (2011): Miller-Rabin with them is exact for
# n < 2^64.
_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
# The first thirteen prime bases: exact below psi_13 =
# 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86, 2017).
_BASES_PSI_13 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Whether the odd n > 97 is prime.  An n sharing a factor with the odd
    primes below 100 is not; any other goes to Miller-Rabin, with
    Sinclair's seven bases below 2^64, where they are exact, and the first
    thirteen prime bases above, exact below psi_13 =
    3317044064679887385961981 and only probabilistic from there on.  Each
    answer is kept for the life of the process."""
    if math.gcd(n, _SIEVE) > 1:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for q in _BASES_64 if n < 2**64 else _BASES_PSI_13:
        if q % n == 0:
            continue  # past the sieve only a prime n divides a base
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


_PRIMES: list[int] = []  # primes below 2^61, descending, found on demand


def _primes():
    k = 0
    while True:
        if k == len(_PRIMES):
            c = _PRIMES[-1] - 2 if _PRIMES else 2**61 - 1
            while not _is_prime(c):
                c -= 2
            _PRIMES.append(c)
        yield _PRIMES[k]
        k += 1


def _trim(poly: list[int]) -> list[int]:
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _norm_and_adjugate_mod(
    a: tuple[int, ...], modulus: tuple[int, ...], p: int
) -> Optional[list[int]]:
    """[D, *b] mod p, with D = Res(modulus, a) and a * b == D mod
    (modulus, p); None when p divides D.  `modulus` is monic."""
    f = [c % p for c in modulus]
    g = _trim([c % p for c in a])
    if not g:
        return None
    # Invariant: f == sf * a and g == sg * a modulo the modulus.
    sf: list[int] = []
    sg = [1]
    res = 1
    while len(g) > 1:
        dg = len(g) - 1
        inv_lead = pow(g[-1], -1, p)
        r = list(f)
        q = [0] * (len(f) - dg)
        for i in range(len(f) - 1, dg - 1, -1):
            c = r[i] * inv_lead % p
            if c:
                q[i - dg] = c
                for j in range(dg):
                    r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
        r = _trim(r[:dg])
        if not r:
            return None
        # Res(f, g) = (-1)^(deg f * deg g) * lc(g)^(deg f - deg r) * Res(g, r)
        if (len(f) - 1) * dg % 2:
            res = -res
        res = res * pow(g[-1], len(f) - len(r), p) % p
        s_next = sf + [0] * max(0, len(q) + len(sg) - 1 - len(sf))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(sg):
                    s_next[i + j] = (s_next[i + j] - qi * sj) % p
        f, g, sf, sg = g, r, sg, _trim(s_next)
    # g is a nonzero constant c == sg * a, and Res(f, c) = c^deg f
    c = g[0]
    res = res * pow(c, len(f) - 1, p) % p
    scale = res * pow(c, -1, p) % p
    adj = [x * scale % p for x in sg] + [0] * (len(a) - len(sg))
    return [res] + adj


# -- public constructors -----------------------------------------------------


def rational(value: Rationalish) -> CyclotomicNumber:
    """The rational number `value` as a cyclotomic value (conductor 1).
    A plain int (not a bool) is taken as it is, without a Fraction.  Any
    value that is not an int or a Fraction (a float, a Decimal, a string) is
    refused with TypeError: a float's binary expansion is not the rational
    it was written as."""
    if type(value) is not int:
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"not an int or a Fraction: {type(value).__name__}")
        value = Fraction(value)
        if value.denominator != 1:
            return CyclotomicNumber(1, (value.numerator,), value.denominator)
        value = value.numerator
    if value == 1 or value == -1:
        return _root_value(1, int(value < 0))
    return CyclotomicNumber(1, (value,))


def zeta(n: int, k: int = 1) -> CyclotomicNumber:
    """The k-th power of the canonical primitive n-th root of unity."""
    if n < 1:
        raise ValueError(f"E({n}) is not a root of unity")
    return _root_value(n, 2 * k % (2 * n))


def as_root_of_unity(a: CyclotomicNumber) -> Optional[tuple[int, int]]:
    """If a is a root of unity, return (r, k) with a = zeta(r)^k, r the exact
    multiplicative order and 0 <= k < r (so gcd(k, r) = 1 unless r = 1).
    Returns None for values that are not roots of unity.

    The roots of unity in Q(zeta_N) are the +-zeta_N^j, each stored with
    denominator 1, and +-zeta_N^j with j < phi(N) is stored as one entry
    +-1.  So the walk multiplies a by zeta_N, one shift and one fold
    through Phi_N per step, until a single entry is left; a is a root of
    unity exactly when that entry is +-1.  Within N - phi(N) + 1 steps a
    root of unity reaches one.  A value made as a root (`_root` set) needs
    no walk."""
    n, e = a.conductor, a._root
    if e is None:
        if a.den != 1 or a.is_zero:
            return None
        zeros = len(a.nums) - 1
        work = list(a.nums)
        for i in range(n):
            if work.count(0) == zeros:
                # a * zeta_N^i = c * zeta_N^j
                j, c = next((j, c) for j, c in enumerate(work) if c)
                if abs(c) != 1:
                    return None
                e = (n * (c < 0) + 2 * (j - i)) % (2 * n)  # a = zeta_2N^e
                break
            work = _reduce_ints(n, [0] + work)
        else:
            return None
    g = math.gcd(e, 2 * n)
    return (2 * n // g, e // g)


# -- parser ------------------------------------------------------------------


def _overlong(x: CyclotomicNumber) -> Optional[str]:
    """Why no report could render x, or None: a numerator or the
    denominator of x has more digits than str() converts (the limit of
    `sys.get_int_max_str_digits`; none when it is 0 or, before Python
    3.10.7, absent)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and any(
        abs(c).bit_length() > 3 * limit and abs(c) >= 10**limit
        for c in x.nums + (x.den,)
    ):
        return f"a numerator or denominator has more than {limit} digits"
    return None


def _conductor_refusal(n: int) -> Optional[str]:
    """Why conductor n is refused, or None: (n - phi(n)) * phi(n) passes
    `MAX_REDUCTION_WORK`.  That product is at least n / 2 for every n >= 2
    (n - 1 for a prime; n - phi(n) >= sqrt(n) and phi(n) >= sqrt(n / 2)
    otherwise), so a larger n is refused before it is factored, and
    neither Phi_n nor a root of unity is built."""
    if n <= 2 * MAX_REDUCTION_WORK:
        phi = euler_phi(n)
        if (n - phi) * phi <= MAX_REDUCTION_WORK:
            return None
    return (
        f"conductor {n} is refused: reducing modulo Phi_{n} may take "
        f"(n - phi(n)) * phi(n) steps, more than {MAX_REDUCTION_WORK}"
    )


class CycloParseError(ValueError):
    """Syntax or semantic error in a cyclotomic expression, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    # Grammar:
    #   expr   := ['+'|'-'] term (('+'|'-') term)*
    #   term   := factor (('*'|'/') factor)*
    #   factor := base ('^' int)?
    #   base   := posint | 'E(' posint ')' | '(' expr ')'
    # A leading sign negates the first term.  "p/q" comes out of term-level
    # division and is exact either way.  Each '(' recurses through all four
    # rules, so nesting is bounded well inside Python's recursion limit.
    # A power is taken by `_signed_power` and refused at its '^' as soon
    # as a partial product is `_overlong`, so a huge one is never built;
    # a partial product tagged as a root of unity is not scanned.  A
    # conductor past `MAX_REDUCTION_WORK` is refused at its E(n), and at
    # the operator that would lift two operands to it.
    MAX_NESTING = 100

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def parse(self) -> CyclotomicNumber:
        value = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise CycloParseError("unexpected trailing input", self.pos)
        return value

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> CyclotomicNumber:
        negate = False
        ch = self._peek()
        if ch in "+-":
            negate = ch == "-"
            self.pos += 1
        value = self._term()
        if negate:
            value = -value
        while True:
            ch = self._peek()
            at = self.pos
            if ch == "+":
                self.pos += 1
                value = value + self._operand(value, self._term, at)
            elif ch == "-":
                self.pos += 1
                value = value - self._operand(value, self._term, at)
            else:
                return value

    def _term(self) -> CyclotomicNumber:
        value = self._factor()
        while True:
            ch = self._peek()
            at = self.pos
            if ch == "*":
                self.pos += 1
                value = value * self._operand(value, self._factor, at)
            elif ch == "/":
                self.pos += 1
                divisor = self._operand(value, self._factor, at)
                if divisor.is_zero:
                    raise CycloParseError("division by zero", at)
                value = value / divisor
            else:
                return value

    def _operand(self, value: CyclotomicNumber, rule, at: int) -> CyclotomicNumber:
        """The right operand of the operator at `at`, read by `rule`, once
        the conductor both operands lift to is allowed."""
        other = rule()
        reason = _conductor_refusal(math.lcm(value.conductor, other.conductor))
        if reason:
            raise CycloParseError(reason, at)
        return other

    def _factor(self) -> CyclotomicNumber:
        value = self._base()
        if self._peek() == "^":
            at = self.pos
            self.pos += 1
            exponent = self._int(signed=True)
            if exponent < 0 and value.is_zero:
                raise CycloParseError("zero raised to a negative power", at)

            def mul(a, b):
                # refuse as soon as a partial product is overlong; a
                # tagged one is a single +-zeta_N^j, which never is
                c = a * b
                reason = None if c._root is not None else _overlong(c)
                if reason:
                    raise CycloParseError(reason, at)
                return c

            value = _signed_power(value, exponent, mul)
        return value

    def _base(self) -> CyclotomicNumber:
        ch = self._peek()
        if ch == "(":
            if self.depth == self.MAX_NESTING:
                raise CycloParseError(
                    f"parentheses nested deeper than {self.MAX_NESTING}", self.pos
                )
            self.pos += 1
            self.depth += 1
            value = self._expr()
            if self._peek() != ")":
                raise CycloParseError("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return value
        if ch == "E":
            self.pos += 1
            if self._peek() != "(":
                raise CycloParseError("expected '(' after E", self.pos)
            self.pos += 1
            at = self.pos
            n = self._int(signed=False)
            if n < 1:
                raise CycloParseError(f"E({n}) is not a root of unity", at)
            reason = _conductor_refusal(n)
            if reason:
                raise CycloParseError(reason, at)
            if self._peek() != ")":
                raise CycloParseError("expected ')'", self.pos)
            self.pos += 1
            return zeta(n)
        if ch.isdigit():
            return rational(self._int(signed=False))
        raise CycloParseError("expected a number, E(n), or '('", self.pos)

    def _int(self, signed: bool) -> int:
        self._skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise CycloParseError("expected an integer", start)
        return int(self.text[start : self.pos])


def parse_cyclotomic(text: str) -> CyclotomicNumber:
    """Parse an exact cyclotomic expression such as "1/2-E(3)^2"."""
    return _Parser(text).parse()
