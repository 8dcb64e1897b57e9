"""Exact cyclotomic arithmetic: canonical form, parser, field operations.

Float evaluation (CyclotomicNumber.to_complex) appears only as a cross-check
harness at 1e-9; every assertion of substance is exact.
"""

import math
import operator
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant import cyclo
from crepant.cyclo import (
    CyclotomicNumber,
    CycloParseError,
    as_root_of_unity,
    cyclotomic_polynomial,
    euler_phi,
    parse_cyclotomic,
    rational,
    zeta,
)

from crepant.invariants import SparsePolynomial
from crepant.matgrp import CycMatrix

from conftest import TETRA_ROWS
from helpers import (
    close_enough,
    miller_rabin_12,
    schoolbook_dot,
    schoolbook_embed,
    schoolbook_form,
    schoolbook_product,
    schoolbook_sum,
    value_key,
)


# --- parsing ---------------------------------------------------------------


def test_parse_primitive_root():
    x = parse_cyclotomic("E(3)")
    assert x.conductor == 3
    assert x.coeffs == (Fraction(0), Fraction(1))  # the residue class of x


def test_parse_power_reduces():
    assert parse_cyclotomic("E(4)^2") == -1


def test_parse_phi3_relation():
    assert parse_cyclotomic("E(3)+E(3)^2") == -1


def test_parse_rationals_and_precedence():
    assert parse_cyclotomic("1/2 + 1/3") == Fraction(5, 6)
    assert parse_cyclotomic("2+3*4") == 14
    assert parse_cyclotomic("(2+3)*4") == 20
    with pytest.raises(CycloParseError):
        parse_cyclotomic("2^3^1")  # at most one exponent per factor


def test_parse_unary_minus():
    # needed for matrix entries like -E(3)
    assert parse_cyclotomic("-E(3)") == -zeta(3)
    assert parse_cyclotomic("-2+3") == 1
    assert parse_cyclotomic("+5") == 5


def test_parse_negative_exponent():
    assert parse_cyclotomic("E(7)^-2") == zeta(7, 5)


def test_parse_error_positions():
    with pytest.raises(CycloParseError) as err:
        parse_cyclotomic("1+*2")
    assert err.value.position == 2
    with pytest.raises(CycloParseError):
        parse_cyclotomic("(1")
    with pytest.raises(CycloParseError):
        parse_cyclotomic("1)")
    with pytest.raises(CycloParseError):
        parse_cyclotomic("")


def test_parse_bounds_nesting():
    assert parse_cyclotomic("(" * 100 + "E(3)" + ")" * 100) == zeta(3)
    # the bound is on depth, not on the number of parentheses
    assert parse_cyclotomic("+".join(["(" * 60 + "1" + ")" * 60] * 5)) == 5
    with pytest.raises(CycloParseError, match="nested deeper") as err:
        parse_cyclotomic("(" * 101 + "1" + ")" * 101)
    assert err.value.position == 100


@pytest.fixture
def digit_limit():
    # the interpreter's default limit on int -> str conversion
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "text, position",
    [
        ("2^1000000000", 1),
        ("2^-1000000000", 1),
        ("(1+E(5))^3000000", 8),
        ("(1/2)^-20000", 5),
        ("3*10^4300", 4),
    ],
)
def test_parse_refuses_an_overlong_power_before_building_it(
    text, position, digit_limit
):
    # each power stops at the first partial product past the limit, long
    # before the whole power would be built
    start = time.perf_counter()
    with pytest.raises(CycloParseError, match="more than 4300 digits") as err:
        parse_cyclotomic(text)
    assert time.perf_counter() - start < 2
    assert err.value.position == position


def test_parse_keeps_powers_within_the_digit_limit(digit_limit):
    # roots of unity stay small under any exponent
    assert parse_cyclotomic("E(3)^100000000000000000000") == zeta(3)
    assert parse_cyclotomic("E(12)^-99999999999999999999") == zeta(12, -(10**20 - 1))
    # 10^4299 has 4300 digits, and 2^-14000 a 4215-digit denominator
    assert parse_cyclotomic("10^4299") == 10**4299
    assert parse_cyclotomic("2^-14000") == Fraction(1, 2**14000)
    assert parse_cyclotomic("(2/3)^0") == 1


def test_parse_scans_no_tagged_partial_product(monkeypatch):
    # crepant's text of zeta_2003^2002 is 2002 powers of E(2003); every
    # partial product of such a power is a tagged +-zeta_N^j, whose
    # numerators are 0 and +-1, so none is scanned for overlong digits
    scans = []
    real = cyclo._overlong

    def counted(x):
        scans.append(x)
        return real(x)

    monkeypatch.setattr(cyclo, "_overlong", counted)
    x = zeta(2003, 2002)
    assert len(x.render()) == 24906
    _round_trips(x)
    assert scans == []
    # a power of an untagged value is still scanned
    assert parse_cyclotomic("(1+E(5))^3") == (1 + zeta(5)) ** 3
    assert scans


def test_parse_rejects_E0():
    with pytest.raises(CycloParseError):
        parse_cyclotomic("E(0)")


def test_parse_division_by_zero():
    with pytest.raises(CycloParseError) as err:
        parse_cyclotomic("1/0")
    assert "zero" in str(err.value)
    with pytest.raises(CycloParseError):
        parse_cyclotomic("1/(E(3)+E(3)^2+1)")


# --- field arithmetic ------------------------------------------------------


def test_root_of_unity_cycle():
    assert zeta(8) * zeta(8, 7) == 1


def test_field_inverse():
    x = 1 + zeta(5)
    assert x * x.inverse() == 1
    assert (x / x) == 1


def test_zeta6_equals_one_plus_zeta3():
    diff = zeta(6) - (1 + zeta(3))
    assert diff.is_zero
    # confirm numerically to 12 digits
    assert abs(zeta(6).to_complex() - (1 + zeta(3).to_complex())) < 1e-12


def test_division_is_multiplication_by_inverse():
    a = zeta(7)
    b = zeta(7, 3)
    assert a / b == zeta(7, 5)
    assert b * zeta(7, 5) == a


def test_integer_coercion():
    assert rational(3) + 2 == 5
    assert 2 - rational(3) == -1
    assert zeta(4) * 0 == 0
    assert (Fraction(1, 2) * rational(4)) == 2


def test_pow():
    x = zeta(9)
    assert x**0 == 1
    assert x**9 == 1
    assert x**-1 == zeta(9, 8)
    assert (1 + zeta(3)) ** 2 == 1 + 2 * zeta(3) + zeta(3, 2)


def _repeated(x, mul, one, count=64):
    """[x^0, x^1, ..., x^count], each by one more multiplication."""
    out = [one]
    for _ in range(count):
        out.append(mul(out[-1], x))
    return out


@pytest.mark.parametrize(
    "text", ["-3/2", "1+2/3*E(12)^5", "E(60)^7-2*E(60)^11/3+5"]
)
def test_square_and_multiply_matches_repeated_products(text):
    # `_power` against x * x * ... * x, stored forms compared, so the
    # conductor is pinned too: x**0 is 1 at x's conductor, and a negative
    # power is the same power of the inverse
    x = parse_cyclotomic(text)
    one = rational(1).embed(x.conductor)
    assert value_key(x**0) == value_key(one)
    up = _repeated(x, operator.mul, one)
    down = _repeated(x.inverse(), operator.mul, one)
    for k in range(65):
        assert value_key(cyclo._power(x, k, operator.mul, one)) == value_key(up[k])
        assert value_key(x**k) == value_key(up[k])
        assert value_key(x**-k) == value_key(down[k])


def test_square_and_multiply_on_matrices_and_polynomials():
    # the same loop powers a 2T matrix and a polynomial
    g = CycMatrix.from_rows(TETRA_ROWS[2]) @ CycMatrix.from_rows(TETRA_ROWS[0])
    ident = CycMatrix.identity(2, g.conductor)
    for k, want in enumerate(_repeated(g, operator.matmul, ident)):
        assert cyclo._power(g, k, operator.matmul, ident) == want
    f = SparsePolynomial(2, {(1, 0): zeta(3), (0, 1): rational(Fraction(1, 2))})
    one = SparsePolynomial.constant(2, 1)
    for k, want in enumerate(_repeated(f, operator.mul, one)):
        assert (f**k).render() == want.render()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rational(0).inverse()


# --- primality of the word-sized primes -----------------------------------

# psi_12, the least strong pseudoprime to the first twelve prime bases
# (Sorenson and Webster, Math. Comp. 86, 2017); above 2^64
PSI_12 = 318665857834031151167461
assert PSI_12 == 399165290221 * 798330580441


@pytest.mark.parametrize(
    "n",
    [
        PSI_12,  # the thirteen-base path: base 41 rejects it
        # below 2^64, Sinclair's bases: strong pseudoprimes to the prime
        # bases up to 31 and up to 7, with no factor below 100
        3825123056546413051,
        3215031751,
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert miller_rabin_12(n) == (n == PSI_12)
    assert not cyclo._is_prime(n)


def test_is_prime_agrees_with_the_twelve_base_test():
    # Unmemoised, so the memo keeps none of these 10^5 answers.  Every odd
    # n in [99, 2 * 10^5] covers the sieve's primes' multiples and 193,
    # the one prime below the bound that divides one of Sinclair's bases.
    is_prime = cyclo._is_prime.__wrapped__
    for n in range(99, 2 * 10**5 + 1, 2):
        assert is_prime(n) == miller_rabin_12(n), n
    rng = random.Random(1)
    for _ in range(3000):
        n = rng.randrange(2**60, 2**62) | 1
        assert is_prime(n) == miller_rabin_12(n), n


def test_first_inverse_primes_are_pinned():
    # 2^61 - p for the first 40 primes of `_primes`, as found before the
    # sieve and Sinclair's bases
    gaps = [
        1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579, 675, 759,
        799, 819, 829, 843, 859, 939, 985, 1015, 1153, 1195, 1215, 1281,
        1299, 1351, 1371, 1425, 1489, 1525, 1533, 1543, 1609, 1621, 1669,
        1741, 1753, 1813,
    ]
    primes = cyclo._primes()
    assert [2**61 - next(primes) for _ in gaps] == gaps


# --- embed -----------------------------------------------------------------


def test_embed_zeta3_into_conductor6():
    assert zeta(3).embed(6) == zeta(6) ** 2
    assert zeta(3).embed(6).conductor == 6


def test_embed_rational():
    one = rational(1).embed(12)
    assert one.conductor == 12
    assert one == 1


def test_embed_zeta4_into_12():
    x = zeta(4).embed(12)
    assert x * x == -1


def test_embed_requires_multiple():
    with pytest.raises(ValueError):
        zeta(4).embed(6)


# --- as_root_of_unity ------------------------------------------------------


def test_as_root_of_unity_basics():
    assert as_root_of_unity(rational(1)) == (1, 0)
    assert as_root_of_unity(rational(-1)) == (2, 1)
    assert as_root_of_unity(zeta(3, 2)) == (3, 2)
    assert as_root_of_unity(rational(2)) is None
    assert as_root_of_unity(1 + zeta(5)) is None
    assert as_root_of_unity(rational(0)) is None


def test_as_root_of_unity_finds_minimal_order():
    # zeta12^4 has order 3, not 12
    r, k = as_root_of_unity(zeta(12) ** 4)
    assert (r, k) == (3, 1)
    assert zeta(12, 4) == zeta(3)


@pytest.mark.parametrize("m", list(range(1, 61)) + [84, 105, 120, 420])
def test_as_root_of_unity_on_every_signed_power(m):
    # +-zeta_m^k = exp(2 pi i t), t = k/m (+ 1/2 for the minus sign); its
    # order is the denominator of t mod 1, and k that numerator
    for k in range(m):
        for sign in (1, -1):
            t = (Fraction(k, m) + (0 if sign > 0 else Fraction(1, 2))) % 1
            for conductor in (m, 2 * m, 3 * m):
                x = zeta(m, k).embed(conductor)
                if sign < 0:
                    x = -x
                assert as_root_of_unity(x) == (t.denominator, t.numerator), (
                    sign, m, k, conductor,
                )


def test_as_root_of_unity_pins_and_non_roots():
    # 1 + zeta_3 = -zeta_3^2 = zeta_6
    assert as_root_of_unity(1 + zeta(3)) == (6, 1)
    # (3 + 4i)/5 has absolute value 1 but is no root of unity
    unit_circle = (3 + 4 * zeta(4)) / 5
    assert abs(abs(unit_circle.to_complex()) - 1) < 1e-12
    for x in (
        rational(0),
        rational(2),
        1 + zeta(5),
        zeta(5) + zeta(5, 4),
        1 + zeta(4),
        unit_circle,
    ):
        assert as_root_of_unity(x) is None, x


# --- canonical form / hashing ----------------------------------------------


def test_cross_conductor_equality_and_hash():
    a = zeta(3)
    b = zeta(6) ** 2
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_rational_values_hash_like_fractions():
    assert hash(rational(5)) == hash(5)
    assert hash(zeta(5) + (1 - zeta(5))) == hash(1)


def test_coeff_length_is_phi():
    for n in (1, 2, 3, 4, 6, 8, 9, 12, 15):
        x = zeta(n) + 1
        assert len(x.coeffs) == euler_phi(n)


def test_cyclotomic_polynomial_degrees():
    for n in range(1, 20):
        poly = cyclotomic_polynomial(n)
        assert len(poly) == euler_phi(n) + 1
        assert poly[-1] == 1


def _product_is_binomial(n):
    # prod over d | n of Phi_d == x^n - 1, decided exactly by Kronecker
    # substitution: write each polynomial as an integer in base t = 2^B.
    # The coefficients of the product are bounded by the product of the
    # factors' L1 norms, so with t over twice that bound plus one, the
    # balanced base-t digits of an integer are unique and equal integers
    # mean equal polynomials.
    polys = [cyclotomic_polynomial(d) for d in cyclo.divisors(n)]
    bound = math.prod(sum(map(abs, p)) for p in polys) + 1
    shift = (2 * bound).bit_length()
    product = 1
    for p in polys:
        value = 0
        for c in reversed(p):
            value = (value << shift) + c
        product *= value
    return product == (1 << (shift * n)) - 1


def test_cyclotomic_polynomials_multiply_to_the_binomial():
    for n in range(1, 301):
        assert _product_is_binomial(n), n
    # every divisor of 4620 = 2^2 * 3 * 5 * 7 * 11, so Phi_4620 is pinned
    # down by the identities of its divisors
    for n in cyclo.divisors(4620):
        assert _product_is_binomial(n), n


def test_cyclotomic_polynomial_of_a_large_conductor_is_fast():
    # one Moebius product: no Phi_d of a divisor d is built first
    cyclotomic_polynomial.cache_clear()
    start = time.perf_counter()
    poly = cyclotomic_polynomial(30030)
    assert time.perf_counter() - start < 2
    assert len(poly) == euler_phi(30030) + 1
    assert poly[0] == poly[-1] == 1


# --- property tests ---------------------------------------------------------

_CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 60]


@st.composite
def cyclotomic_values(draw, conductors=_CONDUCTORS):
    n = draw(st.sampled_from(conductors))
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=0,
            max_size=3,
        )
    )
    acc = rational(0).embed(n)
    for num, den, e in terms:
        acc = acc + Fraction(num, den) * zeta(n, e)
    return acc


@given(cyclotomic_values(), cyclotomic_values(), cyclotomic_values())
@settings(max_examples=150)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x
    assert x * 1 == x
    assert x - x == 0


def _round_trips(x):
    """parse(render(x)) equals x, and a value that is not rational keeps
    its conductor: its text names E(N) for that N."""
    y = parse_cyclotomic(x.render())
    assert y == x, x
    if x.rational_value is None:
        assert y.conductor == x.conductor, x


@given(cyclotomic_values())
@settings(max_examples=150)
def test_render_parse_round_trip(x):
    _round_trips(x)


@pytest.mark.parametrize("n", list(range(1, 65)) + [2003])
def test_roots_render_as_their_numerators_do(n):
    # A root +-zeta_n^j with j < phi(n) is written from its tag, any other
    # value by its numerators; both must give the same text.  Every tag
    # for n <= 64, where an odd n has odd tags, zeta_2n^e =
    # -zeta_n^((e + n) / 2); for 2003, j = 0, 1, phi - 1 and phi, negated
    # too.  The phi(2003) = 2002 terms of zeta^phi are not parsed back:
    # that alone takes seconds.
    phi = euler_phi(n)
    tags = range(2 * n) if n < 100 else [2 * j for j in (0, 1, phi - 1, phi)]
    for e in tags:
        if e % 2 and n % 2 == 0:
            continue
        root = cyclo._root_value(n, e)
        for x in (root, -root):
            plain = CyclotomicNumber(n, x.nums, x.den)
            assert x._root is not None and x.render() == plain.render(), (n, e)
            if n < 100 or e < 2 * phi:
                _round_trips(x)


def test_equal_values_keep_their_own_text():
    # text is kept per value, never looked up by equality: the same number
    # at two conductors renders as each was made
    half = rational(Fraction(1, 2))
    for first, second, texts in (
        (zeta(4), zeta(12, 3), ("E(4)", "E(12)^3")),
        (1 + zeta(3), zeta(6), ("1+E(3)", "E(6)")),
        (half, half.embed(5), ("1/2", "1/2")),
    ):
        assert first == second and hash(first) == hash(second)
        assert (first.render(), second.render()) == texts
        assert (second.render(), first.render()) == texts[::-1]


@given(cyclotomic_values(), cyclotomic_values())
@settings(max_examples=100)
def test_float_cross_check(x, y):
    assert close_enough((x * y).to_complex(), x.to_complex() * y.to_complex())
    assert close_enough((x + y).to_complex(), x.to_complex() + y.to_complex())


@given(st.one_of(cyclotomic_values(), cyclotomic_values(conductors=[420])))
@settings(max_examples=100, deadline=None)
def test_nonzero_inverse_round_trip(x):
    if not x.is_zero:
        assert x * x.inverse() == 1


def _assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    assert len(x.nums) == euler_phi(x.conductor)


def _same_data(u, v):
    n = u.conductor * v.conductor // math.gcd(u.conductor, v.conductor)
    u, v = u.embed(n), v.embed(n)
    return (u.nums, u.den) == (v.nums, v.den)


@given(cyclotomic_values(), cyclotomic_values())
@settings(max_examples=150)
def test_canonical_form(x, y):
    for v in (x, y, -x, x + y, x - y, x * y, x.embed(x.conductor * 2)):
        _assert_canonical(v)
    if not x.is_zero:
        _assert_canonical(x.inverse())
    # equal values reached by different routes carry identical data
    assert _same_data(x * y, y * x)
    assert _same_data((x + y) - y, x)
    assert _same_data((x + x) * Fraction(1, 2), x)
    assert _same_data(x * (y + 1), x * y + x)
    assert _same_data(x * 3 / 3, x)


@pytest.mark.parametrize(
    "value",
    [0, 1, -1, 2, -7, 10**40, -(10**40), Fraction(1, 2), Fraction(-3, 4),
     Fraction(1), Fraction(-1), Fraction(6, 3), True, False],
    ids=lambda v: f"{type(v).__name__}-{v}",
)
def test_rational_of_an_int_matches_the_fraction_route(value):
    # a plain int skips the Fraction; every value gets the numerators,
    # denominator and root tag that Fraction(value) gives
    fraction = Fraction(value)
    if abs(fraction) == 1:
        expected = cyclo._root_value(1, int(fraction < 0))
    else:
        expected = CyclotomicNumber(1, (fraction.numerator,), fraction.denominator)
    got = rational(value)
    assert (got.conductor, got.nums, got.den, got._root) == (
        1, expected.nums, expected.den, expected._root
    )
    assert all(type(c) is int for c in got.nums + (got.den,))


@pytest.mark.parametrize(
    "value", [0.1, 0.5, Decimal("0.5"), 1 + 0j, "1/3"],
    ids=lambda v: f"{type(v).__name__}-{v}",
)
def test_rational_values_that_are_not_int_or_fraction_are_refused(value):
    # 0.1 would be 3602879701896397/36028797018963968, not 1/10
    name = type(value).__name__
    routes = [
        lambda: rational(value),
        lambda: SparsePolynomial(1, {(1,): value}),
        lambda: SparsePolynomial.variable(1, 0).scale(value),
    ]
    if not isinstance(value, str):
        # a string matrix entry is parsed as an expression (matgrp._entry)
        routes.append(lambda: CycMatrix.from_rows([[value]]))
    for route in routes:
        with pytest.raises(TypeError, match=f"^not an int or a Fraction: {name}$"):
            route()


@given(cyclotomic_values(), cyclotomic_values(), st.integers(1, 3))
@settings(max_examples=100)
def test_embed_is_ring_homomorphism(x, y, scale):
    n = x.conductor * y.conductor // math.gcd(x.conductor, y.conductor)
    m = n * scale
    assert (x * y).embed(m) == x.embed(m) * y.embed(m)
    assert (x + y).embed(m) == x.embed(m) + y.embed(m)


@given(cyclotomic_values(), st.sampled_from([1, Fraction(1, 2)]))
@settings(max_examples=60)
def test_distinct_values_evaluate_apart(x, delta):
    # canonical-form soundness has a numerical shadow: values that differ by
    # a unit-scale quantity must not collide at the fixed embedding
    y = x + delta
    assert x != y
    assert abs(x.to_complex() - y.to_complex()) > 1e-9


# --- the integer kernel against a schoolbook reference ----------------------


def _kernel_operands(n, rng):
    """Values at or around conductor n: zero at n and at 1, an integer and a
    fraction at conductor 1, values with small fractional and with 40-digit
    coefficients, one at a proper divisor of n and one at a conductor that
    n is not a multiple of (neither of them 1 or 2, whose fields are Q).
    Each other value is eight random terms c * zeta^e with 0 <= e <
    conductor, so exponents past phi fill in lower powers when reduced."""

    def dense(conductor, size):
        poly = [Fraction(0)] * conductor
        for _ in range(8):
            e = rng.randrange(conductor)
            poly[e] += Fraction(rng.randint(-size, size), rng.randint(1, 6))
        return CyclotomicNumber(*schoolbook_form(conductor, poly))

    ops = [
        rational(0).embed(n),
        rational(0),
        rational(-3),
        rational(Fraction(5, 6)),
        dense(n, 4),
        dense(n, 10**40),
    ]
    divisors = [d for d in range(3, n) if n % d == 0]
    if divisors:
        ops.append(dense(rng.choice(divisors), 4))
    other = next((m for m in (3, 4, 5) if n % m), None)
    if other is not None:
        ops.append(dense(other, 4))
    return ops


def _root_operands(n, below, past, k, d, j):
    """Roots of unity made by every route that tags one, as (value,
    conductor, sign, e) with value = sign * zeta_conductor^e: zeta(n, k)
    below and past phi(n) and outside [0, n), negated, made at the divisor
    d of n and embedded (negated before and after), +-1, and the parsed
    E(n)^k and -E(n)^past."""
    s = n // d
    return [
        (zeta(n, below), n, 1, below),
        (zeta(n, past), n, 1, past),
        (zeta(n, k - 2 * n), n, 1, k),
        (-zeta(n, below), n, -1, below),
        (-zeta(n, past), n, -1, past),
        (zeta(d, j).embed(n), n, 1, j * s),
        ((-zeta(d, j)).embed(n), n, -1, j * s),
        (-zeta(d, j).embed(n), n, -1, j * s),
        (rational(-1), 1, -1, 0),
        (rational(1).embed(n), n, 1, 0),
        (parse_cyclotomic(f"E({n})^{k}"), n, 1, k),
        (parse_cyclotomic(f"-E({n})^{past}"), n, -1, past),
    ]


def _root_form(n, sign, e):
    """The stored form of sign * zeta_n^e by the schoolbook reduction."""
    return schoolbook_form(n, [Fraction(0)] * (e % n) + [Fraction(sign)])


def _tag_form(x):
    """The stored form of zeta_2N^t, t the tag of x and N its conductor:
    zeta_N^(t/2) for even t; an odd t needs an odd N, where zeta_2N =
    -zeta_N^((N+1)/2)."""
    n, t = x.conductor, x._root
    if t % 2:
        return _root_form(n, -1, t * (n + 1) // 2)
    return _root_form(n, 1, t // 2)


def _check_root_operands(n, roots, others):
    """Each root and each product of two roots is tagged, and its stored
    form is the schoolbook sign * zeta^e and that of its tag; a root times
    each of `others`, and `_dot` sums with one or two roots per pair, match
    the schoolbook products.  The root is the left operand for odd
    positions in `roots` and the right one for even positions."""

    def placed(i, r, y):
        return (r, y) if i % 2 else (y, r)

    for x, c, s, e in roots:
        assert x._root is not None, x
        assert value_key(x) == _root_form(c, s, e) == _tag_form(x), x
    for i, (x, c, s, e) in enumerate(roots):
        for y, d, t, f in roots[:3]:
            m = math.lcm(c, d)
            p = x * y
            assert p._root is not None, (x, y)
            want = _root_form(m, s * t, e * (m // c) + f * (m // d))
            assert value_key(p) == want == _tag_form(p), (x, y)
        for a, b in (placed(i, x, y) for y in others):
            assert value_key(a * b) == schoolbook_product(a, b), (a, b)
    lifted = [x.embed(n) for x, *_ in roots]
    first = lifted[0]  # zeta(n, below), a single stored term
    at_n = [y.embed(n) for y in others if n % y.conductor == 0]
    one = [placed(i, r, at_n[i % len(at_n)]) for i, r in enumerate(lifted)]
    both = [placed(i, r, first) for i, r in enumerate(lifted)]
    for pairs in (one, both):
        assert value_key(cyclo._dot(n, pairs)) == schoolbook_dot(n, pairs)


@pytest.mark.parametrize("n", list(range(1, 61)) + [84, 105, 420, 1009, 2003])
def test_kernel_matches_schoolbook_reference(n):
    rng = random.Random(n)
    if n > 1000:
        # prime conductors: roots of unity times roots and 2-term values
        # only, with exponents that keep the schoolbook reductions short
        others = [
            parse_cyclotomic(f"1/3+2*E({n})^3"),
            parse_cyclotomic(f"7-5/2*E({n})"),
        ]
        _check_root_operands(n, _root_operands(n, 1, n - 1, n - 3, 1, 0), others)
        return
    ops = _kernel_operands(n, rng)
    phi = euler_phi(n)
    d = rng.choice(cyclo.divisors(n))
    roots = _root_operands(
        n,
        rng.randrange(phi),
        rng.randrange(phi, n) if phi < n else 0,
        rng.randrange(n),
        d,
        rng.randrange(d),
    )
    _check_root_operands(n, roots, ops)
    ops += [x for x, *_ in roots[:4]]
    small, large = ops[4:6]
    # every operand on the left of one dense value and on the right of the
    # other, so rational operands come on both sides
    for a, b in [(small, y) for y in ops] + [(y, large) for y in ops]:
        assert value_key(a * b) == schoolbook_product(a, b), (a, b)
        assert value_key(a + b) == schoolbook_sum(a, b), (a, b)
        assert value_key(a - b) == schoolbook_sum(a, b, -1), (a, b)
    for r in ops[1:4]:
        for x in ops:
            assert (r * x).conductor == (x * r).conductor == x.conductor
    for x in ops:
        for m in (n, 2 * n, 3 * n):
            if m % x.conductor == 0:
                assert value_key(x.embed(m)) == schoolbook_embed(x, m), (x, m)
    lifted = [x.embed(n) for x in ops if n % x.conductor == 0]
    pairs = [(small, y) for y in lifted] + [(large, small), (-large, small)]
    assert value_key(cyclo._dot(n, pairs)) == schoolbook_dot(n, pairs)
    assert value_key(cyclo._dot(n, pairs[-2:])) == (n, (0,) * len(small.nums), 1)
