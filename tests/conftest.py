import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from crepant import cyclo
from crepant.matgrp import CycMatrix, close_group

# order 6 in SL4: diag(-1, -1, -z3, -z3^2)
EX72_ROWS = [
    ["-1", "0", "0", "0"],
    ["0", "-1", "0", "0"],
    ["0", "0", "-E(3)", "0"],
    ["0", "0", "0", "-E(3)^2"],
]

Q8_ROWS = [
    [["E(4)", "0"], ["0", "-E(4)"]],
    [["0", "1"], ["-1", "0"]],
]

# 2T in SL2 over Q(i): Q8 and an order-3 element with entries (+-1+-E(4))/2
TETRA_ROWS = Q8_ROWS + [
    [["(-1+E(4))/2", "(1+E(4))/2"], ["(-1+E(4))/2", "(-1-E(4))/2"]]
]


def in_corner(rows, dim):
    """An entry-string matrix in the top-left corner of the dim x dim
    identity."""
    out = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    for i, row in enumerate(rows):
        out[i][: len(row)] = row
    return out


# 2T x C3 in SL4: 2T on x1, x2 and diag(1, 1, z3, z3^2)
TETRA_C3_ROWS = [in_corner(r, 4) for r in TETRA_ROWS] + [
    [["1", "0", "0", "0"], ["0", "1", "0", "0"],
     ["0", "0", "E(3)", "0"], ["0", "0", "0", "E(3)^2"]]
]

S3_ROWS = [
    [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
    [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
]

# binary icosahedral group in SL2 over Q(zeta5); sqrt5 = z5 - z5^2 - z5^3 + z5^4
_SQRT5 = "(E(5)-E(5)^2-E(5)^3+E(5)^4)"
ICOSA_ROWS = [
    [["E(5)^3", "0"], ["0", "E(5)^2"]],
    [
        [f"-(E(5)-E(5)^4)/{_SQRT5}", f"(E(5)^2-E(5)^3)/{_SQRT5}"],
        [f"(E(5)^2-E(5)^3)/{_SQRT5}", f"(E(5)-E(5)^4)/{_SQRT5}"],
    ],
]


def block_diag_rows(rows):
    """[[A,0],[0,A]] entry strings for a square entry-string grid A."""
    n = len(rows)
    zero_row = ["0"] * n
    top = [list(r) + zero_row for r in rows]
    bottom = [zero_row + list(r) for r in rows]
    return top + bottom


def cyclic_sl2(k):
    """<diag(z_k, z_k^-1)> in SL2."""
    return close_group(
        [CycMatrix.from_rows([[f"E({k})", "0"], ["0", f"E({k})^{k - 1}"]])]
    )


@pytest.fixture(scope="session")
def ex72():
    return close_group([CycMatrix.from_rows(EX72_ROWS)])


@pytest.fixture(scope="session")
def q8():
    return close_group([CycMatrix.from_rows(r) for r in Q8_ROWS])


@pytest.fixture(scope="session")
def s3():
    return close_group([CycMatrix.from_rows(r) for r in S3_ROWS])


@pytest.fixture(scope="session")
def icosa():
    return close_group([CycMatrix.from_rows(r) for r in ICOSA_ROWS])


@pytest.fixture(scope="session")
def icosa_diag():
    return close_group(
        [CycMatrix.from_rows(block_diag_rows(r)) for r in ICOSA_ROWS]
    )


@pytest.fixture(scope="session")
def c7():
    # diag(z7, z7, z7^5), SL3, order divisible by one odd prime only
    return close_group(
        [CycMatrix.from_rows(
            [["E(7)", "0", "0"], ["0", "E(7)", "0"], ["0", "0", "E(7)^5"]]
        )]
    )


@pytest.fixture(scope="session")
def c15():
    # diag(z15, z15^2, z15^12), SL3, order divisible by two odd primes
    return close_group(
        [CycMatrix.from_rows(
            [["E(15)", "0", "0"], ["0", "E(15)^2", "0"], ["0", "0", "E(15)^12"]]
        )]
    )


@pytest.fixture(scope="session")
def scalar3():
    # z3 * I6: no juniors, every nontrivial element has age 2 or 4
    rows = [[("E(3)" if i == j else "0") for j in range(6)] for i in range(6)]
    return close_group([CycMatrix.from_rows(rows)])


@pytest.fixture
def no_phi_past_the_cap(monkeypatch):
    """`cyclotomic_polynomial` and `_phi_tail` raise on a conductor past
    the cap, so a refusal made any later than the parse fails a test
    instead of hanging it."""
    def guarded(fn):
        def call(n):
            if cyclo._conductor_refusal(n):
                raise AssertionError(f"Phi_{n} was asked for")
            return fn(n)
        return call

    for name in ("cyclotomic_polynomial", "_phi_tail"):
        monkeypatch.setattr(cyclo, name, guarded(getattr(cyclo, name)))
