"""Whole jobs as properties: the answers do not depend on the basis the
generators are written in, and `main` ends every bounded random job with an
exit code, never a traceback, the same way each time."""

import contextlib
import io
import json
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crepant.cli import main, parse_job, run
from crepant.matgrp import CycMatrix

from conftest import Q8_ROWS, S3_ROWS, TETRA_ROWS
from helpers import toric_class_group


def _diag(*entries):
    n = len(entries)
    return [[e if i == j else "0" for j in range(n)] for i, e in enumerate(entries)]


def _upper_left(rows, dim):
    """`rows` in the top left corner of the identity of size `dim`."""
    out = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    for i, row in enumerate(rows):
        out[i][: len(row)] = row
    return out


# monomial presentations; all but S3 in SL
ZOO = {
    "Q8": Q8_ROWS,
    "2T": TETRA_ROWS,
    "2TxC3": [_upper_left(r, 4) for r in TETRA_ROWS]
    + [_diag("1", "1", "E(3)", "E(3)^2")],
    "C5^3": [
        _diag(*("E(5)" if i == k else "1" for i in range(3)), "E(5)^4")
        for k in range(3)
    ],
    "C15": [_diag("E(15)", "E(15)^2", "E(15)^12")],
    "S3": S3_ROWS,
}


@st.composite
def unimodular(draw, dim):
    """P = U L with U and L unipotent integer triangular matrices whose
    off-diagonal entries lie in [-2, 2]."""
    entries = st.integers(min_value=-2, max_value=2)

    def triangle(upper):
        return CycMatrix.from_rows(
            [
                [
                    1 if i == j else draw(entries) if (j > i) == upper else 0
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
        )

    return triangle(True) @ triangle(False)


def _conjugated(name, P):
    P_inv = P.inverse()
    return [
        (P @ CycMatrix.from_rows(g) @ P_inv).render_rows() for g in ZOO[name]
    ]


def _report(rows, mode):
    text = json.dumps({"dimension": len(rows[0]), "generators": rows})
    report, status = run(parse_job(text, mode=mode))
    assert status == 0
    return report[mode]


def _class_group(rows):
    a = _report(rows, "analyze")
    assert a["all_checks_passed"]
    fields = (
        "free_rank", "torsion", "is_free", "quotient_class_group",
        "abelianization", "junior_abelian_image", "reflection_subgroup_order",
    )
    return (
        {k: a[k] for k in fields},
        a["junior"]["class_count"],
        a["junior"]["subgroup_order"],
    )


def _sweep(rows):
    s = _report(rows, "sweep")
    twists = [(e["twist"], e["junior_subgroup_order"]) for e in s["twists"]]
    return s["junior_count"], s["torsion"], twists


def _age_classes(rows):
    classes = _report(rows, "age")["conjugacy_classes"]
    return sorted(
        (
            c["class_size"], c["age"], c["is_junior"], c["is_reflection"],
            c["eigenvalue_multiplicities"], c["weights"],
        )
        for c in classes
    )


def _checks(rows):
    c = _report(rows, "check")
    return [(k["name"], k["passed"]) for k in c["checks"]], c["summary"]


# groups whose `check` job is compared too: the relative invariants change
# with the basis, but not which checks run nor their verdicts
CHECKED = ("Q8", "2T")


def _answers(name, rows):
    if name == "S3":
        return _age_classes(rows)
    answers = (_class_group(rows), _sweep(rows))
    if name in CHECKED:
        answers += (_checks(rows),)
    return answers


@lru_cache(maxsize=None)
def _monomial_answers(name):
    return _answers(name, ZOO[name])


@pytest.mark.parametrize("name", sorted(ZOO))
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_answers_do_not_depend_on_the_presentation(name, data):
    # Cl(X), Ab(G), the junior data and the per-class age data are
    # invariants of G up to conjugacy in GL(V); a dense change of basis
    # must not move them, and every cross-route check must still pass
    P = data.draw(unimodular(len(ZOO[name][0])))
    assert _answers(name, _conjugated(name, P)) == _monomial_answers(name)


# --- bounded fuzzing of main ---------------------------------------------------

_EXPONENTS = st.integers(min_value=-40, max_value=40)


@st.composite
def _roots(draw, n):
    return draw(st.sampled_from(["", "-"])) + f"E({n})^{draw(_EXPONENTS)}"


@st.composite
def _entries(draw, n):
    kind = draw(st.sampled_from(["int", "fraction", "root", "sum", "power"]))
    if kind == "int":
        return str(draw(st.integers(min_value=-3, max_value=3)))
    if kind == "fraction":  # a zero denominator included
        return f"{draw(st.integers(-3, 3))}/{draw(st.integers(0, 3))}"
    if kind == "root":
        return draw(_roots(n))
    if kind == "sum":
        return f"{draw(_roots(n))}+({draw(_roots(n))})"
    return f"({draw(_roots(n))}+{draw(st.integers(0, 2))})^{draw(_EXPONENTS)}"


@st.composite
def _matrices(draw, dim, n):
    perm = draw(st.permutations(range(dim)))
    kind = draw(st.integers(0, 4))
    if kind == 4:
        # diagonal of determinant one, whose class group the toric fan gives
        exponents = draw(st.lists(_EXPONENTS, min_size=dim - 1, max_size=dim - 1))
        exponents.append(-sum(exponents))
        return [
            [f"E({n})^{exponents[i]}" if j == i else "0" for j in range(dim)]
            for i in range(dim)
        ]
    if kind < 3:
        # monomial, a permutation times roots of unity: a finite group
        return [
            [draw(_roots(n)) if j == perm[i] else "0" for j in range(dim)]
            for i in range(dim)
        ]
    return [
        [
            draw(_entries(n)) if j == perm[i] or draw(st.booleans()) else "0"
            for j in range(dim)
        ]
        for i in range(dim)
    ]


# Conductors whose reduction work (n - phi(n)) * phi(n) passes
# `cyclo.MAX_REDUCTION_WORK`: a job that writes one is refused at parse.
_PAST_THE_CAP = (30030, 510510, 10**40)


@st.composite
def fuzz_jobs(draw):
    """(stdin text, argv): conductors <= 12, or with one chance in ten
    one past the cap, exponent literals in [-40, 40], dimension <= 3, one
    or two generators, groups cut at 300 elements, degree bounds <= 8; one
    job in five is cut short or is arbitrary text."""
    dim = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=12))
    if draw(st.integers(0, 9)) == 0:
        n = draw(st.sampled_from(_PAST_THE_CAP))
    job = {
        "dimension": dim,
        "generators": draw(st.lists(_matrices(dim, n), min_size=1, max_size=2)),
    }
    if draw(st.booleans()):
        job["character"] = draw(st.lists(st.integers(-3, 3), max_size=3))
    text = json.dumps(job)
    garbage = draw(st.integers(0, 9))
    if garbage == 8:
        text = text[: draw(st.integers(0, len(text)))]
    elif garbage == 9:
        text = draw(st.text(max_size=40))
    argv = [
        draw(st.sampled_from(["analyze", "age", "invariant", "check", "sweep"])),
        "--format", draw(st.sampled_from(["text", "json"])),
        "--max-group-size", "300",
        "--degree-bound", str(draw(st.integers(1, 8))),
        "--twist", str(draw(st.sampled_from([1, 2, 5, 7, 13]))),
    ]
    return text, argv


def _run_main(text, argv):
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(
        io.BytesIO(text.encode("utf-8", "surrogatepass")), encoding="utf-8"
    )
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


_UNIT = re.compile(r"(-?)(?:1|E\((\d+)\)\^(-?\d+))")


def _diagonal_exponents(text):
    """(r, exponent rows) when every generator of the job is diagonal with
    entries 1, -1 or +-E(n)^k, each generator diag(z_r^a_1, ..., z_r^a_n)
    for one r; None otherwise."""
    rows = []
    for g in json.loads(text)["generators"]:
        row = []
        for i, entries in enumerate(g):
            if any(e != "0" for j, e in enumerate(entries) if j != i):
                return None
            unit = _UNIT.fullmatch(entries[i])
            if unit is None:
                return None
            sign, n, k = unit.groups()
            turn = Fraction(1, 2) if sign else Fraction(0)
            if n is not None:
                turn += Fraction(int(k), int(n))
            row.append(turn % 1)
        rows.append(row)
    r = math.lcm(*(t.denominator for row in rows for t in row))
    return r, [[int(t * r) for t in row] for row in rows]


def _class_group_printed(out, output_format):
    """(free rank, torsion) of an `analyze` report as `main` printed it."""
    if output_format == "json":
        body = json.loads(out)["analyze"]
        return body["free_rank"], body["torsion"]
    free_rank = re.search(r"^  free_rank: (\d+)$", out, re.M).group(1)
    torsion = re.search(r"^  torsion: \[(.*)\]$", out, re.M).group(1)
    return int(free_rank), [int(d) for d in torsion.split(", ") if d]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(job=fuzz_jobs())
def test_main_ends_every_bounded_job_with_an_exit_code(job, no_phi_past_the_cap):
    # the fixture guards every example alike: Phi_n of a conductor past
    # the cap raises instead of being built
    text, argv = job
    first = _run_main(text, argv)
    assert first[0] in (0, 1, 2, 3)
    assert "Traceback" not in first[2]
    assert _run_main(text, argv) == first
    # a diagonal group's class group is read off its toric fan too
    if first[0] == 0 and argv[0] == "analyze":
        exponents = _diagonal_exponents(text)
        if exponents is not None:
            assert _class_group_printed(first[1], argv[2]) == toric_class_group(
                *exponents
            ), (text, argv)
