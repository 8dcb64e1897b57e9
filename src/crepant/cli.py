"""Command line front end.

Reads a job document (JSON: dimension, generator matrices as expression
strings, optionally a character), runs one of the pipeline modes, and emits a
deterministic report as text or JSON.  Text output is rendered from the same
structured report the JSON path serializes, never assembled separately.

Exit codes: 0 success, 1 a property or consistency check failed, 2 malformed
input or usage or an unwritable output path, 3 a computational precondition
failed (group too large, terminalization modes on a non-special-linear group,
no relative invariant within the degree bound).
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .classgroup import (
    ClassGroupReport,
    freeness_criterion,
    junior_subgroup,
    terminalization_class_group,
)
from .cyclo import CyclotomicNumber, _overlong, parse_cyclotomic
from .invariants import (
    CharacterOfAb,
    _tree_exponents,
    _tree_residue,
    characters_of,
    check_congruence_lemma,
    check_junior_ring_membership,
    relative_invariant,
)
from .matgrp import (
    AbelianStructure,
    CycMatrix,
    FiniteMatrixGroup,
    GroupTooLargeError,
    MAX_GROUP_SIZE,
    SingularMatrixError,
    close_group,
)
from .mckay import (
    ConsistencyError,
    GaloisTwist,
    NotSpecialLinearError,
    age_records,
    galois_sweep,
    junior_gradings,
)

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


class JobError(ValueError):
    """Malformed job document or invalid option combination."""


class PreconditionError(RuntimeError):
    """Structurally valid input the requested computation cannot accept."""


class JobSpec(NamedTuple):
    dimension: int
    generators: tuple[CycMatrix, ...]
    mode: str
    character: Optional[tuple[int, ...]]
    max_group_size: int
    degree_bound: Optional[int]
    twist: int
    output_format: str

    def canonical_generators(self) -> list[list[list[str]]]:
        return [m.render_rows() for m in self.generators]


# --- job parsing -------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobError(message)


def _parse_matrix(index: int, rows: object, dimension: int) -> CycMatrix:
    where = f"generator {index + 1}"
    _require(isinstance(rows, list) and rows, f"{where}: expected a row list")
    _require(
        len(rows) == dimension,
        f"{where}: has {len(rows)} rows, job dimension is {dimension}",
    )
    parsed: list[list[CyclotomicNumber]] = []
    for i, row in enumerate(rows):
        _require(
            isinstance(row, list) and len(row) == dimension,
            f"{where}, row {i + 1}: expected {dimension} entries",
        )
        out_row = []
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (str, int)):
                raise JobError(
                    f"{where}, row {i + 1}, column {j + 1}: entries must be "
                    "expression strings or integers"
                )
            text = entry if isinstance(entry, str) else str(entry)
            try:
                out_row.append(parse_cyclotomic(text))
            except ValueError as exc:  # CycloParseError, or an overlong literal
                raise JobError(
                    f"{where}, row {i + 1}, column {j + 1}: {exc}"
                ) from exc
        parsed.append(out_row)
    matrix = CycMatrix.from_rows(parsed)
    # reports render every entry; the parser refuses an overlong power, and
    # this scan the rest, after embedding into the common conductor, which
    # can grow the coefficients
    for i, row in enumerate(matrix.rows):
        for j, e in enumerate(row):
            reason = _overlong(e)
            if reason:
                raise JobError(f"{where}, row {i + 1}, column {j + 1}: {reason}")
    return matrix


def parse_job(
    source: str,
    mode: str = "analyze",
    *,
    max_group_size: int = MAX_GROUP_SIZE,
    degree_bound: Optional[int] = None,
    twist: int = 1,
    output_format: str = "text",
) -> JobSpec:
    """Validate a job document, given as JSON text, into a JobSpec.  The
    text is never taken for a file name: `main` reads `--input`."""
    _require(mode in MODES, f"unknown mode {mode!r}")
    _require(max_group_size >= 1, "max group size must be positive")
    _require(twist >= 1, "twist must be a positive integer")
    _require(
        degree_bound is None or degree_bound >= 1,
        "degree bound must be positive",
    )
    _require(output_format in ("text", "json"), "format must be text or json")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise JobError(
            f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise JobError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "job document must be a JSON object")
    unknown = sorted(set(doc) - {"dimension", "generators", "character"})
    _require(not unknown, f"unknown job fields: {', '.join(unknown)}")
    _require("dimension" in doc, "job document needs a dimension")
    dimension = doc["dimension"]
    _require(
        isinstance(dimension, int) and not isinstance(dimension, bool)
        and dimension >= 1,
        "dimension must be a positive integer",
    )
    gens = doc.get("generators")
    _require(
        isinstance(gens, list) and len(gens) >= 1,
        "job document needs a nonempty generator list",
    )
    matrices = tuple(
        _parse_matrix(k, rows, dimension) for k, rows in enumerate(gens)
    )
    character: Optional[tuple[int, ...]] = None
    if "character" in doc:
        raw = doc["character"]
        _require(
            isinstance(raw, list)
            and all(
                isinstance(c, int) and not isinstance(c, bool) for c in raw
            ),
            "character must be a list of integers",
        )
        character = tuple(raw)
    return JobSpec(
        dimension=dimension,
        generators=matrices,
        mode=mode,
        character=character,
        max_group_size=max_group_size,
        degree_bound=degree_bound,
        twist=twist,
        output_format=output_format,
    )


# --- report assembly ---------------------------------------------------------


def _factors(structure: AbelianStructure) -> list[int]:
    return list(structure.invariant_factors)


def _element_block(G: FiniteMatrixGroup, x: int) -> dict:
    return {
        "id": x,
        "order": G.element_orders[x],
        "matrix": G.matrix(x).render_rows(),
    }


def _build_group(job: JobSpec) -> FiniteMatrixGroup:
    try:
        G = close_group(list(job.generators), max_size=job.max_group_size)
    except GroupTooLargeError as exc:
        raise PreconditionError(
            f"group closure exceeded {exc.max_size} elements"
        ) from exc
    except (SingularMatrixError, ValueError) as exc:
        raise JobError(f"generators do not span a finite group: {exc}") from exc
    if math.gcd(job.twist, G.working_conductor) != 1:
        raise JobError(
            f"twist {job.twist} is not invertible modulo the working "
            f"conductor {G.working_conductor}"
        )
    return G


def _group_block(job: JobSpec, G: FiniteMatrixGroup) -> dict:
    return {
        "dimension": job.dimension,
        "order": len(G),
        "is_special_linear": G.is_special_linear,
        "entry_conductor": G.entry_conductor,
        "exponent": G.exponent,
        "working_conductor": G.working_conductor,
        "generators": job.canonical_generators(),
    }


def _classgroup_block(G: FiniteMatrixGroup, report: ClassGroupReport) -> dict:
    # the free images are the junior class representatives
    juniors = [_element_block(G, x) for x in report.junior_class_representatives]
    return {
        "free_rank": report.free_rank,
        "torsion": _factors(report.torsion),
        "is_free": report.is_free(),
        "quotient_class_group": _factors(report.quotient_class_group),
        "abelianization": _factors(report.abelianization_structure),
        "junior_abelian_image": _factors(report.junior_abelian_image),
        "reflection_subgroup_order": report.reflection_subgroup_order,
        "junior": {
            "class_count": report.junior_class_count,
            "class_representatives": juniors,
            "subgroup_order": report.junior_subgroup_order,
        },
        "pushforward": {
            "free_images": juniors,
            "torsion_witnesses": [
                _element_block(G, x)
                for x in report.pushforward.torsion_witnesses
            ],
        },
        "consistency": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.consistency
        ],
        "all_checks_passed": report.all_checks_passed,
    }


def _run_analyze(job: JobSpec, G: FiniteMatrixGroup) -> tuple[dict, int]:
    twist = GaloisTwist(job.twist)
    report = terminalization_class_group(G, twist)
    payload = _classgroup_block(G, report)
    status = EXIT_OK if report.all_checks_passed else EXIT_CHECK_FAILED
    return payload, status


def _run_age(job: JobSpec, G: FiniteMatrixGroup) -> tuple[dict, int]:
    twist = GaloisTwist(job.twist)
    records = age_records(G, twist)  # one per element id, in id order
    classes = []
    for cls in G.conjugacy_classes():
        rec = records[cls[0]]
        classes.append(
            {
                "representative": _element_block(G, cls[0]),
                "class_size": len(cls),
                "age": str(rec.age),
                "is_junior": rec.is_junior,
                "is_reflection": rec.is_reflection,
                "eigenvalue_multiplicities": list(rec.multiplicities),
                "weights": list(rec.weights),
            }
        )
    payload = {
        "twist": job.twist,
        "conjugacy_classes": classes,
        "junior_class_count": sum(
            1 for c in classes if c["is_junior"]
        ),
    }
    return payload, EXIT_OK


def _resolve_character(
    job: JobSpec, G: FiniteMatrixGroup
) -> CharacterOfAb:
    decomposition = G.abelian_decomposition()
    factors = decomposition.structure.invariant_factors
    exponents = job.character
    if exponents is None:
        exponents = (0,) * len(factors)
    if len(exponents) != len(factors):
        raise JobError(
            f"character needs {len(factors)} exponents for invariant factors "
            f"{list(factors)}, got {len(exponents)}"
        )
    return CharacterOfAb(decomposition, exponents)


def _run_invariant(job: JobSpec, G: FiniteMatrixGroup) -> tuple[dict, int]:
    chi = _resolve_character(job, G)
    bound = job.degree_bound if job.degree_bound is not None else len(G)
    f = relative_invariant(G, chi, degree_bound=bound)
    if f is None:
        raise PreconditionError(
            f"no nonzero relative invariant up to degree {bound}"
        )
    exponents, twist = _tree_exponents(G, f), GaloisTwist(job.twist)
    residues = [
        {
            "generator_id": gid,
            "order": G.element_orders[gid],
            "residue": _tree_residue(G, exponents, gid, twist),
        }
        for gid in G.generator_ids
    ]
    payload = {
        "character": {
            "invariant_factors": list(
                chi.decomposition.structure.invariant_factors
            ),
            "exponents": list(chi.exponents),
        },
        "degree_bound": bound,
        "invariant": {
            "polynomial": f.render(),
            "total_degree": f.total_degree(),
            "term_count": len(f.terms),
            "graded_residues": residues,
        },
    }
    return payload, EXIT_OK


def _char_label(chi: CharacterOfAb) -> str:
    if not chi.exponents:
        return "trivial"
    return "-".join(str(c) for c in chi.exponents)


def _run_check(job: JobSpec, G: FiniteMatrixGroup) -> tuple[dict, int]:
    twist = GaloisTwist(job.twist)
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": passed, "detail": detail})

    report = terminalization_class_group(G, twist)
    for c in report.consistency:
        record(c.name, c.passed, c.detail)

    try:
        entries = galois_sweep(G)
        record(
            "galois_sweep",
            True,
            f"{len(entries)} twists, junior count {entries[0].junior_count}, "
            f"torsion {list(entries[0].torsion_factors)}",
        )
    except ConsistencyError as exc:
        record("galois_sweep", False, str(exc))

    try:
        free, witness = freeness_criterion(G, twist)
        record(
            "freeness_routes",
            True,
            f"is_free {str(free).lower()}, witness {witness}",
        )
    except ConsistencyError as exc:
        record("freeness_routes", False, str(exc))

    gradings = junior_gradings(G, twist)
    H = junior_subgroup(G, twist)
    bound = job.degree_bound if job.degree_bound is not None else len(G)
    decomposition = G.abelian_decomposition()
    for chi in characters_of(decomposition):
        label = _char_label(chi)
        try:
            f = relative_invariant(G, chi, degree_bound=bound)
        except ConsistencyError as exc:
            record(f"relative_invariant[{label}]", False, str(exc))
            continue
        if f is None:
            raise PreconditionError(
                f"no nonzero relative invariant for character {label} up to "
                f"degree {bound}"
            )
        record(
            f"relative_invariant[{label}]",
            True,
            f"degree {f.total_degree()}, {len(f.terms)} terms",
        )
        try:
            records = check_congruence_lemma(G, gradings, f, twist)
            record(
                f"valuation_congruence[{label}]",
                True,
                f"{len(records)} junior classes agree",
            )
        except (ConsistencyError, ValueError) as exc:
            record(f"valuation_congruence[{label}]", False, str(exc))
        try:
            divisible, invariant = check_junior_ring_membership(
                G, H, gradings, f, twist
            )
            record(
                f"junior_membership[{label}]",
                True,
                f"divisible {divisible}, invariant {invariant}",
            )
        except (ConsistencyError, ValueError) as exc:
            record(f"junior_membership[{label}]", False, str(exc))

    all_passed = all(c["passed"] for c in checks)
    payload = {
        "twist": job.twist,
        "checks": checks,
        "all_passed": all_passed,
        "summary": f"{sum(1 for c in checks if c['passed'])}/{len(checks)} "
        "checks passed",
    }
    return payload, EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _run_sweep(job: JobSpec, G: FiniteMatrixGroup) -> tuple[dict, int]:
    try:
        entries = galois_sweep(G)
    except ConsistencyError as exc:
        return (
            {"consistent": False, "error": str(exc)},
            EXIT_CHECK_FAILED,
        )
    payload = {
        "consistent": True,
        "junior_count": entries[0].junior_count,
        "torsion": list(entries[0].torsion_factors),
        "twists": [
            {
                "twist": e.twist,
                "junior_class_representatives": list(
                    e.junior_class_representatives
                ),
                "junior_element_ids": list(e.junior_element_ids),
                "junior_subgroup_order": e.junior_subgroup_order,
            }
            for e in entries
        ],
    }
    return payload, EXIT_OK


_MODE_TABLE = {
    "analyze": (_run_analyze, "full class group report for the terminalization"),
    "age": (_run_age, "ages, weights, and junior flags per conjugacy class"),
    "invariant": (_run_invariant, "smallest relative invariant for a character"),
    "check": (_run_check, "run every internal property check and report pass/fail"),
    "sweep": (_run_sweep, "junior data across all Galois twists"),
}
MODES = tuple(_MODE_TABLE)


def run(job: JobSpec) -> tuple[dict, int]:
    """Execute a job; returns (structured report, exit status)."""
    _require(job.mode in _MODE_TABLE, f"unknown mode {job.mode!r}")
    G = _build_group(job)
    try:
        payload, status = _MODE_TABLE[job.mode][0](job, G)
    except NotSpecialLinearError as exc:
        raise PreconditionError(str(exc)) from exc
    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": job.mode,
        "group": _group_block(job, G),
        job.mode: payload,
    }
    return report, status


# --- output ------------------------------------------------------------------


def _scalar_text(value: object) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _is_scalar(value: object) -> bool:
    return value is None or isinstance(value, (str, int, bool))


def _text_lines(value: object, indent: int) -> list[str]:
    """A dict entry renders as "key: ..." and a list item as "- ...", by one
    rule: a scalar or a list of scalars on the line itself; anything else
    nested one level deeper, under "key:" or starting on the "- " line."""
    pad = "  " * indent
    if isinstance(value, dict):
        entries = [(f"{key}:", item) for key, item in value.items()]
    elif isinstance(value, list):
        entries = [("-", item) for item in value]
    else:
        return [f"{pad}{_scalar_text(value)}"]
    lines: list[str] = []
    for head, item in entries:
        if _is_scalar(item):
            lines.append(f"{pad}{head} {_scalar_text(item)}")
        elif isinstance(item, list) and all(_is_scalar(v) for v in item):
            inner = ", ".join(_scalar_text(v) for v in item)
            lines.append(f"{pad}{head} [{inner}]")
        else:
            body = _text_lines(item, indent + 1)
            if head != "-":
                lines.append(f"{pad}{head}")
            elif body:
                body[0] = f"{pad}- {body[0].lstrip()}"
            lines.extend(body)
    return lines


_SCALAR_WRITERS = {str: encode_basestring_ascii, int: int.__repr__}


def _json_text(value: object, level: int, memo: dict) -> str:
    """`value` as `json.dumps(value, indent=2)` writes it at nesting
    `level`, for the types a report holds: dicts with str keys, lists,
    tuples, str, int, bool and None.  Anything else raises TypeError, so
    no value is written differently from `json.dumps`.  Only the text of a
    list of dicts is kept in `memo`, by (object, level): that is the one
    shape of block a report holds twice (the junior class representatives,
    whose element blocks are then formed once).  Keeping nothing else, the
    memo holds one level of text, not a copy per nesting level."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"a report cannot hold {type(value).__name__}")
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    key = None
    if isinstance(value, dict):
        brackets = "{}"
        items = []
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(
                    f"a report key must be str, not {type(k).__name__}"
                )
            items.append(
                f"{encode_basestring_ascii(k)}: "
                f"{_json_text(v, level + 1, memo)}"
            )
    else:
        brackets = "[]"
        kinds = set(map(type, value))
        if kinds == {dict}:
            key = (id(value), level)
            if key in memo:
                return memo[key]
        # a list of strings or of ints, such as a matrix row, in one step
        write = _SCALAR_WRITERS.get(kinds.pop()) if len(kinds) == 1 else None
        if write is not None:
            items = map(write, value)
        else:
            items = (_json_text(v, level + 1, memo) for v in value)
    pad = "\n" + "  " * (level + 1)
    text = (
        brackets[0] + pad + ("," + pad).join(items)
        + "\n" + "  " * level + brackets[1]
    )
    if key is not None:
        memo[key] = text
    return text


def render_report(report: dict, output_format: str) -> str:
    """Serialize the structured report; text is a projection of the same
    structure the JSON writer emits.  The JSON bytes are those of
    `json.dumps(report, indent=2) + "\\n"`."""
    if output_format == "json":
        return _json_text(report, 0, {}) + "\n"
    return "\n".join(_text_lines(report, 0)) + "\n"


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The `crepant` argument parser.  argparse is imported here, so that
    importing this module, as library callers do, loads no parser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="crepant",
        description="Class groups and invariants of finite linear group "
        "quotients, in exact cyclotomic arithmetic.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, help_text) in _MODE_TABLE.items():
        p = sub.add_parser(mode, help=help_text)
        p.add_argument(
            "--input",
            default="-",
            help="job document path, or - for stdin (default)",
        )
        p.add_argument(
            "--format",
            dest="output_format",
            choices=("text", "json"),
            default="text",
            help="report format (default text)",
        )
        p.add_argument(
            "--max-group-size",
            type=int,
            default=MAX_GROUP_SIZE,
            help="abort closure beyond this many elements (default %(default)s)",
        )
        p.add_argument(
            "--degree-bound",
            type=int,
            default=None,
            help="monomial degree cap for invariant searches "
            "(default: the group order)",
        )
        p.add_argument(
            "--twist",
            type=int,
            default=1,
            help="Galois twist exponent t, coprime to the working conductor",
        )
        p.add_argument(
            "--output",
            default=None,
            help="write the report to this path instead of stdout",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            if args.input == "-":
                source = sys.stdin.buffer.read().decode("utf-8")
            else:
                with open(args.input, "r", encoding="utf-8") as handle:
                    source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise JobError(f"cannot read input {args.input!r}: {exc}")
        job = parse_job(
            source,
            mode=args.mode,
            max_group_size=args.max_group_size,
            degree_bound=args.degree_bound,
            twist=args.twist,
            output_format=args.output_format,
        )
        report, status = run(job)
        text = render_report(report, args.output_format)
        if args.output is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise JobError(f"cannot write output {args.output!r}: {exc}")
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ArithmeticError as exc:
        # a cross-route check of the exact and the modular arithmetic failed
        print(f"error: internal arithmetic check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return status


if __name__ == "__main__":
    sys.exit(main())
