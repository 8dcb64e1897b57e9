"""Job parsing, report structure, determinism, and exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import crepant
from crepant import cli, matgrp
from crepant.classgroup import ConsistencyCheck, PushforwardData
from crepant.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PRECONDITION,
    MODES,
    JobError,
    JobSpec,
    PreconditionError,
    main,
    parse_job,
    render_report,
    run,
)
from crepant.invariants import CongruenceRecord
from crepant.matgrp import CycMatrix, SubgroupHandle
from crepant.mckay import ConsistencyError

from conftest import EX72_ROWS, ICOSA_ROWS, Q8_ROWS, S3_ROWS, TETRA_C3_ROWS


def doc(dimension, generators, **extra):
    return json.dumps(
        {"dimension": dimension, "generators": generators, **extra}
    )


EX72_DOC = doc(4, [EX72_ROWS])
Q8_DOC = doc(2, [[list(r) for r in m] for m in Q8_ROWS])
GL_DOC = doc(2, [[["-1", "0"], ["0", "1"]]])
TRIVIAL_DOC = doc(3, [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]])


# --- parse_job ----------------------------------------------------------------


def test_parse_job_fields():
    job = parse_job(EX72_DOC)
    assert job.dimension == 4
    assert len(job.generators) == 1
    assert job.mode == "analyze"
    assert job.character is None
    assert job.max_group_size == 20000
    assert job.twist == 1
    echo = job.canonical_generators()
    assert echo[0][2][2] == "-E(3)"
    assert echo[0][3][3] == "1+E(3)"


def test_parse_job_accepts_integer_entries():
    job = parse_job(doc(2, [[[1, 0], [0, -1]]]))
    assert job.generators[0].render_rows() == [["1", "0"], ["0", "-1"]]


def test_parse_job_opens_no_file(tmp_path, monkeypatch):
    # `main` is the one file reader: a file name is text that is not JSON
    from crepant import cli

    def refuse(*args, **kwargs):
        raise AssertionError("parse_job opened a file")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "job.json").write_text(EX72_DOC)
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    with pytest.raises(JobError, match="invalid JSON"):
        parse_job("job.json")


@pytest.mark.parametrize("text", ["5", "null", '"x"', "5\n"])
def test_parse_job_reads_json_scalars_as_documents(text, tmp_path, monkeypatch):
    # a file named like the text is not read in its place
    monkeypatch.chdir(tmp_path)
    (tmp_path / text.strip()).write_text(EX72_DOC)
    with pytest.raises(JobError, match="job document must be a JSON object"):
        parse_job(text)


def test_parse_job_document_errors():
    with pytest.raises(JobError, match="invalid JSON"):
        parse_job("not json {")
    with pytest.raises(JobError, match="JSON object"):
        parse_job("[1, 2]")
    with pytest.raises(JobError, match="needs a dimension"):
        parse_job(json.dumps({"generators": [[["1"]]]}))
    with pytest.raises(JobError, match="positive integer"):
        parse_job(doc(0, [[["1"]]]))
    with pytest.raises(JobError, match="positive integer"):
        parse_job(json.dumps({"dimension": True, "generators": [[["1"]]]}))
    with pytest.raises(JobError, match="nonempty generator list"):
        parse_job(doc(2, []))
    with pytest.raises(JobError, match="unknown job fields: extra"):
        parse_job(doc(1, [[["1"]]], extra=1))


def test_parse_job_matrix_errors():
    with pytest.raises(JobError, match="generator 1: has 2 rows"):
        parse_job(doc(3, [[["1", "0"], ["0", "1"]]]))
    with pytest.raises(JobError, match="row 2: expected 2 entries"):
        parse_job(doc(2, [[["1", "0"], ["0"]]]))
    with pytest.raises(JobError, match="expression strings or integers"):
        parse_job(doc(1, [[[True]]]))
    try:
        parse_job(doc(2, [[["E(3", "0"], ["0", "1"]]]))
    except JobError as exc:
        message = str(exc)
        assert "generator 1, row 1, column 1" in message
        assert "position" in message
    else:
        pytest.fail("bad expression accepted")


def test_parse_job_character_validation():
    job = parse_job(EX72_DOC.replace("}", ', "character": [1]}'))
    assert job.character == (1,)
    with pytest.raises(JobError, match="list of integers"):
        parse_job(doc(1, [[["1"]]], character=["x"]))


def test_parse_job_option_validation():
    with pytest.raises(JobError, match="unknown mode"):
        parse_job(EX72_DOC, mode="explode")
    with pytest.raises(JobError, match="max group size"):
        parse_job(EX72_DOC, max_group_size=0)
    with pytest.raises(JobError, match="twist"):
        parse_job(EX72_DOC, twist=0)
    with pytest.raises(JobError, match="degree bound"):
        parse_job(EX72_DOC, degree_bound=0)
    with pytest.raises(JobError, match="format"):
        parse_job(EX72_DOC, output_format="xml")


def test_run_refuses_an_unknown_mode_before_closing_the_group(monkeypatch):
    def closed(*args, **kwargs):
        raise AssertionError("the group was closed for an unknown mode")

    monkeypatch.setattr(cli, "close_group", closed)
    job = JobSpec(
        dimension=4,
        generators=(CycMatrix.from_rows(EX72_ROWS),),
        mode="explode",
        character=None,
        max_group_size=20000,
        degree_bound=None,
        twist=1,
        output_format="json",
    )
    with pytest.raises(JobError, match="unknown mode"):
        run(job)


# --- run: analyze -------------------------------------------------------------


def test_analyze_golden_report():
    report, status = run(parse_job(EX72_DOC))
    assert status == EXIT_OK
    assert report["schema_version"] == 1
    assert report["mode"] == "analyze"
    assert report["group"]["order"] == 6
    assert report["group"]["is_special_linear"] is True
    body = report["analyze"]
    assert body["free_rank"] == 2
    assert body["torsion"] == [2]
    assert body["is_free"] is False
    assert body["quotient_class_group"] == [6]
    assert body["abelianization"] == [6]
    assert body["junior_abelian_image"] == [3]
    assert body["junior"]["class_count"] == 2
    assert [b["id"] for b in body["junior"]["class_representatives"]] == [2, 4]
    assert body["junior"]["subgroup_order"] == 3
    assert [b["id"] for b in body["pushforward"]["free_images"]] == [2, 4]
    witnesses = body["pushforward"]["torsion_witnesses"]
    assert [b["id"] for b in witnesses] == [3]
    assert witnesses[0]["matrix"] == [
        ["-1", "0", "0", "0"],
        ["0", "-1", "0", "0"],
        ["0", "0", "-1", "0"],
        ["0", "0", "0", "-1"],
    ]
    assert body["all_checks_passed"] is True


def test_analyze_trivial_group():
    report, status = run(parse_job(TRIVIAL_DOC))
    assert status == EXIT_OK
    body = report["analyze"]
    assert body["free_rank"] == 0
    assert body["torsion"] == []
    assert body["is_free"] is True
    assert body["quotient_class_group"] == []
    assert body["junior"]["class_count"] == 0
    assert body["pushforward"]["free_images"] == []
    assert body["pushforward"]["torsion_witnesses"] == []
    assert body["all_checks_passed"] is True


def test_analyze_twist_stability():
    base, _ = run(parse_job(EX72_DOC))
    twisted, status = run(parse_job(EX72_DOC, twist=5))
    assert status == EXIT_OK
    assert twisted["analyze"]["free_rank"] == base["analyze"]["free_rank"]
    assert twisted["analyze"]["torsion"] == base["analyze"]["torsion"]


# --- run: age -----------------------------------------------------------------


def test_age_mode_on_q8():
    report, status = run(parse_job(Q8_DOC, mode="age"))
    assert status == EXIT_OK
    classes = report["age"]["conjugacy_classes"]
    assert sorted(c["class_size"] for c in classes) == [1, 1, 2, 2, 2]
    assert sorted(c["age"] for c in classes) == ["0", "1", "1", "1", "1"]
    assert classes[0]["representative"]["id"] == 0
    assert classes[0]["age"] == "0"
    assert report["age"]["junior_class_count"] == 4
    assert not any(c["is_reflection"] for c in classes)


def test_age_mode_allows_general_linear_and_fractions():
    report, status = run(parse_job(GL_DOC, mode="age"))
    assert status == EXIT_OK
    classes = report["age"]["conjugacy_classes"]
    assert [c["age"] for c in classes] == ["0", "1/2"]
    assert classes[1]["is_reflection"] is True
    assert report["group"]["is_special_linear"] is False


# --- run: invariant -----------------------------------------------------------


def test_invariant_mode_with_character():
    report, status = run(
        parse_job(EX72_DOC.replace("}", ', "character": [1]}'), mode="invariant")
    )
    assert status == EXIT_OK
    body = report["invariant"]
    assert body["character"]["invariant_factors"] == [6]
    assert body["character"]["exponents"] == [1]
    assert body["invariant"]["polynomial"] == "6*x3"
    assert body["invariant"]["total_degree"] == 1
    assert body["invariant"]["graded_residues"] == [
        {"generator_id": 1, "order": 6, "residue": 5}
    ]


def test_invariant_mode_defaults_to_trivial_character():
    report, status = run(parse_job(EX72_DOC, mode="invariant"))
    assert status == EXIT_OK
    body = report["invariant"]
    assert body["character"]["exponents"] == [0]
    assert body["invariant"]["polynomial"] == "6*x1^2"
    assert body["invariant"]["graded_residues"][0]["residue"] == 0


def test_invariant_character_length_checked():
    with pytest.raises(JobError, match="character needs 1 exponents"):
        run(parse_job(EX72_DOC.replace("}", ', "character": [1, 0]}'),
                      mode="invariant"))


def test_invariant_degree_bound_exhaustion():
    with pytest.raises(PreconditionError, match="degree 3"):
        run(parse_job(Q8_DOC, mode="invariant", degree_bound=3))


# --- run: check and sweep -----------------------------------------------------


def test_check_mode_passes_everything():
    report, status = run(parse_job(EX72_DOC, mode="check"))
    assert status == EXIT_OK
    body = report["check"]
    assert body["all_passed"] is True
    names = [c["name"] for c in body["checks"]]
    assert "order_product" in names
    assert "galois_sweep" in names
    assert "freeness_routes" in names
    # 8 structural checks + sweep + freeness + 3 per character of Z/6
    assert len(names) == 10 + 18
    assert body["summary"] == "28/28 checks passed"
    assert all(c["passed"] for c in body["checks"])


def test_check_names_the_only_character_of_a_perfect_group_trivial():
    # the binary icosahedral group is perfect: Ab(G) is trivial, and so is
    # its one character
    report, status = run(parse_job(doc(2, ICOSA_ROWS), mode="check"))
    assert status == EXIT_OK
    body = report["check"]
    names = [c["name"] for c in body["checks"]]
    assert names[-3:] == [
        "relative_invariant[trivial]",
        "valuation_congruence[trivial]",
        "junior_membership[trivial]",
    ]
    assert body["summary"] == "13/13 checks passed"
    assert body["all_passed"] is True


def test_check_decomposes_ab_g_once_per_group(monkeypatch):
    import sys

    from crepant import matgrp

    decomposed = []
    original = matgrp.abelian_decomposition

    def counted(grp):
        decomposed.append(grp)
        return original(grp)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "crepant":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)

    def ab_g_calls():
        return [
            grp for grp in decomposed
            if isinstance(getattr(grp, "parent", None), matgrp.FiniteMatrixGroup)
            and grp is grp.parent.abelianization()
        ]

    for runs in (1, 2):
        report, status = run(parse_job(Q8_DOC, mode="check"))
        assert status == EXIT_OK
        # the report and the loop over the four characters of Ab(Q8)
        # share one decomposition
        assert len(ab_g_calls()) == runs
    assert len({id(grp) for grp in ab_g_calls()}) == 2


# C6^3 = <diag(z, 1, 1, z^-1), diag(1, z, 1, z^-1), diag(1, 1, z, z^-1)>, z = z6
C6_CUBED_DOC = doc(4, [
    [[{0: "1", 1: "E(6)", 5: "E(6)^5"}[a] if i == j else "0" for j in range(4)]
     for i, a in enumerate(row)]
    for row in [(1, 0, 0, 5), (0, 1, 0, 5), (0, 0, 1, 5)]
])


@pytest.mark.parametrize(
    "text", [doc(4, TETRA_C3_ROWS), C6_CUBED_DOC], ids=["2TxC3", "C6^3"]
)
@pytest.mark.parametrize("mode", ["analyze", "check", "sweep"])
def test_no_subgroup_handle_is_walked(text, mode, monkeypatch):
    # a handle's element orders are its parent's, so only closed groups
    # and quotients walk their cyclic subgroups
    walked = []
    walks = matgrp._cyclic_walks

    def counted(grp):
        walked.append(grp)
        return walks(grp)

    monkeypatch.setattr(matgrp, "_cyclic_walks", counted)
    if text is C6_CUBED_DOC:
        # every order table is read before the per-character checks, and
        # the 216 characters of Ab(C6^3) would take seconds
        characters = cli.characters_of
        monkeypatch.setattr(
            cli, "characters_of", lambda dec: characters(dec)[:3]
        )
    report, status = run(parse_job(text, mode=mode))
    assert status == EXIT_OK
    assert walked
    assert not [grp for grp in walked if isinstance(grp, SubgroupHandle)]


def test_sweep_mode_table():
    report, status = run(parse_job(EX72_DOC, mode="sweep"))
    assert status == EXIT_OK
    body = report["sweep"]
    assert body["consistent"] is True
    assert body["junior_count"] == 2
    assert body["torsion"] == [2]
    assert [e["twist"] for e in body["twists"]] == [1, 5]
    assert all(e["junior_element_ids"] == [2, 4] for e in body["twists"])


def test_sweep_inconsistency_surfaces_as_check_failure(monkeypatch):
    import crepant.cli as cli_module

    def boom(_grp):
        raise ConsistencyError("forced sweep mismatch")

    monkeypatch.setattr(cli_module, "galois_sweep", boom)
    report, status = run(parse_job(EX72_DOC, mode="sweep"))
    assert status == EXIT_CHECK_FAILED
    assert report["sweep"]["consistent"] is False
    assert "forced sweep mismatch" in report["sweep"]["error"]
    report, status = run(parse_job(EX72_DOC, mode="check"))
    assert status == EXIT_CHECK_FAILED
    sweep_check = next(
        c for c in report["check"]["checks"] if c["name"] == "galois_sweep"
    )
    assert sweep_check["passed"] is False


def test_molien_disagreement_is_a_failed_check(monkeypatch):
    import itertools

    from crepant import invariants

    # promise degree 1 for every character: no linear form of Q8 is a
    # relative invariant, so the averaging route refuses the promise
    monkeypatch.setattr(
        invariants,
        "_molien_coefficients",
        lambda G, chi: itertools.chain([1, 1], itertools.repeat(0)),
    )
    report, status = run(parse_job(Q8_DOC, mode="check"))
    assert status == EXIT_CHECK_FAILED
    checks = {c["name"]: c for c in report["check"]["checks"]}
    entry = checks["relative_invariant[0-0]"]
    assert entry["passed"] is False
    assert "promises" in entry["detail"]
    # the character's two lemma checks are skipped, as with no invariant
    assert "valuation_congruence[0-0]" not in checks
    assert "junior_membership[0-0]" not in checks
    # 10 structural checks and one failed entry per character of Ab(Q8)
    assert len(checks) == 10 + 4
    assert report["check"]["all_passed"] is False


def _forced_consistency_error(what):
    def fail(*args, **kwargs):
        raise ConsistencyError(f"forced {what} failure")

    return fail


def test_failed_routes_are_recorded_and_check_exits_one(monkeypatch, capsys):
    import crepant.classgroup as classgroup_module
    import crepant.cli as cli_module

    freeness = _forced_consistency_error("freeness")
    monkeypatch.setattr(classgroup_module, "freeness_criterion", freeness)
    monkeypatch.setattr(cli_module, "freeness_criterion", freeness)
    monkeypatch.setattr(
        cli_module, "check_congruence_lemma",
        _forced_consistency_error("congruence"),
    )
    monkeypatch.setattr(
        cli_module, "check_junior_ring_membership",
        _forced_consistency_error("membership"),
    )
    job = GOLDEN_DIR.parent / "jobs" / "q8.json"
    code = main(["check", "--format", "json", "--input", str(job)])
    out, err = capsys.readouterr()
    assert (code, err) == (EXIT_CHECK_FAILED, "")
    body = json.loads(out)["check"]
    checks = {c["name"]: c for c in body["checks"]}
    assert checks["freeness_routes_agree"]["passed"] is False
    assert checks["freeness_routes"] == {
        "name": "freeness_routes",
        "passed": False,
        "detail": "forced freeness failure",
    }
    for label in ("0-0", "0-1", "1-0", "1-1"):
        assert checks[f"relative_invariant[{label}]"]["passed"] is True
        for name, what in (
            ("valuation_congruence", "congruence"),
            ("junior_membership", "membership"),
        ):
            entry = checks[f"{name}[{label}]"]
            assert entry["passed"] is False
            assert entry["detail"] == f"forced {what} failure"
    # 10 structural checks, the sweep, freeness and 3 per character
    assert body["summary"] == "12/22 checks passed"
    assert body["all_passed"] is False


def test_main_reports_a_consistency_error_from_run(monkeypatch, capsys):
    from crepant import mckay

    monkeypatch.setattr(
        mckay._JuniorSet, "quotients",
        property(_forced_consistency_error("junior quotient")),
    )
    job = GOLDEN_DIR.parent / "jobs" / "q8.json"
    code = main(["analyze", "--input", str(job)])
    out, err = capsys.readouterr()
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == (
        "internal consistency failure: forced junior quotient failure\n"
    )


# --- rendering ----------------------------------------------------------------


def test_json_rendering_round_trips():
    report, _ = run(parse_job(EX72_DOC))
    text = render_report(report, "json")
    assert json.loads(text) == report
    assert text.endswith("\n")


def test_text_rendering_projects_the_structure():
    report, _ = run(parse_job(EX72_DOC))
    text = render_report(report, "text")
    assert "free_rank: 2" in text
    assert "torsion: [2]" in text
    assert "all_checks_passed: true" in text
    assert "- [-1, 0, 0, 0]" in text
    assert text.endswith("\n")


# `render_report` writes JSON with its own writer; `json.dumps` is the
# oracle it must match byte for byte.
_JSON_TEXT = st.text(
    alphabet=st.characters()
    | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
)
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40)
    | _JSON_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=25,
)


@given(_JSON_TREES, st.lists(_JSON_TREES | _JSON_TEXT, max_size=3))
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
def test_json_writer_matches_json_dumps(tree, shared):
    # `shared` is held twice at one depth, as the junior representatives
    # are, and once more at another depth
    report = {
        "tree": tree,
        "junior": {"class_representatives": shared},
        "pushforward": {"free_images": shared},
        "deeper": [[shared], {}, [], ()],
    }
    for value in (report, tree, shared):
        assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"


def _containers(value, found):
    """Every list, tuple and dict in `value`, by id."""
    if isinstance(value, (list, tuple, dict)):
        found[id(value)] = value
        for v in value.values() if isinstance(value, dict) else value:
            _containers(v, found)
    return found


def test_json_writer_keeps_only_the_shared_element_blocks(monkeypatch):
    import crepant.cli as cli_module

    report, _ = run(parse_job(EX72_DOC))
    block = report["analyze"]
    juniors = block["junior"]["class_representatives"]
    assert juniors and block["pushforward"]["free_images"] is juniors
    writer, memo, calls = cli_module._json_text, {}, []

    def counted(value, level, memo_):
        assert memo_ is memo
        calls.append((id(value), (id(value), level) in memo))
        return writer(value, level, memo_)

    monkeypatch.setattr(cli_module, "_json_text", counted)
    text = cli_module._json_text(report, 0, memo)
    assert text == json.dumps(report, indent=2)
    # one level of text: only lists of dicts are kept, each once
    found = _containers(report, {})
    kept = [found[i] for i, _ in memo]
    assert kept and all(
        isinstance(v, list) and all(isinstance(d, dict) for d in v)
        for v in kept
    )
    assert len(kept) == len({id(v) for v in kept})
    # the junior list is formed at `class_representatives` and its copy at
    # `free_images` is a memo hit; each element block is written once
    assert [hit for i, hit in calls if i == id(juniors)] == [False, True]
    for element in juniors:
        assert [i for i, _ in calls].count(id(element)) == 1


@pytest.mark.parametrize(
    "value", [1.5, {"a": [0, 2.0]}, {1: "a"}, {(1,): 2}, {"a": {1, 2}}, [b"x"]]
)
def test_json_writer_refuses_what_reports_do_not_hold(value):
    # a report holds no float and no int key, which `json.dumps` would
    # write, nor a set, bytes or a tuple key, which it refuses too
    with pytest.raises(TypeError):
        render_report(value, "json")


# The modes whose report is written for each job file, listed per file so
# that a job file added for a CI step adds no unlisted work here: a file
# with no entry fails, naming itself.  Left out: `check` on C2003 and on
# the dense 2I x C12, and `sweep` on C2003, each take over a minute; `age`
# on C2003 writes 53 MB, which the oracle's chunk list turns into about
# half a gigabyte; `check` on the dense 2T x C3 job with a character reads
# no character, so it is 2t_c3_dense's check report (~4 s) again.  C27^3
# (order 19 683): `check` does not end within four minutes, `age` writes
# 23 MB and `invariant` takes ~8 s.
_WRITTEN_MODES = {
    "2i_c12": MODES,
    "2i_c12_dense": ("analyze", "age", "invariant", "sweep"),
    "2t": MODES,
    "2t_c3_chi01": MODES,
    "2t_c3_chi11": MODES,
    "2t_c3_dense": MODES,
    "2t_c3_dense_chi11": ("analyze", "age", "invariant", "sweep"),
    "c15_1_4_10": MODES,
    "c17": MODES,
    "c2003": ("analyze", "invariant"),
    "c27_cubed": ("analyze", "sweep"),
    "c6_cubed": MODES,
    "q8": MODES,
    "s3": MODES,
}


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).parent / "data" / "jobs").glob("*.json")),
    ids=lambda p: p.stem,
)
def test_json_writer_matches_json_dumps_on_every_job(path):
    assert path.stem in _WRITTEN_MODES, (
        f"tests/data/jobs/{path.name} has no entry in _WRITTEN_MODES: list "
        "the modes whose report this test should write"
    )
    source = path.read_text(encoding="utf-8")
    written = 0
    for mode in _WRITTEN_MODES[path.stem]:
        try:
            report, _ = run(parse_job(source, mode=mode))
        except PreconditionError:
            continue  # no report: a GL job in a terminalization mode
        text = render_report(report, "json")
        assert text == json.dumps(report, indent=2) + "\n", (path.stem, mode)
        written += 1
    assert written >= 2


def test_reports_are_deterministic():
    a, _ = run(parse_job(EX72_DOC))
    b, _ = run(parse_job(EX72_DOC))
    assert render_report(a, "json") == render_report(b, "json")
    assert render_report(a, "text") == render_report(b, "text")


# Reports pinned byte for byte across commits.  The files under
# tests/data/golden are `render_report` output; a change that alters any of
# them changes the CLI contract.  2T's order-3 generator has the fractional
# entries (+-1+-E(4))/2; C12 is written at conductor 60, whose basis
# reduction mixes the primes 2, 3 and 5.  In S3 (permutation matrices in
# GL3) g - 1 of a transposition has two nonzero rows with one support, so
# the 2x2 minors decide that it is a reflection.  The diagonal C3^3 in SL4
# is abelian: every one of its 27 elements is its own class, so every
# element gets the exact trace and rank checks.  So is C6^3
# (tests/data/jobs/c6_cubed.json), with 216 singleton classes whose walks
# repeat a few eigen types: the eigen pass keeps its derived values per
# type and compares every element and representative with them.
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
TETRA_T = [["(-1+E(4))/2", "(1+E(4))/2"], ["(-1+E(4))/2", "(-1-E(4))/2"]]
TWO_T_DOC = doc(2, [[list(r) for r in m] for m in Q8_ROWS] + [TETRA_T])
C12_AT_60_DOC = doc(
    3, [[["E(3)", "0", "0"], ["0", "E(4)", "0"], ["0", "0", "E(60)^-35"]]]
)
S3_DOC = doc(3, S3_ROWS)
# C3^3 = <diag(z, 1, 1, z^-1), diag(1, z, 1, z^-1), diag(1, 1, z, z^-1)>
C3_CUBED_DOC = doc(
    4,
    [
        [[e if i == j else "0" for j in range(4)] for i, e in enumerate(diagonal)]
        for diagonal in (
            ["E(3)", "1", "1", "E(3)^2"],
            ["1", "E(3)", "1", "E(3)^2"],
            ["1", "1", "E(3)", "E(3)^2"],
        )
    ],
)
# 2T x C3 in SL4 (2T on x1, x2 and diag(1, 1, z3, z3^2)): the relative
# invariants of the characters [0, 1] and [1, 1] have the coefficient
# 36-72*E(12)^2, written at conductor 12, the lcm of the conductors of the
# products it is summed from.
TWO_T_C3_DOCS = {
    f"2t_c3_chi{a}{b}": doc(4, TETRA_C3_ROWS, character=[a, b])
    for a, b in ((0, 1), (1, 1))
}
# The age reports of C17 (element order 17, far above the dimension 2) and
# of 2T x C3 conjugated by a dense unimodular P read their job files: they
# pin the exponents, multiplicities and weights of elements whose order
# exceeds the dimension and of elements with dense rows.
AGE_JOB_FILES = ("c17", "2t_c3_dense")
# The dense 2T x C3 job with the character [1, 1]: its relative invariant is
# formed from powers and substitutions of four-term linear forms.
DENSE_INVARIANT_JOB = "2t_c3_dense_chi11"
# `check` on dense 2T x C3 (junior representatives with dense eigenbases),
# on C6^3 (216 junior-bearing singleton classes, 216 characters) and on
# 2I x C12 (order 1440, junior classes read at diagonal members and in
# shared eigenbases): the congruence and membership records of groups
# larger than 2T.
CHECK_JOB_FILES = ("2t_c3_dense", "c6_cubed", "2i_c12")
# EX72 is not free: its `check` reports the witness 1 off the generation
# route, and its `sweep` the torsion [2].  C15 = <diag(E(15), E(15)^4,
# E(15)^10)> has 8 twists that find 4 junior sets, each shared by two
# twists: (1, 4), (2, 8), (7, 13) and (11, 14).
SHARED_JUNIOR_SET_JOB = "c15_1_4_10"
# Jobs pinned under a twist other than 1, each (job file, mode, twist):
# `invariant` on 2T x C3 with the character [1, 1] prints the generator
# residues [0, 0, 2, 2] under t = 5 ([0, 0, 1, 1] under t = 1), and `check`
# on dense 2T x C3 reads every junior residue under t = 5.
TWISTED_JOBS = {
    "2t_c3_chi11_invariant_twist5": ("2t_c3_chi11", "invariant", 5),
    "2t_c3_dense_check_twist5": ("2t_c3_dense", "check", 5),
}


def _job_text(name):
    return (GOLDEN_DIR.parent / "jobs" / f"{name}.json").read_text(encoding="utf-8")


# Each golden's (job document, mode, twist).
GOLDEN_JOBS = {
    **{f"ex72_{mode}": (EX72_DOC, mode, 1) for mode in ("analyze", "check", "sweep")},
    "s3_age": (S3_DOC, "age", 1),
    "c3_cubed_analyze": (C3_CUBED_DOC, "analyze", 1),
    "c6_cubed_analyze": (C6_CUBED_DOC, "analyze", 1),
    **{f"q8_{mode}": (Q8_DOC, mode, 1) for mode in MODES},
    "2t_check": (TWO_T_DOC, "check", 1),
    "2t_age": (TWO_T_DOC, "age", 1),
    "c12_conductor60_analyze": (C12_AT_60_DOC, "analyze", 1),
    **{f"{name}_invariant": (source, "invariant", 1)
       for name, source in TWO_T_C3_DOCS.items()},
    **{f"{name}_age": (_job_text(name), "age", 1) for name in AGE_JOB_FILES},
    f"{DENSE_INVARIANT_JOB}_invariant": (
        _job_text(DENSE_INVARIANT_JOB), "invariant", 1
    ),
    **{f"{name}_check": (_job_text(name), "check", 1) for name in CHECK_JOB_FILES},
    **{f"{SHARED_JUNIOR_SET_JOB}_{mode}": (_job_text(SHARED_JUNIOR_SET_JOB), mode, 1)
       for mode in ("sweep", "check")},
    **{golden: (_job_text(name), mode, twist)
       for golden, (name, mode, twist) in TWISTED_JOBS.items()},
}
GOLDEN_FORMATS = {"json": "json", "text": "txt"}


def test_console_script_job_is_the_golden_q8_job():
    # CI pipes tests/data/jobs/q8.json through the installed `crepant
    # <mode>` for all five modes, 2t.json through `check` and `age`,
    # s3.json through `age` and c6_cubed.json through `analyze` and
    # `check`, and compares each output with the golden report of that
    # job and mode
    for name, source in (
        ("q8", Q8_DOC), ("2t", TWO_T_DOC), ("s3", S3_DOC),
        ("c6_cubed", C6_CUBED_DOC),
    ):
        path = GOLDEN_DIR.parent / "jobs" / f"{name}.json"
        assert json.loads(path.read_text(encoding="utf-8")) == json.loads(source)


def test_console_script_jobs_are_the_golden_2t_c3_invariant_jobs():
    # CI pipes these job files through the installed `crepant invariant`
    # and compares each output with its golden report
    for name, source in TWO_T_C3_DOCS.items():
        path = GOLDEN_DIR.parent / "jobs" / f"{name}.json"
        assert json.loads(path.read_text(encoding="utf-8")) == json.loads(source)
    for name in TWO_T_C3_DOCS:
        golden = (GOLDEN_DIR / f"{name}_invariant.txt").read_text(encoding="utf-8")
        assert "(36-72*E(12)^2)" in golden


def test_dense_invariant_job_is_the_dense_job_with_a_character():
    jobs = GOLDEN_DIR.parent / "jobs"
    dense = json.loads((jobs / "2t_c3_dense.json").read_text(encoding="utf-8"))
    job = json.loads((jobs / f"{DENSE_INVARIANT_JOB}.json").read_text(encoding="utf-8"))
    assert job == {**dense, "character": [1, 1]}


@pytest.mark.parametrize("name", sorted(GOLDEN_JOBS))
def test_reports_match_golden_bytes(name):
    source, mode, twist = GOLDEN_JOBS[name]
    report, status = run(parse_job(source, mode=mode, twist=twist))
    assert status == EXIT_OK
    for fmt, suffix in GOLDEN_FORMATS.items():
        golden = (GOLDEN_DIR / f"{name}.{suffix}").read_bytes()
        assert render_report(report, fmt).encode("utf-8") == golden, (name, fmt)


# --- main() and exit codes ------------------------------------------------------


def run_main(args, stdin_text=None, monkeypatch=None, capsys=None):
    # `main` reads the bytes under sys.stdin, so stdin is a text wrapper
    # over a byte buffer, as the interpreter's is
    if stdin_text is not None:
        raw = io.BytesIO(stdin_text.encode("utf-8"))
        stdin = io.TextIOWrapper(raw, encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_importing_the_cli_loads_no_argument_parser():
    # Library callers import crepant.cli for `parse_job`, `run` and
    # `render_report`; only `build_parser` imports argparse.  Each check
    # runs in a fresh interpreter, on the package under test.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, crepant.cli; sys.exit('argparse' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
    shown = subprocess.run(
        [sys.executable, "-m", "crepant.cli", "--help"],
        env=env, capture_output=True, text=True,
    )
    assert shown.returncode == 0, shown.stderr
    assert shown.stdout.startswith("usage: crepant")


def test_importing_the_cli_generates_no_record_code():
    # The records are named tuples and `per_group` keys positional
    # arguments without reading a signature, so the import executes
    # neither `dataclasses` nor `inspect`.  Compared with the modules loaded before the import, which
    # a site hook may extend; in a fresh interpreter, on the package under
    # test.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys; before = set(sys.modules); import crepant.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    shown = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert shown.returncode == 0, shown.stderr
    assert shown.stdout == "[]\n"


# The public records and their fields, in constructor order.
_RECORD_FIELDS = {
    crepant.AgeRecord: (
        "element_id", "order", "exponents", "age", "is_junior",
        "is_reflection", "weights",
    ),
    crepant.GradingData: ("order", "weights", "basis", "basis_is_standard"),
    crepant.GaloisTwist: ("t",),
    crepant.SweepEntry: (
        "twist", "junior_count", "junior_class_representatives",
        "junior_element_ids", "junior_subgroup_order", "torsion_factors",
    ),
    crepant.AbelianStructure: ("invariant_factors", "order"),
    crepant.AbelianDecomposition: ("group", "structure", "generators", "dlog"),
    ConsistencyCheck: ("name", "passed", "detail"),
    PushforwardData: ("free_images", "torsion_witnesses"),
    crepant.ClassGroupReport: (
        "group_order", "is_special_linear", "reflection_subgroup_order",
        "quotient_class_group", "abelianization_structure",
        "junior_class_count", "junior_class_representatives",
        "junior_subgroup_order", "free_rank", "torsion",
        "junior_abelian_image", "pushforward", "consistency",
    ),
    crepant.CharacterOfAb: ("decomposition", "exponents"),
    CongruenceRecord: ("element_id", "order", "valuation", "graded_residue"),
    JobSpec: (
        "dimension", "generators", "mode", "character", "max_group_size",
        "degree_bound", "twist", "output_format",
    ),
}

# a decomposition holds its discrete-log dict, so neither it nor a
# character written against it has a hash
_UNHASHABLE = {crepant.AbelianDecomposition, crepant.CharacterOfAb}


def _records_of_ex72() -> dict:
    """One record of each public record type, from the order-6 example."""
    G = matgrp.close_group([CycMatrix.from_rows(EX72_ROWS)])
    dec = G.abelian_decomposition()
    f = crepant.relative_invariant(G, crepant.characters_of(dec)[1])
    report = crepant.terminalization_class_group(G)
    return {
        crepant.AgeRecord: crepant.age_records(G)[2],
        crepant.GradingData: crepant.junior_gradings(G)[0][1],
        crepant.GaloisTwist: crepant.GaloisTwist(5),
        crepant.SweepEntry: crepant.galois_sweep(G)[0],
        crepant.AbelianStructure: dec.structure,
        crepant.AbelianDecomposition: dec,
        ConsistencyCheck: report.consistency[0],
        PushforwardData: report.pushforward,
        crepant.ClassGroupReport: report,
        crepant.CharacterOfAb: crepant.characters_of(dec)[1],
        CongruenceRecord: crepant.check_congruence_lemma(
            G, crepant.junior_gradings(G), f
        )[0],
        JobSpec: parse_job(EX72_DOC),
    }


@pytest.mark.parametrize("kind", list(_RECORD_FIELDS), ids=lambda k: k.__name__)
def test_records_are_frozen_and_compare_by_fields(kind):
    record = _records_of_ex72()[kind]
    assert type(record) is kind
    fields = _RECORD_FIELDS[kind]
    values = [getattr(record, name) for name in fields]
    positional = kind(*values)
    keyword = kind(**dict(zip(fields, values)))
    assert type(positional) is type(keyword) is kind
    assert positional == keyword == record
    if kind in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(positional) == hash(keyword) == hash(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = None
    assert [getattr(record, name) for name in fields] == values
    assert record == tuple(values) and len(record) == len(fields)
    with pytest.raises(TypeError):
        kind(*values, None)


def test_the_default_twist_is_the_identity():
    assert crepant.GaloisTwist() == crepant.GaloisTwist(1)
    assert crepant.GaloisTwist(t=1) == crepant.mckay.IDENTITY_TWIST


def test_main_stdin_to_stdout(monkeypatch, capsys):
    code, out, err = run_main(
        ["analyze", "--format", "json"],
        stdin_text=EX72_DOC,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    assert err == ""
    payload = json.loads(out)
    assert payload["analyze"]["free_rank"] == 2


def test_main_output_file(tmp_path, monkeypatch, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_main(
        ["analyze", "--format", "json", "--output", str(target)],
        stdin_text=EX72_DOC,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["analyze"]["torsion"] == [2]


def test_main_unwritable_output_is_input_error(tmp_path, monkeypatch, capsys):
    target = tmp_path / "missing" / "r.txt"
    code, out, err = run_main(
        ["analyze", "--output", str(target)],
        stdin_text=EX72_DOC,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: cannot write output {str(target)!r}: ")
    assert "Traceback" not in err


def test_main_byte_identical_runs(tmp_path):
    source = tmp_path / "job.json"
    source.write_text(EX72_DOC)
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    for target in (first, second):
        assert main(
            ["analyze", "--input", str(source), "--output", str(target)]
        ) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_main_reads_the_input_file(tmp_path, capsys):
    (tmp_path / "job.json").write_text(EX72_DOC)
    code = main(["analyze", "--format", "json", "--input", str(tmp_path / "job.json")])
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    assert err == ""
    assert json.loads(out)["analyze"]["free_rank"] == 2


def test_main_missing_input_is_input_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code = main(["analyze", "--input", missing])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: cannot read input {missing!r}: ")


def test_main_undecodable_input_is_input_error(tmp_path, monkeypatch, capsys):
    raw = b"\xff\xfe{"
    path = tmp_path / "job.json"
    path.write_bytes(raw)
    code = main(["analyze", "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: cannot read input {str(path)!r}: ")
    assert "Traceback" not in err
    monkeypatch.setattr(
        "sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    )
    code = main(["analyze"])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert err.startswith("error: cannot read input '-': ")


def test_main_undecodable_stdin_does_not_depend_on_its_error_handler(
    monkeypatch, capsys
):
    # Under a C locale or UTF-8 mode the interpreter's stdin decodes with
    # surrogateescape, which never fails; main decodes the bytes strictly,
    # so stdin and --input refuse the same bytes with the same message.
    stdin = io.TextIOWrapper(
        io.BytesIO(b"\xff\xfe{"), encoding="utf-8", errors="surrogateescape"
    )
    monkeypatch.setattr("sys.stdin", stdin)
    code = main(["analyze"])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: cannot read input '-': ")


@pytest.fixture
def digit_limit():
    # the interpreter's default limit on int -> str conversion
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "mode, text, where",
    [
        # finite (order 2), but its report cannot print the entry
        ("age", doc(2, [[["-1", "2^15001"], ["0", "1"]]]), "row 1, column 2"),
        # refused as an entry, not as a group that is not finite
        ("analyze", doc(1, [[["2^30000"]]]), "row 1, column 1"),
        ("age", doc(1, [[["1/10^4300"]]]), "row 1, column 1"),
        ("age", doc(1, [[["1" + "0" * 4300]]]), "row 1, column 1"),
    ],
)
def test_main_refuses_entries_past_the_digit_limit(
    mode, text, where, digit_limit, monkeypatch, capsys
):
    code, out, err = run_main(
        [mode], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: generator 1, {where}: ")
    assert "finite" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "entry, position",
    [
        ("2^1000000000", 1),
        ("2^-1000000000", 1),
        ("(1+E(5))^3000000", 8),
        ("(1/2)^-20000", 5),
    ],
)
def test_main_refuses_an_overlong_power_at_parse(
    entry, position, digit_limit, monkeypatch, capsys
):
    # the parser stops the power at its first overlong partial product
    start = time.perf_counter()
    code, out, err = run_main(
        ["age"], stdin_text=doc(1, [[[entry]]]),
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert time.perf_counter() - start < 2
    assert code == EXIT_INPUT
    assert out == ""
    assert err == (
        "error: generator 1, row 1, column 1: a numerator or denominator "
        f"has more than 4300 digits (at position {position})\n"
    )


@pytest.mark.skipif(
    sys.get_int_max_str_digits() == 0, reason="no limit on int -> str"
)
@pytest.mark.parametrize(
    "neighbour, reason",
    [
        # conductor 15: embedding doubles c, one digit past the limit
        ("E(3)", "a numerator or denominator has more than {} digits"),
        # conductor 5: c fits, and the job fails for another reason
        ("1", "generators do not span a finite group"),
    ],
)
def test_main_refuses_an_entry_that_embedding_makes_overlong(
    neighbour, reason, monkeypatch, capsys
):
    limit = sys.get_int_max_str_digits()
    c = "6" + "0" * (limit - 1)
    text = doc(2, [[[f"{c}*E(5)^2-{c}*E(5)^3", neighbour], ["0", "1"]]])
    code, out, err = run_main(
        ["age"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert reason.format(limit) in err
    if neighbour == "E(3)":
        assert err.startswith("error: generator 1, row 1, column 1: ")
        assert "(at position" not in err


def test_main_accepts_a_huge_power_of_a_root_of_unity(
    digit_limit, monkeypatch, capsys
):
    code, out, err = run_main(
        ["age"], stdin_text=doc(1, [[["E(3)^100000000000000000000"]]]),
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert (code, err) == (EXIT_OK, "")
    assert "E(3)" in out


def test_main_refuses_a_json_integer_past_the_digit_limit(
    digit_limit, monkeypatch, capsys
):
    text = '{"dimension": 1, "generators": [[[1' + "0" * 4300 + "]]]}"
    code, out, err = run_main(
        ["age"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_INPUT
    assert err.startswith("error: invalid JSON: ")


def test_entries_at_the_digit_limit_parse(digit_limit, monkeypatch, capsys):
    # 10^4299 has 4300 digits: the report prints it
    code, out, err = run_main(
        ["age"],
        stdin_text=doc(2, [[["-1", "10^4299"], ["0", "1"]]]),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    assert err == ""
    assert "1" + "0" * 4299 in out


def test_main_input_error_exit(monkeypatch, capsys):
    code, out, err = run_main(
        ["analyze"], stdin_text="{bad", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: invalid JSON")


def test_main_expression_error_mentions_location(monkeypatch, capsys):
    bad = doc(2, [[["E(3", "0"], ["0", "1"]]])
    code, _, err = run_main(
        ["analyze"], stdin_text=bad, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_INPUT
    assert "generator 1, row 1, column 1" in err
    assert "position" in err


@pytest.mark.parametrize("text", ["5", "null", '"x"'])
def test_main_json_scalar_is_input_error(text, monkeypatch, capsys):
    code, out, err = run_main(
        ["analyze"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: job document must be a JSON object\n"


def test_main_deep_parentheses_are_input_error(monkeypatch, capsys):
    entry = "(" * 10000 + "1" + ")" * 10000
    deep = doc(2, [[[entry, "0"], ["0", "1"]]])
    code, out, err = run_main(
        ["analyze"], stdin_text=deep, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "generator 1, row 1, column 1" in err
    assert "nested deeper than 100 (at position 100)" in err
    assert "Traceback" not in err


def test_main_precondition_exits(monkeypatch, capsys, tmp_path):
    code, _, err = run_main(
        ["analyze"], stdin_text=GL_DOC, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_PRECONDITION
    assert "determinant-one" in err
    code, _, err = run_main(
        ["age"], stdin_text=GL_DOC, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_OK
    seven = doc(1, [[["E(7)"]]])
    code, _, err = run_main(
        ["analyze", "--max-group-size", "5"],
        stdin_text=seven,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_PRECONDITION
    assert "exceeded 5" in err
    code, _, err = run_main(
        ["invariant", "--degree-bound", "3"],
        stdin_text=Q8_DOC,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_PRECONDITION
    assert "degree 3" in err


def test_check_below_a_first_invariant_degree_is_a_precondition(capsys):
    # a user-set bound below the degree of a character's first invariant
    # is the precondition `invariant` refuses, not a failed check
    job = GOLDEN_DIR.parent / "jobs" / "q8.json"
    code = main(["check", "--degree-bound", "1", "--input", str(job)])
    out, err = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert (
        "no nonzero relative invariant for character 0-0 up to degree 1" in err
    )


def test_main_bad_twist_is_input_error(monkeypatch, capsys):
    code, _, err = run_main(
        ["analyze", "--twist", "3"],
        stdin_text=EX72_DOC,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_INPUT
    assert "not invertible" in err


def test_main_arithmetic_check_failure_exits_1(monkeypatch, capsys):
    from crepant import mckay

    # every element gets "all eigenvalues 1": the derived-power check of
    # the eigenvalue exponents refuses it with an ArithmeticError
    def wrong(sums, r, dim, q, roots):
        return (0,) * dim

    monkeypatch.setattr(mckay, "_exponents_mod", wrong)
    code, out, err = run_main(
        ["analyze"], stdin_text=EX72_DOC, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err.startswith("error: internal arithmetic check failed: ")
    assert "eigenvalue exponents" in err
    assert "Traceback" not in err


def test_main_rejects_unknown_mode():
    with pytest.raises(SystemExit) as exc:
        main(["explode"])
    assert exc.value.code == 2
