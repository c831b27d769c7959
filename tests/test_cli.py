import itertools
import json
import re
import subprocess
import sys

import pytest

from lexjoin import cli
from lexjoin.cli import main
from lexjoin.errors import (
    InputError,
    InternalError,
    LexjoinError,
    NotAnAnswerError,
    OutOfBoundsError,
)
from tests import src_env

FIVE_TEXT = "Q(x1,x2,x3,x4,x5) :- R1(x1,x5), R2(x2,x4), R3(x3,x4), R4(x3,x5).\n"


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "q.jq").write_text("Q(x,y) :- R(x), S(y).\n")
    (tmp_path / "R.csv").write_text("1\n2\n")
    (tmp_path / "S.csv").write_text("1\n2\n")
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            {
                "relations": {
                    "R": {"file": "R.csv", "types": ["int"]},
                    "S": {"file": "S.csv", "types": ["int"]},
                }
            }
        )
    )
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_five_variable_query(tmp_path, capsys):
    qfile = tmp_path / "five.jq"
    qfile.write_text(FIVE_TEXT)
    code, out, _ = run(capsys, "analyze", qfile, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["iota"] == "3"
    assert payload["acyclic"] is True
    assert ["x1", "x3", "x5"] in payload["disruptive_trios"]
    bags = [sorted(b["variables"]) for b in payload["bags"]]
    assert ["x1", "x2", "x3"] in bags


def test_analyze_trio_free_iota_one(tmp_path, capsys):
    qfile = tmp_path / "path.jq"
    qfile.write_text("Q(a,b,c) :- R(a,b), S(b,c).\n")
    code, out, _ = run(capsys, "analyze", qfile, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["iota"] == "1"
    assert payload["disruptive_trios"] == []


def test_analyze_malformed_query_exit_2(tmp_path, capsys):
    qfile = tmp_path / "bad.jq"
    qfile.write_text("Q(x :- R(x).\n")
    code, _, err = run(capsys, "analyze", qfile)
    assert code == 2
    assert "error" in err


def test_analyze_text_output(tmp_path, capsys):
    qfile = tmp_path / "five.jq"
    qfile.write_text(FIVE_TEXT)
    code, out, _ = run(capsys, "analyze", qfile)
    assert code == 0
    assert out.splitlines() == [
        "query Q: 5 variables, 4 atoms",
        "order: x1, x2, x3, x4, x5",
        "self-join free: True",
        "acyclic: True",
        "disruptive trios (2):",
        "  x1, x3 <- x5",
        "  x2, x3 <- x4",
        "bags (own variable last):",
        "  [0] {x1}  rho*=1  root",
        "  [1] {x1, x2}  rho*=2  parent 0",
        "  [2] {x1, x2, x3}  rho*=3  parent 1",
        "  [3] {x2, x3, x4}  rho*=2  parent 2",
        "  [4] {x1, x3, x5}  rho*=2  parent 2",
        "incompatibility number: 3 (bag 2)",
    ]
    qfile.write_text("Q(a,b,c) :- R(a,b), S(b,c).\n")
    code, out, _ = run(capsys, "analyze", qfile)
    assert code == 0
    assert "disruptive trios: none" in out.splitlines()


# main's exit table: per error class, the exit code and the stderr prefix.
EXITS = {
    OutOfBoundsError: (3, "out of bounds: "),
    NotAnAnswerError: (3, "not an answer: "),
    InputError: (2, "error: "),
    InternalError: (4, "internal error: "),
    LexjoinError: (2, "error: "),
}


@pytest.mark.parametrize("error", list(EXITS), ids=lambda error: error.__name__)
def test_analyze_internal_error_exit_4(tmp_path, capsys, monkeypatch, error):
    def broken(q, order):
        raise error("invariant broken")

    monkeypatch.setattr(cli, "decompose", broken)
    qfile = tmp_path / "q.jq"
    qfile.write_text("Q(x) :- R(x).\n")
    code, out, err = run(capsys, "analyze", qfile)
    exit_code, prefix = EXITS[error]
    assert (code, out, err) == (exit_code, "", f"{prefix}invariant broken\n")


def test_build_access_pipeline(workdir, capsys):
    idx = workdir / "q.idx"
    code, out, _ = run(
        capsys, "build", "-q", workdir / "q.jq", "-m", workdir / "manifest.json", "-o", idx
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["schema"] == 1
    assert stats["count"] == "4"

    code, out, _ = run(capsys, "count", "-i", idx)
    assert code == 0 and out.strip() == "4"

    code, out, _ = run(capsys, "access", "-i", idx, "-j", "0")
    assert code == 0 and out.strip() == "1,1"

    code, out, _ = run(capsys, "enum", "-i", idx, "--from", "0", "--to", "4")
    assert code == 0
    assert out.splitlines() == ["1,1", "1,2", "2,1", "2,2"]

    code, out, _ = run(capsys, "rank", "-i", idx, "-t", "2,1")
    assert code == 0 and out.strip() == "2"

    code, out, _ = run(capsys, "quantile", "-i", idx, "-q", "1/2")
    assert code == 0 and out.strip() == "1,2"

    code, out, _ = run(capsys, "test", "-i", idx, "-t", "2,2")
    assert code == 0 and out.strip() == "true"

    code, out, _ = run(capsys, "test", "-i", idx, "-t", "2,9")
    assert code == 0 and out.strip() == "false"


def test_json_format_on_every_command(workdir, capsys):
    idx = workdir / "q.idx"
    run(capsys, "build", "-q", workdir / "q.jq", "-m", workdir / "manifest.json", "-o", idx)
    expected = {
        ("access", "-j", "2"): {"rows": [[2, 1]]},
        ("enum", "--from", "1", "--to", "3"): {"rows": [[1, 2], [2, 1]]},
        ("quantile", "-q", "1"): {"rows": [[2, 2]]},
        ("count",): {"count": "4"},
        ("rank", "-t", "2,1"): {"rank": "2"},
    }
    for argv, payload in expected.items():
        code, out, _ = run(capsys, argv[0], "-i", idx, *argv[1:], "--format", "json")
        assert code == 0 and json.loads(out) == {"schema": 1, **payload}, argv
    code, out, _ = run(capsys, "sample", "-i", idx, "-n", "4", "--format", "json")
    assert code == 0 and json.loads(out) == {"schema": 1, "rows": [[1, 1], [1, 2], [2, 1], [2, 2]]}
    code, out, _ = run(
        capsys, "oracle", "-q", workdir / "q.jq", "-m", workdir / "manifest.json", "--format", "json"
    )
    assert code == 0 and json.loads(out) == {"schema": 1, "rows": [[1, 1], [1, 2], [2, 1], [2, 2]]}


def test_rank_and_test_with_string_fields(tmp_path, capsys):
    (tmp_path / "q.jq").write_text("Q(u,v) :- R(u,v).\n")
    (tmp_path / "r.csv").write_text("a,1\nb,2\nb,3\n")
    manifest = {"relations": {"R": {"file": "r.csv", "types": ["string", "int"]}}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    idx = tmp_path / "q.idx"
    run(capsys, "build", "-q", tmp_path / "q.jq", "-m", tmp_path / "manifest.json", "-o", idx)
    assert run(capsys, "rank", "-i", idx, "-t", "b,3")[:2] == (0, "2\n")
    assert run(capsys, "test", "-i", idx, "-t", "b,2")[:2] == (0, "true\n")
    assert run(capsys, "test", "-i", idx, "-t", "c,2")[:2] == (0, "false\n")
    assert run(capsys, "test", "-i", idx, "-t", "b,two")[:2] == (0, "false\n")
    code, _, err = run(capsys, "rank", "-i", idx, "-t", "a,2")
    assert code == 3 and err.startswith("not an answer:")


def test_access_out_of_bounds_exit_3(workdir, capsys):
    idx = workdir / "q.idx"
    run(capsys, "build", "-q", workdir / "q.jq", "-m", workdir / "manifest.json", "-o", idx)
    code, _, err = run(capsys, "access", "-i", idx, "-j", "4")
    assert code == 3
    assert "out of bounds" in err


def test_rank_not_an_answer_exit_3(workdir, capsys):
    idx = workdir / "q.idx"
    run(capsys, "build", "-q", workdir / "q.jq", "-m", workdir / "manifest.json", "-o", idx)
    code, _, err = run(capsys, "rank", "-i", idx, "-t", "9,9")
    assert code == 3
    assert "not an answer" in err


def test_rank_with_one_empty_root_exit_3(workdir, capsys):
    # Both values are encoded (from R), but S is empty, so nothing is an answer.
    (workdir / "S.csv").write_text("")
    idx = workdir / "q.idx"
    run(capsys, "build", "-q", workdir / "q.jq", "-m", workdir / "manifest.json", "-o", idx)
    assert run(capsys, "count", "-i", idx)[:2] == (0, "0\n")
    code, out, err = run(capsys, "rank", "-i", idx, "-t", "1,2")
    assert (code, out) == (3, "")
    assert err.startswith("not an answer:")


def test_enum_matches_oracle(workdir, capsys):
    idx = workdir / "q.idx"
    run(capsys, "build", "-q", workdir / "q.jq", "-m", workdir / "manifest.json", "-o", idx)
    code, enum_out, _ = run(capsys, "enum", "-i", idx, "--from", "0")
    assert code == 0
    code, oracle_out, _ = run(
        capsys, "oracle", "-q", workdir / "q.jq", "-m", workdir / "manifest.json"
    )
    assert code == 0
    assert enum_out == oracle_out


def test_oracle_ignores_a_leading_bom_in_every_input_file(tmp_path, capsys):
    bom = "\ufeff"
    (tmp_path / "q.jq").write_text(bom + "Q(u,v,w) :- R(u,v), S(u,w).\n", encoding="utf-8")
    (tmp_path / "r.csv").write_text(bom + "a,b\nc,d\n", encoding="utf-8")
    (tmp_path / "s.csv").write_text("a,x\nc,y\n", encoding="utf-8")
    manifest = {"relations": {"R": {"file": "r.csv"}, "S": {"file": "s.csv"}}}
    (tmp_path / "manifest.json").write_text(bom + json.dumps(manifest), encoding="utf-8")
    code, out, err = run(capsys, "oracle", "-q", tmp_path / "q.jq", "-m", tmp_path / "manifest.json")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["a,b,x", "c,d,y"]


def test_sample_deterministic_under_seed(workdir, capsys):
    idx = workdir / "q.idx"
    run(capsys, "build", "-q", workdir / "q.jq", "-m", workdir / "manifest.json", "-o", idx)
    code, first, _ = run(capsys, "sample", "-i", idx, "-n", "2", "--seed", "9")
    code2, second, _ = run(capsys, "sample", "-i", idx, "-n", "2", "--seed", "9")
    assert code == code2 == 0
    assert first == second
    assert len(first.splitlines()) == 2


def test_rebuild_byte_identical(workdir, capsys):
    a, b = workdir / "a.idx", workdir / "b.idx"
    run(capsys, "build", "-q", workdir / "q.jq", "-m", workdir / "manifest.json", "-o", a)
    run(capsys, "build", "-q", workdir / "q.jq", "-m", workdir / "manifest.json", "-o", b)
    assert a.read_bytes() == b.read_bytes()


def test_missing_manifest_exit_2(workdir, capsys):
    code, _, err = run(
        capsys, "build", "-q", workdir / "q.jq", "-m", workdir / "nope.json", "-o", workdir / "x.idx"
    )
    assert code == 2


def _build_with_manifest(d, relations):
    (d / "bad.json").write_text(json.dumps({"relations": relations}))
    return ["build", "-q", d / "q.jq", "-m", d / "bad.json", "-o", d / "x.idx"]


def _probe_query_not_utf8(d):
    (d / "bad.jq").write_bytes(b"Q(x) :- R(x). # \xe9\n")
    return ["analyze", d / "bad.jq"]


def _probe_csv_not_utf8(d):
    (d / "R.csv").write_bytes(b"caf\xe9\n")
    return _build_with_manifest(d, {"R": {"file": "R.csv"}, "S": {"file": "S.csv"}})


def _probe_csv_field_over_limit(d):
    (d / "R.csv").write_text("1\n" + "9" * 200_000 + "\n")
    return ["build", "-q", d / "q.jq", "-m", d / "manifest.json", "-o", d / "x.idx"]


def _probe_on_index(command, *args):
    def probe(d):
        build = ["build", "-q", d / "q.jq", "-m", d / "manifest.json", "-o", d / "x.idx"]
        assert main([str(a) for a in build]) == 0
        return [command, "-i", d / "x.idx", *args]

    return probe


# Each builds its bad input in the work directory and returns the command line.
BOUNDARY_PROBES = {
    "out-in-missing-dir": (
        lambda d: ["build", "-q", d / "q.jq", "-m", d / "manifest.json", "-o", d / "no" / "x.idx"],
        "cannot write index file",
    ),
    "index-is-directory": (lambda d: ["count", "-i", d], "cannot read index file"),
    "query-not-utf8": (_probe_query_not_utf8, "not valid UTF-8"),
    "csv-not-utf8": (_probe_csv_not_utf8, "not valid UTF-8"),
    "csv-field-over-limit": (_probe_csv_field_over_limit, "R.csv:2: field larger than field limit"),
    "relations-not-object": (lambda d: _build_with_manifest(d, []), "lacks a 'relations' object"),
    "types-not-list": (
        lambda d: _build_with_manifest(d, {"R": {"file": "R.csv", "types": "int"}}),
        "'types' must be a list",
    ),
    "rank-tuple-newline": (_probe_on_index("rank", "-t", "1\n2"), "cannot parse tuple"),
    "test-tuple-newline": (_probe_on_index("test", "-t", "1\n2"), "cannot parse tuple"),
    "rank-tuple-too-long": (
        _probe_on_index("rank", "-t", "1,2,3"), "expected 2 comma-separated values, got 3"
    ),
    "test-tuple-too-short": (
        _probe_on_index("test", "-t", "1"), "expected 2 comma-separated values, got 1"
    ),
    "quantile-not-a-number": (
        _probe_on_index("quantile", "-q", "half"), "cannot parse quantile 'half'"
    ),
    "quantile-zero-denominator": (
        _probe_on_index("quantile", "-q", "1/0"), "cannot parse quantile '1/0'"
    ),
    "quantile-exponent-over-digit-limit": (
        _probe_on_index("quantile", "-q", "1e10000000"), "cannot parse quantile '1e10000000'"
    ),
}


@pytest.mark.parametrize("probe", list(BOUNDARY_PROBES))
def test_bad_input_boundary_exit_2(workdir, capsys, probe):
    make_argv, message = BOUNDARY_PROBES[probe]
    code, _, err = run(capsys, *make_argv(workdir))
    assert code == 2
    assert message in err


def test_count_format_text_exit_2(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "-i", str(workdir / "x.idx"), "--format", "text"])
    assert exc.value.code == 2
    assert "invalid choice: 'text'" in capsys.readouterr().err


_HELP = (
    ("-h", "--help"), "help", None, "==SUPPRESS==", False, None, "show this help message and exit"
)
_INDEX = (("-i", "--index"), "index", None, None, True, None, None)
_FORMAT = (("--format",), "format", None, "csv", False, ["csv", "json"], None)

# Per index subcommand, its help and every action of its sub-parser as
# (option strings, dest, type, default, required, choices, help).
INDEX_SUBPARSERS = {
    "access": (
        "fetch the j-th answer (0-based)",
        [_HELP, _INDEX, (("-j",), "j", int, None, True, None, None), _FORMAT],
    ),
    "count": ("number of answers", [_HELP, _INDEX, _FORMAT]),
    "rank": (
        "position of an answer tuple",
        [
            _HELP,
            _INDEX,
            (
                ("-t", "--tuple"), "tuple", None, None, True, None,
                "comma-separated values, head order",
            ),
            _FORMAT,
        ],
    ),
    "enum": (
        "stream answers from --from (inclusive) to --to (exclusive)",
        [
            _HELP,
            _INDEX,
            (("--from",), "frm", int, 0, False, None, None),
            (("--to",), "to", int, None, False, None, None),
            _FORMAT,
        ],
    ),
    "sample": (
        "sample n distinct answers uniformly",
        [
            _HELP,
            _INDEX,
            (("-n",), "n", int, None, True, None, None),
            (("--seed",), "seed", int, 0, False, None, None),
            _FORMAT,
        ],
    ),
    "quantile": (
        "answer at rank floor(q * (count - 1))",
        [
            _HELP,
            _INDEX,
            (("-q",), "q", None, None, True, None, "rational in [0, 1], e.g. 1/2 or 0.5"),
            _FORMAT,
        ],
    ),
    "test": (
        "is the tuple an answer?",
        [_HELP, _INDEX, (("-t", "--tuple"), "tuple", None, None, True, None, None)],
    ),
}


def test_index_subparsers_keep_their_arguments():
    # Actions, not -h text: Python 3.13 formats option help differently.
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    for name, (help_, actions) in INDEX_SUBPARSERS.items():
        got = [
            (tuple(a.option_strings), a.dest, a.type, a.default, a.required, a.choices, a.help)
            for a in sub.choices[name]._actions
        ]
        assert (helps[name], got) == (help_, actions), name


# Per family, the flags of its own that the determinism test passes.
GEN_FLAGS = {
    "star": ["--k", "2", "--per-relation", "12"],
    "setdisj": ["--k", "2"],
    "zeroclique": ["--parts", "3", "--part-size", "4", "--planted"],
    "lw": ["--k", "2", "--per-relation", "12"],
}


@pytest.mark.parametrize("family", list(GEN_FLAGS))
def test_gen_families_deterministic(tmp_path, capsys, family):
    d1, d2 = tmp_path / "g1", tmp_path / "g2"
    args = ["gen", family, "--seed", "5", *GEN_FLAGS[family]]
    code, _, _ = run(capsys, *args, "-o", d1)
    assert code == 0
    code, _, _ = run(capsys, *args, "-o", d2)
    assert code == 0
    files1 = sorted(p.name for p in d1.iterdir())
    assert files1 == sorted(p.name for p in d2.iterdir())
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    sidecar = json.loads((d1 / "gen.json").read_text())
    assert sidecar["schema"] == 1
    assert sidecar["seed"] == 5
    if family == "zeroclique":
        assert sidecar["planted_clique"] is not None


def test_gen_star_builds_and_counts(tmp_path, capsys):
    d = tmp_path / "star"
    code, _, _ = run(
        capsys, "gen", "star", "-o", d, "--seed", "3", "--k", "2",
        "--per-relation", "20", "--x-domain", "6", "--z-domain", "6",
    )
    assert code == 0
    idx = tmp_path / "star.idx"
    code, out, _ = run(capsys, "build", "-q", d / "query.jq", "-m", d / "manifest.json", "-o", idx)
    assert code == 0
    stats = json.loads(out)
    assert int(stats["count"]) > 0


# The values each family's GEN_FLAGS instance holds, as hardness.MAX_INSTANCE_VALUES counts them.
GEN_VALUES = {
    "star": 2 * 2 * (12 + 1),
    "setdisj": 32 + 2 * (1 + 10 * (1 + 8) + 10**2),
    "lw": 2 * 1 * (12 + 1),
}


@pytest.mark.parametrize("family", list(GEN_VALUES))
def test_gen_over_the_value_cap_exit_2(tmp_path, capsys, monkeypatch, family):
    # One value under the instance: refused before a row is drawn, no directory made.
    values = GEN_VALUES[family]
    monkeypatch.setattr(cli.hardness, "MAX_INSTANCE_VALUES", values - 1)
    args = ["gen", family, "--seed", "5", *GEN_FLAGS[family], "-o"]
    code, _, err = run(capsys, *args, tmp_path / "over")
    assert code == 2
    assert f"error: the instance would hold more than {values - 1} values" in err
    assert not (tmp_path / "over").exists()
    monkeypatch.setattr(cli.hardness, "MAX_INSTANCE_VALUES", values)
    assert run(capsys, *args, tmp_path / "at")[0] == 0


# Generator arguments no instance satisfies: (argv after "gen", error message).
GEN_BAD_ARGS = {
    "star-fewer-pairs-than-rows": (
        ["star", "--per-relation", "10", "--x-domain", "2", "--z-domain", "2"],
        "cannot draw 10 distinct rows from a 2 x 2 domain",
    ),
    "star-empty-x-domain": (["star", "--x-domain", "0"], "cannot draw 100 distinct rows"),
    "star-negative-rows": (["star", "--per-relation", "-1"], "must be non-negative"),
    "lw-fewer-tuples-than-rows": (
        ["lw", "--k", "3", "--per-relation", "10", "--domain", "2"],
        "cannot draw 10 distinct rows from a 2 x 2 domain",
    ),
    "lw-unary-fewer-values-than-rows": (["lw", "--k", "2"], "cannot draw 100 distinct rows"),
    "zeroclique-plant-in-empty-parts": (
        ["zeroclique", "--part-size", "0", "--planted"],
        "at least two non-empty parts",
    ),
    "zeroclique-plant-in-one-part": (
        ["zeroclique", "--parts", "1", "--planted"],
        "at least two non-empty parts",
    ),
    "zeroclique-negative-weight-bound": (["zeroclique", "--weight-bound", "-1"], "non-negative"),
    "zeroclique-too-many-edges": (
        ["zeroclique", "--part-size", "183"],
        "the graph would have 100467 edges, more than 100000",
    ),
    # Squared, this part size has more digits than an int may print: only the cap is named.
    "zeroclique-part-size-past-the-printable": (
        ["zeroclique", "--part-size", "9" * 3001],
        "the graph would have more than 100000 parts or vertices",
    ),
    "setdisj-negative-max-set-size": (["setdisj", "--max-set-size", "-1"], "non-negative"),
    "setdisj-negative-universe": (["setdisj", "--universe", "-1"], "non-negative"),
    "setdisj-queries-without-sets": (
        ["setdisj", "--sets", "0", "--queries", "3"],
        "cannot draw queries from families without sets",
    ),
    "setdisj-no-families": (["setdisj", "--k", "0"], "an instance needs at least one set family"),
    "setdisj-too-many-combinations": (
        ["setdisj", "--sets", "20", "--k", "4"],
        "every index combination is 160000 queries, more than 100000: pass queries",
    ),
    "setdisj-combinations-past-the-printable": (
        ["setdisj", "--sets", "2", "--k", "20000"],
        "every index combination is 2**20000 queries, more than 100000: pass queries",
    ),
}


# Per family, a flag that only other families read: (argv after "gen").
GEN_FOREIGN_FLAGS = {
    "zeroclique-k": ["zeroclique", "--k", "5"],
    "star-domain": ["star", "--domain", "3"],
    "setdisj-per-relation": ["setdisj", "--per-relation", "3"],
    "lw-planted": ["lw", "--planted"],
}


@pytest.mark.parametrize("case", list(GEN_FOREIGN_FLAGS))
def test_gen_flag_of_another_family_exit_2(tmp_path, capsys, case):
    argv = GEN_FOREIGN_FLAGS[case]
    with pytest.raises(SystemExit) as exc:
        main(["gen", *argv, "-o", str(tmp_path / "g")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


# Stray arguments, reported with the usage of the chosen subcommand: (argv, usage line start).
STRAY_ARGUMENTS = {
    "gen-family": (["gen", "zeroclique", "--k", "5", "-o", "d"], "usage: lexjoin gen zeroclique "),
    "count": (["count", "-i", "x", "--bogus"], "usage: lexjoin count "),
    # Before the subcommand, a stray argument belongs to the root command.
    "root": (["--bogus", "count", "-i", "x"], "usage: lexjoin [-h]"),
}


@pytest.mark.parametrize("case", list(STRAY_ARGUMENTS))
def test_stray_arguments_name_the_subcommand_usage(tmp_path, monkeypatch, capsys, case):
    argv, usage = STRAY_ARGUMENTS[case]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(usage)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", list(GEN_BAD_ARGS))
def test_gen_unsatisfiable_arguments_exit_2(tmp_path, case):
    # In a subprocess with a timeout, so that a generator that loops forever fails.
    argv, message = GEN_BAD_ARGS[case]
    proc = subprocess.run(
        [sys.executable, "-m", "lexjoin", "gen", *argv, "-o", str(tmp_path / "g")],
        env=src_env(), capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert not (tmp_path / "g").exists()


# Each puts something in the way of one file or directory that gen writes.
GEN_UNWRITABLE = {
    "out-is-a-file": ("star", lambda out: out.write_text("keep\n"), ""),
    "query-file-is-a-directory": (
        "star", lambda out: (out / "query.jq").mkdir(parents=True), "query.jq"
    ),
    "graph-file-is-a-directory": (
        "zeroclique", lambda out: (out / "graph.txt").mkdir(parents=True), "graph.txt"
    ),
}


@pytest.mark.parametrize("case", list(GEN_UNWRITABLE))
def test_gen_unwritable_output_exit_2(tmp_path, capsys, case):
    family, block, name = GEN_UNWRITABLE[case]
    out = tmp_path / "g"
    block(out)
    flags = ["--k", "2", "--per-relation", "5"] if family == "star" else []
    code, _, err = run(capsys, "gen", family, *flags, "-o", out)
    assert code == 2
    assert err.startswith("error: cannot write ") and str(out / name) in err
    assert "Traceback" not in err


def test_unknown_lexjoin_log_level_exit_2(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "lexjoin", "analyze", "q.jq"],
        cwd=workdir, env=dict(src_env(), LEXJOIN_LOG="bogus"), capture_output=True, text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: LEXJOIN_LOG='bogus' is not a log level name"]


def test_build_logs_each_phase_under_lexjoin_log(workdir):
    argv = [sys.executable, "-m", "lexjoin", "build", "-q", "q.jq", "-m", "manifest.json"]
    outputs = {}
    for level in ("", "INFO"):
        env = dict(src_env(), LEXJOIN_LOG=level)
        proc = subprocess.run(
            argv + ["-o", f"q{level}.idx"], cwd=workdir, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stdout)
        del stats["timings_ms"]
        outputs[level] = (stats, proc.stderr.splitlines())
    assert outputs[""][1] == []
    assert outputs["INFO"][0] == outputs[""][0]
    assert [re.sub(r"[\d.]+", "N", line) for line in outputs["INFO"][1]] == [
        "INFO:lexjoin:load: N ms, N rows",
        "INFO:lexjoin:build: N ms, bag rows [N, N]",
        "INFO:lexjoin:save: N ms, N bytes",
    ]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lexjoin", "--help"], env=src_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout


TIED_COVERS_TEXT = (
    "Q(a,b,c,d,e) :- R(a,b), S(b,c), T(c,d), U(d,a), V(a,c,e).\nORDER b, d, a, c, e\n"
)


def test_analyze_and_build_agree_across_hash_seeds(tmp_path):
    # Bag {b, d, a, c} has two optimal covers ({b,c}+{d,a} and {a,b}+{c,d});
    # the one reported, and the bytes saved, must not depend on hashing.
    (tmp_path / "q.jq").write_text(TIED_COVERS_TEXT)
    relations = {}
    for name, arity in (("R", 2), ("S", 2), ("T", 2), ("U", 2), ("V", 3)):
        rows = [r for r in itertools.product(range(3), repeat=arity) if sum(r) % 3 != 1]
        (tmp_path / f"{name}.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
        relations[name] = {"file": f"{name}.csv", "types": ["int"] * arity}
    (tmp_path / "manifest.json").write_text(json.dumps({"relations": relations}))
    outputs = set()
    for seed in range(4):
        env = dict(src_env(), PYTHONHASHSEED=str(seed))
        lexjoin = [sys.executable, "-m", "lexjoin"]
        analyze = subprocess.run(
            lexjoin + ["analyze", "q.jq", "--format", "json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert analyze.returncode == 0, analyze.stderr
        build = subprocess.run(
            lexjoin + ["build", "-q", "q.jq", "-m", "manifest.json", "-o", f"q{seed}.idx"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert build.returncode == 0, build.stderr
        assert json.loads(build.stdout)["count"] != "0"
        outputs.add((analyze.stdout, (tmp_path / f"q{seed}.idx").read_bytes()))
    assert len(outputs) == 1
