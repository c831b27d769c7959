import json
import re
import subprocess
import sys

import pytest

from lexjoin.cli import main
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


def _probe_tuple_with_newline(command):
    def probe(d):
        build = ["build", "-q", d / "q.jq", "-m", d / "manifest.json", "-o", d / "x.idx"]
        assert main([str(a) for a in build]) == 0
        return [command, "-i", d / "x.idx", "-t", "1\n2"]

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
    "rank-tuple-newline": (_probe_tuple_with_newline("rank"), "cannot parse tuple"),
    "test-tuple-newline": (_probe_tuple_with_newline("test"), "cannot parse tuple"),
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


@pytest.mark.parametrize("family", ["star", "setdisj", "zeroclique", "lw"])
def test_gen_families_deterministic(tmp_path, capsys, family):
    d1, d2 = tmp_path / "g1", tmp_path / "g2"
    args = ["gen", family, "--seed", "5", "--k", "2", "--per-relation", "12"]
    if family == "zeroclique":
        args += ["--parts", "3", "--part-size", "4", "--planted"]
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
    "setdisj-negative-max-set-size": (["setdisj", "--max-set-size", "-1"], "non-negative"),
    "setdisj-negative-universe": (["setdisj", "--universe", "-1"], "non-negative"),
    "setdisj-queries-without-sets": (
        ["setdisj", "--sets", "0", "--queries", "3"],
        "cannot draw queries from families without sets",
    ),
}


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
    code, _, err = run(capsys, "gen", family, "--k", "2", "--per-relation", "5", "-o", out)
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
