import json
import random

import pytest

from lexjoin.errors import InputError, LexjoinError
from lexjoin.storage import (
    Relation,
    build_database,
    load,
    project,
    semijoin,
)
from tests.randgen import mutate


def write_manifest(tmp_path, relations):
    manifest = {"relations": {}}
    for name, (types, csv_text) in relations.items():
        fname = f"{name}.csv"
        (tmp_path / fname).write_text(csv_text)
        manifest["relations"][name] = {"file": fname, "types": types}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_load_basic(tmp_path):
    path = write_manifest(tmp_path, {"R": (["int", "string"], "1,a\n2,b\n3,c\n")})
    db = load(path)
    assert db.size == 3
    assert db.relations["R"].arity == 2


def test_load_deduplicates(tmp_path):
    path = write_manifest(tmp_path, {"R": (["int"], "1\n1\n2\n")})
    db = load(path)
    assert len(db.relations["R"]) == 2
    assert db.size == 2


def test_numeric_order_preserved(tmp_path):
    path = write_manifest(tmp_path, {"R": (["int"], "10\n9\n")})
    db = load(path)
    assert db.dictionary.encode("int", 9) < db.dictionary.encode("int", 10)


def test_string_order_is_bytewise(tmp_path):
    path = write_manifest(tmp_path, {"R": (["string"], '"b"\n"a"\n"ab"\n')})
    db = load(path)
    enc = lambda s: db.dictionary.encode("string", s)
    assert enc("a") < enc("ab") < enc("b")


def test_decode_inverts_encode():
    db = build_database({"R": (["int", "string"], [(3, "x"), (-1, "y")])})
    for t, v in [("int", 3), ("int", -1), ("string", "x"), ("string", "y")]:
        assert db.dictionary.decode(db.dictionary.encode(t, v)) == v


def test_pools_are_disjoint():
    db = build_database({"R": (["int", "string"], [(0, "0"), (1, "1")])})
    codes = {db.dictionary.encode("int", 0), db.dictionary.encode("int", 1),
             db.dictionary.encode("string", "0"), db.dictionary.encode("string", "1")}
    assert len(codes) == 4


def test_encoded_lex_matches_raw_lex():
    rng = random.Random(8)
    values = sorted({rng.randint(-50, 50) for _ in range(30)})
    rows = [(rng.choice(values), rng.choice(values)) for _ in range(40)]
    db = build_database({"R": (["int", "int"], rows)})
    enc = lambda row: tuple(db.dictionary.encode("int", v) for v in row)
    rows = sorted(set(rows))
    for a in rows:
        for b in rows:
            assert (a < b) == (enc(a) < enc(b))


def test_missing_file(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"relations": {"R": {"file": "gone.csv", "types": ["int"]}}}))
    with pytest.raises(InputError):
        load(manifest)


def test_width_mismatch(tmp_path):
    path = write_manifest(tmp_path, {"R": (["int", "int"], "1\n")})
    with pytest.raises(InputError):
        load(path)


def test_type_parse_failure(tmp_path):
    path = write_manifest(tmp_path, {"R": (["int"], "abc\n")})
    with pytest.raises(InputError):
        load(path)


def test_rfc4180_quoting(tmp_path):
    path = write_manifest(tmp_path, {"R": (["string"], '"hello, world"\n"with ""quotes"""\n')})
    db = load(path)
    raw = {db.dictionary.decode(row[0]) for row in db.relations["R"].rows}
    assert raw == {"hello, world", 'with "quotes"'}


def test_project_identity_and_dedup():
    r = Relation(2, [(1, 2), (1, 3)])
    assert project(r, [0, 1]).rows == r.rows
    assert project(r, [0]).rows == ((1,),)


def test_project_against_brute_force():
    rng = random.Random(9)
    for _ in range(40):
        arity = rng.randint(1, 4)
        rows = {tuple(rng.randrange(4) for _ in range(arity)) for _ in range(rng.randrange(15))}
        r = Relation(arity, rows)
        attrs = [rng.randrange(arity) for _ in range(rng.randint(1, arity))]
        expected = sorted({tuple(row[a] for a in attrs) for row in rows})
        assert list(project(r, attrs).rows) == expected


def test_semijoin_empty_and_superset():
    r = Relation(2, [(1, 2), (3, 4)])
    assert semijoin(r, Relation(1, []), [(0, 0)]).rows == ()
    s = Relation(1, [(1,), (3,), (9,)])
    assert semijoin(r, s, [(0, 0)]).rows == r.rows


def test_semijoin_against_brute_force():
    rng = random.Random(10)
    for _ in range(40):
        r = Relation(2, {(rng.randrange(5), rng.randrange(5)) for _ in range(12)})
        s = Relation(2, {(rng.randrange(5), rng.randrange(5)) for _ in range(12)})
        on = [(0, 1)]
        expected = sorted(
            {row for row in r.rows if any(row[0] == srow[1] for srow in s.rows)}
        )
        assert list(semijoin(r, s, on).rows) == expected


def test_sorted_view_is_memoized_permutation():
    r = Relation(2, [(2, 1), (1, 2), (2, 0)])
    view = r.sorted_view((1, 0))
    assert view == sorted((b, a) for a, b in r.rows)
    assert r.sorted_view((1, 0)) is view


def test_relation_rejects_ragged_rows():
    with pytest.raises(InputError):
        Relation(2, [(1,)])


def test_types_default_to_string(tmp_path):
    (tmp_path / "R.csv").write_text("b,2\na,1\n")
    (tmp_path / "manifest.json").write_text(
        json.dumps({"relations": {"R": {"file": "R.csv"}}})
    )
    db = load(tmp_path / "manifest.json")
    assert db.column_types["R"] == ("string", "string")
    raws = {tuple(db.dictionary.decode(c) for c in row) for row in db.relations["R"].rows}
    assert raws == {("a", "1"), ("b", "2")}


def test_empty_file_without_types_rejected(tmp_path):
    (tmp_path / "R.csv").write_text("")
    (tmp_path / "manifest.json").write_text(
        json.dumps({"relations": {"R": {"file": "R.csv"}}})
    )
    with pytest.raises(InputError):
        load(tmp_path / "manifest.json")


def fuzz_load(path, mutants):
    """Load after writing each mutant to path; only LexjoinError may escape."""
    loaded = 0
    for data in mutants:
        path.write_bytes(data)
        try:
            load(path.parent / "manifest.json")
        except LexjoinError:
            continue
        loaded += 1
    assert 0 < loaded < len(mutants)


def replace_node(rng, doc, values):
    """A copy of a JSON document with one random node replaced by one of values."""
    if not isinstance(doc, (dict, list)) or not doc or rng.random() < 0.3:
        return rng.choice(values)
    doc = doc.copy()
    key = rng.choice(list(doc) if isinstance(doc, dict) else range(len(doc)))
    doc[key] = replace_node(rng, doc[key], values)
    return doc


def test_fuzzed_manifest_fails_cleanly(tmp_path):
    path = write_manifest(tmp_path, {"R": (["int", "string"], "1,a\n"), "S": (["str"], "b\n")})
    original = path.read_bytes()
    tokens = [b'"', b"{", b"}", b"[", b"]", b":", b",", b"null", b"1", b"\\", b"\xff",
              b'"int"', b'"file"', b'"types"', b'"relations"', b'"R.csv"', b'"."', b'""']
    values = [None, 1, -1, 2.5, True, "", ".", "int", "R.csv", [], ["int"], {}, {"file": "S.csv"}]
    rng = random.Random(6)
    mutants = [mutate(rng, original, tokens) for _ in range(2000)]
    doc = json.loads(original)
    mutants += [json.dumps(replace_node(rng, doc, values)).encode() for _ in range(1000)]
    fuzz_load(path, mutants)


def test_fuzzed_csv_fails_cleanly(tmp_path):
    write_manifest(tmp_path, {"R": (["int", "string"], '1,a\n-2,"b,\n"\n'), "S": (None, "b,c\n")})
    tokens = [b",", b'"', b"\n", b"\r\n", b"-", b"9" * 30, b"\x00", b"\xff", "é".encode(), b" "]
    rng = random.Random(7)
    for name in ("R", "S"):
        path = tmp_path / f"{name}.csv"
        original = path.read_bytes()
        fuzz_load(path, [mutate(rng, original, tokens) for _ in range(1500)])
        path.write_bytes(original)
