import csv
import io
import json
import random
import re

import pytest

from lexjoin.access import build_index
from lexjoin.errors import InputError, LexjoinError
from lexjoin.query import parse_query
from lexjoin.storage import (
    Relation,
    build_database,
    load,
    project,
    read_text,
    semijoin,
)
from tests.randgen import mutate


def write_manifest(tmp_path, relations):
    manifest = {"relations": {}}
    for name, (types, csv_text) in relations.items():
        fname = f"{name}.csv"
        (tmp_path / fname).write_text(csv_text, encoding="utf-8")
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


def test_type_parse_failure_names_file_and_line(tmp_path):
    # Lines are CSV records, blank lines included.
    path = write_manifest(tmp_path, {"R": (["int", "string"], "1,a\n\n2,b\nx,c\n")})
    message = f"{tmp_path / 'R.csv'}:4: cannot parse 'x' as int"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load(path)


def test_width_mismatch_names_file_and_line(tmp_path):
    path = write_manifest(tmp_path, {"R": (["int", "int"], "1,2\n\n3\n")})
    message = f"{tmp_path / 'R.csv'}:3: expected 2 fields, got 1"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load(path)


def test_first_bad_record_is_reported(tmp_path):
    # A bad int on line 2 comes before a short record on line 3, whichever column it is in.
    path = write_manifest(tmp_path, {"R": (["int", "int"], "1,2\n3,y\n4\nz,5\n")})
    with pytest.raises(InputError, match=r":2: cannot parse 'y' as int$"):
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


def test_project_onto_no_columns():
    assert project(Relation(2, []), []).rows == ()
    assert project(Relation(2, [(1, 2), (3, 4)]), []).rows == ((),)
    assert project(Relation(2, [(1, 2)]), []).arity == 0


def test_project_onto_one_column_gives_one_tuples():
    rows = {(a, b) for a in range(5) for b in range(3)} - {(2, 1)}
    r = Relation(2, rows)
    for col in (0, 1):
        projected = project(r, [col])
        assert projected.arity == 1
        assert list(projected.rows) == sorted({(row[col],) for row in rows})


def test_project_onto_a_leading_prefix_with_many_rows_per_prefix():
    rng = random.Random(15)
    rows = {tuple(rng.randrange(k) for k in (4, 3, 50)) for _ in range(400)}
    r = Relation(3, rows)
    for width in (1, 2, 3):
        expected = sorted({row[:width] for row in rows})
        assert list(project(r, list(range(width))).rows) == expected


@pytest.mark.parametrize("attrs", [[1, 0], [2, 0, 1], [1, 2], [0, 0], [2, 1, 2], [1, 1, 1]])
def test_project_onto_reordered_and_repeated_columns(attrs):
    rng = random.Random(16)
    rows = {tuple(rng.randrange(5) for _ in range(3)) for _ in range(60)}
    expected = sorted({tuple(row[a] for a in attrs) for row in rows})
    assert list(project(Relation(3, rows), attrs).rows) == expected


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


def test_relation_rejects_ragged_rows():
    with pytest.raises(InputError):
        Relation(2, [(1,)])


def test_relation_rows_are_the_sorted_distinct_rows():
    # Strictly increasing input is kept as it is; any other is deduplicated and sorted.
    rng = random.Random(13)
    for _ in range(200):
        arity = rng.randint(1, 3)
        drawn = [tuple(rng.randrange(6) for _ in range(arity)) for _ in range(rng.randrange(30))]
        rows = sorted(set(drawn))
        with_duplicates = sorted(rows + rng.choices(rows, k=len(rows) // 2))
        shuffled = rng.sample(with_duplicates, len(with_duplicates))
        descending = with_duplicates[::-1]
        runs = [row for row in rows for _ in range(rng.randint(1, 40))]
        for given in (rows, with_duplicates, shuffled, tuple(shuffled), iter(rows),
                      descending, rows[::-1], runs, runs[::-1]):
            assert Relation(arity, given).rows == tuple(rows)
    assert Relation(2, []).rows == ()
    assert Relation(0, [()]).rows == ((),)
    assert Relation(0, [(), ()]).rows == ((),)


def test_ragged_row_is_reported_alike_sorted_or_not():
    for rows in ([(1, 2), (3,)], [(3,), (1, 2)], [(3,), (1, 2), (3,)]):
        with pytest.raises(InputError, match="^row of width 1 in relation of arity 2$"):
            Relation(2, rows)


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


def test_build_database_nullary_relation_keeps_its_row():
    db = build_database({"E": ([], [()]), "F": ([], [(), ()]), "G": ([], [])})
    assert db.relations["E"].rows == db.relations["F"].rows == ((),)
    assert db.relations["G"].rows == ()
    assert db.size == 2


def test_build_database_accepts_bool_as_int():
    db = build_database({"R": (["int"], [(True,), (2,)])})
    assert [db.dictionary.decode(c) for (c,) in db.relations["R"].rows] == [1, 2]


@pytest.mark.parametrize(
    "types, rows, message",
    [
        (["int", "int"], [(1, 2), (3, "4")], "relation R: '4' is not an int"),
        (["string"], [("a",), (5,)], "relation R: 5 is not a string"),
        (["int"], [(1.0,)], "relation R: 1.0 is not an int"),
        (["int", "int"], [(1, 2), (3,)], "relation R: row of width 1, expected 2"),
    ],
)
def test_build_database_rejects_bad_rows(types, rows, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build_database({"R": (types, rows)})


BOM = "\ufeff"


def test_leading_bom_in_string_csv_is_ignored(tmp_path):
    path = write_manifest(tmp_path, {"R": (None, BOM + "a,b\nc,d\n"), "S": (None, "a,x\nc,y\n")})
    db = load(path)
    decoded = {tuple(map(db.dictionary.decode, row)) for row in db.relations["R"].rows}
    assert decoded == {("a", "b"), ("c", "d")}
    ix = build_index(*parse_query("Q(u,v,w) :- R(u,v), S(u,w)."), db)
    assert list(ix.enumerate_range(0, ix.count())) == [("a", "b", "x"), ("c", "d", "y")]


def test_leading_bom_in_int_csv_is_ignored(tmp_path):
    db = load(write_manifest(tmp_path, {"R": (["int"], BOM + "1\n2\n")}))
    assert [db.dictionary.decode(c) for (c,) in db.relations["R"].rows] == [1, 2]


def test_leading_bom_in_manifest_is_ignored(tmp_path):
    path = write_manifest(tmp_path, {"R": (["int"], "1\n")})
    path.write_text(BOM + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert load(path).size == 1


def test_leading_bom_in_query_file_is_ignored(tmp_path):
    path = tmp_path / "q.jq"
    path.write_text(BOM + "Q(x) :- R(x).\n", encoding="utf-8")
    _, order = parse_query(read_text(path, "query file"))
    assert order.variables == ("x",)


def test_bom_not_at_the_start_is_part_of_the_value(tmp_path):
    # Only one leading BOM is dropped; any other U+FEFF stays in its value.
    csv_text = BOM + BOM + "a," + BOM + "b\n" + BOM + "c,d\n"
    db = load(write_manifest(tmp_path, {"R": (["string", "string"], csv_text)}))
    decoded = {tuple(map(db.dictionary.decode, row)) for row in db.relations["R"].rows}
    assert decoded == {(BOM + "a", BOM + "b"), (BOM + "c", "d")}


def reference_load(tables):
    """Row by row, as a loader that parses, checks and encodes each field would.

    ``tables`` maps a symbol to (declared types or None, CSV text).  Returns the
    encoded rows per symbol, the column types and the sorted value pools.
    """
    parsed, pools = {}, {}
    for sym, (types, text) in tables.items():
        rows = []
        for record in csv.reader(io.StringIO(text, newline="")):
            if not record:
                continue
            types = types or ["string"] * len(record)
            row = tuple(int(f) if t == "int" else f for f, t in zip(record, types))
            for t, v in zip(types, row):
                pools.setdefault(t, set()).add(v)
            rows.append(row)
        parsed[sym] = (tuple(types), rows)
    pool_values = {t: sorted(pools[t]) for t in sorted(pools)}
    flat = [(t, v) for t in pool_values for v in pool_values[t]]
    codes = {tv: code for code, tv in enumerate(flat)}
    encoded = {
        sym: tuple(sorted({tuple(codes[(t, v)] for t, v in zip(types, row)) for row in rows}))
        for sym, (types, rows) in parsed.items()
    }
    return encoded, {sym: types for sym, (types, _) in parsed.items()}, pool_values


STRINGS = ["a", "b", "a,b", 'say "hi"', "two\nlines", " padded ", "é", "", "10", "-3"]


def random_int_field(rng, v):
    """One of several spellings int() reads as v."""
    text = str(v)
    spellings = [text, f" {text} ", f"{text}\t"]
    if v >= 0:
        spellings.append(f"+{text}")
    if abs(v) >= 10:
        spellings.append(text[:-1] + "_" + text[-1])
    return rng.choice(spellings)


def random_csv(rng, kinds, min_rows):
    """CSV text of random rows (duplicates likely) with random quoting and blank lines."""
    lines = []
    for _ in range(rng.randint(min_rows, 12)):
        fields = [
            random_int_field(rng, rng.randint(-12, 12)) if t == "int" else rng.choice(STRINGS)
            for t in kinds
        ]
        out = io.StringIO()
        quoting = csv.QUOTE_ALL if rng.random() < 0.3 else csv.QUOTE_MINIMAL
        terminator = rng.choice(["\n", "\r\n"])
        csv.writer(out, quoting=quoting, lineterminator=terminator).writerow(fields)
        lines.append(out.getvalue())
        if rng.random() < 0.2:
            lines.append(rng.choice(["\n", "\r\n"]))
    return "".join(lines)


def test_columnwise_load_matches_rowwise_reference(tmp_path):
    rng = random.Random(11)
    for trial in range(150):
        d = tmp_path / str(trial)
        d.mkdir()
        tables, manifest = {}, {"relations": {}}
        for i in range(rng.randint(1, 3)):
            sym = f"R{i}"
            entry = manifest["relations"][sym] = {"file": f"{sym}.csv"}
            kinds = [rng.choice(["int", "string"]) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.7:
                entry["types"] = kinds
            else:  # undeclared: every column is a string, and an empty file has no arity
                kinds = ["string"] * len(kinds)
            text = random_csv(rng, kinds, min_rows=0 if "types" in entry else 1)
            (d / f"{sym}.csv").write_bytes(text.encode("utf-8"))
            tables[sym] = (entry.get("types"), text)
        (d / "manifest.json").write_text(json.dumps(manifest))
        db = load(d / "manifest.json")
        rows, column_types, pools = reference_load(tables)
        assert {sym: r.rows for sym, r in db.relations.items()} == rows, trial
        assert db.column_types == column_types, trial
        assert db.dictionary.pool_values == pools, trial


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
    over_limit = b"9" * (csv.field_size_limit() + 1)
    rng = random.Random(7)
    for name in ("R", "S"):
        path = tmp_path / f"{name}.csv"
        original = path.read_bytes()
        mutants = [mutate(rng, original, tokens) for _ in range(1500)]
        fuzz_load(path, mutants + [original + over_limit + b"\n"])
        path.write_bytes(original)
