import hashlib
import random
import zlib

import pytest

import lexjoin.simplex
from lexjoin import build_database
from lexjoin.access import build_index
from lexjoin.cli import main
from lexjoin.decomposition import decompose
from lexjoin.errors import InputError, LexjoinError
from lexjoin.hardness import star_query
from lexjoin.index_io import MAGIC, load_index, save_index
from lexjoin.oracle import materialize_sorted
from lexjoin.query import format_query, parse_query
from tests.randgen import random_database, random_query


def sample_index():
    q, order = parse_query("Q(x,y,z) :- R(x,y), S(y,z). ORDER z, y, x")
    db = build_database(
        {
            "R": (["int", "string"], [(1, "a"), (2, "b"), (1, "b"), (-4, "a")]),
            "S": (["string", "int"], [("a", 5), ("b", 7), ("c", 1)]),
        }
    )
    return q, order, db, build_index(q, order, db)


def test_roundtrip_identical_answers(tmp_path):
    q, order, db, ix = sample_index()
    path = tmp_path / "q.idx"
    save_index(ix, path)
    loaded = load_index(path)
    assert loaded.count() == ix.count()
    assert loaded.order.variables == order.variables
    assert loaded.query == q
    for j in range(ix.count()):
        assert loaded.access(j) == ix.access(j)
        assert loaded.rank(ix.access(j)) == j


def test_rebuild_is_byte_identical(tmp_path):
    _, _, _, ix = sample_index()
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(ix, a)
    _, _, _, ix2 = sample_index()
    save_index(ix2, b)
    assert a.read_bytes() == b.read_bytes()


def test_roundtrip_random_instances(tmp_path):
    rng = random.Random(55)
    for trial in range(10):
        q, order = random_query(rng, max_vars=4, max_atoms=4)
        db = random_database(rng, q, domain=4, max_rows=10)
        ix = build_index(q, order, db)
        path = tmp_path / f"t{trial}.idx"
        save_index(ix, path)
        loaded = load_index(path)
        expected = materialize_sorted(q, order, db)
        assert loaded.count() == expected.count
        for j, row in enumerate(expected.rows):
            assert loaded.access(j) == row
        assert loaded.tables == ix.tables
        assert loaded.stats["bag_rows"] == ix.stats["bag_rows"]
        assert (loaded.bags, loaded.links, loaded.roots) == (ix.bags, ix.links, ix.roots)
        resaved = tmp_path / f"t{trial}.again.idx"
        save_index(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()


# SHA-256 over the saved LJDA3 bytes of the indexes of tests/randgen seeds 0..199.
# Any change to how an index is built or saved that alters a file changes it.
RANDOM_INDEXES_SHA256 = "3bf1b2c84802004aca4c7bbc9adbaf0f94c00ef47f6d6fd43191ce9849afa01e"


def test_random_index_bytes_unchanged(tmp_path):
    digest = hashlib.sha256()
    path = tmp_path / "r.idx"
    for seed in range(200):
        rng = random.Random(seed)
        q, order = random_query(rng)
        save_index(build_index(q, order, random_database(rng, q)), path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == RANDOM_INDEXES_SHA256


# SHA-256 over the saved LJDA3 bytes and the repr of stats["bag_rows"] of the indexes
# of tests/randgen seeds 200..399.
RANDOM_INDEXES_200_399_SHA256 = "746050943ef831b609da2031c0c8c0b32191fcf04b1cbf6bd452e8be0a269adc"


def test_random_index_bytes_and_bag_rows_unchanged(tmp_path):
    digest = hashlib.sha256()
    path = tmp_path / "r.idx"
    for seed in range(200, 400):
        rng = random.Random(seed)
        q, order = random_query(rng)
        ix = build_index(q, order, random_database(rng, q))
        save_index(ix, path)
        digest.update(path.read_bytes())
        digest.update(repr(ix.stats["bag_rows"]).encode())
    assert digest.hexdigest() == RANDOM_INDEXES_200_399_SHA256


def test_corruption_rejected(tmp_path):
    path = tmp_path / "corrupt.idx"
    _, _, _, ix = sample_index()
    save_index(ix, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError):
        load_index(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "short.idx"
    _, _, _, ix = sample_index()
    save_index(ix, path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(InputError):
        load_index(path)


# The dictionary section of sample_index's file: two pools; ints -4, 1, 2, 5, 7
# (zigzag -4, then gaps) and strings "a", "b", "c".
SAMPLE_DICTIONARY = bytes((2, 0, 5, 7, 5, 1, 3, 2, 1, 3, 1, 97, 1, 98, 1, 99))

# The groups section of sample_index's file, per bag in order: a root's group
# count, then the bag's group sizes, first candidates and gaps.  No key is
# stored; each child key is a parent candidate (the links take no other column):
# {z}, a root: 1 group (); sizes 2; firsts 3; gaps 1 (candidates 3, 4: z = 5, 7);
# {z, y}: keys (3,), (4,); sizes 1, 1; firsts 5, 6; no gaps (y = "a", "b");
# {y, x}: keys (5,), (6,); sizes 2, 2; firsts 0, 1; gaps 1, 1 (x = -4, 1, 2).
SAMPLE_GROUPS = bytes((1, 2, 3, 1, 1, 1, 5, 6, 2, 2, 0, 1, 1, 1))

# One byte rewrite each: (section, offset into it, new byte, error message).
# The query text of sample_index is "Q(x, y, z) :- R(x, y), S(y, z).\nORDER z, y, x".
CORRUPTIONS = {
    "ljda1-magic": ("magic", len(MAGIC) - 1, ord("1"), "unsupported index format"),
    "ljda2-magic": ("magic", len(MAGIC) - 1, ord("2"), "unsupported index format"),
    "ljda9-magic": ("magic", len(MAGIC) - 1, ord("9"), "unsupported index format"),
    "repeated-pool": ("dictionary", 8, 0, "pools are repeated or out of order"),
    "unsorted-string-pool": ("dictionary", 11, ord("d"), "not strictly increasing"),
    "query-text": ("query", 11, ord("="), "1:12: expected ':-'"),
    "zero-gap": ("groups", 3, 0, "not strictly increasing"),
    "empty-group": ("groups", 4, 0, "bag 1 has an empty group"),
    "code-outside-pool": ("groups", 2, 5, "outside the int pool"),
    "two-root-groups": ("groups", 0, 2, "root bag 0 has 2 groups"),
    "truncated": ("groups", 9, 9, "index file truncated"),
    # Written one past the end of the payload, the byte is appended.
    "trailing-byte": ("groups", len(SAMPLE_GROUPS), 0, "trailing bytes after index payload"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_resealed_corruption_rejected(tmp_path, capsys, case):
    section, offset, value, message = CORRUPTIONS[case]
    q, order, _, ix = sample_index()
    path = tmp_path / "bad.idx"
    save_index(ix, path)
    payload = bytearray(path.read_bytes()[:-4])
    text = format_query(q, order).encode("utf-8")
    groups = payload.index(text) + len(text) + len(order.variables)
    assert payload[len(MAGIC) : len(MAGIC) + len(SAMPLE_DICTIONARY)] == SAMPLE_DICTIONARY
    assert payload[groups:] == SAMPLE_GROUPS
    starts = {"magic": 0, "dictionary": len(MAGIC), "query": payload.index(text), "groups": groups}
    start = starts[section]
    payload[start + offset : start + offset + 1] = bytes((value,))
    path.write_bytes(bytes(payload) + zlib.crc32(payload).to_bytes(4, "little"))
    with pytest.raises(InputError, match=message) as caught:
        load_index(path)
    assert str(path) in str(caught.value)
    assert main(["count", "-i", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and str(path) in err


def test_second_int_pool_rejected(tmp_path):
    # A well-formed file with an extra int pool in front: it would replace the first.
    q, order = parse_query("Q(x) :- R(x).")
    path = tmp_path / "ints.idx"
    save_index(build_index(q, order, build_database({"R": (["int"], [(3,), (5,)])})), path)
    payload = bytearray(path.read_bytes()[:-4])
    assert payload[len(MAGIC) : len(MAGIC) + 5] == bytes((1, 0, 2, 6, 2))
    payload[len(MAGIC) : len(MAGIC) + 1] = bytes((2, 0, 2, 0, 2))  # pool 0, 2 first
    path.write_bytes(bytes(payload) + zlib.crc32(payload).to_bytes(4, "little"))
    with pytest.raises(InputError, match="pools are repeated or out of order"):
        load_index(path)


def test_cold_load_solves_no_lp(tmp_path, monkeypatch):
    q, order, _, ix = sample_index()
    path = tmp_path / "q.idx"
    save_index(ix, path)
    decompose.cache_clear()

    def no_lp(*args, **kwargs):
        raise AssertionError("load solved a linear program")

    monkeypatch.setattr(lexjoin.simplex, "solve_min", no_lp)
    loaded = load_index(path)
    assert [loaded.access(j) for j in range(loaded.count())] == [
        ix.access(j) for j in range(ix.count())
    ]


def test_fuzzed_index_bytes_load_consistently_or_fail_cleanly(tmp_path):
    q, order = star_query(2)
    db = build_database(
        {
            "R1": (["int", "string"], [(1, "a"), (2, "a"), (2, "bé"), (3, "c"), (4, "bé")]),
            "R2": (["int", "string"], [(5, "a"), (6, "bé"), (7, "bé"), (8, "d")]),
        }
    )
    path = tmp_path / "star.idx"
    save_index(build_index(q, order, db), path)
    payload = path.read_bytes()[:-4]
    rng = random.Random(2024)
    loaded = 0
    for _ in range(3000):
        mutated = bytearray(payload)
        pos = rng.randrange(len(mutated))
        mutated[pos] ^= rng.randrange(1, 256)
        path.write_bytes(bytes(mutated) + zlib.crc32(mutated).to_bytes(4, "little"))
        try:
            ix = load_index(path)
        except LexjoinError:
            continue
        loaded += 1
        n = ix.count()
        probes = {0, n - 1, *(rng.randrange(n) for _ in range(3))} if n else set()
        for j in probes:
            assert ix.rank(ix.access(j)) == j, (pos, mutated[pos], j)
    assert loaded > 0


def test_loaded_index_supports_membership(tmp_path):
    q, order, db, ix = sample_index()
    path = tmp_path / "q.idx"
    save_index(ix, path)
    loaded = load_index(path)
    answer = ix.access(0)
    assert loaded.test_membership(answer)
    assert not loaded.test_membership((99, "zz", 1))
    rng = random.Random(7)
    xs, ys, zs = (-4, 1, 2, 3), ("a", "b", "c", "q"), (1, 5, 7, 8)
    members = 0
    for _ in range(200):
        probe = (rng.choice(xs), rng.choice(ys), rng.choice(zs))
        verdict = ix.test_membership(probe)
        assert loaded.test_membership(probe) == verdict
        members += verdict
    assert 0 < members < 200


def test_zero_answers_with_rows_roundtrip(tmp_path):
    # Two roots, one empty: no answer, yet bag {x} keeps its rows, so a root
    # bag stores its group count.
    q, order = parse_query("Q(x,y) :- R(x), S(y).")
    db = build_database({"R": (["int"], [(1,), (2,)]), "S": (["int"], [])})
    ix = build_index(q, order, db)
    assert (ix.stats["bag_rows"], ix.count()) == ([2, 0], 0)
    path = tmp_path / "zero.idx"
    save_index(ix, path)
    loaded = load_index(path)
    assert (loaded.stats["bag_rows"], loaded.count()) == ([2, 0], 0)
    assert loaded.tables == ix.tables


def test_codes_above_one_byte_roundtrip(tmp_path):
    # 300 distinct ints: bag {x, y}'s first candidates run to code 299 and take
    # the varint loop, while bag {x}'s gaps (all 1) are read as one slice.  The
    # smallest value, 10**6, is a three-byte varint in the dictionary.
    q, order = parse_query("Q(x,y) :- R(x,y).")
    db = build_database({"R": (["int", "int"], [(v, v) for v in range(10**6, 10**6 + 300)])})
    ix = build_index(q, order, db)
    path, again = tmp_path / "wide.idx", tmp_path / "wide.again.idx"
    save_index(ix, path)
    loaded = load_index(path)
    assert loaded.tables == ix.tables
    assert loaded.count() == ix.count() == 300
    save_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_empty_index_roundtrip(tmp_path):
    q, order = parse_query("Q(x) :- R(x).")
    db = build_database({"R": (["int"], [])})
    ix = build_index(q, order, db)
    path = tmp_path / "empty.idx"
    save_index(ix, path)
    loaded = load_index(path)
    assert loaded.count() == 0


def test_unicode_values_roundtrip(tmp_path):
    q, order = parse_query("Q(x) :- R(x).")
    db = build_database({"R": (["string"], [("señal",), ("zèbre",), ("ascii",)])})
    ix = build_index(q, order, db)
    path = tmp_path / "uni.idx"
    save_index(ix, path)
    loaded = load_index(path)
    assert [loaded.access(j) for j in range(3)] == [ix.access(j) for j in range(3)]
