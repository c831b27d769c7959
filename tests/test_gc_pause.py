"""Set-up and load run with cyclic GC paused, and make no cyclic garbage.

``storage.load``, ``access.build_index`` and ``index_io.load_index`` turn
cyclic GC off for the call and restore the caller's state on every exit.
What they allocate is then reclaimed by reference counting alone, unless it
forms a cycle; a cycle would live until the next collection after the call.
"""

import gc
import json
import random

import pytest

from lexjoin import access, index_io, storage
from lexjoin.errors import InputError
from lexjoin.hardness import star_query
from tests.randgen import random_database, random_query


@pytest.fixture
def gc_restored():
    """Whatever a test does to GC, the next test starts with the state this one found."""
    was_enabled = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def write_database(directory, relations):
    """A manifest over one int CSV per relation; ``relations`` maps symbol -> (arity, rows)."""
    manifest = {"relations": {}}
    for sym, (arity, rows) in relations.items():
        (directory / f"{sym}.csv").write_text("".join(f"{','.join(map(str, r))}\n" for r in rows))
        manifest["relations"][sym] = {"file": f"{sym}.csv", "types": ["int"] * arity}
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def star_instance(tmp_path):
    """The 3-star under its worst order over a small random database; its build joins."""
    rng = random.Random(1)
    q, order = star_query(3)
    rows = {f"R{i}": (2, {(rng.randrange(4), rng.randrange(3)) for _ in range(10)}) for i in (1, 2, 3)}
    return q, order, write_database(tmp_path, rows)


def randgen_instance(tmp_path, seed):
    rng = random.Random(seed)
    q, order = random_query(rng)
    db = random_database(rng, q)
    decode = db.dictionary.decode
    relations = {
        sym: (rel.arity, [tuple(map(decode, row)) for row in rel.rows]) for sym, rel in db.relations.items()
    }
    return q, order, write_database(tmp_path, relations)


def assert_no_cyclic_garbage(q, order, manifest, index_path):
    gc.collect()
    gc.disable()
    db = storage.load(manifest)
    assert gc.collect() == 0
    ix = access.build_index(q, order, db)
    assert gc.collect() == 0
    index_io.save_index(ix, index_path)
    loaded = index_io.load_index(index_path)
    assert gc.collect() == 0
    assert loaded.tables == ix.tables
    return ix


def test_star_setup_and_load_make_no_cyclic_garbage(tmp_path, gc_restored):
    q, order, manifest = star_instance(tmp_path)
    assert_no_cyclic_garbage(q, order, manifest, tmp_path / "star.idx")


def test_randgen_setup_and_load_make_no_cyclic_garbage(tmp_path, gc_restored):
    joined = 0
    for seed in range(40):
        directory = tmp_path / str(seed)
        directory.mkdir()
        q, order, manifest = randgen_instance(directory, seed)
        ix = assert_no_cyclic_garbage(q, order, manifest, directory / "r.idx")
        joined += ix.stats["multiatom_joins"] > 0
    assert joined >= 5  # the sample reaches the generic join, the one place a cycle was


def paused_calls(tmp_path):
    """Each paused entry point with good arguments, and the inner function it calls."""
    q, order, manifest = star_instance(tmp_path)
    db = storage.load(manifest)
    index_path = tmp_path / "star.idx"
    index_io.save_index(access.build_index(q, order, db), index_path)
    return [
        (storage, "_read_columns", lambda: storage.load(manifest)),
        (access, "derive_index", lambda: access.build_index(q, order, db)),
        (index_io, "_decode", lambda: index_io.load_index(index_path)),
    ]


def failing_calls(tmp_path):
    """Each paused entry point with arguments that make it raise InputError."""
    bad_manifest = tmp_path / "bad.json"
    bad_manifest.write_text('{"relations": {"R": {"types": ["int"]}}}')
    q, order = star_query(3)
    other = storage.build_database({"R1": (["int"], [(1,)])})
    corrupt = tmp_path / "corrupt.idx"
    corrupt.write_bytes(index_io.MAGIC + b"\x00" * 8)
    return [
        lambda: storage.load(bad_manifest),
        lambda: access.build_index(q, order, other),
        lambda: index_io.load_index(corrupt),
    ]


def test_paused_during_the_call_and_restored_after(tmp_path, monkeypatch, gc_restored):
    for module, inner, call in paused_calls(tmp_path):
        seen = []
        original = getattr(module, inner)

        def spy(*args, original=original, seen=seen):
            seen.append(gc.isenabled())
            return original(*args)

        monkeypatch.setattr(module, inner, spy)
        gc.enable()
        call()
        assert seen and not any(seen), inner
        assert gc.isenabled(), inner


def test_restored_after_input_error(tmp_path, gc_restored):
    for call in failing_calls(tmp_path):
        gc.enable()
        with pytest.raises(InputError):
            call()
        assert gc.isenabled()


def test_stays_off_when_the_caller_turned_it_off(tmp_path, gc_restored):
    calls = [call for _, _, call in paused_calls(tmp_path)] + failing_calls(tmp_path)
    gc.disable()
    for call in calls:
        try:
            call()
        except InputError:
            pass
        assert not gc.isenabled()


def test_nested_call_leaves_the_state_as_it_was(tmp_path, gc_restored):
    inner_states = []

    @storage.gc_paused
    def outer(call):
        call()
        inner_states.append(gc.isenabled())

    gc.enable()
    for _, _, call in paused_calls(tmp_path):
        outer(call)
        assert gc.isenabled()
    assert inner_states == [False, False, False]

