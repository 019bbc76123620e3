"""The CSV renderer every output file goes through, against csv.writer; the
atomic writer and canonical JSON; the record base class; the ordered thread
map."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psquintet import _io
from psquintet._io import (Record, atomic_write_text, canonical_json, csv_blocks,
                           fmt17, ordered_map)
from solution_rows import csv_writer_text

_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   -2.2250738585072009e-308, 1e300, -1e300, 1.7976931348623157e308,
                   -1.7976931348623157e308, float("inf"), float("-inf")]


@st.composite
def columns(draw):
    """1 to 6 columns of 1 to 30 rows, each of one kind: int64s of 1 to 19
    digits; floats from a small pool (so they repeat) of finite floats,
    signed zeros, subnormals, values near the float range and infinities;
    bools; or names over [a-z_]."""
    n = draw(st.integers(1, 30))
    out = []
    for kind in draw(st.lists(st.sampled_from(["int", "float", "bool", "name"]),
                              min_size=1, max_size=6)):
        if kind == "int":
            # each int of a random digit count d: uniform over [10^(d-1), 10^d)
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            out.append(np.array([int(rng.integers(10 ** (d - 1) if d > 1 else 0,
                                                  min(10 ** d, 2 ** 63)))
                                 for d in rng.integers(1, 20, size=n).tolist()],
                                dtype=np.int64))
        elif kind == "float":
            pool = draw(st.lists(st.one_of(
                st.sampled_from(_SPECIAL_VALUES),
                st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=8))
            at = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
            out.append(np.array(pool)[at])
        elif kind == "bool":
            out.append(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        else:
            out.append(draw(st.lists(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1,
                                             max_size=12), min_size=n, max_size=n)))
    return out


def writer_text(header: list[str], cols) -> str:
    """csv.writer's document of the columns, floats through fmt17 and bools
    as true/false."""
    def field(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        return fmt17(v) if isinstance(v, float) else v
    return csv_writer_text(header, ([field(v) for v in row] for row in
                                    zip(*(np.asarray(c).tolist() for c in cols))))


def test_columns_match_csv_writer_rendering(monkeypatch):
    # property: the renderer gives csv.writer's text of the ints, the fmt17
    # floats, the bools and the names; blocks of 7 rows put up to 7 rows in
    # one block and more in several
    monkeypatch.setattr(_io, "_CSV_ROWS", 7)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(columns())
    def check(cols):
        header = [f"c{j}" for j in range(len(cols))]
        text = "".join(csv_blocks(",".join(header), cols))
        assert text == writer_text(header, cols)

    check()


def test_blocks_of_csv_rows(monkeypatch):
    # the header, then _CSV_ROWS rows a block; 0 keeps its units digit
    monkeypatch.setattr(_io, "_CSV_ROWS", 7)
    blocks = list(csv_blocks("n", [np.arange(16)]))
    assert blocks == ["n\n", "0\n1\n2\n3\n4\n5\n6\n", "7\n8\n9\n10\n11\n12\n13\n",
                      "14\n15\n"]


def test_failed_write_leaves_the_target_and_no_temp_file(tmp_path):
    # the pieces fail after one is written: the error reaches the caller,
    # the temp file is removed and the file already there keeps its bytes
    target = tmp_path / "out.csv"
    target.write_bytes(b"old\n")

    def pieces():
        yield "new,"
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="renderer failed"):
        atomic_write_text(str(target), pieces())
    assert target.read_bytes() == b"old\n"
    assert list(tmp_path.glob(".tmp-*~")) == []


def test_canonical_json_null_and_unserializable():
    assert canonical_json({"direct": None}) == '{"direct":null}\n'
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json({"s": {1, 2}})


def test_record_compares_by_fields_and_refuses_assignment():
    class Pair(Record):
        __slots__ = ("a", "b")

        def __init__(self, a, b):
            self._set(a, b)

    pair = Pair(1, "x")
    assert pair == Pair(1, "x") and hash(pair) == hash(Pair(1, "x"))
    assert pair != Pair(2, "x") and pair != (1, "x")
    assert repr(pair) == "Pair(a=1, b='x')"
    for change in (lambda: setattr(pair, "a", 2), lambda: setattr(pair, "c", 3),
                   lambda: delattr(pair, "b")):
        with pytest.raises(AttributeError):
            change()
    assert (pair.a, pair.b) == (1, "x")


def _late_square(i: int) -> int:
    # later items sleep less, so on a pool they finish first
    time.sleep(0.002 * (8 - i))
    return i * i


@pytest.mark.parametrize("threads", [1, 3])
def test_ordered_map_yields_in_item_order(threads):
    assert list(ordered_map(_late_square, range(8), threads)) == [
        i * i for i in range(8)]


def test_ordered_map_on_one_thread_runs_in_the_caller():
    me = threading.get_ident()
    assert list(ordered_map(lambda _: threading.get_ident(), range(4), 1)) == [me] * 4


@pytest.mark.parametrize("threads", [1, 3])
def test_ordered_map_raises_at_the_failing_item(threads):
    def fn(i):
        if i == 2:
            raise ValueError("item 2")
        return i

    got = []
    with pytest.raises(ValueError, match="item 2"):
        for x in ordered_map(fn, range(6), threads):
            got.append(x)
    assert got == [0, 1]


def test_ordered_map_consumer_that_raises_joins_the_workers():
    # the consumer stops after the first result: the map is closed, so the
    # queued items never start and every worker has ended when it returns
    before = threading.active_count()
    started = []

    def fn(i):
        started.append(i)
        time.sleep(0.01)
        return i

    def consume():
        for _ in ordered_map(fn, range(60), 3):
            raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        consume()
    assert threading.active_count() == before
    assert len(started) < 60
