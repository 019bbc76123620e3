"""Small shared helpers: canonical float text, CSV text, atomic file writes,
the base class of the package's records and an ordered thread map.

Every float that reaches disk goes through fmt17 (17 significant digits, the
shortest width that round-trips any double), and every file is written to a
temp path then renamed, so partially written outputs can never be observed and
identical inputs produce byte-identical files. csv_blocks renders every CSV
file from its columns, _CSV_ROWS rows at a time, so none is ever held whole.

Both of the last keep every CLI child's start-up cheap: a Record subclass
is a plain class, for which no method is generated and compiled at import,
and ordered_map imports concurrent.futures only to run more than one thread.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from .errors import IoError

# CSV rows rendered at a time: bounds the renderer's byte matrices and text
_CSV_ROWS = 1 << 12


class Record:
    """An immutable record. A subclass names its fields in __slots__, in
    constructor order, and its __init__ validates its arguments and hands
    the field values to _set once. Equality, hash and repr follow the
    fields in order; assigning or deleting a field raises AttributeError."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def ordered_map(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """fn(item) for each item, yielded in item order; an exception fn raises
    surfaces at its item's position. At threads == 1 fn runs in the calling
    thread; otherwise on a pool of that many threads. A consumer that stops
    early, by break or by an exception, closes the generator: the items
    still queued are cancelled and the workers joined before it returns."""
    if threads == 1:
        yield from map(fn, items)
        return
    # the pool's import pulls in logging, traceback and queue: only pay it here
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, items)


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def csv_blocks(header: str, columns) -> Iterator[str]:
    """CSV text of equal-length columns, "\n" line ends: the header line(s),
    then the rows, _CSV_ROWS at a time. Non-negative ints render in decimal,
    floats through fmt17, bools as true/false and str as it is (nothing needs
    quoting): the text csv.writer gives of those fields."""
    yield header + "\n"
    columns = [np.asarray(c) for c in columns]
    for s in range(0, len(columns[0]), _CSV_ROWS):
        yield _block([c[s:s + _CSV_ROWS] for c in columns])


def _block(columns: list[np.ndarray]) -> str:
    """The CSV lines of columns: their NUL-padded byte matrices joined, NULs
    dropped; a function of its own, so its temporaries die with the block."""
    comma = np.full((len(columns[0]), 1), ord(","), dtype=np.uint8)
    text = np.hstack([m for col in columns for m in (_cells(col), comma)])
    text[:, -1] = ord("\n")
    return text[text != 0].tobytes().decode("ascii")


def _cells(col: np.ndarray) -> np.ndarray:
    """Row i holds the text of col[i] as ASCII codes, padded with NULs; each
    distinct float is formatted once, keyed on its bits (-0.0 keeps "-0")."""
    if col.dtype.kind in "iu":
        return _digits(col)
    if col.dtype.kind == "b":
        strings, at = ["false", "true"], col.astype(np.intp)
    elif col.dtype.kind == "f":
        bits, at = np.unique(col.astype(float).view(np.int64), return_inverse=True)
        strings = [fmt17(v) for v in bits.view(np.float64).tolist()]
    else:
        strings, at = col.tolist(), slice(None)
    table = np.array(strings, dtype=np.bytes_)
    return table.view(np.uint8).reshape(len(strings), -1)[at]


def _digits(x: np.ndarray) -> np.ndarray:
    """The decimal text of the non-negative ints x as ASCII codes, one row
    per value, right-aligned and padded on the left with NULs."""
    width = len(str(int(x.max())))
    out = np.empty((len(x), width), dtype=np.uint8)
    q = x
    for c in range(width - 1, -1, -1):
        rest = q // 10
        out[:, c] = q - 10 * rest + 48
        if c < width - 1:
            # a leading zero becomes NUL; the units digit always shows
            out[:, c] *= q > 0
        q = rest
    return out


def atomic_write_text(path: str, text: str | Iterable[str]) -> int:
    """Write text to path via temp+rename; returns the byte count. text is a
    str or an iterable of str pieces, each encoded and written as it comes,
    so that the whole text need never be held at once."""
    if isinstance(text, str):
        text = (text,)
    size = 0
    d = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(d, exist_ok=True)
        # mode 0666 less the umask, as open() gives; O_EXCL never reuses a file
        tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}~")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                for piece in text:
                    size += fh.write(piece.encode("utf-8"))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return size


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats as fmt17, no whitespace drift."""
    out: list[str] = []
    _dump(obj, out)
    return "".join(out) + "\n"


def _dump(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt17(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            _dump(str(key), out)
            out.append(":")
            _dump(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _dump(item, out)
        out.append("]")
    else:
        raise TypeError(f"canonical_json cannot serialize {type(obj)!r}")
