"""Small shared IO helpers: canonical float text, CSV text and atomic file writes.

Every float that reaches disk goes through fmt17 (17 significant digits, the
shortest width that round-trips any double), and every file is written to a
temp path then renamed, so partially written outputs can never be observed and
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Iterable

from .errors import IoError


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def csv_text(header: list[str], rows) -> str:
    """CSV document with "\n" line ends: the header line, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
