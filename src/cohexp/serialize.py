"""Reading and writing the JSON interchange documents.

An expression file holds a single node object (see the schema in the
README).  ``mlp`` nodes may inline their parameters under ``model`` or
point at a separate parameter file via ``weights_ref``; references are
consumed here, while the file is parsed, and resolved relative to it
where no inline model is given.  Files are read as UTF-8.

Every document the package writes is formatted by :func:`dumps`, whose
text is byte for byte that of ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a newline.  The standard library formats an
indented document with its pure-Python encoder; :func:`dumps` gets the
same bytes with the C encoder instead.  It walks dicts and lists of dicts
or strings itself, but hands each list of numbers (or of non-empty lists
of numbers) to the C encoder whole and re-indents that compact text with
``str.replace``, which is exact because the text holds no string: every
``", "``, ``"["`` and ``"]"`` in it is a separator or a bracket.  The
rows of a truth table document hold the table's array too and refuse
changes (``TruthTable.to_dict``), and they are written from the array
in one numpy pass: every entry is one digit, so every row's text has
the same width, and one row's template, repeated, takes the digits at
fixed offsets.  A scalar is written as the C encoder writes it,
without building an encoder: ``repr`` for a number, with the standard
library's ``NaN``, ``Infinity`` and ``-Infinity``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable

import numpy as np

from .core import FuzzyExpr, _TableRows, from_dict, to_dict
from .errors import SerializationError

__all__ = ["dumps", "load_json", "save_json", "load_expr", "save_expr"]


_encode = json.JSONEncoder(sort_keys=True).encode  # the C encoder, compact
_ARRAY = (list, tuple)
_INFINITY = float("inf")


def dumps(doc: dict) -> str:
    """The text of a JSON document: two-space indent, sorted keys and a
    trailing newline.

    The result equals ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``
    for every document; a value or key JSON cannot hold raises
    ``TypeError``, as it does there."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append the text of ``value``; ``newline`` is a line break followed
    by the indent of the line ``value`` starts on."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                key = _scalar(key)
            out.append(sep + _quote(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, _ARRAY):
        if not value:
            out.append("[]")
            return
        if type(value) is _TableRows:
            out.append(_table_rows(value.array, newline))
            return
        text = _number_array(value, newline, inner)
        if text is not None:
            out.append(text)
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_scalar(value))


def _scalar(value) -> str:
    """The text of a value other than a dict or a list, as the C encoder
    writes it; a value JSON cannot hold raises ``TypeError``.  A numpy
    float is a float; a numpy integer or Boolean is not an int."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _table_rows(rows: np.ndarray, newline: str) -> str:
    """The indented text of ``rows.tolist()``, as ``_number_array``
    writes it, for the ``(N, m)`` array of 0s and 1s of a truth table.

    Each row is written as ``inner + "[" + row + d + "," + row + d ...
    + inner + "],"`` with one digit ``d`` per entry, so the text is one
    row template repeated, with the digits set every ``len(row) + 2``
    bytes from the first; the last row's comma is dropped.
    """
    inner = newline + "  "
    row = inner + "  "
    unit = inner + "[" + ",".join([row + "0"] * rows.shape[1]) + inner + "],"
    text = np.tile(np.frombuffer(unit.encode("ascii"), dtype=np.uint8), (rows.shape[0], 1))
    text[:, len(inner) + 1 + len(row) :: len(row) + 2] = rows + ord("0")
    return "[" + str(memoryview(text.reshape(-1)[:-1]), "ascii") + newline + "]"


def _number_array(value, newline: str, inner: str) -> str | None:
    """The indented text of a non-empty list of scalars other than strings,
    or of non-empty such lists, from one call of the C encoder; ``None``
    for any other list.

    Only the first element is looked at before encoding; the rest is
    checked on the compact text.  With no ``'"'`` in it the text holds no
    string and no dict other than ``{}``, which both encoders write
    alike, so every ``"["`` opens a list and every ``", "`` separates two
    items.  A flat list holds one ``"["``.  A list of ``n`` elements is
    ``n`` flat lists exactly when it holds ``n + 1`` of ``"["`` and
    ``n - 1`` of ``"], ["``: with ``k > 0`` elements that are not lists,
    the ``"["`` count needs ``k`` lists nested inside others, and then
    at most ``(n - 1 - k) + (k - 1)`` pairs of adjacent sibling lists
    give a ``"], ["``.
    """
    head = value[0]
    rows = isinstance(head, _ARRAY)
    if isinstance(head, (dict, str)) or (rows and (not head or isinstance(head[0], _ARRAY))):
        return None
    text = _encode(value)
    if '"' in text:
        return None
    if not rows:
        if text.count("[") != 1:
            return None
        return "[" + inner + text[1:-1].replace(", ", "," + inner) + newline + "]"
    n = len(value)
    if "[]" in text or text.count("[") != n + 1 or text.count("], [") != n - 1:
        return None
    row = inner + "  "
    body = text[2:-2].replace("], [", inner + "]," + inner + "[" + row).replace(", ", "," + row)
    return "[" + inner + "[" + row + body + inner + "]" + newline + "]"


def load_json(path: str | Path, object_hook: Callable[[dict], dict] | None = None) -> dict:
    """Parse a file holding one JSON object; ``object_hook`` is passed to
    :func:`json.loads`, which calls it on every object, innermost first."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise SerializationError(f"cannot read {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SerializationError(f"{p} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text, object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{p} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SerializationError(f"{p} is nested too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise SerializationError(f"{p} must hold a JSON object")
    return doc


def save_json(doc: dict, path: str | Path) -> None:
    Path(path).write_text(dumps(doc))


def load_expr(path: str | Path) -> FuzzyExpr:
    """Load an expression document, resolving ``weights_ref`` entries
    relative to the file's directory."""
    p = Path(path)

    def resolve(obj: dict) -> dict:
        # an inline model wins, and its reference is not opened; a
        # referenced file is not resolved in turn
        if obj.get("node") == "mlp" and "weights_ref" in obj:
            ref = obj.pop("weights_ref")
            if "model" not in obj:
                obj["model"] = load_json(p.parent / str(ref))
        return obj

    return from_dict(load_json(p, object_hook=resolve))


def save_expr(expr: FuzzyExpr, path: str | Path) -> None:
    save_json(to_dict(expr), path)
