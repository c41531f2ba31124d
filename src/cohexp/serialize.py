"""Reading and writing the JSON interchange documents.

An expression file holds a single node object (see the schema in the
README).  ``mlp`` nodes may inline their parameters under ``model`` or
point at a separate parameter file via ``weights_ref``; references are
resolved here, relative to the referencing file, while it is parsed.
Every document the package writes is formatted by :func:`dumps`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from .core import FuzzyExpr, from_dict, to_dict
from .errors import SerializationError

__all__ = ["dumps", "load_json", "save_json", "load_expr", "save_expr"]


def dumps(doc: dict) -> str:
    """The text of a JSON document: two-space indent, sorted keys and a
    trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(path: str | Path, object_hook: Callable[[dict], dict] | None = None) -> dict:
    """Parse a file holding one JSON object; ``object_hook`` is passed to
    :func:`json.loads`, which calls it on every object, innermost first."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise SerializationError(f"cannot read {p}: {exc}") from exc
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
        # an inline model wins; a referenced file is not resolved in turn
        if obj.get("node") == "mlp" and "weights_ref" in obj and "model" not in obj:
            obj["model"] = load_json(p.parent / str(obj.pop("weights_ref")))
        return obj

    return from_dict(load_json(p, object_hook=resolve))


def save_expr(expr: FuzzyExpr, path: str | Path) -> None:
    save_json(to_dict(expr), path)
