"""Reading and writing the JSON interchange documents.

An expression file holds a single node object (see the schema in the
README).  ``mlp`` nodes may inline their parameters under ``model`` or
point at a separate parameter file via ``weights_ref``; references are
resolved here, relative to the referencing file, before decoding.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import FuzzyExpr, from_dict, to_dict
from .errors import SerializationError

__all__ = ["load_json", "save_json", "load_expr", "save_expr"]


def load_json(path: str | Path) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise SerializationError(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{p} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SerializationError(f"{p} is nested too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise SerializationError(f"{p} must hold a JSON object")
    return doc


def save_json(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _resolve_weight_refs(doc, base_dir: Path):
    if isinstance(doc, dict):
        if doc.get("node") == "mlp" and "weights_ref" in doc and "model" not in doc:
            ref = base_dir / str(doc["weights_ref"])
            resolved = dict(doc)
            resolved.pop("weights_ref")
            resolved["model"] = load_json(ref)
            return resolved
        return {k: _resolve_weight_refs(v, base_dir) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_resolve_weight_refs(v, base_dir) for v in doc]
    return doc


def load_expr(path: str | Path) -> FuzzyExpr:
    """Load an expression document, resolving ``weights_ref`` entries
    relative to the file's directory."""
    p = Path(path)
    doc = load_json(p)
    try:
        doc = _resolve_weight_refs(doc, p.parent)
    except RecursionError as exc:
        raise SerializationError(f"{p} is nested too deeply to resolve") from exc
    return from_dict(doc)


def save_expr(expr: FuzzyExpr, path: str | Path) -> None:
    save_json(to_dict(expr), path)
