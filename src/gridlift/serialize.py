"""JSON and OFF encodings for realizations and run reports.

Rationals travel as canonical strings ("2/3", or "4" when integral) so a
round trip is loss-free and the files stay diff-friendly. Report dumps sort
their keys; everything except the timing block is deterministic for a given
input, which the tests rely on.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .errors import InvalidInputError
from .exact import _det_int
from .rounding import Realization
from .trees import load_json
from .verify import Certificate


def rat_str(x: Fraction | int) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_rat(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidInputError(f"bad rational {s!r}: {e}") from None


def jsonable(obj):
    """Recursively convert to JSON-encodable values; Fractions to strings."""
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, Certificate):
        d = {f.name: getattr(obj, f.name) for f in fields(obj)}
        d["ok"] = obj.ok
        return jsonable(d)
    if is_dataclass(obj) and not isinstance(obj, type):
        # shallow, so nested Certificates still hit their branch above
        return jsonable({f.name: getattr(obj, f.name) for f in fields(obj)})
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def realization_to_json(r: Realization) -> str:
    doc = {
        "dim": r.d,
        "coords": [list(p) for p in r.coords],
        "facets": [[node, list(verts)] for node, verts in sorted(r.facets.items())],
        "base_facet": list(r.base_facet),
        "metadata": jsonable(r.metadata),
    }
    return json.dumps(doc, sort_keys=True)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _vertex_ids(value, d: int, n: int, what: str) -> tuple[int, ...]:
    """d distinct vertex ids in range(n), or InvalidInputError."""
    if not isinstance(value, list) or len(value) != d:
        raise InvalidInputError(f"{what} must list {d} vertex ids")
    if not all(_is_int(v) and 0 <= v < n for v in value):
        raise InvalidInputError(f"{what} has a vertex id outside 0..{n - 1}")
    if len(set(value)) != d:
        raise InvalidInputError(f"{what} repeats a vertex id")
    return tuple(value)


def realization_from_json(text: str | bytes) -> Realization:
    """Parse a realization, accepting only what the verifier can certify.

    Coordinates must be JSON integers (not floats, not booleans), every
    facet and the base facet must list d distinct vertex ids in range, and
    facet keys must be nonnegative integers (a negative key would alias the
    base facet's key); anything else is an InvalidInputError.
    """
    doc = load_json(text)
    # accept the combined realize output {"realization": ..., "report": ...}
    if isinstance(doc, dict) and "dim" not in doc and "realization" in doc:
        doc = doc["realization"]
    if not isinstance(doc, dict):
        raise InvalidInputError("malformed realization JSON: not an object")
    for key in ("dim", "coords", "facets", "base_facet"):
        if key not in doc:
            raise InvalidInputError(f"malformed realization JSON: missing {key!r}")
    d, rows, facet_rows = doc["dim"], doc["coords"], doc["facets"]
    if not _is_int(d) or d < 3:
        raise InvalidInputError(f"dim must be an integer >= 3, got {d!r}")
    if not isinstance(rows, list) or not all(isinstance(p, list) for p in rows):
        raise InvalidInputError("coords must be a list of coordinate rows")
    if any(len(p) != d for p in rows):
        raise InvalidInputError("every coordinate row must have length dim")
    if not all(_is_int(c) for p in rows for c in p):
        raise InvalidInputError("every coordinate must be an integer")
    n = len(rows)
    if not isinstance(facet_rows, list):
        raise InvalidInputError("facets must be a list of [node, vertex ids] pairs")
    facets = {}
    for row in facet_rows:
        if not (isinstance(row, list) and len(row) == 2 and _is_int(row[0])):
            raise InvalidInputError("facets must be a list of [node, vertex ids] pairs")
        node, verts = row
        if node < 0:
            raise InvalidInputError(f"facet key {node} is negative")
        if node in facets:
            raise InvalidInputError(f"facet {node} is listed twice")
        facets[node] = _vertex_ids(verts, d, n, f"facet {node}")
    base = _vertex_ids(doc["base_facet"], d, n, "base_facet")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InvalidInputError("metadata must be an object")
    meta = {}
    for k, v in metadata.items():
        meta[k] = parse_rat(v) if isinstance(v, str) else v
    if "R_eff" in meta and not (_is_int(meta["R_eff"]) and meta["R_eff"] > 0):
        raise InvalidInputError("metadata R_eff must be a positive integer")
    coords = [tuple(p) for p in rows]
    return Realization(d=d, coords=coords, facets=facets, base_facet=base, metadata=meta)


def report_to_dict(report) -> dict:
    return jsonable(report)


def report_to_json(report, include_timing: bool = True) -> str:
    doc = report_to_dict(report)
    if not include_timing:
        doc.pop("timing", None)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def emit_off(r: Realization) -> str:
    """OFF mesh for 3-dimensional realizations, facets oriented outward.

    A facet (a, b, c) is outward when the signed volume of (a, b, c, p) is
    negative for interior p. That volume is linear in p - a, so its sum over
    all n vertices is the volume with the column (sum of p) - n a: the
    interior side's sign without picking a reference point, in O(1) per face.
    """
    if r.d != 3:
        raise InvalidInputError(f"OFF output needs dimension 3, got {r.d}")
    coords = r.coords
    faces = [tuple(r.base_facet)] + [verts for _, verts in sorted(r.facets.items())]
    n = len(coords)
    sx, sy, sz = (sum(p[i] for p in coords) for i in range(3))

    lines = ["OFF", f"{n} {len(faces)} 0"]
    for p in coords:
        lines.append(f"{p[0]} {p[1]} {p[2]}")
    for a, b, c in faces:
        ax, ay, az = coords[a]
        total = _det_int([
            [coords[b][0] - ax, coords[c][0] - ax, sx - n * ax],
            [coords[b][1] - ay, coords[c][1] - ay, sy - n * ay],
            [coords[b][2] - az, coords[c][2] - az, sz - n * az],
        ])
        if total == 0:
            raise InvalidInputError("degenerate facet orientation")
        if total > 0:
            b, c = c, b
        lines.append(f"3 {a} {b} {c}")
    return "\n".join(lines) + "\n"
