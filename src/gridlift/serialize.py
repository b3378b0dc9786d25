"""JSON and OFF encodings for realizations and run reports.

Rationals travel as canonical strings ("2/3", or "4" when integral) so a
round trip is loss-free and the files stay diff-friendly. Report dumps sort
their keys; everything except the timing block is deterministic for a given
input, which the tests rely on.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .errors import InvalidInputError
from .exact import _det_int
from .facets import Realization
from .trees import load_json
from .verify import Certificate, input_witnesses


def rat_str(x: Fraction | int) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_rat(s: str) -> Fraction:
    """A rational exactly as rat_str writes it: "p", or "p/q" in lowest
    terms with q > 1. The pattern is matched before Fraction parses, since
    Fraction would expand an exponent."""
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s):
        raise InvalidInputError(f"bad rational {s!r}")
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidInputError(f"bad rational {s!r}: {e}") from None
    if rat_str(x) != s:
        raise InvalidInputError(f"bad rational {s!r}: rat_str writes {rat_str(x)!r}")
    return x


def jsonable(obj):
    """Recursively convert to JSON-encodable values; Fractions to strings."""
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, Certificate):
        d = {f.name: getattr(obj, f.name) for f in fields(obj)}
        del d["min_interior_stress"]  # the pipeline reports it, in real units
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


def realization_doc(r: Realization) -> dict:
    """The JSON-ready document that realization_to_json encodes."""
    return {
        "dim": r.d,
        "coords": [list(p) for p in r.coords],
        "facets": [[node, list(verts)] for node, verts in sorted(r.facets.items())],
        "base_facet": list(r.base_facet),
        "metadata": jsonable(r.metadata),
    }


def realization_to_json(r: Realization) -> str:
    return json.dumps(realization_doc(r), sort_keys=True)


def realization_from_json(text: str | bytes) -> Realization:
    """Parse a realization, accepting only what the verifier can certify.

    The reader checks the JSON's shape (the four keys, facets as [node, ids]
    pairs with int nodes, each node once, metadata rationals as parse_rat
    reads them and R_eff a positive int); the rest is verify.input_witnesses,
    the certificate's own rule, whose first witness is the InvalidInputError.
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
    if not isinstance(doc["facets"], list):
        raise InvalidInputError("facets must be a list of [node, vertex ids] pairs")
    facets = {}
    for row in doc["facets"]:
        if not (isinstance(row, list) and len(row) == 2 and type(row[0]) is int):
            raise InvalidInputError("facets must be a list of [node, vertex ids] pairs")
        if row[0] in facets:
            raise InvalidInputError(f"facet {row[0]} is listed twice")
        facets[row[0]] = _tuple(row[1])
    coords, metadata = doc["coords"], doc.get("metadata", {})
    if isinstance(coords, list):
        coords = [_tuple(p) for p in coords]
    if isinstance(metadata, dict):
        metadata = {k: parse_rat(v) if isinstance(v, str) else v for k, v in metadata.items()}
        R_eff = metadata.get("R_eff")
        if "R_eff" in metadata and not (type(R_eff) is int and R_eff > 0):
            raise InvalidInputError("metadata R_eff must be a positive integer")
    realization = Realization(doc["dim"], coords, facets, _tuple(doc["base_facet"]), metadata)
    witnesses = input_witnesses(realization)
    if witnesses:
        raise InvalidInputError(witnesses[0])
    return realization


def _tuple(value):
    """A JSON list as a tuple, anything else as it is, for the rule to judge."""
    return tuple(value) if isinstance(value, list) else value


def report_doc(report, include_timing: bool = True) -> dict:
    """The JSON-ready document that report_to_json encodes."""
    doc = jsonable(report)
    if not include_timing:
        doc.pop("timing", None)
    return doc


def report_to_json(report, include_timing: bool = True) -> str:
    return json.dumps(report_doc(report, include_timing), sort_keys=True, separators=(",", ":"))


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
