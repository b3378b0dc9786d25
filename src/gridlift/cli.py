"""Command-line front end.

Subcommands: gen, balance, realize, verify, stats. Everything here is a
thin shell over the library; inputs and outputs are JSON documents (or OFF
meshes for 3-dimensional realizations). realize reads a tree, which names
its dimension, or a graph, which fixes its own by its edge count. Exit
codes: 0 success, 2 invalid input (a file that cannot be read, decoded or
written included), 3 certificate, stage or geometry failure. A stage or
geometry failure also prints its stage, message and witness as one JSON
line on stderr; both are null for a geometry failure, which names no stage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import GeometryError, InvalidInputError, StageInvariantError
from .pipeline import run_pipeline
from .serialize import (
    emit_off,
    jsonable,
    realization_doc,
    realization_from_json,
    report_doc,
    report_to_json,
)
from .trees import (
    balance_weights,
    dump_json,
    gen_lowerbound_graph,
    gen_tree,
    graph_from_doc,
    load_json,
    parse_tree,
    to_nested,
    tree_from_doc,
    tree_from_graph,
    tree_to_json,
)
from .verify import make_certificate


def _file_error(action: str, path: str, e: Exception) -> InvalidInputError:
    """A file that cannot be read, decoded or written is invalid input."""
    reason = e.strerror if isinstance(e, OSError) and e.strerror else e
    return InvalidInputError(f"cannot {action} {path}: {reason}")


def _read_input(path: str | None) -> str:
    stdin = path is None or path == "-"
    try:
        return sys.stdin.read() if stdin else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise _file_error("read", "standard input" if stdin else path, e) from None


def _write_output(path: str | None, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise _file_error("write", path, e) from None


def _cmd_gen(args) -> int:
    if args.shape in ("random", "serpentine", "balanced_rounds"):
        if args.shape == "balanced_rounds":
            size = args.n  # rounds, not vertices
        else:
            if args.n < args.dim + 1:
                raise InvalidInputError(
                    f"need at least {args.dim + 1} vertices, got n={args.n}"
                )
            size = args.n - args.dim  # one stacking per extra vertex
        tree = gen_tree(args.shape, args.dim, size, args.seed)
        _write_output(args.output, tree_to_json(tree))
    else:  # b3 or gamma: argparse's choices admit no other shape
        if args.dim != 3:
            raise InvalidInputError(f"shape {args.shape} is 3-dimensional only")
        g = gen_lowerbound_graph(args.shape, args.n)
        _write_output(args.output, g.to_json())
    return 0


def _cmd_balance(args) -> int:
    tree = parse_tree(_read_input(args.input))
    wt = balance_weights(tree)
    doc = {
        "dim": tree.dim,
        "tree": to_nested(tree),
        "weights": list(wt.weight),
        "root_weight": wt.root_weight,
    }
    _write_output(args.output, dump_json(doc))
    return 0


def _parse_base(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InvalidInputError(
            f"--base must be comma-separated vertex ids, got {text!r}"
        ) from None


def _cmd_realize(args) -> int:
    obj = load_json(_read_input(args.input))
    if isinstance(obj, dict) and "tree" in obj:
        tree = tree_from_doc(obj)
        if args.base is not None:
            raise InvalidInputError("--base applies to graph inputs only")
    elif isinstance(obj, dict) and "edges" in obj:
        graph = graph_from_doc(obj)
        tree = tree_from_graph(graph, None if args.base is None else _parse_base(args.base))
    else:
        raise InvalidInputError("input is neither a tree nor a graph document")
    # rejected before the pipeline runs, so that no report is written either
    if args.format == "off" and tree.dim != 3:
        raise InvalidInputError(f"OFF output needs dimension 3, got {tree.dim}")
    realization, report = run_pipeline(tree)
    if args.report:
        _write_output(args.report, report_to_json(report))
    if args.format == "off":
        _write_output(args.output, emit_off(realization))
    else:
        doc = {"realization": realization_doc(realization), "report": report_doc(report)}
        _write_output(args.output, json.dumps(doc, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    realization = realization_from_json(_read_input(args.input))
    tree = None
    if args.tree:
        tree = parse_tree(_read_input(args.tree))
    cert = make_certificate(realization, tree)
    _write_output(args.output, json.dumps(jsonable(cert), sort_keys=True))
    return 0 if cert.ok else 3


def _fmt_exp(x: float) -> str:
    s = f"{math.ceil(x * 100) / 100:.2f}"
    return s.rstrip("0").rstrip(".")


def _cmd_stats(args) -> int:
    lines = ["d coordinate_exponent height_exponent"]
    for d in range(3, 11):
        e = math.log2(2 * d)
        lines.append(f"{d} {_fmt_exp(2 * e)} {_fmt_exp(3 * e)}")
    _write_output(args.output, "\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridlift",
        description="Integer-coordinate realizations of stacked polytopes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a stacking tree or lower-bound graph")
    g.add_argument("--shape", required=True,
                   choices=["random", "serpentine", "balanced_rounds", "b3", "gamma"])
    g.add_argument("--dim", type=int, default=3)
    g.add_argument("--n", type=int, default=0,
                   help="vertex count (random/serpentine/gamma); rounds for balanced_rounds")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", default=None)
    g.set_defaults(func=_cmd_gen)

    b = sub.add_parser("balance", help="compute balanced face weights for a tree")
    b.add_argument("--input", default=None)
    b.add_argument("--output", default=None)
    b.set_defaults(func=_cmd_balance)

    r = sub.add_parser("realize", help="run the full pipeline on a tree or graph")
    r.add_argument("--input", default=None)
    r.add_argument("--output", default=None)
    r.add_argument("--report", default=None, help="also write the report JSON here")
    r.add_argument("--format", choices=["json", "off"], default="json")
    r.add_argument("--base", default=None,
                   help="comma-separated base facet vertex ids for graph inputs")
    r.set_defaults(func=_cmd_realize)

    v = sub.add_parser("verify", help="re-certify a realization JSON")
    v.add_argument("--input", default=None)
    v.add_argument("--tree", default=None, help="tree JSON for the combinatorial check")
    v.add_argument("--output", default=None)
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("stats", help="print the coordinate-size exponent table")
    s.add_argument("--output", default=None)
    s.set_defaults(func=_cmd_stats)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every option takes one str or int, but argparse can read an option
        # given "--" as its value (--base=--) as an empty list
        for name, value in vars(args).items():
            if name != "func" and type(value) not in (str, int, type(None)):
                raise InvalidInputError(f"--{name} needs a value")
        return args.func(args)
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (StageInvariantError, GeometryError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, StageInvariantError):
            failure = {"stage": e.stage, "message": e.message, "witness": jsonable(e.witness)}
        else:
            failure = {"stage": None, "message": str(e), "witness": None}
        print(json.dumps(failure, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
