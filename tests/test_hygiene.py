"""Source hygiene checks that need no linter: the standard library's ast."""

import ast
import dataclasses
import functools
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

import gridlift
from gridlift.facets import TreeRep, facet_layout
from gridlift.flat import FlatComplex, build_flat
from gridlift.lifting import adjusted_shifts, build_lifted, direct_stresses, lift_heights
from gridlift.rounding import check_volume_ratios, grid_params, perturb_flat, round_and_scale
from gridlift.trees import balance_weights

PACKAGE_DIR = Path(gridlift.__file__).parent
TESTS_DIR = Path(__file__).parent
# __init__ imports names to re-export them
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(TESTS_DIR.glob("*.py"))
BENCHMARKS = sorted((TESTS_DIR.parent / "benchmarks").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never mentions again."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def top_level_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each function, class and name assigned at top level,
    dunders left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(
                (node.lineno, n.id)
                for t in targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name)
            )
    return [(line, name) for line, name in out if not name.startswith("__")]


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes and imported names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


@functools.cache
def names_read_anywhere() -> frozenset[str]:
    paths = [PACKAGE_DIR / "__init__.py", *MODULES, *TESTS, *BENCHMARKS]
    return frozenset().union(*(read_names(p.read_text()) for p in paths))


def package_imports(path: Path) -> set[str]:
    """The package modules a module imports, as `from .x import y` or
    `from . import x`."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
    return out


# test file stems (test_*, conftest) never clash with module stems
@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_top_level_name_is_read(path):
    # a definition that nothing in the package, the tests or the benchmark
    # reads is dead code
    read = names_read_anywhere()
    unread = [
        f"line {line}: {name}"
        for line, name in top_level_names(path.read_text())
        if name not in read
    ]
    assert unread == []


def test_package_reads_what_it_defines():
    # the names nothing in src reads are test references the benchmark's
    # tracer still wraps by name; they move out with the tracer's refresh,
    # and any other code in src that only tests use fails here
    read = frozenset().union(
        *(read_names(p.read_text()) for p in [PACKAGE_DIR / "__init__.py", *MODULES])
    )
    unread = sorted(
        f"{path.stem}.{name}"
        for path in MODULES
        for _, name in top_level_names(path.read_text())
        if name not in read
    )
    assert unread == [
        "exact.stress_of_ridge",
        "verify.verify_convexity_global",
        "verify.verify_convexity_stress",
    ]


def test_detects_unread_name():
    source = "X = 1\nY: int = 2\n__all__ = []\n\nclass A:\n    pass\n\ndef f():\n    return X\n"
    assert top_level_names(source) == [(1, "X"), (2, "Y"), (5, "A"), (8, "f")]
    assert read_names(source) >= {"X"}
    assert {"Y", "A", "f"}.isdisjoint(read_names(source))


def names_in_body(source: str, function: str) -> set[str]:
    """Names and attributes a top-level function's body mentions; its
    signature's annotations left out."""
    node = next(
        n for n in ast.parse(source).body
        if isinstance(n, ast.FunctionDef) and n.name == function
    )
    out = set()
    for stmt in node.body:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


# the flat stage holds integer columns and brackets from placement to
# output, and heights and stresses are integer pairs from the brackets to
# the gates: a Fraction in these bodies would bring back one normalisation
# per vertex or per ridge
@pytest.mark.parametrize("module,function", [
    ("flat", "build_flat"),
    ("flat", "stacked_column"),
    ("rounding", "perturb_flat"),
    ("exact", "_eliminate"),
    ("exact", "maximal_minors"),
    ("exact", "facet_planes"),
    ("exact", "ridge_stresses"),
    ("lifting", "direct_stresses"),
    ("lifting", "lift_heights"),
    ("lifting", "incremental_stresses"),
    ("lifting", "build_lifted"),
    ("lifting", "adjusted_shifts"),
    ("rounding", "grid_params"),
])
def test_lift_kernels_build_no_fraction(module, function):
    source = (PACKAGE_DIR / f"{module}.py").read_text()
    assert "Fraction" not in names_in_body(source, function)


def test_flat_stages_build_no_fraction_at_runtime(monkeypatch):
    # the ast check above sees names only; this one counts the Fractions
    # the flat stage, the perturbation, the shifts, both stress routes and
    # the stress kernel construct, per facet and per ridge, on both
    # complexes lifted by integer shifts to rational heights
    tree = gridlift.gen_tree("random", 4, 12, 1)
    wt = balance_weights(tree)
    flat = build_flat(wt)
    complexes = (flat, perturb_flat(flat))
    zeta = {v: 3 + 2 * i for i, v in enumerate(flat.tree.interior_ids)}
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    build_flat(wt)
    perturb_flat(flat)
    for complex_ in complexes:
        # rows at rational heights: some D > 1
        rows = lift_heights(complex_, zeta)
        assert any(r[0] > 1 for r in rows)
        # exact.facet_planes and exact.ridge_stresses underneath
        direct_stresses(complex_, rows)
        shifts = adjusted_shifts(complex_)
        assert all(type(v) is int for v in shifts.values())
        # the shifts, both stress routes and their cross-check
        rows, extrema = build_lifted(complex_)
        assert any(r[0] > 1 for r in rows)
        assert all(type(x) is int for r in rows for x in r)
        # the extrema stay integer pairs until a gate divides them
        assert all(type(x) is int for n, den, _ in extrema for x in (n, den))
    assert built == []


def test_replay_builds_no_ridge_key():
    # build_flat numbers every vertex, node facet and ridge once: the stress
    # replay indexes its table by those numbers, and the flat stage's facets
    # and ridge table come from the same walk, not from a second replay of
    # the tree or a second pass that sorts every facet's ridges; those two
    # are the certificate's
    source = (PACKAGE_DIR / "lifting.py").read_text()
    assert {"sorted", "tuple"}.isdisjoint(names_in_body(source, "incremental_stresses"))
    flat_reads = read_names((PACKAGE_DIR / "flat.py").read_text())
    assert {"build_ridge_adjacency", "facet_layout"}.isdisjoint(flat_reads)


def test_gates_read_extrema_not_tables():
    # build_lifted keeps the three extrema the gates read in its one
    # cross-check pass, so no stress table leaves it: the round stage reads
    # no ridge table and frees none, and no second walk picks the extrema
    source = (PACKAGE_DIR / "rounding.py").read_text()
    assert "ridge_adjacency" not in read_names(source)
    assert not any(isinstance(node, ast.Delete) for node in ast.walk(ast.parse(source)))
    assert not hasattr(gridlift.lifting, "stress_extrema")


def test_lift_places_vertices_with_the_flat_rule():
    # one placement kernel: the lift places each stacked vertex with
    # flat.stacked_column, one coordinate up, and converts no format, so it
    # takes no lcm of its own; and one point format, D first, from the base
    # simplex on
    read = read_names((PACKAGE_DIR / "lifting.py").read_text())
    assert "stacked_column" in read
    assert "lcm" not in read
    assert not hasattr(gridlift.lifting, "lifted_rows")
    assert not hasattr(gridlift.lifting, "Heights")
    for d in range(3, 8):
        flat = build_flat(balance_weights(gridlift.gen_tree("random", d, 3, d)))
        assert flat.coords[0] == (1,) + (0,) * (d - 1)
        assert perturb_flat(flat).coords[0] == (1,) + (0,) * (d - 1)


def test_detects_fraction_in_body():
    source = (
        "import fractions\nfrom fractions import Fraction\n\n"
        "def f(x: Fraction) -> Fraction:\n    return x\n\n"
        "def g(x):\n    return Fraction(x)\n\n"
        "def h(x):\n    return fractions.Fraction(x)\n"
    )
    assert "Fraction" not in names_in_body(source, "f")
    assert "Fraction" in names_in_body(source, "g")
    assert "Fraction" in names_in_body(source, "h")


def package_closure(module: str) -> set[str]:
    """The package modules a module imports, directly or through others."""
    seen: set[str] = set()
    todo = [module]
    while todo:
        new = package_imports(PACKAGE_DIR / f"{todo.pop()}.py") - seen
        seen |= new
        todo += new
    return seen


def test_verify_imports_no_construction_stage():
    # what a certificate trusts: verify and every module it imports, directly
    # or not; trees (reading, generating and balancing trees) is not one
    assert package_closure("verify") == {"errors", "exact", "facets"}
    assert package_imports(PACKAGE_DIR / "facets.py") == {"errors"}


def test_trusted_base_stays_small():
    # the lines a certificate has to trust: verify and its import closure
    trusted = {"verify"} | package_closure("verify")
    lines = sum(len((PACKAGE_DIR / f"{m}.py").read_text().splitlines()) for m in trusted)
    assert lines <= 906


@pytest.mark.parametrize("module", ["lifting", "rounding", "pipeline"])
def test_construction_has_no_stress_rule_of_its_own(module):
    # one per-ridge stress rule, exact.ridge_stresses, serves the
    # construction and the certificate: a construction module that takes
    # determinant minors itself would be a second one
    read = read_names((PACKAGE_DIR / f"{module}.py").read_text())
    assert {"maximal_minors", "cramer_numerators"}.isdisjoint(read)


def public_functions(module: str) -> list:
    """(name, function) of each public function a package module binds."""
    functions = [
        (name, value)
        for name, value in vars(getattr(gridlift, module)).items()
        if inspect.isfunction(value) and not name.startswith("_")
    ]
    assert functions
    return functions


@pytest.mark.parametrize("module", ["lifting", "rounding"])
def test_stages_take_no_tree_beside_the_complex(module):
    # the complex carries the tree it embeds, so a tree argument could only
    # disagree with it
    for name, function in public_functions(module):
        assert "tree" not in inspect.signature(function).parameters, name


@pytest.mark.parametrize("module", ["lifting", "rounding"])
def test_stages_take_no_fraction(module):
    # shifts, grid steps and stresses enter the lift and round stages as
    # integers or integer pairs; only the values they report are Fractions
    for name, function in public_functions(module):
        for param in inspect.signature(function).parameters.values():
            assert "Fraction" not in str(param.annotation), (name, param.name)


def test_complex_and_grid_params_hold_no_duplicate_fields():
    # the tree and L fix everything else: d, R_eff and the facet table are
    # properties, and the vertex ids are read from node_facets
    fields = [f.name for f in dataclasses.fields(FlatComplex)]
    assert fields == [
        "coords", "ridge_adjacency", "node_facets", "node_ridges", "node_brackets",
        "bracket_scale", "tree", "L",
    ]
    # facet_layout, the certificate's and the graph writer's replay of the
    # tree, is a plain node -> facet dict, with no stacked-vertex map beside it
    assert type(facet_layout(TreeRep(3, [(1, 2, 3), (), (), ()]))) is dict
    assert list(inspect.signature(grid_params).parameters) == ["d", "L"]
    # the complex fixes its shifts and its grid steps 1/inv and 1/inv_z, so
    # each lift and round stage takes the complexes alone, and the steps
    # have no holder that a caller could pass a second grid in
    stages = {
        build_lifted: ["flat"],
        perturb_flat: ["flat"],
        check_volume_ratios: ["exact", "perturbed"],
        round_and_scale: ["perturbed"],
    }
    for function, params in stages.items():
        assert list(inspect.signature(function).parameters) == params, function.__name__
    assert not hasattr(gridlift.rounding, "GridParams")
    # the pipeline reports the grid from the realization's metadata: only
    # lifting and rounding know the shift and grid formulas
    pipeline_reads = read_names((PACKAGE_DIR / "pipeline.py").read_text())
    assert not pipeline_reads & {"adjusted_shifts", "grid_params"}


def stack_walks(source: str) -> list[str]:
    """Top-level functions holding an explicit-stack walk: a while loop
    that pops the list it tests."""
    out = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for loop in ast.walk(fn):
            if isinstance(loop, ast.While) and isinstance(loop.test, ast.Name) and any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "pop"
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id == loop.test.id
                for n in ast.walk(loop)
            ):
                out.append(fn.name)
    return out


def test_one_walk_numbers_every_tree():
    # the preorder numbering every output vertex id follows from is written
    # once: each tree builder hands _grow how an item expands, and both
    # graph builders stack a vertex with _stack
    source = (PACKAGE_DIR / "trees.py").read_text()
    assert stack_walks(source) == ["_grow"]
    assert not hasattr(gridlift.trees, "_preorder")
    assert not hasattr(gridlift.trees, "_expand")
    for function in ["tree_from_nested", "gen_tree", "tree_from_graph"]:
        assert "_grow" in names_in_body(source, function), function
    for function in ["graph_from_tree", "_stack_face"]:
        assert "_stack" in names_in_body(source, function), function


def test_detects_stack_walk():
    source = (
        "def f(root):\n    stack = [root]\n    while stack:\n        v = stack.pop()\n\n"
        "def g(xs):\n    while xs and xs[-1]:\n        xs.pop()\n\n"
        "def h(u, up):\n    while u in up:\n        u = up.pop(u)\n"
    )
    assert stack_walks(source) == ["f"]


def code_runners(source: str) -> list:
    """The top-level function or class around each exec or eval call, None
    for a call at module level."""
    out = []
    for node in ast.parse(source).body:
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and (
                getattr(call.func, "id", None) in ("exec", "eval")
                or getattr(call.func, "attr", None) in ("exec", "eval")
            ):
                out.append(node.name if named else None)
    return out


def test_only_the_expansion_compiles_source():
    # exact._expansion builds its source from a matrix shape alone; any other
    # exec or eval could let input data reach compiled code
    found = [
        (path.stem, name)
        for path in [PACKAGE_DIR / "__init__.py", *MODULES]
        for name in code_runners(path.read_text())
    ]
    assert found == [("exact", "_expansion")]


def test_detects_code_runner():
    source = (
        "def f(s):\n    exec(s, {})\n\n"
        "class A:\n    def g(self, s):\n        return builtins.eval(s)\n\n"
        "X = eval('1')\n"
        "def h(s):\n    return s.evaluate()\n"
    )
    assert code_runners(source) == ["f", "A", None]


def test_tree_is_one_child_table():
    # node 0 is the root and ids are preorder: a root or parent field
    # could only disagree with the child table
    assert [f.name for f in dataclasses.fields(TreeRep)] == ["dim", "children"]


def test_polytope_graph_is_vertex_count_and_adjacency():
    # all a graph's JSON carries: a face list beside it would let a graph
    # realize one way in memory and another after a JSON round trip
    assert [f.name for f in dataclasses.fields(gridlift.PolytopeGraph)] == ["n", "adjacency"]
    for path in MODULES:
        attrs = {n.attr for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Attribute)}
        assert "faces" not in attrs, path.stem


def test_complex_carries_its_tree():
    wt = balance_weights(gridlift.gen_tree("random", 4, 6, 2))
    flat = build_flat(wt)
    assert flat.tree is wt.tree
    perturbed = perturb_flat(flat)
    assert perturbed.tree is wt.tree
    for complex_ in (flat, perturbed):
        assert complex_.d == wt.tree.dim
        assert complex_.R_eff == complex_.L ** (complex_.d - 1)


def test_detects_unused_import():
    source = "from dataclasses import dataclass, field\nimport os.path\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["line 1: field", "line 2: os"]


# what the benchmark reads as gl.<name>, the entry points README names, and
# the types and errors they return or raise; every other name is imported
# from its own module, so a new export is a reviewed edit of this list
EXPORTS = [
    "Certificate",
    "GeometryError",
    "GridLiftError",
    "InvalidInputError",
    "PipelineReport",
    "PolytopeGraph",
    "Realization",
    "StageInvariantError",
    "TreeRep",
    "emit_off",
    "gen_lowerbound_graph",
    "gen_tree",
    "graph_from_tree",
    "make_certificate",
    "parse_tree",
    "realization_from_json",
    "realization_to_json",
    "realize_graph",
    "report_to_json",
    "run_pipeline",
    "tree_from_graph",
]


def test_package_exports_the_agreed_names():
    assert sorted(gridlift.__all__) == EXPORTS


def test_init_exports_what_it_imports():
    # a name dropped from one list but not the other would linger as an export
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    exported = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    assert sorted(imported) == sorted(exported)
