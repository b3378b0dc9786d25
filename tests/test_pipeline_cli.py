import contextlib
import copy
import dataclasses
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlift import (
    GeometryError,
    InvalidInputError,
    emit_off,
    gen_lowerbound_graph,
    gen_tree,
    graph_from_tree,
    realization_from_json,
    realization_to_json,
    realize_graph,
    report_to_json,
    run_pipeline,
)
from gridlift import exact, lifting, pipeline, rounding
from gridlift.cli import main
from gridlift.facets import BASE_FACET_KEY
from gridlift.serialize import parse_rat, rat_str
from gridlift.trees import graph_from_doc, to_nested, tree_to_json
from reference import package_modules

F = Fraction


class TestPipelineFixture:
    def test_exact_output(self, tet_result):
        realization, report = tet_result
        assert realization.coords == [
            (0, 0, 0),
            (1440, 0, 0),
            (0, 1440, 0),
            (480, 480, 21),
        ]
        assert realization.metadata["R_eff"] == 4
        assert realization.metadata["alpha"] == F(1, 720)
        assert realization.metadata["alpha_z"] == F(1, 12)

    def test_report_values(self, tet_result):
        _, report = tet_result
        assert report.input == {
            "d": 3,
            "n_vertices": 4,
            "interior_nodes": 1,
            "leaves": 3,
        }
        assert report.weights == {"R": 3, "L": 2, "lambda": F(4, 3), "R_eff": 4}
        assert report.grid["alpha"] == F(1, 720)
        assert report.stages["lift"]["min_interior_stress"] == 4
        assert report.stages["lift"]["min_base_stress"] == F(-4, 3)
        assert report.stages["perturb"]["ratio_min"] == 1
        assert report.stages["round"]["z_max"] == F(16, 9)
        assert report.output["n_facets"] == 4
        assert report.certificate.ok

    def test_monitor_floats(self, tet_result):
        _, report = tet_result
        for v in report.monitor.values():
            assert isinstance(v, float) and v > 0

    def test_timing_keys(self, tet_result):
        _, report = tet_result
        assert set(report.timing) == {
            "balance",
            "flat",
            "lift",
            "round",
            "verify",
            "total",
        }

    @pytest.mark.parametrize("shape,d,size", [("random", 3, 30), ("serpentine", 5, 8)])
    def test_three_ridge_stress_passes(self, monkeypatch, shape, d, size):
        # one each for the exact lift, the relift and the certificate, the
        # only check of the snapped heights: every binding of the kernel is
        # counted, as the benchmark's tracer wraps it
        original = exact.ridge_stresses
        calls = []

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        bound = [
            (module, key)
            for module in package_modules()
            for key, value in vars(module).items()
            if value is original
        ]
        assert len(bound) >= 3  # exact, lifting and verify at least
        for module, key in bound:
            monkeypatch.setattr(module, key, counting)
        run_pipeline(gen_tree(shape, d, size, 2))
        assert calls == [d, d, d]


class TestGraphEntry:
    def test_k4_matches_tree_path(self, tet_tree, tet_result):
        realization, _ = tet_result
        g = graph_from_tree(tet_tree)
        r2, rep2, t2 = realize_graph(g, base=(0, 1, 2))
        assert r2.coords == realization.coords
        assert to_nested(t2) == [None, None, None]

    def test_default_base(self, tet_tree):
        g = graph_from_tree(gen_tree("random", 3, 9, seed=12))
        r, rep, t = realize_graph(g)
        assert rep.certificate.ok

    @pytest.mark.parametrize("make", [
        lambda: gen_lowerbound_graph("gamma", 72),
        lambda: graph_from_tree(gen_tree("random", 3, 20, 1001)),
        lambda: graph_from_tree(gen_tree("random", 4, 30, 4)),
    ], ids=["gamma-72", "random-d3", "random-d4"])
    def test_json_round_trip_realizes_the_same(self, make):
        # a graph and its JSON carry the same fields, so the default base,
        # and with it every output byte, is the same
        g = make()
        outputs = []
        for graph in (g, graph_from_doc(json.loads(g.to_json()))):
            realization, report, _ = realize_graph(graph)
            outputs.append(
                (realization_to_json(realization), report_to_json(report, include_timing=False))
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_graph_fixes_its_dimension(self, d):
        # no flag: the edge count d n - d(d+1)/2 gives d, in process and
        # through the CLI, to the bytes of the pipeline on the recovered tree
        tree = gen_tree("random", d, 12, d)
        g = graph_from_tree(tree)
        realization, report, recovered = realize_graph(g)
        assert recovered == tree
        expected = run_pipeline(recovered)
        outputs = (realization_to_json(realization), report_to_json(report, include_timing=False))
        assert outputs == (
            realization_to_json(expected[0]),
            report_to_json(expected[1], include_timing=False),
        )
        doc = json.loads(run_module("realize", stdin=g.to_json()))
        del doc["report"]["timing"]
        assert (
            json.dumps(doc["realization"], sort_keys=True),
            json.dumps(doc["report"], sort_keys=True, separators=(",", ":")),
        ) == outputs


class TestSerialization:
    def test_realization_round_trip(self, tet_result):
        realization, _ = tet_result
        doc = realization_to_json(realization)
        again = realization_from_json(doc)
        assert again.coords == realization.coords
        assert again.facets == realization.facets
        assert again.base_facet == realization.base_facet
        assert again.metadata["alpha"] == realization.metadata["alpha"]

    @pytest.mark.parametrize("shape,d,size", [("random", 3, 20), ("serpentine", 5, 6)])
    def test_metadata_round_trips(self, shape, d, size):
        realization, _ = run_pipeline(gen_tree(shape, d, size, 1))
        again = realization_from_json(realization_to_json(realization))
        assert again.metadata == realization.metadata
        for x in (F(-3, 4), F(5), F(0), F(10**60 + 1, 7), -12):
            assert parse_rat(rat_str(x)) == x

    @pytest.mark.parametrize("text", [
        "1e5", "1.5", " 1", "1_000", "+-1", "1/", "/2", "3/0",
        # Fraction reads these, but rat_str writes them "1/2", "7", "3", "0", "1", "0"
        "2/4", "007", "+3", "-0", "1/1", "0/5",
    ])
    def test_parse_rat_takes_only_what_rat_str_writes(self, text):
        with pytest.raises(InvalidInputError, match="bad rational"):
            parse_rat(text)

    def test_report_contains_exact_rationals(self, tet_result):
        _, report = tet_result
        text = report_to_json(report)
        assert '"alpha":"1/720"' in text
        assert '"alpha_z":"1/12"' in text
        assert '"lambda":"4/3"' in text

    def test_reports_deterministic_modulo_timing(self, tet_tree):
        _, r1 = run_pipeline(tet_tree)
        _, r2 = run_pipeline(tet_tree)
        assert report_to_json(r1, include_timing=False) == report_to_json(
            r2, include_timing=False
        )


class TestOffEmitter:
    def test_fixture_mesh(self, tet_result):
        realization, _ = tet_result
        off = emit_off(realization)
        lines = off.strip().split("\n")
        assert lines[0] == "OFF"
        assert lines[1] == "4 4 0"
        coords = [tuple(map(int, ln.split())) for ln in lines[2:6]]
        assert coords == [(0, 0, 0), (1440, 0, 0), (0, 1440, 0), (480, 480, 21)]
        faces = [tuple(map(int, ln.split()))[1:] for ln in lines[6:]]
        assert len(faces) == 4

    def test_orientation_uniform(self, tet_result):
        realization, _ = tet_result
        off = emit_off(realization)
        lines = off.strip().split("\n")
        nv, nf, _ = map(int, lines[1].split())
        coords = [tuple(map(int, ln.split())) for ln in lines[2 : 2 + nv]]
        centroid_scaled = tuple(sum(p[i] for p in coords) for i in range(3))

        def vol(a, b, c, p):
            rows = [
                [coords[b][j] - coords[a][j] for j in range(3)],
                [coords[c][j] - coords[a][j] for j in range(3)],
                [p[j] - len(coords) * coords[a][j] for j in range(3)],
            ]
            return (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )

        for ln in lines[2 + nv :]:
            parts = list(map(int, ln.split()))
            assert parts[0] == 3
            a, b, c = parts[1:]
            assert vol(a, b, c, centroid_scaled) < 0

    def test_larger_mesh_counts(self):
        tree = gen_tree("random", 3, 10, seed=2)
        realization, _ = run_pipeline(tree)
        off = emit_off(realization)
        lines = off.strip().split("\n")
        nv, nf, _ = map(int, lines[1].split())
        assert nv == 13
        assert nf == 22
        assert len(lines) == 2 + nv + nf

    def test_rejects_higher_dim(self):
        tree = gen_tree("random", 4, 3, seed=0)
        realization, _ = run_pipeline(tree)
        with pytest.raises(Exception):
            emit_off(realization)


class TestCli:
    def test_gen_balance_realize_verify(self, tmp_path, capsys):
        tree_f = tmp_path / "tree.json"
        real_f = tmp_path / "real.json"
        rep_f = tmp_path / "report.json"
        assert main(["gen", "--shape", "random", "--dim", "3", "--n", "10",
                     "--seed", "4", "--output", str(tree_f)]) == 0
        assert main(["balance", "--input", str(tree_f)]) == 0
        weights = json.loads(capsys.readouterr().out)
        assert weights["root_weight"] >= 3
        k = 10 - 3  # interior nodes of a 10-vertex tree
        assert len(weights["weights"]) == k + (2 * k + 1)  # interiors + leaves

        assert main(["realize", "--input", str(tree_f), "--output", str(real_f),
                     "--report", str(rep_f)]) == 0
        doc = json.loads(real_f.read_text())
        assert doc["report"]["certificate"]["ok"] is True
        rep = json.loads(rep_f.read_text())
        assert rep["certificate"]["ok"] is True

        only_real = tmp_path / "only_real.json"
        only_real.write_text(json.dumps(doc["realization"]))
        assert main(["verify", "--input", str(only_real),
                     "--tree", str(tree_f)]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["ok"] is True

        # the combined realize output must verify as-is, unwrapped
        assert main(["verify", "--input", str(real_f),
                     "--tree", str(tree_f)]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["ok"] is True

    def test_graph_input(self, tmp_path):
        graph_f = tmp_path / "g.json"
        out_f = tmp_path / "r.json"
        assert main(["gen", "--shape", "b3", "--output", str(graph_f)]) == 0
        assert main(["realize", "--input", str(graph_f), "--output", str(out_f)]) == 0
        doc = json.loads(out_f.read_text())
        assert len(doc["realization"]["facets"]) + 1 == 36

    @pytest.mark.parametrize("doc", [
        tree_to_json(gen_tree("random", 4, 6, 2)),
        graph_from_tree(gen_tree("random", 3, 6, 2)).to_json(),
    ], ids=["tree", "graph"])
    def test_realize_decodes_once(self, tmp_path, capsys, monkeypatch, doc):
        """The input is decoded once and the combined output is built from
        the realization's and report's documents, not re-read from text."""
        in_f = tmp_path / "in.json"
        in_f.write_text(doc)
        calls = []
        loads = json.loads

        def counting_loads(*args, **kwargs):
            calls.append(args)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        assert main(["realize", "--input", str(in_f)]) == 0
        assert len(calls) == 1
        out = loads(capsys.readouterr().out)
        assert out["report"]["certificate"]["ok"] is True

    def test_off_output(self, tmp_path, tet_tree):
        tree_f = tmp_path / "tet.json"
        tree_f.write_text(tree_to_json(tet_tree))
        off_f = tmp_path / "tet.off"
        assert main(["realize", "--input", str(tree_f), "--format", "off",
                     "--output", str(off_f)]) == 0
        assert off_f.read_text().startswith("OFF\n4 4 0\n")

    @pytest.mark.parametrize("graph", [False, True])
    def test_off_output_of_dim_4_exit_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, graph
    ):
        # a d=4 tree, or the graph of one, is rejected before the pipeline
        # runs: no report file is written
        tree = gen_tree("random", 4, 3, 1)
        in_f = tmp_path / "in.json"
        in_f.write_text(graph_from_tree(tree).to_json() if graph else tree_to_json(tree))
        report_f = tmp_path / "r.json"
        argv = ["realize", "--input", str(in_f), "--format", "off", "--report", str(report_f)]

        def first_stage(tree):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(pipeline, "balance_weights", first_stage)
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: OFF output needs dimension 3, got 4\n"
        assert not report_f.exists()

    @pytest.mark.parametrize("doc", [
        pytest.param('{"dim": 2, "tree": [null, null]}', id="tree_dim_2"),
        pytest.param('{"n": 4, "edges": [5]}', id="edge_not_a_list"),
        pytest.param('{"n": 4, "edges": [[0, 1, 2]]}', id="edge_of_three"),
        pytest.param('{"n": 4, "edges": [["a", "b"]]}', id="string_ids"),
        pytest.param('{"n": 4, "edges": 5}', id="edges_not_a_list"),
        pytest.param('{"n": 4, "edges": [[0.0, 1.0]]}', id="float_ids"),
        pytest.param('{"n": true, "edges": [[0, 1]]}', id="bool_n"),
        pytest.param('{"n": 200000, "edges": []}', id="too_few_edges"),
    ])
    def test_invalid_input_exit_code(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        assert main(["realize", "--input", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bool_tree_dim_exit_2(self, tmp_path, capsys):
        # JSON true is a Python int, but no dimension
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": true, "tree": [null, null, null]}')
        assert main(["realize", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == "error: dimension must be an integer >= 3, got True\n"

    def test_graph_dim_2_exit_2(self, tmp_path, capsys):
        # a base of two ids asks for dimension 2: rejected before the walk,
        # as trees and gen reject it
        graph_f = tmp_path / "b3.json"
        assert main(["gen", "--shape", "b3", "--output", str(graph_f)]) == 0
        assert main(["realize", "--input", str(graph_f), "--base", "0,1"]) == 2
        assert capsys.readouterr().err == "error: dimension must be an integer >= 3, got 2\n"

    def test_realize_has_no_dim_option(self, capsys):
        # a tree names its dimension and a graph fixes its own
        with pytest.raises(SystemExit) as info:
            main(["realize", "--dim", "3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --dim 3" in capsys.readouterr().err

    @pytest.mark.parametrize("base", ["0,1,2", "garbage"])
    def test_base_on_tree_input_exit_2(self, tmp_path, capsys, tet_tree, base):
        # a tree fixes its own base facet: --base would be ignored
        tree_f = tmp_path / "tet.json"
        tree_f.write_text(tree_to_json(tet_tree))
        assert main(["realize", "--input", str(tree_f), "--base", base]) == 2
        assert capsys.readouterr().err == "error: --base applies to graph inputs only\n"

    def test_stage_failure_prints_json_line(self, tmp_path, capsys, monkeypatch, tet_tree):
        # lower the relift's least interior stress only, on an interior
        # ridge: the rounding stage names that ridge, and the CLI passes it
        # on as JSON
        original = rounding.build_lifted
        ridges = []

        def tampered(flat, *args):
            z, (_, *base) = original(flat, *args)
            interior = [
                r for r, keys in flat.ridge_adjacency.items() if keys[0] != BASE_FACET_KEY
            ]
            ridges.append(interior[1])
            return z, ((-1, 1, interior[1]), *base)

        monkeypatch.setattr(rounding, "build_lifted", tampered)
        tree_f = tmp_path / "tet.json"
        tree_f.write_text(tree_to_json(tet_tree))
        assert main(["realize", "--input", str(tree_f)]) == 3
        error, failure, *rest = capsys.readouterr().err.splitlines()
        assert error.startswith("error: [rounding] ")
        assert rest == []
        assert json.loads(failure) == {
            "stage": "rounding",
            "message": "perturbed interior stress -1/518400 below 4/5",
            "witness": list(ridges[0]),
        }

    def test_verify_failure_names_the_ridge(self, tmp_path, capsys, monkeypatch):
        # sink the last stacked vertex to height 1 after snapping: only the
        # certificate checks the snapped surface, and its stress route names
        # the interior ridges that the dent folds the wrong way
        tree = gen_tree("random", 3, 8, 42)
        sunk = tree.n_vertices - 1
        original = pipeline.round_and_scale

        def tampered(*args):
            realization, info = original(*args)
            coords = list(realization.coords)
            coords[sunk] = (*coords[sunk][:-1], 1)
            return dataclasses.replace(realization, coords=coords), info

        monkeypatch.setattr(pipeline, "round_and_scale", tampered)
        tree_f = tmp_path / "tree.json"
        tree_f.write_text(tree_to_json(tree))
        assert main(["realize", "--input", str(tree_f)]) == 3
        error, failure, *rest = capsys.readouterr().err.splitlines()
        assert error.startswith("error: [verify] certificate failed: ")
        assert rest == []
        failure = json.loads(failure)
        assert failure["stage"] == "verify"
        ridges = [
            tuple(int(v) for v in m.group(1).split(", "))
            for w in failure["witness"]
            if (m := re.fullmatch(r"interior ridge \(([\d, ]+)\) has stress .* <= 0", w))
        ]
        assert ridges and all(sunk in ridge for ridge in ridges)

    def test_geometry_failure_prints_json_line(self, tmp_path, capsys, monkeypatch, tet_tree):
        # a GeometryError names no stage and no witness, but still gets its line
        message = "vertical hyperplane: projected facet is degenerate"

        def degenerate(*args):
            raise GeometryError(message)

        monkeypatch.setattr(lifting, "lift_heights", degenerate)
        tree_f = tmp_path / "tet.json"
        tree_f.write_text(tree_to_json(tet_tree))
        assert main(["realize", "--input", str(tree_f)]) == 3
        error, failure, *rest = capsys.readouterr().err.splitlines()
        assert error == f"error: {message}"
        assert rest == []
        assert json.loads(failure) == {"stage": None, "message": message, "witness": None}

    @pytest.mark.parametrize("base", ["1,x", "1,,2", "0.5,1,2", "0,1,99", "1,2", ""])
    def test_bad_base_exit_2(self, tmp_path, capsys, base):
        graph_f = tmp_path / "b3.json"
        assert main(["gen", "--shape", "b3", "--output", str(graph_f)]) == 0
        assert main(["realize", "--input", str(graph_f), "--base", base]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["realize", "--base=--"],
        ["realize", "--input=--"],
        ["realize", "--output=--"],
        ["realize", "--report=--"],
        ["realize", "--format=--"],
        ["gen", "--shape", "random", "--n=--"],
        ["gen", "--shape", "random", "--dim=--"],
    ], ids=["base", "input", "output", "report", "format", "n", "dim"])
    def test_option_given_dashes(self, tmp_path, capsys, monkeypatch, tet_tree, argv):
        # argparse hands "--opt=--" over as [] on some interpreters and as
        # the string "--" on others: either way an exit 2 with an error
        # line, or an exit 0 that wrote a file named "--", never a traceback;
        # a graph on stdin, as --base applies to graphs only
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO(graph_from_tree(tet_tree).to_json()))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage error
            code = exc.code
        err = capsys.readouterr().err
        if code == 0:
            assert (tmp_path / "--").is_file()
        else:
            assert code == 2 and "error: " in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("n", ["100", "19", "-20"])
    def test_b3_with_another_n_exit_2(self, capsys, n):
        assert main(["gen", "--shape", "b3", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: b3 has 20 vertices, got n={n}\n"

    @pytest.mark.parametrize("argv", [[], ["--n", "0"], ["--n", "20"]], ids=["default", "0", "20"])
    def test_b3_default_or_20_gives_the_graph(self, capsys, argv):
        assert main(["gen", "--shape", "b3", *argv]) == 0
        assert capsys.readouterr().out == gen_lowerbound_graph("b3").to_json() + "\n"

    def test_deep_tree_exit_2(self, tmp_path, capsys, tet_result):
        # nested tree JSON nests one level per stacking of a serpentine chain
        assert main(["gen", "--shape", "serpentine", "--n", "1500"]) == 2
        assert "nesting limit" in capsys.readouterr().err
        deep = tmp_path / "deep.json"
        deep.write_text('{"dim": 3, "tree": ' + "[" * 1500 + "]" * 1500 + "}")
        for command in ("realize", "balance", "verify"):
            assert main([command, "--input", str(deep)]) == 2
            assert "nesting limit" in capsys.readouterr().err
        real_f = tmp_path / "r.json"
        real_f.write_text(realization_to_json(tet_result[0]))
        assert main(["verify", "--input", str(real_f), "--tree", str(deep)]) == 2
        assert "nesting limit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,culprit", [
        (["realize", "--input", "{missing}"], "read {missing}"),
        (["realize", "--input", "{directory}"], "read {directory}"),
        (["realize", "--input", "{undecodable}"], "read {undecodable}"),
        (["verify", "--input", "{undecodable}"], "read {undecodable}"),
        (["gen", "--shape", "random", "--n", "6", "--output", "{nowhere}"],
         "write {nowhere}"),
        (["realize", "--input", "{tree}", "--report", "{nowhere}"], "write {nowhere}"),
        (["verify", "--input", "{realization}", "--tree", "{missing}"], "read {missing}"),
    ], ids=[
        "realize_missing", "realize_directory", "realize_undecodable",
        "verify_undecodable", "gen_output_nowhere", "realize_report_nowhere",
        "verify_tree_missing",
    ])
    def test_file_error_exit_2(self, tmp_path, capsys, tet_tree, tet_result, argv, culprit):
        # a file that cannot be read, decoded or written is invalid input
        # whose message names the path, not a traceback
        paths = {
            "missing": tmp_path / "missing.json",
            "directory": tmp_path,
            "undecodable": tmp_path / "undecodable.json",
            "nowhere": tmp_path / "no_such_dir" / "out.json",
            "tree": tmp_path / "tet.json",
            "realization": tmp_path / "r.json",
        }
        paths["undecodable"].write_bytes(b"\xff{}")
        paths["tree"].write_text(tree_to_json(tet_tree))
        paths["realization"].write_text(realization_to_json(tet_result[0]))
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot {culprit.format(**paths)}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gen", "--shape", "random", "--n", "6"],
        ["balance", "--input", "{tree}"],
        ["realize", "--input", "{tree}"],
        ["realize", "--input", "{tree}", "--output", "{out}", "--report", "-"],
        ["verify", "--input", "{realization}"],
        ["stats"],
    ], ids=["gen", "balance", "realize", "realize_report", "verify", "stats"])
    def test_closed_stdout_exit_2(self, tmp_path, tet_tree, tet_result, argv):
        # standard output is a pipe whose read end is closed before the
        # write: invalid output, not a traceback, and nothing more at exit
        paths = {
            "tree": tmp_path / "tet.json",
            "realization": tmp_path / "r.json",
            "out": tmp_path / "out.json",
        }
        paths["tree"].write_text(tree_to_json(tet_tree))
        paths["realization"].write_text(realization_to_json(tet_result[0]))
        src = Path(__file__).resolve().parents[1] / "src"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "gridlift", *(a.format(**paths) for a in argv)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert done.stderr.startswith("error: cannot write standard output: ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    def test_no_stdout_exit_2(self):
        # descriptor 1 closed before the interpreter starts: sys.stdout is None
        src = Path(__file__).resolve().parents[1] / "src"
        start = "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])"
        done = subprocess.run(
            [sys.executable, "-c", start, sys.executable, "-m", "gridlift", "stats"],
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr == "error: cannot write standard output: it is closed\n"

    @pytest.mark.parametrize("command", ["realize", "verify"])
    @pytest.mark.parametrize("doc", [
        '{"dim": 3, "tree": %s}',
        '{"dim": 3, "coords": [[%s, 0, 0]], "facets": [], "base_facet": [0, 0, 0]}',
    ], ids=["tree_value", "coordinate"])
    def test_overlong_integer_exit_2(self, tmp_path, capsys, command, doc):
        # past int()'s digit limit json.loads raises a plain ValueError
        f = tmp_path / "long.json"
        f.write_text(doc % ("9" * 5000))
        assert main([command, "--input", str(f)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON: ")

    def test_exponent_rational_exit_2_quickly(self, tmp_path, capsys, tet_result):
        # Fraction("1e10000000") would expand ten million digits
        doc = json.loads(realization_to_json(tet_result[0]))
        doc["metadata"]["alpha"] = "1e10000000"
        f = tmp_path / "exp.json"
        f.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["verify", "--input", str(f)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "error: bad rational '1e10000000'\n"

    def test_verify_failure_exit_code(self, tmp_path, tet_result, capsys):
        realization, _ = tet_result
        coords = [list(p) for p in realization.coords]
        coords[3][2] = -coords[3][2]
        bad = dataclasses.replace(
            realization, coords=[tuple(p) for p in coords]
        )
        f = tmp_path / "bad_real.json"
        f.write_text(realization_to_json(bad))
        assert main(["verify", "--input", str(f)]) == 3
        cert = json.loads(capsys.readouterr().out)
        assert cert["ok"] is False
        assert cert["convex_by_stress"] is False

    def test_verify_extra_vertex_fails(self, tmp_path, capsys):
        tree = gen_tree("random", 3, 20, 3)
        realization, _ = run_pipeline(tree)
        doc = json.loads(realization_to_json(realization))
        n = len(doc["coords"])
        doc["coords"].append([sum(p[i] for p in doc["coords"]) // n for i in range(3)])
        real_f = tmp_path / "real.json"
        tree_f = tmp_path / "tree.json"
        real_f.write_text(json.dumps(doc))
        tree_f.write_text(tree_to_json(tree))
        assert main(["verify", "--input", str(real_f), "--tree", str(tree_f)]) == 3
        cert = json.loads(capsys.readouterr().out)
        assert cert["convex_global"] is False
        assert cert["combinatorics_ok"] is False

    @pytest.mark.parametrize("case", [
        "vertex_id_out_of_range",
        "negative_vertex_id",
        "repeated_vertex_id",
        "short_base_facet",
        "facet_arity_2",
        "half_integer_coordinate",
        "float_coordinate",
        "bool_coordinate",
        "string_coordinate",
        "short_coordinate_row",
        "bool_dim",
        "missing_facets",
        "facet_not_a_pair",
        "base_key_collision",
        "negative_facet_key",
        "metadata_not_object",
        "r_eff_not_integer",
        "not_an_object",
    ])
    def test_verify_malformed_realization_exit_2(self, tmp_path, tet_result,
                                                 case, capsys):
        realization, _ = tet_result
        doc = json.loads(realization_to_json(realization))
        if case == "vertex_id_out_of_range":
            doc["facets"][0][1][0] = len(doc["coords"])
        elif case == "negative_vertex_id":
            doc["facets"][0][1][0] = -1
        elif case == "repeated_vertex_id":
            doc["facets"][0][1][1] = doc["facets"][0][1][0]
        elif case == "short_base_facet":
            doc["base_facet"] = doc["base_facet"][:2]
        elif case == "facet_arity_2":
            doc["facets"][0][1] = doc["facets"][0][1][:2]
        elif case == "half_integer_coordinate":
            doc["coords"][3][0] += 0.5
        elif case == "float_coordinate":
            doc["coords"][3][0] = float(doc["coords"][3][0])
        elif case == "bool_coordinate":
            doc["coords"][0][0] = False
        elif case == "string_coordinate":
            doc["coords"][0][0] = "0"
        elif case == "short_coordinate_row":
            doc["coords"][0] = doc["coords"][0][:2]
        elif case == "bool_dim":
            doc["dim"] = True
        elif case == "missing_facets":
            del doc["facets"]
        elif case == "facet_not_a_pair":
            doc["facets"][0] = doc["facets"][0][1]
        elif case == "base_key_collision":
            doc["facets"][0][0] = BASE_FACET_KEY
        elif case == "negative_facet_key":
            doc["facets"][0][0] = -7
        elif case == "metadata_not_object":
            doc["metadata"] = []
        elif case == "r_eff_not_integer":
            doc["metadata"]["R_eff"] = [4]
        elif case == "not_an_object":
            doc = [doc]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_runs_as_a_module(self):
        out = run_module("stats")
        assert out.startswith("d coordinate_exponent height_exponent\n")

    def test_piped_gamma_gives_the_in_process_bytes(self):
        # gen | realize reads the graph from JSON, with nothing the
        # generator knew beside it
        doc = json.loads(run_module("realize", stdin=run_module("gen", "--shape", "gamma", "--n", "72")))
        realization, report, _ = realize_graph(gen_lowerbound_graph("gamma", 72))
        assert json.dumps(doc["realization"], sort_keys=True) == realization_to_json(realization)
        del doc["report"]["timing"]
        assert json.dumps(doc["report"], sort_keys=True, separators=(",", ":")) == report_to_json(
            report, include_timing=False
        )

    def test_complete_graph_minus_a_matching_exit_2(self, tmp_path, capsys):
        # K_200 less a perfect matching has 19800 edges: d^2 - 399 d + 39600
        # has discriminant 801, no square, so no dimension fits the count
        f = tmp_path / "k200.json"
        edges = [[u, v] for u in range(200) for v in range(u + 1, 200) if u // 2 != v // 2]
        assert len(edges) == 19800
        f.write_text(json.dumps({"n": 200, "edges": edges}))
        start = time.perf_counter()
        assert main(["realize", "--input", str(f)]) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == (
            "error: 19800 edges on 200 vertices: a stacked d-polytope "
            "has d n - d(d+1)/2 for some d >= 3\n"
        )

    def test_stats_table(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        rows = {int(ln.split()[0]): ln.split()[1:] for ln in out[1:]}
        assert rows[3] == ["5.17", "7.76"]
        assert rows[4] == ["6", "9"]
        assert rows[5] == ["6.65", "9.97"]
        assert rows[6] == ["7.17", "10.76"]
        assert rows[7] == ["7.62", "11.43"]
        assert rows[8] == ["8", "12"]
        assert rows[9] == ["8.34", "12.51"]
        assert rows[10] == ["8.65", "12.97"]

    def test_gamma_generation(self, tmp_path):
        g_f = tmp_path / "gamma.json"
        assert main(["gen", "--shape", "gamma", "--n", "72",
                     "--output", str(g_f)]) == 0
        doc = json.loads(g_f.read_text())
        assert doc["n"] == 72
        assert main(["gen", "--shape", "gamma", "--n", "50",
                     "--output", str(g_f)]) == 2


# -- fuzzing the CLI ---------------------------------------------------------

# small valid inputs to mutate: (shape, dim, stackings, seed)
SMALL_TREES = st.tuples(
    st.sampled_from(["random", "serpentine"]),
    st.integers(3, 4),
    st.integers(1, 8),
    st.integers(0, 3),
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(-2, 6),
    st.text(max_size=2),
    st.lists(st.none(), max_size=5),
    st.just({}),
)


@functools.cache
def small_realization_doc(key):
    realization, _ = run_pipeline(gen_tree(*key))
    return json.loads(realization_to_json(realization))


def json_paths(value, prefix=()):
    """Every position in a JSON value, as the key path from its root."""
    yield prefix
    if isinstance(value, list):
        items = enumerate(value)
    elif isinstance(value, dict):
        items = value.items()
    else:
        return
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


@st.composite
def mutated_text(draw, doc):
    """A JSON document with one to three positions replaced, deleted,
    duplicated or, for an integer, nudged; sometimes cut short as text."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(json_paths(doc))[1:] or [None]))
        if path is None:
            break
        *route, key = path
        parent = functools.reduce(lambda v, k: v[k], route, doc)
        action = draw(st.sampled_from(["replace", "delete", "duplicate", "nudge"]))
        if action == "nudge":
            if type(parent[key]) is int:
                parent[key] += draw(st.integers(-2, 2))
        elif action == "replace":
            parent[key] = draw(JUNK)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    text = json.dumps(doc)
    if draw(st.booleans()) and draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def run_module(*argv, stdin=None):
    """Stdout of python -m gridlift, run from the source tree without an install."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "gridlift", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_cli(argv):
    """Exit code, stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestCliFuzz:
    @given(
        key=SMALL_TREES,
        as_graph=st.booleans(),
        data=st.data(),
        base=st.one_of(
            st.none(),
            st.lists(st.integers(-1, 12), max_size=4).map(lambda ids: ",".join(map(str, ids))),
            st.text(alphabet="0123,x -.", max_size=6),
        ),
        off=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_realize_mutated_documents(self, fuzz_dir, key, as_graph, data, base, off):
        tree = gen_tree(*key)
        doc = json.loads(graph_from_tree(tree).to_json() if as_graph else tree_to_json(tree))
        text = data.draw(st.one_of(st.just(json.dumps(doc)), mutated_text(doc)))
        doc_f = fuzz_dir / "doc.json"
        doc_f.write_text(text)
        argv = ["realize", "--input", str(doc_f)]
        if base is not None:
            argv.append(f"--base={base}")  # a value may start with "-"
        if off:
            argv += ["--format", "off"]
        code, out, err = run_cli(argv)
        if code == 0:
            assert out.startswith("OFF\n" if off else "{")
        else:
            assert err.startswith("error: ")

    @given(key=SMALL_TREES, data=st.data(), with_tree=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_verify_mutated_realizations(self, fuzz_dir, key, data, with_tree):
        real_f = fuzz_dir / "real.json"
        real_f.write_text(data.draw(mutated_text(small_realization_doc(key))))
        argv = ["verify", "--input", str(real_f)]
        if with_tree:
            tree_f = fuzz_dir / "tree.json"
            tree_f.write_text(tree_to_json(gen_tree(*key)))
            argv += ["--tree", str(tree_f)]
        code, out, err = run_cli(argv)
        if out:  # a certificate, ok exactly when the exit code is 0
            assert json.loads(out)["ok"] is (code == 0)
        else:
            assert code != 0 and err.startswith("error: ")
