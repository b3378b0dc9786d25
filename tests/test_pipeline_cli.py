import json
from fractions import Fraction

import pytest

from gridlift import (
    BASE_FACET_KEY,
    emit_off,
    gen_tree,
    graph_from_tree,
    parse_tree,
    realization_from_json,
    realization_to_json,
    realize_graph,
    report_to_json,
    run_pipeline,
)
from gridlift.cli import main

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


class TestGraphEntry:
    def test_k4_matches_tree_path(self, tet_tree, tet_result):
        realization, _ = tet_result
        g = graph_from_tree(tet_tree)
        r2, rep2, t2 = realize_graph(g, dim=3, base=(0, 1, 2))
        assert r2.coords == realization.coords
        assert t2.to_nested() == [None, None, None]

    def test_default_base(self, tet_tree):
        g = graph_from_tree(gen_tree("random", 3, 9, seed=12))
        r, rep, t = realize_graph(g, dim=3)
        assert rep.certificate.ok


class TestSerialization:
    def test_realization_round_trip(self, tet_result):
        realization, _ = tet_result
        doc = realization_to_json(realization)
        again = realization_from_json(doc)
        assert again.coords == realization.coords
        assert again.facets == realization.facets
        assert again.base_facet == realization.base_facet
        assert again.metadata["alpha"] == realization.metadata["alpha"]

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

    def test_off_output(self, tmp_path, tet_tree):
        tree_f = tmp_path / "tet.json"
        tree_f.write_text(tet_tree.to_json())
        off_f = tmp_path / "tet.off"
        assert main(["realize", "--input", str(tree_f), "--format", "off",
                     "--output", str(off_f)]) == 0
        assert off_f.read_text().startswith("OFF\n4 4 0\n")

    def test_invalid_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "tree": [null, null]}')
        assert main(["realize", "--input", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("base", ["1,x", "1,,2", "0.5,1,2", "0,1,99", "1,2"])
    def test_bad_base_exit_2(self, tmp_path, capsys, base):
        graph_f = tmp_path / "b3.json"
        assert main(["gen", "--shape", "b3", "--output", str(graph_f)]) == 0
        assert main(["realize", "--input", str(graph_f), "--base", base]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_verify_failure_exit_code(self, tmp_path, tet_result, capsys):
        realization, _ = tet_result
        import dataclasses

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
        tree_f.write_text(tree.to_json())
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
