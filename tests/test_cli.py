from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphskel as gs
from graphskel import cli
from graphskel.abstract_graph import recover_graph
from graphskel.cli import main
from graphskel.errors import CloudParseError
from graphskel.fileio import read_cloud, write_cloud
from graphskel.geometry import threshold_components


def first(doc: dict, key: str, **fields) -> dict:
    """`doc` with `fields` replaced in the first entry of its `key` list."""
    return {**doc, key: [{**doc[key][0], **fields}, *doc[key][1:]]}


@pytest.fixture()
def cloud_file(tmp_path):
    path = tmp_path / "cloud.txt"
    rc = main(["simulate", "--builtin", "--eps", "0.1", "--seed", "1", "--output", str(path)])
    assert rc == 0
    return path


class TestSimulate:
    def test_manifest_hausdorff_ok(self, tmp_path):
        out = tmp_path / "c.txt"
        rc = main(["simulate", "--builtin", "--eps", "0.1", "--seed", "1", "--output", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "c.txt.manifest.json").read_text())
        assert manifest["hausdorff_ok"] is True
        assert manifest["n_points"] == len(read_cloud(str(out)))
        assert manifest["config"]["command"] == "simulate"

    def test_noiseless_flagged(self, tmp_path):
        out = tmp_path / "c.txt"
        rc = main(["simulate", "--builtin", "--eps", "0.1", "--noise", "0", "--output", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "c.txt.manifest.json").read_text())
        assert manifest["noiseless"] is True

    def test_byte_determinism(self, tmp_path):
        args = ["simulate", "--builtin", "--eps", "0.1", "--seed", "7"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_graph_spec_input(self, tmp_path):
        from graphskel.fileio import graph_spec_to_dict, write_json_atomic

        spec_path = tmp_path / "spec.json"
        write_json_atomic(str(spec_path), graph_spec_to_dict(gs.builtin_fixture()))
        out = tmp_path / "c.txt"
        rc = main(["simulate", "--graph", str(spec_path), "--eps", "0.1", "--output", str(out)])
        assert rc == 0

    @pytest.mark.parametrize(
        "damage, field",
        [
            (lambda doc: {k: v for k, v in doc.items() if k != "edges"}, "edges"),
            (lambda doc: {**doc, "edges": [0, 1]}, "edges"),
            (lambda doc: [doc], "JSON object"),
            # entries that a converting reader would take: edge ends as the integers they round or
            # convert to, a numeric string as a coordinate; and a ragged or non-finite vertex list
            (lambda doc: {**doc, "edges": [[0.7, 4]] + doc["edges"][1:]}, "edges"),
            (lambda doc: {**doc, "edges": doc["edges"][:3] + [[1.9999, 3], [1, 2]]}, "edges"),
            (lambda doc: {**doc, "edges": [["0", 4]] + doc["edges"][1:]}, "edges"),
            (lambda doc: {**doc, "edges": doc["edges"][:4] + [[True, 2]]}, "edges"),
            (lambda doc: {**doc, "vertices": [["1e3", 0.0, 0.0]] + doc["vertices"][1:]}, "vertices"),
            (lambda doc: {**doc, "vertices": [[0.0, 0.0]] + doc["vertices"][1:]}, "vertices"),
            (lambda doc: {**doc, "vertices": [[float("nan"), 0.0, 0.0]] + doc["vertices"][1:]}, "vertices"),
            # a dimension that is missing, not an integer, or not the rows' length
            (lambda doc: {k: v for k, v in doc.items() if k != "dim"}, "dim"),
            (lambda doc: {**doc, "dim": 7}, "dim"),
            (lambda doc: {**doc, "dim": "3"}, "dim"),
            (lambda doc: {**doc, "dim": True}, "dim"),
        ],
        ids=[
            "no-edges", "flat-edges", "top-level-list", "float-edge", "near-integer-edge", "string-edge",
            "boolean-edge", "string-coordinate", "ragged-vertices", "nan-coordinate", "no-dim", "wrong-dim",
            "string-dim", "boolean-dim",
        ],
    )
    def test_malformed_graph_spec_is_usage_error(self, tmp_path, capsys, damage, field):
        from graphskel.fileio import graph_spec_to_dict

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(damage(graph_spec_to_dict(gs.builtin_fixture()))))
        rc = main(["simulate", "--graph", str(spec_path), "--eps", "0.1", "--output", str(tmp_path / "c.txt")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert field in err["message"]

    def test_discretization_past_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # room for the fixture's ~360 samples, not for its ~36000-point Hausdorff grid
        monkeypatch.setattr(gs.synthetic, "_physical_memory", lambda: 100_000)
        out = tmp_path / "c.txt"
        rc = main(["simulate", "--builtin", "--eps", "0.1", "--output", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert err["message"].startswith("eps 0.1 ")
        assert not out.exists()

    def test_builtin_with_graph_is_usage_error(self, tmp_path, capsys):
        from graphskel.fileio import graph_spec_to_dict, write_json_atomic

        spec_path = tmp_path / "spec.json"
        write_json_atomic(str(spec_path), graph_spec_to_dict(gs.builtin_fixture()))
        out = tmp_path / "c.txt"
        rc = main(["simulate", "--builtin", "--graph", str(spec_path), "--eps", "0.1", "--output", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert "--graph" in err["message"]
        assert not out.exists()

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--eps", "0.1", "--output", str(tmp_path / "c.txt")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"

    @pytest.mark.parametrize(
        "option, field",
        [(["--eps", "inf"], "eps"), (["--eps", "nan"], "eps"), (["--noise", "nan"], "noise"),
         (["--noise", "inf"], "noise"), (["--spacing", "nan"], "spacing"), (["--spacing", "1e-300"], "spacing"),
         (["--spacing", "1e-15"], "spacing")],
    )
    def test_bad_field_is_named(self, tmp_path, capsys, option, field):
        out = tmp_path / "c.txt"
        rc = main(["simulate", "--builtin", "--eps", "0.1", *option, "--output", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert err["message"].startswith(field + " ")
        assert not out.exists()


class TestPartition:
    def test_labels_file(self, cloud_file, tmp_path):
        out = tmp_path / "labels.txt"
        rc = main([
            "partition", "--input", str(cloud_file), "--output", str(out),
            "--ratio", "8", "--eps", "0.1",
        ])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        cloud = read_cloud(str(cloud_file))
        assert len(lines) == len(cloud)
        labels = [int(l.split(",")[1]) for l in lines]
        # the vertex-like (0) points form exactly 5 clusters at 3R/2 + 2eps
        cfg = gs.ReconstructionConfig(R=0.8, eps=0.1)
        p0 = np.flatnonzero(np.array(labels) == 0)
        cc = threshold_components(cloud, p0, cfg.vertex_cluster_scale)
        assert cc.num_components == 5

    def test_guarantee_warning_on_stderr(self, cloud_file, tmp_path, capsys):
        rc = main([
            "partition", "--input", str(cloud_file), "--output", str(tmp_path / "l.txt"),
            "--ratio", "4", "--eps", "0.1",
        ])
        assert rc == 0
        assert "guarantee regime" in capsys.readouterr().err

    def test_empty_input_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc = main([
            "partition", "--input", str(empty), "--output", str(tmp_path / "l.txt"),
            "--ratio", "8", "--eps", "0.1",
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"

    def test_parse_error_carries_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.0,0.0\nnot,a,number\n")
        rc = main([
            "partition", "--input", str(bad), "--output", str(tmp_path / "l.txt"),
            "--ratio", "8", "--eps", "0.1",
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "line 2" in err["message"]

    # the last token makes row 2 three coordinates wide: a ragged row
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", pytest.param("0.0,3.0", id="ragged-row")])
    def test_non_finite_coordinate_carries_line_number(self, tmp_path, capsys, token):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"0.0,0.0\n1.0,{token}\n2.0,nan\n")
        with pytest.raises(CloudParseError) as info:
            read_cloud(str(bad))
        assert info.value.line_number == 2
        rc = main([
            "partition", "--input", str(bad), "--output", str(tmp_path / "l.txt"),
            "--ratio", "8", "--eps", "0.1",
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert "line 2" in err["message"]

    def test_skip_header(self, tmp_path):
        src = tmp_path / "with_header.txt"
        src.write_text("x,y,z\n0.0,0.0,0.0\n1.0,0.0,0.0\n")
        out = tmp_path / "l.txt"
        rc = main([
            "partition", "--input", str(src), "--skip-header",
            "--output", str(out), "--R", "0.8", "--eps", "0.1",
        ])
        assert rc == 0


class TestReadCloud:
    """`read_cloud` converts every field in one call and names the first
    faulty line with that line's first fault, as a scan line by line would."""

    @staticmethod
    def fault(tmp_path, text: str, **kwargs) -> CloudParseError:
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode())
        with pytest.raises(CloudParseError) as info:
            read_cloud(str(path), **kwargs)
        return info.value

    def test_magnitude_before_a_parse_error_is_named(self, tmp_path):
        rows = ["0.0,0.0"] * 8
        rows[2], rows[6] = "1e160,0.0", "0.0,zero"
        err = self.fault(tmp_path, "\n".join(rows) + "\n")
        assert err.line_number == 3
        assert str(err).startswith("line 3: coordinate magnitude above")

    def test_width_before_a_parse_error_is_named(self, tmp_path):
        err = self.fault(tmp_path, "0.0,0.0\n1.0,2.0,3.0\n1.0,x\n")
        assert str(err) == "line 2: expected 2 coordinates, found 3"

    def test_parse_error_before_other_faults_is_named(self, tmp_path):
        err = self.fault(tmp_path, "0.0,0.0\n\n1.0,,2.0\nnan,1.0\n")
        assert str(err) == "line 3: cannot parse coordinates from '1.0,,2.0'"

    def test_first_line_sets_the_width(self, tmp_path):
        err = self.fault(tmp_path, "bad\n0.0,0.0\n")
        assert str(err) == "line 1: cannot parse coordinates from 'bad'"
        err = self.fault(tmp_path, "0.0,0.0,1.0\n0.0,inf\n")
        assert str(err) == "line 2: expected 3 coordinates, found 2"

    def test_non_finite_is_named_before_magnitude(self, tmp_path):
        err = self.fault(tmp_path, "0.0,0.0\n1e300,nan\n")
        assert str(err) == "line 2: non-finite coordinates in '1e300,nan'"

    def test_empty_file(self, tmp_path):
        err = self.fault(tmp_path, "\n  \nheader\n", skip_header=True)
        assert err.line_number is None and str(err).startswith("no points found in")

    @pytest.mark.parametrize(
        "text, skip_header",
        [
            ("0.5,-1.0\r\n2.0,3.25\r\n", False),
            ("0.5,-1.0\n2.0,3.25\n\n\n  \n", False),
            ("\nx,y\n0.5,-1.0\n\n2.0,3.25\n", True),
            (" 0.5 , -1_0e-1\t\n２.0,3.25", False),
        ],
        ids=["crlf", "trailing-blank-lines", "header-after-blank-line", "what-float-accepts"],
    )
    def test_formats(self, tmp_path, text, skip_header):
        path = tmp_path / "cloud.txt"
        path.write_bytes(text.encode())
        assert read_cloud(str(path), skip_header=skip_header).coords.tolist() == [[0.5, -1.0], [2.0, 3.25]]


class TestGraph:
    def test_fixture_graph_document(self, cloud_file, tmp_path):
        out = tmp_path / "graph.json"
        rc = main([
            "graph", "--input", str(cloud_file), "--output", str(out),
            "--ratio", "8", "--eps", "0.1",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["vertices"]) == 5
        assert len(doc["edges"]) == 5
        b = np.array(doc["boundary_matrix"])
        assert np.all(b.sum(axis=0) == 2)
        assert doc["structure_verified"] is False  # ratio 8 < 12
        assert doc["config"]["eps"] == 0.1

    def test_ratio12_structure_verified(self, cloud_file, tmp_path):
        out = tmp_path / "graph12.json"
        rc = main([
            "graph", "--input", str(cloud_file), "--output", str(out),
            "--ratio", "12", "--eps", "0.1",
        ])
        assert rc == 0
        assert json.loads(out.read_text())["structure_verified"] is True

    def test_structural_error_exit_code(self, cloud_file, tmp_path, capsys):
        rc = main([
            "graph", "--input", str(cloud_file), "--output", str(tmp_path / "g.json"),
            "--ratio", "4", "--eps", "0.1",
        ])
        # the degraded scale either aborts structurally (exit 2) or emits a
        # wrong-but-valid structure (exit 0); seed 1 aborts
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "structural"

    def test_byte_determinism(self, cloud_file, tmp_path):
        # identical inputs AND config (the output path is part of the embedded
        # provenance) must reproduce the artifact bit-exactly
        out = tmp_path / "g.json"
        args = ["graph", "--input", str(cloud_file), "--ratio", "8", "--eps", "0.1",
                "--output", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_mutually_exclusive_scales(self, cloud_file, tmp_path):
        rc = main([
            "graph", "--input", str(cloud_file), "--output", str(tmp_path / "g.json"),
            "--R", "0.8", "--ratio", "8", "--eps", "0.1",
        ])
        assert rc == 1


class TestFit:
    @pytest.fixture()
    def graph_file(self, cloud_file, tmp_path):
        out = tmp_path / "graph.json"
        assert main([
            "graph", "--input", str(cloud_file), "--output", str(out),
            "--ratio", "8", "--eps", "0.1",
        ]) == 0
        return out

    def test_fit_document(self, cloud_file, graph_file, tmp_path, fixture_spec):
        out = tmp_path / "fit.json"
        rc = main([
            "fit", "--input", str(cloud_file), "--graph", str(graph_file),
            "--output", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["sigma"] == 0.05  # defaulted from the graph config eps/2
        assert "seed" not in doc["config"]  # EM draws nothing at random
        trace = doc["loglik_trace"]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        fitted = np.array(doc["vertices"])
        truth = fixture_spec.vertices
        for row in fitted:
            assert np.linalg.norm(truth - row, axis=1).min() <= 0.2
        wire = (tmp_path / "fit.wireframe.csv").read_text().splitlines()
        assert wire[0].startswith("edge,point,")
        assert len(wire) == 1 + 2 * doc["n1"]

    def test_zero_iterations_echo_init(self, cloud_file, graph_file, tmp_path):
        out = tmp_path / "fit0.json"
        rc = main([
            "fit", "--input", str(cloud_file), "--graph", str(graph_file),
            "--output", str(out), "--max-iters", "0",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["iterations"] == 0
        graph_doc = json.loads(graph_file.read_text())
        init_centroids = [v["centroid"] for v in graph_doc["vertices"]]
        assert np.allclose(np.array(doc["vertices"]), np.array(init_centroids))

    def test_inconsistent_cloud_rejected(self, graph_file, tmp_path, capsys):
        other = tmp_path / "other.txt"
        write_cloud(str(other), gs.PointCloud(np.zeros((3, 3))))
        rc = main([
            "fit", "--input", str(other), "--graph", str(graph_file),
            "--output", str(tmp_path / "f.json"),
        ])
        assert rc == 1

    @pytest.mark.parametrize(
        "damage, field",
        [
            (lambda doc: {k: v for k, v in doc.items() if k != "labels"}, "labels"),
            (lambda doc: first(doc, "edges", boundary=[0]), "boundary"),
            (lambda doc: [doc], "JSON object"),
            (lambda doc: {**doc, "n_points": None}, "n_points"),
            (lambda doc: {**doc, "vertices": 5}, "vertices"),
            (lambda doc: {**doc, "dim": None}, "dim"),
            (lambda doc: first(doc, "vertices", members=None), "members"),
            (lambda doc: first(doc, "edges", boundary=[None, 1]), "boundary"),
            (lambda doc: {**doc, "labels": {**doc["labels"], "p0_tilde": None}}, "p0_tilde"),
            (lambda doc: {**doc, "config": [1]}, "config"),
            (lambda doc: {**doc, "config": {**doc["config"], "eps": [1]}}, "config.eps"),
            (lambda doc: {**doc, "config": {**doc["config"], "eps": -0.1}}, "config.eps"),
            (lambda doc: {**doc, "config": {**doc["config"], "eps": 0}}, "config.eps"),
            (lambda doc: {**doc, "config": {**doc["config"], "eps": float("nan")}}, "config.eps"),
            (lambda doc: {**doc, "config": {**doc["config"], "eps": float("inf")}}, "config.eps"),
            (lambda doc: first(doc, "vertices", members=[0, 10**30]), "members"),
            (lambda doc: {**doc, "labels": {**doc["labels"], "p0_tilde": [10**30]}}, "p0_tilde"),
            (lambda doc: first(doc, "vertices", centroid=None), "centroid"),
            (lambda doc: first(doc, "vertices", centroid=[0.0]), "centroid"),
            (lambda doc: first(doc, "vertices", centroid=[None] * doc["dim"]), "centroid"),
            (lambda doc: first(doc, "vertices", centroid=[1e308] * doc["dim"]), "centroid"),
            (lambda doc: first(doc, "vertices", members=doc["vertices"][0]["members"] + [doc["n_points"]]), "members"),
            (lambda doc: first(doc, "edges", members=doc["edges"][0]["members"] + [doc["labels"]["p0_tilde"][0]]), "members"),
            (lambda doc: first(doc, "vertices", members=doc["vertices"][0]["members"][1:]), "members"),
            (lambda doc: {**doc, "labels": {**doc["labels"], "p0_tilde": doc["labels"]["p0_tilde"][:-1]}}, "labels.p0_tilde"),
            (lambda doc: first(doc, "edges", boundary=[0, len(doc["vertices"])]), "boundary"),
            (lambda doc: first(doc, "edges", boundary=[1, 1]), "boundary"),
            (lambda doc: {**doc, "labels": {**doc["labels"], "p1_tilde": [0, 0, 1000000]}}, "labels.p1_tilde"),
            (lambda doc: {**doc, "labels": {**doc["labels"], "moved": [-5]}}, "labels.moved"),
            (lambda doc: {**doc, "labels": {**doc["labels"], "moved": doc["labels"]["p0_tilde"][:1] * 2}}, "labels.moved"),
        ],
        ids=[
            "no-labels", "one-element-boundary", "top-level-list", "n_points-null", "vertices-not-list", "dim-null",
            "members-null", "boundary-null-id", "p0_tilde-null", "config-not-object", "eps-not-number",
            "eps-negative", "eps-zero", "eps-nan", "eps-infinite",
            "members-huge", "p0_tilde-huge", "centroid-null", "centroid-short", "centroid-null-coordinate",
            "centroid-absurd", "members-out-of-range", "members-repeated", "members-missing", "p0_tilde-mismatch",
            "boundary-out-of-range", "boundary-loop", "p1_tilde-mismatch", "moved-outside-p0_tilde", "moved-repeated",
        ],
    )
    def test_malformed_graph_document_is_usage_error(
        self, cloud_file, graph_file, tmp_path, capsys, damage, field
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(damage(json.loads(graph_file.read_text()))))
        rc = main([
            "fit", "--input", str(cloud_file), "--graph", str(bad),
            "--output", str(tmp_path / "f.json"),
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert field in err["message"]

    @pytest.mark.parametrize("command", ["fit", "pipeline"])
    @pytest.mark.parametrize("sigma", ["inf", "1e-300", "1e300"])
    def test_bad_sigma_is_usage_error(self, cloud_file, graph_file, tmp_path, capsys, command, sigma):
        out = tmp_path / "out.json"
        source = ["--graph", str(graph_file)] if command == "fit" else ["--eps", "0.1", "--ratios", "12,8"]
        rc = main([command, "--input", str(cloud_file), *source, "--sigma", sigma, "--output", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert err["message"].startswith("sigma ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "pipeline"])
    @pytest.mark.parametrize(
        "option, field",
        [(["--tol", "nan"], "tol_ll"), (["--tol", "inf"], "tol_ll"), (["--tol", "-1"], "tol_ll"),
         (["--max-iters", "-3"], "max_iters")],
    )
    def test_bad_em_config_is_usage_error(self, cloud_file, graph_file, tmp_path, capsys, command, option, field):
        out = tmp_path / "out.json"
        source = ["--graph", str(graph_file)] if command == "fit" else ["--eps", "0.1", "--ratios", "12,8"]
        rc = main([command, "--input", str(cloud_file), *source, *option, "--output", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert err["message"].startswith(field + " ")
        assert not out.exists()


class TestPipeline:
    def test_fixture_sweep(self, cloud_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "pipeline", "--input", str(cloud_file), "--output", str(out),
            "--eps", "0.1", "--ratios", "12,10,8,6",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["reference_ratio"] == 12
        assert doc["reference_in_guarantee_regime"] is True
        assert len(doc["rows"]) == 4
        assert all(row["structure_match"] for row in doc["rows"])
        last = [row for row in doc["rows"] if row["structure_match"]][-1]
        assert (doc["selected_ratio"], doc["selected_loglik"]) == (last["ratio"], last["loglik"])
        assert doc["selected_vertices"] == last["vertices"]

    def test_single_ratio(self, cloud_file, tmp_path):
        out = tmp_path / "single.json"
        rc = main([
            "pipeline", "--input", str(cloud_file), "--output", str(out),
            "--eps", "0.1", "--ratios", "12",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 1
        assert doc["selected_ratio"] == 12

    def test_no_guarantee_ratio_flagged(self, cloud_file, tmp_path):
        out = tmp_path / "low.json"
        rc = main([
            "pipeline", "--input", str(cloud_file), "--output", str(out),
            "--eps", "0.1", "--ratios", "10,8",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["reference_ratio"] == 10
        assert doc["reference_in_guarantee_regime"] is False

    def test_degraded_ratio_row_reports_error(self, cloud_file, tmp_path):
        out = tmp_path / "deg.json"
        rc = main([
            "pipeline", "--input", str(cloud_file), "--output", str(out),
            "--eps", "0.1", "--ratios", "12,4",
        ])
        assert rc == 0  # per-row failures never abort the sweep
        doc = json.loads(out.read_text())
        row4 = [r for r in doc["rows"] if r["ratio"] == 4][0]
        assert row4["structure_match"] is False
        assert row4["loglik"] is None
        assert doc["selected_ratio"] == 12  # the last matched row, not the last row

    @pytest.mark.parametrize("ratio, regime", [("11.9999999999", True), ("11.99", False)])
    def test_guarantee_regime_agrees_with_graph(self, cloud_file, tmp_path, ratio, regime):
        # one rule for both commands: R >= 12 eps up to a relative rounding of 1e-9
        graph, report = tmp_path / "graph.json", tmp_path / "report.json"
        io_args = ["--input", str(cloud_file), "--eps", "0.1", "--output"]
        assert main(["graph", *io_args, str(graph), "--ratio", ratio]) == 0
        assert main(["pipeline", *io_args, str(report), "--ratios", ratio]) == 0
        assert json.loads(graph.read_text())["structure_verified"] is regime
        assert json.loads(report.read_text())["reference_in_guarantee_regime"] is regime


class TestPipelineWarmStart:
    """Each matched ratio after the reference starts EM from the last matched
    fit, mapped through `vertex_map` and `edge_map`."""

    EPS = 0.1

    @staticmethod
    def run(path, ratios, recover=recover_graph):
        """The pipeline report for `ratios`, and each ratio's recovered graph."""
        graphs = {}

        def spy(cloud, config, labels=None):
            graph = recover(cloud, config, labels)
            graphs[round(config.ratio, 9)] = graph
            return graph

        out = path.with_suffix(f".{ratios}.json")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "recover_graph", spy)
            assert main([
                "pipeline", "--input", str(path), "--output", str(out), "--eps", "0.1", "--ratios", ratios,
            ]) == 0
        return json.loads(out.read_text()), graphs

    @pytest.fixture(scope="class")
    def cloud_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("warm") / "cloud.txt"
        assert main(["simulate", "--builtin", "--eps", "0.1", "--seed", "1", "--output", str(path)]) == 0
        return path

    @pytest.fixture(scope="class")
    def sweep(self, cloud_path):
        """The 12,10,8,6 report, and a cold fit of each ratio's own graph."""
        doc, graphs = self.run(cloud_path, "12,10,8,6")
        cold = {ratio: cli._fit(g.cloud, g, self.EPS / 2, gs.EmConfig())[1] for ratio, g in graphs.items()}
        return doc, cold

    def test_reference_row_is_the_cold_fit(self, sweep):
        doc, cold = sweep
        ref = doc["rows"][0]
        assert ref["ratio"] == 12
        assert ref["vertices"] == cold[12].state.v.tolist()
        assert ref["loglik"] == float(cold[12].loglik_trace[-1])
        assert (ref["iterations"], ref["converged"]) == (cold[12].n_iterations, cold[12].converged)

    def test_loglik_does_not_fall_down_the_sweep(self, sweep):
        rows = sweep[0]["rows"]
        assert all(row["structure_match"] for row in rows)
        for prev, row in zip(rows, rows[1:]):
            assert row["loglik"] >= prev["loglik"] - 1e-12
        # the selection is the last matched row, the longest-continued fit
        assert (sweep[0]["selected_ratio"], sweep[0]["selected_loglik"]) == (rows[-1]["ratio"], rows[-1]["loglik"])

    def test_later_rows_take_fewer_iterations(self, sweep):
        ref, *later = sweep[0]["rows"]
        assert all(row["converged"] for row in sweep[0]["rows"])
        assert all(row["iterations"] < ref["iterations"] for row in later)

    def test_later_rows_near_their_cold_fit(self, sweep):
        doc, cold = sweep
        # rows report vertices in their own graph's numbering, as the cold fit does
        gaps = [
            np.linalg.norm(np.asarray(row["vertices"]) - cold[row["ratio"]].state.v, axis=1).max() / self.EPS
            for row in doc["rows"][1:]
        ]
        assert max(gaps) <= 0.05  # measured: 2.1e-4 on this cloud

    def test_unmatched_row_leaves_the_chain(self, cloud_path):
        def recover(cloud, config, labels=None):
            """At ratio 10, the true graph with its last edge folded into its first."""
            graph = recover_graph(cloud, config, labels)
            if round(config.ratio, 9) != 10:
                return graph
            n0, n1 = graph.n_vertices, graph.n_edges
            stratum = np.where(graph.stratum == n0 + n1 - 1, n0, graph.stratum)
            return replace(graph, stratum=stratum, boundary=graph.boundary[:-1])

        doc, _ = self.run(cloud_path, "12,10,8", recover)
        skipped, _ = self.run(cloud_path, "12,8")
        row10 = doc["rows"][1]
        assert row10["structure_match"] is False and row10["loglik"] is None and row10["iterations"] is None
        # row 8 starts from row 12's fit, as if ratio 10 had not been asked for
        assert doc["rows"][2] == skipped["rows"][1]

    def test_point_order(self, sweep, cloud_path, tmp_path):
        coords = read_cloud(str(cloud_path)).coords
        perm = np.random.default_rng(5).permutation(len(coords))
        path = tmp_path / "permuted.txt"
        write_cloud(str(path), gs.PointCloud(coords[perm]))
        doc, _ = self.run(path, "12,10,8,6")
        for base, row in zip(sweep[0]["rows"], doc["rows"]):
            assert row["iterations"] == base["iterations"]
            # vertex ids may follow point order: compare each vertex with its nearest
            dist = np.linalg.norm(np.asarray(row["vertices"])[:, None] - np.asarray(base["vertices"])[None], axis=2)
            assert sorted(dist.argmin(axis=1).tolist()) == list(range(len(dist)))
            assert dist.min(axis=1).max() <= 1e-9 * self.EPS


class TestArgumentErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--R", "inf", "--eps", "0.1"],
            ["graph", "--ratio", "inf", "--eps", "0.1"],
            ["partition", "--R", "inf", "--eps", "0.1"],
            ["pipeline", "--ratios", "inf,12", "--eps", "0.1"],
        ],
        ids=["graph-R", "graph-ratio", "partition-R", "pipeline-ratios"],
    )
    def test_infinite_scale_is_usage_error(self, cloud_file, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--input", str(cloud_file), "--output", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert err["message"].startswith("R ")
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["1", "-3", "nan"])
    def test_bad_ratio_rejected_before_reading(self, cloud_file, tmp_path, capsys, monkeypatch, bad):
        def spy(*args):
            raise AssertionError("recover_graph called")

        monkeypatch.setattr(cli, "recover_graph", spy)
        out = tmp_path / "out.json"
        argv = ["pipeline", "--input", str(cloud_file), "--output", str(out), "--eps", "0.1", "--ratios", f"12,{bad}"]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert err["message"].startswith("R ")
        assert err["message"].endswith(f"ratio {bad}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["partition", "graph", "fit", "pipeline"])
    def test_huge_coordinate_is_usage_error(self, cloud_file, tmp_path, capsys, command):
        # 1e160 squared overflows; the suite turns any overflow warning into an error
        graph = tmp_path / "graph.json"
        assert main(["graph", "--input", str(cloud_file), "--output", str(graph), "--ratio", "8", "--eps", "0.1"]) == 0
        lines = cloud_file.read_text().splitlines()
        lines[1] = ",".join(["1e160", *lines[1].split(",")[1:]])
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        options = {"partition": ["--ratio", "8", "--eps", "0.1"], "graph": ["--ratio", "8", "--eps", "0.1"],
                   "fit": ["--graph", str(graph)], "pipeline": ["--ratios", "12,8", "--eps", "0.1"]}[command]
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main([command, "--input", str(bad), "--output", str(out), *options]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert err["message"].startswith("line 2: coordinate magnitude above")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "pipeline"])
    def test_coordinate_outside_em_range_is_usage_error(self, cloud_file, tmp_path, capsys, command):
        # 1e100 passes read_cloud's magnitude rule, but its fourth power would
        # overflow in pricing; the suite turns any overflow warning into an error
        graph = tmp_path / "graph.json"
        assert main(["graph", "--input", str(cloud_file), "--output", str(graph), "--ratio", "8", "--eps", "0.1"]) == 0
        lines = cloud_file.read_text().splitlines()
        row = lines[5].split(",")
        lines[5] = ",".join([row[0], "1e100", *row[2:]])
        far = tmp_path / "far.txt"
        far.write_text("\n".join(lines) + "\n")
        options = {"fit": ["--graph", str(graph)], "pipeline": ["--ratios", "12,8", "--eps", "0.1"]}[command]
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main([command, "--input", str(far), "--output", str(out), *options]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        err = json.loads(line)
        assert err["error"] == "usage"
        assert err["message"].startswith("cloud extent")
        assert not out.exists()

    def test_sigma_near_range_limit_fits(self, cloud_file, tmp_path):
        # the fixture's extent is about 9, so sigma = 1e-152 stays inside EM's range
        graph, out = tmp_path / "graph.json", tmp_path / "fit.json"
        assert main(["graph", "--input", str(cloud_file), "--output", str(graph), "--ratio", "8", "--eps", "0.1"]) == 0
        argv = ["fit", "--input", str(cloud_file), "--graph", str(graph), "--output", str(out), "--sigma", "1e-152"]
        assert main(argv) == 0
        assert json.loads(out.read_text())["sigma"] == 1e-152

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0

    def test_help_exits_zero(self, capsys):
        assert main(["fit", "--help"]) == 0
        assert "--max-iters" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["fit", "--max-iters", "1.5"], "--max-iters"),
            (["fit", "--max-iters=x"], "--max-iters"),
            (["pipeline", "--eps", "-inf"], "--eps"),
            (["graph", "--eps", "0.1"], "--input"),
            (["frobnicate"], "command"),
        ],
        ids=["max-iters-float", "max-iters-word", "eps-read-as-option", "missing-input", "unknown-command"],
    )
    def test_parser_error_is_json_usage_line(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out.json"
        assert main([*argv, "--output", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"
        assert named in err["message"]
        assert not out.exists()


class TestScaleFlags:
    """argparse owns the scale rules: exactly one of --R/--ratio, and --eps.
    A breach is one JSON usage line and exit 1, with no output, before the
    input is opened: the input named here does not exist."""

    @pytest.mark.parametrize("command", ["graph", "partition"])
    @pytest.mark.parametrize(
        "scales, named",
        [
            (["--ratio", "8"], "the following arguments are required: --eps"),
            (["--R", "0.8", "--ratio", "8", "--eps", "0.1"], "argument --ratio: not allowed with argument --R"),
            (["--eps", "0.1"], "one of the arguments --R --ratio is required"),
        ],
        ids=["no-eps", "R-and-ratio", "neither"],
    )
    def test_scale_rule_is_usage_error(self, tmp_path, capsys, command, scales, named):
        out = tmp_path / "out"
        assert main([command, "--input", str(tmp_path / "missing.txt"), "--output", str(out), *scales]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        err = json.loads(line)
        assert err == {"error": "usage", "message": named}
        assert not out.exists()

    def test_empty_ratios_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        argv = ["pipeline", "--input", str(tmp_path / "missing.txt"), "--output", str(out), "--eps", "0.1", "--ratios", ","]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"error": "usage", "message": "--ratios must list at least one ratio"}
        assert not out.exists()

    def test_help_shows_the_scale_group(self, capsys):
        assert main(["graph", "--help"]) == 0
        assert "(--R R | --ratio RATIO)" in " ".join(capsys.readouterr().out.split())


# each fault class, and the commands that can meet it
FAULTS = {
    "missing-file": ("partition", "graph", "fit", "pipeline"),
    "malformed-line": ("partition", "graph", "fit", "pipeline"),
    "scale": ("partition", "graph", "pipeline"),
    "ratio<=1": ("partition", "graph", "pipeline"),
    "em-option": ("fit", "pipeline"),
    "em-range": ("fit", "pipeline"),
    "structural": ("graph", "pipeline"),
}


def _fault(draw, cloud, graph, root) -> tuple[str, dict, int, str]:
    """A command, its options with one drawn fault, the exit code and the error kind."""
    fault = draw(st.sampled_from(sorted(FAULTS)))
    command = draw(st.sampled_from(FAULTS[fault]))
    opts = {"--input": str(cloud), "--eps": "0.1"}
    opts.update({"partition": {"--ratio": "8"}, "graph": {"--ratio": "8"}, "fit": {"--graph": str(graph)},
                 "pipeline": {"--ratios": "12,8"}}[command])
    if command == "fit":
        del opts["--eps"]
    ratio_opt = "--ratios" if command == "pipeline" else "--ratio"

    if fault == "missing-file":
        opts[draw(st.sampled_from(["--input", "--graph"] if command == "fit" else ["--input"]))] = str(root / "missing")
    elif fault in ("malformed-line", "em-range"):
        lines = cloud.read_text().splitlines()
        k = draw(st.integers(0, len(lines) - 1))
        row = lines[k].split(",")
        axis = draw(st.integers(0, len(row) - 1))
        if fault == "em-range":  # far enough to overflow in EM, under read_cloud's magnitude limit
            row[axis] = repr(draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e100, 1e150)))
        else:
            row[axis] = draw(st.sampled_from(["x", "nan", "inf", "-inf", "1e400", "1,2", "1e160", "-1e300"]))
        lines[k] = ",".join(row)
        bad = root / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        opts["--input"] = str(bad)
    elif fault == "scale":
        value = draw(st.sampled_from(["nan", "inf", "-inf", "0", "-0.1"]))
        option = draw(st.sampled_from(["--eps", ratio_opt] + (["--R"] if command != "pipeline" else [])))
        if option == "--R":
            del opts["--ratio"]
        opts[option] = f"12,{value}" if option == "--ratios" else value
    elif fault == "ratio<=1":
        value = repr(draw(st.floats(max_value=1.0, allow_nan=False)))
        opts[ratio_opt] = draw(st.sampled_from([value, f"12,{value}"])) if command == "pipeline" else value
    elif fault == "em-option":
        option, value = draw(st.sampled_from([
            ("--sigma", st.sampled_from(["0", "-1", "nan", "inf", "1e-300", "1e300"])),
            ("--tol", st.sampled_from(["nan", "inf", "-1"])),
            ("--max-iters", st.one_of(st.integers(max_value=-1).map(str), st.sampled_from(["1.5", "x"]))),
        ]))
        opts[option] = draw(value)
    elif fault == "structural":  # these ratios abort stage 2 on this cloud
        opts[ratio_opt] = draw(st.sampled_from(["2.5", "3", "3.5", "4", "4.5"]))
    code, kind = (2, "structural") if fault == "structural" else (1, "usage")
    return command, opts, code, kind


class TestExitCodeContract:
    """Every fault maps to its class's exit code and one JSON error line, and
    writes no output: usage 1, structural 2. A coordinate far enough to
    overflow in EM is a usage fault: EM's range rule refuses it."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("contract")
        cloud, graph = root / "cloud.txt", root / "graph.json"
        assert main(["simulate", "--builtin", "--eps", "0.1", "--seed", "1", "--output", str(cloud)]) == 0
        assert main(["graph", "--input", str(cloud), "--output", str(graph), "--ratio", "8", "--eps", "0.1"]) == 0
        (root / "out").mkdir()
        return root, cloud, graph

    @settings(max_examples=80)
    @given(data=st.data())
    def test_fault_classes(self, files, data):
        root, cloud, graph = files
        command, opts, code, kind = _fault(data.draw, cloud, graph, root)
        # `--opt=value` or `--opt value`; in the second form argparse reads a
        # value such as -inf as an option, which is a usage fault all the same
        joined = data.draw(st.booleans())
        tokens = [token for k, v in opts.items() for token in ([f"{k}={v}"] if joined else [k, v])]
        argv = [command, *tokens, "--output", str(root / "out" / "result.json")]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert main(argv) == code
        err = json.loads(stderr.getvalue().strip().splitlines()[-1])
        assert err["error"] == kind
        assert list((root / "out").iterdir()) == []
