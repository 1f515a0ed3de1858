from __future__ import annotations

import json

import numpy as np
import pytest

import graphskel as gs
from graphskel.cli import main
from graphskel.errors import CloudParseError
from graphskel.fileio import read_cloud, write_cloud


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
        ],
        ids=["no-edges", "flat-edges", "top-level-list"],
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

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--eps", "0.1", "--output", str(tmp_path / "c.txt")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "usage"


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
        cc = gs.threshold_components(cloud, p0, cfg.vertex_cluster_scale)
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
        assert doc["selected_ratio"] is not None
        lls = [row["loglik"] for row in doc["rows"]]
        assert doc["selected_loglik"] == max(lls)

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

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
