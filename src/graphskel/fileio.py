"""File formats: delimited point clouds, JSON graph/fit/report artifacts.

Clouds are plain text, one point per line, comma-separated coordinates,
shortest round-trip decimals. All writes are atomic (temp file + rename) and
every JSON artifact embeds the config that produced it.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any

import numpy as np

from .abstract_graph import AbstractGraph, RefinedPartition, boundary_matrix
from .errors import CloudParseError
from .geometry import PointCloud
from .synthetic import EmbeddedGraphSpec

__all__ = [
    "read_cloud",
    "write_cloud",
    "write_text_atomic",
    "write_json_atomic",
    "read_json",
    "graph_to_dict",
    "graph_from_dict",
    "graph_spec_to_dict",
    "graph_spec_from_dict",
]

SCHEMA_VERSION = 1


def read_cloud(path: str, skip_header: bool = False) -> PointCloud:
    """Parse a delimited cloud file; raises CloudParseError with line numbers."""
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if skip_header:
                skip_header = False
                continue
            parts = line.split(",")
            try:
                row = list(map(float, parts))
            except ValueError:
                raise CloudParseError(f"cannot parse coordinates from {line!r}", lineno) from None
            if not all(map(math.isfinite, row)):
                raise CloudParseError(f"non-finite coordinates in {line!r}", lineno)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise CloudParseError(
                    f"expected {width} coordinates, found {len(row)}", lineno
                )
            rows.append(row)
    if not rows:
        raise CloudParseError(f"no points found in {path}")
    try:
        return PointCloud(np.asarray(rows))
    except ValueError as exc:
        raise CloudParseError(str(exc)) from None


def write_text_atomic(path: str, payload: str) -> None:
    """Write `payload` to a temp file beside `path`, then rename it over `path`."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".graphskel-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_cloud(path: str, cloud: PointCloud) -> None:
    lines = [",".join(repr(float(c)) for c in row) for row in cloud.coords]
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_json_atomic(path: str, obj: dict[str, Any]) -> None:
    write_text_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _int_list(arr) -> list[int]:
    return [int(i) for i in np.asarray(arr).tolist()]


def _float_list(arr) -> list[float]:
    return [float(x) for x in np.asarray(arr).tolist()]


def graph_to_dict(graph: AbstractGraph, refined: RefinedPartition, config: dict[str, Any]) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "graphskel.graph",
        "config": config,
        "dim": graph.cloud.dim,
        "n_points": len(graph.cloud),
        "vertices": [
            {
                "id": i,
                "centroid": _float_list(graph.vertex_centroids[i]),
                "members": _int_list(members),
            }
            for i, members in enumerate(graph.vertex_clusters)
        ],
        "edges": [
            {
                "id": j,
                "boundary": sorted(graph.boundary[j]),
                "members": _int_list(members),
            }
            for j, members in enumerate(graph.edge_clusters)
        ],
        "boundary_matrix": boundary_matrix(graph).tolist(),
        "labels": {
            "p0_tilde": _int_list(refined.p0_tilde),
            "p1_tilde": _int_list(refined.p1_tilde),
            "moved": _int_list(refined.moved),
        },
    }


def _get(doc: Any, *path: str | int) -> Any:
    """doc[path[0]][path[1]]..., or a ValueError naming the missing field."""
    for depth, key in enumerate(path):
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            raise ValueError(f"malformed document: no field {'.'.join(map(str, path[: depth + 1]))}") from None
    return doc


def _check_object(doc: Any) -> None:
    if not isinstance(doc, dict):
        raise ValueError("malformed document: the top level is not a JSON object")


def _field(doc: dict[str, Any], key: str, valid, what: str) -> Any:
    """doc[key], or a ValueError naming the field when it is missing or not `what`."""
    value = _get(doc, key)
    if not valid(value):
        raise ValueError(f"malformed document: field {key} is not {what}")
    return value


def _is_objects(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(item, dict) for item in value)


def graph_from_dict(doc: dict[str, Any], cloud: PointCloud) -> tuple[AbstractGraph, RefinedPartition]:
    _check_object(doc)
    if doc.get("kind") != "graphskel.graph":
        raise ValueError(f"not a graphskel graph document (kind={doc.get('kind')!r})")
    n_points = _field(doc, "n_points", lambda value: type(value) is int, "an integer")
    if n_points != len(cloud):
        raise ValueError(f"graph document describes {n_points} points but the cloud has {len(cloud)}")
    if _field(doc, "dim", lambda value: type(value) is int, "an integer") != cloud.dim:
        raise ValueError("graph document dimension does not match the cloud")
    vertices = _field(doc, "vertices", _is_objects, "a list of objects")
    edges = _field(doc, "edges", _is_objects, "a list of objects")
    vertex_clusters = [np.asarray(_get(v, "members"), dtype=int) for v in vertices]
    edge_clusters = [np.asarray(_get(e, "members"), dtype=int) for e in edges]
    boundary = [(int(_get(e, "boundary", 0)), int(_get(e, "boundary", 1))) for e in edges]
    centroids = (
        np.asarray([_get(v, "centroid") for v in vertices], dtype=float)
        if vertices
        else np.empty((0, cloud.dim))
    )
    graph = AbstractGraph(vertex_clusters, edge_clusters, boundary, centroids, cloud)
    refined = RefinedPartition(
        p0_tilde=np.asarray(_get(doc, "labels", "p0_tilde"), dtype=int),
        p1_tilde=np.asarray(_get(doc, "labels", "p1_tilde"), dtype=int),
        moved=np.asarray(_get(doc, "labels", "moved"), dtype=int),
    )
    return graph, refined


def graph_spec_to_dict(spec: EmbeddedGraphSpec) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "graphskel.graph-spec",
        "dim": spec.dim,
        "vertices": [_float_list(v) for v in spec.vertices],
        "edges": [[int(a), int(b)] for (a, b) in spec.edges],
    }


def graph_spec_from_dict(doc: dict[str, Any]) -> EmbeddedGraphSpec:
    _check_object(doc)
    if doc.get("kind") != "graphskel.graph-spec":
        raise ValueError(f"not a graphskel graph-spec document (kind={doc.get('kind')!r})")
    vertices, edges = _get(doc, "vertices"), _get(doc, "edges")
    try:
        vertices = np.asarray(vertices, dtype=float)
        edges = tuple((int(a), int(b)) for (a, b) in edges)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"malformed document: vertices must be coordinate rows and edges [i, j] pairs ({exc})"
        ) from None
    return EmbeddedGraphSpec(vertices, edges)
