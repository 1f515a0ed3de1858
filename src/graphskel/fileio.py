"""File formats: delimited point clouds, JSON graph/fit/report artifacts.

Clouds are plain text, one point per line, comma-separated coordinates,
shortest round-trip decimals. All writes are atomic (temp file + rename) and
every JSON artifact embeds the config that produced it.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import sys
import tempfile
import threading
from typing import Any

import numpy as np

from .abstract_graph import AbstractGraph, boundary_matrix
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

_INT64 = range(-(1 << 63), 1 << 63)
# The umask is read by setting it, process-wide: one thread at a time, and the
# value set meanwhile is the strictest.
_UMASK_LOCK = threading.Lock()


def read_cloud(path: str, skip_header: bool = False) -> PointCloud:
    """Parse a delimited cloud file; raises CloudParseError with line numbers.

    All fields are converted in one call. An error names the first faulty
    line and the first of its faults in this order: a field that is not a
    number, a width other than the first line's, a non-finite coordinate, a
    magnitude whose squared distances would overflow.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lineno, line) for lineno, raw in enumerate(fh, start=1) if (line := raw.strip())]
    lines = lines[1:] if skip_header else lines
    if not lines:
        raise CloudParseError(f"no points found in {path}")
    rows = [line.split(",") for _, line in lines]
    parsed = len(rows)  # the lines before the first one that does not parse
    try:
        values = np.array(list(itertools.chain.from_iterable(rows)), dtype=float)
    except ValueError:
        parsed = next(k for k, row in enumerate(rows) if not _parses(row))
        values = np.array(list(itertools.chain.from_iterable(rows[:parsed])), dtype=float)
    width = len(rows[0])
    # the largest magnitude whose squared distances stay finite
    limit = math.sqrt(sys.float_info.max / width) / 2
    widths = np.fromiter(map(len, rows[:parsed]), dtype=np.intp, count=parsed)
    line_of = np.repeat(np.arange(parsed), widths)
    bad = np.r_[np.flatnonzero(widths != width), line_of[~(np.abs(values) <= limit)]]  # nan is not <= limit
    faulty = int(bad.min(initial=parsed))
    if faulty == len(rows):
        return PointCloud(values.reshape(-1, width))
    lineno, line = lines[faulty]
    if faulty == parsed:
        raise CloudParseError(f"cannot parse coordinates from {line!r}", lineno)
    if widths[faulty] != width:
        raise CloudParseError(f"expected {width} coordinates, found {widths[faulty]}", lineno)
    if not np.all(np.isfinite(values[line_of == faulty])):
        raise CloudParseError(f"non-finite coordinates in {line!r}", lineno)
    raise CloudParseError(
        f"coordinate magnitude above {limit:.4g} in {line!r}: squared distances would overflow", lineno
    )


def _parses(fields: list[str]) -> bool:
    """Whether every field converts to a float."""
    try:
        np.array(fields, dtype=float)
    except ValueError:
        return False
    return True


def write_text_atomic(path: str, payload: str) -> None:
    """Write `payload` to a temp file beside `path`, then rename it over `path`.

    The file gets the mode `open()` would create it with, 0o666 less the
    umask, rather than the temp file's 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".graphskel-", suffix=".tmp")
    with _UMASK_LOCK:
        umask = os.umask(0o077)
        os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
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


def _document(kind: str, config: dict[str, Any] | None = None) -> dict[str, Any]:
    """The fields every JSON artifact opens with: the schema version, its
    `kind` and, when a run produced it, that run's `config`."""
    head = {"schema_version": SCHEMA_VERSION, "kind": kind}
    return head if config is None else head | {"config": config}


def graph_to_dict(graph: AbstractGraph, config: dict[str, Any]) -> dict[str, Any]:
    members = graph.members()
    n0 = graph.n_vertices
    return {
        **_document("graphskel.graph", config),
        "dim": graph.cloud.dim,
        "n_points": len(graph.cloud),
        "vertices": [
            {"id": i, "centroid": centroid.tolist(), "members": members[i].tolist()}
            for i, centroid in enumerate(graph.vertex_centroids)
        ],
        "edges": [
            {"id": j, "boundary": pair.tolist(), "members": members[n0 + j].tolist()}
            for j, pair in enumerate(graph.boundary)
        ],
        "boundary_matrix": boundary_matrix(graph).tolist(),
        "labels": {
            "p0_tilde": np.flatnonzero((graph.stratum >= 0) & (graph.stratum < n0)).tolist(),
            "p1_tilde": np.flatnonzero(graph.stratum >= n0).tolist(),
            "moved": np.flatnonzero(graph.moved).tolist(),
        },
    }


def _check_object(doc: Any) -> None:
    if not isinstance(doc, dict):
        raise ValueError("malformed document: the top level is not a JSON object")


def _field(doc: dict[str, Any], key: str, valid, what: str) -> Any:
    """doc[key], or a ValueError naming the field when it is missing or not `what`."""
    if key not in doc:
        raise ValueError(f"malformed document: no field {key}")
    value = doc[key]
    if not valid(value):
        raise ValueError(f"malformed document: field {key} is not {what}")
    return value


def _is_objects(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(item, dict) for item in value)


def _is_ints(value: Any) -> bool:
    return isinstance(value, list) and all(type(item) is int and item in _INT64 for item in value)


def _is_pair(value: Any) -> bool:
    return _is_ints(value) and len(value) == 2


def _is_point(value: Any, dim: int) -> bool:
    return (
        isinstance(value, list)
        and len(value) == dim
        and all(type(x) is float and math.isfinite(x) or type(x) is int and x in _INT64 for x in value)
    )


def _is_pairs(value: Any) -> bool:
    return isinstance(value, list) and all(map(_is_pair, value))


def _is_rows(value: Any) -> bool:
    """A non-empty list of points, all in the dimension (at least 1) of the first."""
    dim = len(value[0]) if isinstance(value, list) and value and isinstance(value[0], list) else 0
    return dim > 0 and all(_is_point(row, dim) for row in value)


def _stratum_column(clusters: list[list[int]], m: int) -> np.ndarray:
    """Each point's stratum, from per-stratum member lists that must partition 0..m-1."""
    point = np.asarray([i for members in clusters for i in members], dtype=np.int64)
    outside = point[(point < 0) | (point >= m)]
    if outside.size:
        raise ValueError(f"malformed document: members hold point {outside[0]}, outside 0..{m - 1}")
    count = np.bincount(point, minlength=m)
    for fault, which in (("repeat", count > 1), ("miss", count == 0)):
        if which.any():
            raise ValueError(f"malformed document: members {fault} point {np.flatnonzero(which)[0]}")
    stratum = np.empty(m, dtype=np.intp)
    stratum[point] = np.repeat(np.arange(len(clusters)), [len(members) for members in clusters])
    return stratum


def _centroid_margin(cloud: PointCloud) -> float:
    """How far outside the cloud's range on any axis a vertex centroid may
    lie: 10 x the cloud's bounding-box diagonal, or 10 when all points coincide."""
    span = cloud.coords.max(axis=0) - cloud.coords.min(axis=0)
    diag = float(np.sqrt(np.sum(span**2)))
    return 10.0 * diag if diag > 0 else 10.0


def graph_from_dict(doc: dict[str, Any], cloud: PointCloud) -> tuple[AbstractGraph, dict[str, Any]]:
    """The graph a `graph_to_dict` document describes, and the document's
    `config` object ({} when it has none); a fault is a ValueError naming its field."""
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
    ints = "a list of 64-bit integers"
    clusters = [_field(c, "members", _is_ints, ints) for c in vertices + edges]
    pairs = [_field(e, "boundary", _is_pair, "a pair of integers") for e in edges]
    boundary = np.array(pairs, dtype=int).reshape(-1, 2)
    point = f"a list of {cloud.dim} finite numbers"
    centroids = np.array(
        [_field(v, "centroid", lambda value: _is_point(value, cloud.dim), point) for v in vertices], dtype=float
    ).reshape(len(vertices), cloud.dim)
    labels = _field(doc, "labels", lambda value: isinstance(value, dict), "an object")
    p0, p1, moved = (
        np.asarray(_field(labels, key, _is_ints, ints), dtype=int) for key in ("p0_tilde", "p1_tilde", "moved")
    )
    stratum = _stratum_column(clusters, len(cloud))
    n0 = len(vertices)
    in_vertex = stratum < n0
    for fault, ok in (
        ("p0_tilde is not the set of points in vertex clusters", np.array_equal(p0, np.flatnonzero(in_vertex))),
        ("p1_tilde is not the set of points in edge clusters", np.array_equal(p1, np.flatnonzero(~in_vertex))),
        ("moved is not a sorted, distinct subset of p0_tilde", np.all(np.diff(moved) > 0) and np.isin(moved, p0).all()),
    ):
        if not ok:
            raise ValueError(f"malformed document: labels.{fault}")
    for fault, which in (
        (f"names a vertex outside 0..{n0 - 1}", np.any((boundary < 0) | (boundary >= n0), axis=1)),
        ("joins a vertex to itself", boundary[:, 0] == boundary[:, 1]),
    ):
        if which.any():
            j = np.flatnonzero(which)[0]
            raise ValueError(f"malformed document: edge {j} boundary {boundary[j].tolist()} {fault}")
    # compared per coordinate so that the test itself cannot overflow
    limit = _centroid_margin(cloud)
    far = np.argwhere((centroids < cloud.coords.min(axis=0) - limit) | (centroids > cloud.coords.max(axis=0) + limit))
    if far.size:
        i, k = far[0]
        raise ValueError(f"malformed document: vertex {i} centroid is over {limit:.6g} outside the cloud on axis {k}")
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise ValueError("malformed document: field config is not an object")
    is_moved = np.zeros(len(cloud), dtype=bool)
    is_moved[moved] = True
    return AbstractGraph(stratum, is_moved, boundary, centroids, cloud), config


def graph_spec_to_dict(spec: EmbeddedGraphSpec) -> dict[str, Any]:
    return {
        **_document("graphskel.graph-spec"),
        "dim": spec.dim,
        "vertices": spec.vertices.tolist(),
        "edges": [list(edge) for edge in spec.edges],
    }


def graph_spec_from_dict(doc: dict[str, Any]) -> EmbeddedGraphSpec:
    """The graph a `graph_spec_to_dict` document describes; a fault is a ValueError naming its field."""
    _check_object(doc)
    if doc.get("kind") != "graphskel.graph-spec":
        raise ValueError(f"not a graphskel graph-spec document (kind={doc.get('kind')!r})")
    dim = _field(doc, "dim", lambda value: type(value) is int, "an integer")
    vertices = _field(doc, "vertices", _is_rows, "a non-empty list of rows of finite numbers, all of one length")
    if dim != len(vertices[0]):
        raise ValueError(f"malformed document: field dim is {dim} but the vertices have {len(vertices[0])} coordinates")
    edges = _field(doc, "edges", _is_pairs, "a list of pairs of 64-bit integers")
    return EmbeddedGraphSpec(np.array(vertices, dtype=float), tuple(map(tuple, edges)))
