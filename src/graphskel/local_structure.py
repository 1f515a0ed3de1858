"""Per-point classification into vertex-like or edge-like local structure.

A sample's local structure is the pair of threshold graphs on the ball
B_{R+eps}(p) and the spherical shell S_{R-eps}^{R+eps}(p), both at contact
scale 3*eps. A connected ball with exactly two shell clusters whose centroids
subtend a wide angle at p is the signature of an edge interior; everything
else is vertex-like.

`classify_sweep` builds both graphs on clique cells: grid cells of side
3*eps/sqrt(n), each checked exactly to be a clique of the contact graph. The
members of one cell inside one ball or one shell are then a single node, so
the graphs grow with the number of cells a ball meets, not with its points.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .geometry import (
    PointCloud,
    angle_cosine,
    ball_members,
    component_centroids,
    component_labels,
    distance,
    point_segment_distance,
    segment_segment_distance,
)

if TYPE_CHECKING:
    from .synthetic import EmbeddedGraphSpec

__all__ = [
    "ReconstructionConfig",
    "LocalLabels",
    "Partition",
    "psi",
    "phi",
    "inner_product_threshold",
    "classify_all",
    "classify_sweep",
    "partition",
    "AssumptionReport",
    "ConditionCheck",
    "check_assumptions",
]

_ASIN_CLAMP = 1e-12  # tolerate only rounding-level excursions outside [-1, 1]

# Centres are classified in chunks of at most this many (centre, ball member)
# nodes at the largest ball size among _SAMPLE centres spread over the cloud.
# It bounds a chunk's node and group arrays; its edge lists add at most the
# cell degree per group and, for members of cut cells, the contact degree.
_NODE_BUDGET = 1 << 14
_SAMPLE = 64


@dataclass(frozen=True)
class ReconstructionConfig:
    """The scale pair (R, eps) and the thresholds derived from it.

    `guarantee_warning` is set when R < 12*eps: the classifier still runs, but
    the correctness guarantees no longer apply.
    """

    R: float
    eps: float
    guarantee_warning: bool = field(init=False)

    def __post_init__(self):
        for name, value in (("eps", self.eps), ("R", self.R)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.R > self.eps:
            raise ValueError("R must exceed eps (the shell would be empty)")
        # rounding-tolerant: R = ratio * eps computed in floats must not flip
        # an exact ratio-12 configuration out of the guarantee regime
        object.__setattr__(
            self, "guarantee_warning", self.R < 12 * self.eps * (1 - 1e-9)
        )

    @property
    def ratio(self) -> float:
        return self.R / self.eps

    @property
    def ball_radius(self) -> float:
        return self.R + self.eps

    @property
    def shell_inner(self) -> float:
        return self.R - self.eps

    @property
    def shell_outer(self) -> float:
        return self.R + self.eps

    @property
    def contact_scale(self) -> float:
        """Threshold-graph scale 3*eps used for both local graphs."""
        return 3 * self.eps

    @property
    def vertex_cluster_scale(self) -> float:
        """Clustering scale 3R/2 + 2*eps for the vertex-like set."""
        return 1.5 * self.R + 2 * self.eps

    @property
    def ip_threshold(self) -> float:
        return inner_product_threshold(self)


class LocalLabels(NamedTuple):
    """Classification of every sample plus the evidence that produced it, one (m,) column each."""

    vertex_like: np.ndarray  # bool
    ball_connected: np.ndarray  # bool
    shell_components: np.ndarray  # int
    inner_product: np.ndarray  # float; NaN where no inner product is taken


@dataclass(frozen=True)
class Partition:
    """Disjoint split of all cloud indices into vertex-like and edge-like."""

    p0: np.ndarray
    p1: np.ndarray

    @property
    def size(self) -> int:
        return self.p0.size + self.p1.size


def _checked_asin(arg: float, context: str) -> float:
    if abs(arg) > 1 + _ASIN_CLAMP:
        raise ValueError(f"{context}: arcsin argument {arg} outside [-1, 1]")
    return math.asin(min(1.0, max(-1.0, arg)))


def _checked_acos(arg: float, context: str) -> float:
    if abs(arg) > 1 + _ASIN_CLAMP:
        raise ValueError(f"{context}: arccos argument {arg} outside [-1, 1]")
    return math.acos(min(1.0, max(-1.0, arg)))


def psi(R: float, eps: float) -> float:
    """Upper angle bound for degree-2 vertices, in radians.

    Scale invariant: psi(k*R, k*eps) == psi(R, eps). Defined for R > 12*eps;
    below that a warning is emitted and the formula is still evaluated.
    """
    if not (R > 0 and eps > 0):
        raise ValueError("R and eps must be positive")
    if R <= 12 * eps:
        warnings.warn(
            f"psi evaluated outside the guarantee regime (R/eps = {R / eps:.3g} <= 12)",
            RuntimeWarning,
            stacklevel=2,
        )
    num = R * R - 4 * R * eps - 9 * eps * eps
    den = (R + eps) * math.sqrt(R * R + 6 * R * eps + 34 * eps * eps)
    return math.pi - math.atan((R + 3 * eps) / (6 * eps)) + _checked_asin(num / den, "psi")


def phi(R: float, eps: float) -> float:
    """Lower angle bound between edges at a shared vertex, in radians."""
    if not (R > 0 and eps > 0):
        raise ValueError("R and eps must be positive")
    if not R > eps:
        raise ValueError("phi requires R > eps")
    re = R - eps
    first = _checked_acos((re * re - 18 * eps * eps) / (re * re), "phi")
    second = 2 * _checked_asin(2 * eps / re, "phi")
    return first + second


def inner_product_threshold(config: ReconstructionConfig) -> float:
    """Shell-centroid inner-product cutoff -R^2 + 2*R*eps + 7*eps^2."""
    R, eps = config.R, config.eps
    return -R * R + 2 * R * eps + 7 * eps * eps


def classify_all(cloud: PointCloud, config: ReconstructionConfig) -> LocalLabels:
    """Classify every sample by its (R, eps)-local structure.

    Each label is what the definition gives from one exact ball and one exact
    shell scan about the sample, each split by `threshold_components`. The
    sample itself takes part in the ball graph but not in the shell (its
    self-distance 0 is <= R - eps). An empty shell counts as 0 components,
    which classifies vertex-like and covers degree-0 vertices. The inner
    product of the two shell centroids (about the sample) is taken only for
    a connected ball with exactly two shell components.
    """
    return classify_sweep(cloud, (config,))[0]


def classify_sweep(cloud: PointCloud, configs) -> list[LocalLabels]:
    """`classify_all(cloud, config)` for each of `configs`, from one pass over the cloud.

    All configs share one eps, hence one 3*eps contact graph. The cloud's own
    k-d tree serves all centres, and its contact pairs give one set of clique
    cells (`_clique_cells`) for the whole sweep. The balls of a chunk of
    centres are queried once, at the largest radius R + eps; every smaller
    ball is the subset of nodes whose exact distance is <= its own R + eps,
    and its shell the subset farther than R - eps. Within one ball or one
    shell, the members of one cell are pairwise in contact, so the graph's
    nodes are (centre, cell) groups. A group holding all of its cell's members
    is complete: it meets another complete group exactly when the two cells
    are adjacent. Edges at a cut group come from the contact neighbours of
    its members. Each config takes two connected-components passes per chunk,
    one over each group graph.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("classify_sweep needs at least one config; all configs share one eps")
    eps = configs[0].eps
    if any(config.eps != eps for config in configs):
        raise ValueError(f"all configs must share one eps (one 3*eps contact graph), got {[c.eps for c in configs]}")
    m = len(cloud)
    sweep = [
        LocalLabels(np.zeros(m, bool), np.zeros(m, bool), np.zeros(m, np.intp), np.full(m, np.nan)) for _ in configs
    ]
    if m == 0:
        return sweep
    coords = cloud.coords
    tree = cloud.tree
    cells = _clique_cells(cloud, configs[0].contact_scale)
    radius = max(config.ball_radius for config in configs)
    # each chunk takes as many centres as fit the budget at the largest ball size of a sample
    sample = tree.query_ball_point(coords[:: -(-m // _SAMPLE)], radius, return_length=True)
    size = max(1, _NODE_BUDGET // int(sample.max()))
    for start in range(0, m, size):
        stop = min(m, start + size)
        chunk = _classify_chunk(coords, tree, np.arange(start, stop), cells, configs, radius)
        for labels, values in zip(sweep, chunk):
            for column, column_values in zip(labels, values):
                column[start:stop] = column_values
    return sweep


class _Cells(NamedTuple):
    """A cloud's clique cells at one contact scale, and the adjacency that stage 1 reads.

    A block lists the contact neighbours of one point that lie in one other
    cell: block b holds the points `nbr[block_ptr[b]:block_ptr[b + 1]]` of cell
    `block_cell[b]`, and point i owns the blocks `touch_ptr[i]:touch_ptr[i + 1]`.
    """

    of: np.ndarray  # (m,) cell of each point
    size: np.ndarray  # (C,) members per cell
    adj_ptr: np.ndarray  # CSR over cells: row c lists the larger cells joined to c by a contact pair
    adj: np.ndarray
    touch_ptr: np.ndarray
    block_cell: np.ndarray
    block_ptr: np.ndarray
    nbr: np.ndarray


def _clique_cells(cloud: PointCloud, r: float) -> _Cells:
    """Grid cells of side r/sqrt(n), each a clique of the contact graph at scale r.

    Cells are checked exactly: a cell is kept only if the cloud's contact
    pairs join all of its member pairs, and a cell that fails splits into
    singletons. The grid itself only proposes cells, so it needs no
    exactness: it is built from halved coordinates, whose differences cannot
    overflow, with at most 2**52 cells a side.
    """
    coords = cloud.coords
    m, n = coords.shape
    ci, cj, _ = cloud.contact_pairs(r)
    half = coords * 0.5
    side = max(r * 0.5 / math.sqrt(n), math.ulp(0.0))
    grid = np.floor(np.minimum(half - half.min(axis=0), side * 2.0**52) / side).astype(np.int64)
    # one integer per grid cell; past 2**63 cells the radix wraps and may merge cells, which the check splits
    radix = np.cumprod(np.r_[1, grid.max(axis=0)[:-1] + 1])
    cell = np.unique(grid @ radix, return_inverse=True)[1]
    size = np.bincount(cell)
    inside = cell[ci] == cell[cj]
    clique = np.bincount(cell[ci[inside]], minlength=size.size) == size * (size - 1) // 2
    # number the cells by first member, a failed cell's members each on their own
    lead = np.full(size.size, m)
    np.minimum.at(lead, cell, np.arange(m))
    cell = np.unique(np.where(clique[cell], lead[cell], np.arange(m)), return_inverse=True)[1]
    size = np.bincount(cell)
    n_cells = size.size
    # every contact pair across two cells, from both ends, sorted by (point, the other end's cell)
    src, dst = np.concatenate([ci, cj]), np.concatenate([cj, ci])
    across = cell[src] != cell[dst]
    key = src[across] * n_cells + cell[dst[across]]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    point, block_cell = np.divmod(key[starts], n_cells)
    # the cell pairs joined by a contact pair, each once, listed under the smaller cell
    own = cell[point]
    lower, upper = np.divmod(np.unique(own[own < block_cell] * n_cells + block_cell[own < block_cell]), n_cells)
    return _Cells(
        cell,
        size,
        _row_ptr(lower, n_cells),
        upper,
        _row_ptr(point, m),
        block_cell,
        np.r_[starts, key.size],
        dst[across][order],
    )


def _row_ptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of n rows whose entries' sorted row ids are `rows`."""
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr


def _entries(rows: np.ndarray, ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in `rows`, entry index) for every CSR entry of each of `rows`."""
    deg = ptr[rows + 1] - ptr[rows]
    pos = np.repeat(np.arange(rows.size), deg)
    offsets = np.cumsum(deg) - deg
    return pos, np.arange(pos.size) + np.repeat(ptr[rows] - offsets, deg)


def _lookup(keys: np.ndarray, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, found) of each of `want` in the strictly increasing `keys`."""
    at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return at, keys[at] == want


def _classify_chunk(coords, tree, centres, cells: _Cells, configs, radius: float) -> list[LocalLabels]:
    """The labels of `centres` at each of `configs`, from one ball query at
    `radius`, the largest ball radius of the configs."""
    owner, member, d = ball_members(tree, coords, centres, radius)
    n_cells = cells.size.size
    # (centre, cell) groups, sorted by centre
    key = owner * n_cells + cells.of[member]
    group_key, group = np.unique(key, return_inverse=True)
    group_owner, group_cell = np.divmod(group_key, n_cells)
    # adjacent cells of one centre, each pair once: the group edges between complete groups
    src, at = _entries(group_cell, cells.adj_ptr)
    dst, found = _lookup(group_key, group_key[src] - group_cell[src] + cells.adj[at])
    joined = src[found], dst[found]
    node_key = owner * len(coords) + member  # strictly increasing: members come sorted per centre

    def components(region):
        """The components of `region`, a node mask, over its groups: each
        group's label, ranked by smallest group and -1 outside the region,
        and the count per centre."""
        count = np.bincount(group[region], minlength=group_key.size)
        complete = count == cells.size[group_cell]
        both = complete[joined[0]] & complete[joined[1]]
        # a cut group meets each present group of a cell its region members touch:
        # a complete one outright, a cut one if a touched point is in the region
        cut = np.flatnonzero(region & ~complete[group])
        at, block = _entries(member[cut], cells.touch_ptr)
        x = group[cut[at]]
        y, found = _lookup(group_key, key[cut[at]] - group_cell[x] + cells.block_cell[block])
        found &= count[y] > 0
        full = found & complete[y]
        part = np.flatnonzero(found & ~complete[y] & (x < y))
        at2, entry = _entries(block[part], cells.block_ptr)
        u = cut[at[part[at2]]]
        node, hit = _lookup(node_key, node_key[u] - member[u] + cells.nbr[entry])
        hit[hit] = region[node[hit]]
        present = count > 0
        pos = np.cumsum(present) - 1
        src = pos[np.concatenate([joined[0][both], x[full], group[u[hit]]])]
        dst = pos[np.concatenate([joined[1][both], y[full], group[node[hit]]])]
        labels, n_labels = component_labels(int(pos[-1]) + 1, src, dst)
        comp_owner = np.empty(n_labels, dtype=np.intp)
        comp_owner[labels] = group_owner[present]
        group_label = np.full(group_key.size, -1)
        group_label[present] = labels
        return group_label, np.bincount(comp_owner, minlength=centres.size)

    chunk = []
    for config in configs:
        ball = d <= config.ball_radius
        shell = ball & (d > config.shell_inner)
        connected = components(ball)[1] <= 1
        shell_labels, shell_count = components(shell)
        # Each candidate centre owns two consecutive labels, and labels grow
        # with the centre. Members are summed in member order, as in a scan.
        cand = connected & (shell_count == 2)
        sel = shell & cand[owner]
        _, comp = np.unique(shell_labels[group[sel]], return_inverse=True)
        chunk.append(_labels(coords, centres, member[sel], comp, connected, shell_count, config))
    return chunk


def _labels(coords, centres, members, comp, connected, shell_count, config) -> LocalLabels:
    """One config's labels of `centres`, where `comp` numbers the shell
    components of the candidates (connected, two shell components) 0, 1, ...
    in pairs per centre, and `members` are their members."""
    cand = connected & (shell_count == 2)
    n_cand = int(cand.sum())
    centroids = component_centroids(coords[members], comp, 2 * n_cand).reshape(n_cand, 2, coords.shape[1])
    p = coords[centres[cand]]
    a, b = centroids[:, 0] - p, centroids[:, 1] - p
    ip = np.full(centres.size, np.nan)
    ip[cand] = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    vertex_like = connected & ((shell_count != 2) | (ip > config.ip_threshold))
    return LocalLabels(vertex_like, connected, shell_count, ip)


def partition(cloud: PointCloud, config: ReconstructionConfig, labels: LocalLabels | None = None) -> Partition:
    """Split the cloud into P0 (vertex-like) and P1 (edge-like), from `labels`
    when given (this config's `classify_sweep` entry) or else `classify_all`."""
    vertex_like = (classify_all(cloud, config) if labels is None else labels).vertex_like
    return Partition(p0=np.flatnonzero(vertex_like), p1=np.flatnonzero(~vertex_like))


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    margin: float  # positive when satisfied; distance to the bound
    witness: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    conditions: tuple[ConditionCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.conditions)


def _vertex_angles(graph: "EmbeddedGraphSpec") -> list[tuple[int, int, int, float]]:
    """All (vertex, neighbor_a, neighbor_b, angle) triples at shared vertices."""
    out = []
    for v in range(graph.n_vertices):
        nbrs = graph.neighbors(v)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                c = angle_cosine(graph.vertices[v], graph.vertices[nbrs[i]], graph.vertices[nbrs[j]])
                out.append((v, nbrs[i], nbrs[j], math.acos(min(1.0, max(-1.0, c)))))
    return out


def check_assumptions(graph: "EmbeddedGraphSpec", config: ReconstructionConfig) -> AssumptionReport:
    """Evaluate the five embedding conditions the guarantees rest on.

    The report is total: every condition is evaluated even after a failure,
    and each failing condition carries the violating witness.
    """
    R, eps = config.R, config.eps
    V = graph.vertices
    checks = []

    # 1. vertex separation > 9R/2 + 6 eps (strict)
    bound = 4.5 * R + 6 * eps
    worst, witness = math.inf, ""
    for i in range(graph.n_vertices):
        for j in range(i + 1, graph.n_vertices):
            d = distance(V[i], V[j])
            if d < worst:
                worst, witness = d, f"vertices {i},{j} at distance {d:.6g}"
    ok = worst > bound
    checks.append(ConditionCheck("vertex_separation", ok, worst - bound, "" if ok else witness))

    # 2. vertex to non-incident edge > 3R/2 + 4 eps
    bound = 1.5 * R + 4 * eps
    worst, witness = math.inf, ""
    for v in range(graph.n_vertices):
        for (a, b) in graph.edges:
            if v in (a, b):
                continue
            d = point_segment_distance(V[v], V[a], V[b])
            if d < worst:
                worst, witness = d, f"vertex {v} to edge ({a},{b}) at distance {d:.6g}"
    ok = worst > bound
    checks.append(ConditionCheck("vertex_edge_clearance", ok, worst - bound, "" if ok else witness))

    # 3. edges sharing no vertex > 5 eps apart
    bound = 5 * eps
    worst, witness = math.inf, ""
    for i in range(graph.n_edges):
        for j in range(i + 1, graph.n_edges):
            e1, e2 = graph.edges[i], graph.edges[j]
            if set(e1) & set(e2):
                continue
            d = segment_segment_distance(V[e1[0]], V[e1[1]], V[e2[0]], V[e2[1]])
            if d < worst:
                worst, witness = d, f"edges {e1} and {e2} at distance {d:.6g}"
    ok = worst > bound
    checks.append(ConditionCheck("edge_edge_clearance", ok, worst - bound, "" if ok else witness))

    angles = _vertex_angles(graph)

    # 4. every shared-vertex angle >= Phi(R, eps)
    try:
        lower = phi(R, eps)
    except ValueError as exc:
        checks.append(ConditionCheck("angle_lower_bound", False, -math.inf, f"Phi undefined: {exc}"))
    else:
        worst, witness = math.inf, ""
        for (v, a, b, ang) in angles:
            if ang < worst:
                worst, witness = ang, f"angle {ang:.6g} rad at vertex {v} between edges to {a},{b}"
        ok = worst >= lower
        checks.append(ConditionCheck("angle_lower_bound", ok, worst - lower, "" if ok else witness))

    # 5. degree-2 vertex angles <= Psi(R, eps)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            upper = psi(R, eps)
    except ValueError as exc:
        checks.append(ConditionCheck("deg2_angle_upper_bound", False, -math.inf, f"Psi undefined: {exc}"))
    else:
        worst, witness = -math.inf, ""
        for (v, a, b, ang) in angles:
            if graph.degree(v) == 2 and ang > worst:
                worst, witness = ang, f"angle {ang:.6g} rad at degree-2 vertex {v}"
        ok = worst <= upper  # vacuously true with no degree-2 vertices
        checks.append(ConditionCheck("deg2_angle_upper_bound", ok, upper - worst, "" if ok else witness))

    return AssumptionReport(tuple(checks))
