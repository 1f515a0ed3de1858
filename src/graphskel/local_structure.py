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
Each cell is decided against each sphere as a whole wherever the sphere does
not cut it, so only the members of cut cells have their distances computed.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    _QUERY_PAD,
    PointCloud,
    _padded,
    _pair_distances,
    angle_cosine,
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

# Centres are classified in chunks, sized from _SAMPLE centres spread over
# the cloud. A chunk holds at most _NODE_BUDGET (centre, ball member) pairs at
# the largest sampled ball, which bounds its groups and its checked members;
# its edge lists add at most the cell degree per group and, for members of
# cut cells, the contact degree. Its (centre, cell) -> group table, one int32
# per centre and cell met by the chunk, holds at most _TABLE_BUDGET entries:
# a chunk of s centres meets at most the C cells, and at most s times the most
# cells a sampled centre meets.
_NODE_BUDGET = 1 << 14
_TABLE_BUDGET = 1 << 20
_SAMPLE = 64
# A sphere is decided for a whole cell only with this relative margin, and
# only where the squares of distances near it are normal doubles: from
# _NORMAL to 1 / _NORMAL.
_MARGIN = 4 * _QUERY_PAD
_NORMAL = 2.0**-450


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
        object.__setattr__(self, "guarantee_warning", _below_guarantee(self.R, self.eps))

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


def _below_guarantee(R: float, eps: float) -> bool:
    """R < 12*eps, rounding-tolerant: R = ratio * eps computed in floats must
    not flip an exact ratio-12 scale pair out of the guarantee regime."""
    return R < 12 * eps * (1 - 1e-9)


def _checked(f, arg: float, context: str) -> float:
    """f (math.asin or math.acos) at `arg` clamped into [-1, 1], which it may leave only by rounding."""
    if abs(arg) > 1 + _ASIN_CLAMP:
        raise ValueError(f"{context}: {f.__name__} argument {arg} outside [-1, 1]")
    return f(min(1.0, max(-1.0, arg)))


def psi(R: float, eps: float) -> float:
    """Upper angle bound for degree-2 vertices, in radians.

    Scale invariant: psi(k*R, k*eps) == psi(R, eps). Defined for R >= 12*eps;
    below that a warning is emitted and the formula is still evaluated.
    """
    if not (R > 0 and eps > 0):
        raise ValueError("R and eps must be positive")
    if _below_guarantee(R, eps):
        warnings.warn(
            f"psi evaluated outside the guarantee regime (R/eps = {R / eps:.3g} < 12)",
            RuntimeWarning,
            stacklevel=2,
        )
    num = R * R - 4 * R * eps - 9 * eps * eps
    den = (R + eps) * math.sqrt(R * R + 6 * R * eps + 34 * eps * eps)
    return math.pi - math.atan((R + 3 * eps) / (6 * eps)) + _checked(math.asin, num / den, "psi")


def phi(R: float, eps: float) -> float:
    """Lower angle bound between edges at a shared vertex, in radians."""
    if not (R > 0 and eps > 0):
        raise ValueError("R and eps must be positive")
    if not R > eps:
        raise ValueError("phi requires R > eps")
    re = R - eps
    first = _checked(math.acos, (re * re - 18 * eps * eps) / (re * re), "phi")
    second = 2 * _checked(math.asin, 2 * eps / re, "phi")
    return first + second


def inner_product_threshold(config: ReconstructionConfig) -> float:
    """Shell-centroid inner-product cutoff -R^2 + 2*R*eps + 7*eps^2."""
    R, eps = config.R, config.eps
    return -R * R + 2 * R * eps + 7 * eps * eps


def classify_all(cloud: PointCloud, config: ReconstructionConfig) -> LocalLabels:
    """Classify every sample by its (R, eps)-local structure.

    Each label is what the definition gives from one exact ball and one exact
    shell scan about the sample, each split into components at the contact
    scale. The sample itself takes part in the ball graph but not in the shell
    (its self-distance 0 is <= R - eps). An empty shell counts as 0 components,
    which classifies vertex-like and covers degree-0 vertices. The inner
    product of the two shell centroids (about the sample) is taken only for
    a connected ball with exactly two shell components.
    """
    return classify_sweep(cloud, (config,))[0]


def classify_sweep(cloud: PointCloud, configs) -> list[LocalLabels]:
    """`classify_all(cloud, config)` for each of `configs`, from one pass over the cloud.

    All configs share one eps, hence one 3*eps contact graph. The cloud's
    contact pairs give one set of clique cells (`_clique_cells`) for the
    whole sweep. Within one ball or one shell, the members of one cell are
    pairwise in contact, so the graph's nodes are (centre, cell) groups.
    The cells about a chunk of centres are queried once, from the k-d tree of
    the cells' leads, at the largest R + eps plus the largest reach. Against
    each config's spheres R + eps and R - eps, a cell is then wholly inside,
    wholly outside, or cut: the centre's distance to the lead, plus or minus
    the cell's reach, bounds every member's distance, and must clear the
    sphere by a relative margin (`_sides`). Only the members of cut cells
    get their exact distance; each config's ball is the members within its
    R + eps, and its shell those also beyond its R - eps. A group holding all
    of its cell's members is complete: it meets another complete group
    exactly when the two cells are adjacent. Edges at a cut group come from
    the contact neighbours of its members. A per-chunk table gives the group
    of each (centre, cell), so every group lookup is a gather. Each config
    takes two connected-components passes per chunk, one over each group
    graph.
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
    # each chunk takes as many centres as fit both budgets at the largest ball
    # and the most cells met among a sample of centres
    sample = coords[:: -(-m // _SAMPLE)]
    ball = int(tree.query_ball_point(sample, radius, return_length=True).max())
    met = int(cells.tree.query_ball_point(sample, _lead_radius(cells, radius), return_length=True).max())
    table = max(_TABLE_BUDGET // cells.size.size, math.isqrt(_TABLE_BUDGET // met))
    size = max(1, min(_NODE_BUDGET // ball, table))
    for start in range(0, m, size):
        stop = min(m, start + size)
        chunk = _classify_chunk(coords, np.arange(start, stop), cells, configs, radius)
        for labels, values in zip(sweep, chunk):
            for column, column_values in zip(labels, values):
                column[start:stop] = column_values
    return sweep


class _Cells(NamedTuple):
    """A cloud's clique cells at one contact scale, and what stage 1 reads of them.

    Cell c holds the points `members[ptr[c]:ptr[c + 1]]`, in index order. Its
    lead is the first of them and its reach the largest distance from a member
    to the lead, so one distance from a centre to the lead bounds the distance
    to every member. `tree` indexes the leads' coordinates in cell order.

    A block lists the contact neighbours of one point that lie in one other
    cell: block b holds the points `nbr[block_ptr[b]:block_ptr[b + 1]]` of cell
    `block_cell[b]`, and point i owns the blocks `touch_ptr[i]:touch_ptr[i + 1]`.
    """

    of: np.ndarray  # (m,) cell of each point
    size: np.ndarray  # (C,) members per cell
    ptr: np.ndarray  # (C + 1,) CSR over cells of `members`
    members: np.ndarray
    rank: np.ndarray  # (m,) position of each point in its cell's member list
    lead: np.ndarray  # (C,) first member of each cell
    reach: np.ndarray  # (C,) largest distance from a member to the lead
    tree: cKDTree
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
    ci, cj = cloud.contact_pairs(r)
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
    members = np.argsort(cell, kind="stable")
    ptr = _row_ptr(cell, n_cells)
    lead = members[ptr[:-1]]
    rank = np.empty(m, dtype=np.intp)
    rank[members] = np.arange(m) - np.repeat(ptr[:-1], size)
    reach = np.maximum.reduceat(_pair_distances(coords, members, np.repeat(lead, size)), ptr[:-1])
    # every contact pair across two cells, from both ends, sorted by (point, the
    # other end's cell); indices keep the pairs' width, and each temporary is
    # dropped once read, since the pairs outnumber the points
    across = cell[ci] != cell[cj]
    i, j = ci[across], cj[across]
    del across
    nbr = np.concatenate([j, i])
    key = np.concatenate([i, j]).astype(np.int64)
    del i, j
    key *= n_cells
    key += cell.astype(nbr.dtype)[nbr]
    order = np.argsort(key, kind="stable")
    nbr = nbr[order]
    del order
    key.sort()
    new = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    point, block_cell = np.divmod(key[starts], n_cells)
    block_ptr = np.r_[starts, key.size]
    del key
    # the cell pairs joined by a contact pair, each once, listed under the smaller cell
    own = cell[point]
    lower, upper = np.divmod(np.unique(own[own < block_cell] * n_cells + block_cell[own < block_cell]), n_cells)
    return _Cells(
        cell,
        size,
        ptr,
        members,
        rank,
        lead,
        reach,
        cKDTree(coords[lead]),
        _row_ptr(lower, n_cells),
        upper,
        _row_ptr(point, m),
        block_cell,
        block_ptr,
        nbr,
    )


def _row_ptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of n rows whose entries' row ids are `rows`."""
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr


def _entries(rows: np.ndarray, ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in `rows`, entry index) for every CSR entry of each of `rows`."""
    deg = ptr[rows + 1] - ptr[rows]
    pos = np.repeat(np.arange(rows.size), deg)
    offsets = np.cumsum(deg) - deg
    return pos, np.arange(pos.size) + np.repeat(ptr[rows] - offsets, deg)


def _flatten(hits) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and concatenation of a k-d tree's per-query index lists."""
    sizes = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
    flat = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp, count=int(sizes.sum()))
    return sizes, flat


def _lead_radius(cells: _Cells, radius: float) -> float:
    """The padded radius about a centre within which lie the leads of all
    cells with a member at most `radius` away."""
    return _padded(max(radius + float(cells.reach.max()), _NORMAL))


def _query_cells(cells: _Cells, coords, centres, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, cell, d): every cell whose lead lies within `radius` plus the
    largest reach (padded) of one of `centres`, sorted by (owner, cell), with
    d the distance from the centre to the lead. These are all the cells that
    may meet the ball of radius `radius` about a centre."""
    hits = cells.tree.query_ball_point(coords[centres], _lead_radius(cells, radius), return_sorted=True)
    sizes, cell = _flatten(hits)
    owner = np.repeat(np.arange(centres.size), sizes)
    return owner, cell, _pair_distances(coords, cells.lead[cell], centres[owner])


def _sides(d: np.ndarray, reach: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(inside, outside): the cells whose members all lie within distance t
    of a centre, and all beyond it, as an exact scan decides, from the
    centre's distance d to each lead. A cell is decided only with a margin
    that covers the rounding of d, its reach and each member's distance, and
    only where their squares are normal doubles; every other cell is cut."""
    sure = (t >= _NORMAL) & (d + reach <= 1 / _NORMAL)
    return sure & (d + reach < t * (1 - _MARGIN)), sure & (d - reach > t * (1 + _MARGIN))


def _classify_chunk(coords, centres, cells: _Cells, configs, radius: float) -> list[LocalLabels]:
    """The labels of `centres` at each of `configs`, from one query of the
    cells about them at `radius`, the largest ball radius of the configs."""
    owner, cell, d = _query_cells(cells, coords, centres, radius)
    keep = np.flatnonzero(~_sides(d, cells.reach[cell], radius)[1])
    # (centre, cell) groups, sorted by centre: the cells that may meet the largest ball
    owner, cell, d = owner[keep], cell[keep], d[keep]
    size, reach = cells.size[cell], cells.reach[cell]
    spheres = [(_sides(d, reach, c.ball_radius), _sides(d, reach, c.shell_inner)) for c in configs]
    decided = np.ones(owner.size, dtype=bool)
    for sphere in spheres:
        for inside, outside in sphere:
            decided &= inside | outside
    # group of each (centre, cell) met; column 0 answers every cell the chunk does not meet
    met = np.zeros(cells.size.size, dtype=bool)
    met[cell] = True
    column = np.where(met, np.cumsum(met), 0)
    width = int(column.max()) + 1
    table = np.full(centres.size * width, -1, dtype=np.int32)  # row-major (centre, column)
    table[owner * width + column[cell]] = np.arange(owner.size)
    # adjacent cells of one centre, each pair once: the group edges between complete groups
    src, at = _entries(cell, cells.adj_ptr)
    dst = table[owner[src] * width + column[cells.adj[at]]]
    linked = np.flatnonzero(dst >= 0)
    joined = src[linked], dst[linked]
    # the members of cut groups, whose distances are checked one by one
    cut = np.flatnonzero(~decided)
    at, entry = _entries(cell[cut], cells.ptr)
    group = cut[at]
    member = cells.members[entry]
    first = np.zeros(owner.size, dtype=np.intp)  # position of each cut group's first member
    first[cut] = np.cumsum(size[cut]) - size[cut]
    member_d = _pair_distances(coords, member, centres[owner[group]])

    def components(count, region):
        """The components of a region, given its member count per group and
        its members among the checked ones: each group's label, ranked by
        smallest group and -1 outside the region, the count per centre, and
        each label's centre."""
        complete = count == size
        both = np.flatnonzero(complete[joined[0]] & complete[joined[1]])
        # a cut group meets each present group of a cell its region members touch:
        # a complete one outright, a cut one if a touched point is in the region
        loose = np.flatnonzero(region & ~complete[group])
        at, block = _entries(member[loose], cells.touch_ptr)
        x = group[loose[at]]
        y = table[owner[x] * width + column[cells.block_cell[block]]]
        found = (y >= 0) & (count[y] > 0)
        full = np.flatnonzero(found & complete[y])
        part = np.flatnonzero(found & ~complete[y] & (x < y))
        at2, entry = _entries(block[part], cells.block_ptr)
        x2, y2 = x[part[at2]], y[part[at2]]
        hit = np.flatnonzero(region[first[y2] + cells.rank[cells.nbr[entry]]])
        present = np.flatnonzero(count)
        pos = np.cumsum(count > 0) - 1
        src = pos[np.concatenate([joined[0][both], x[full], x2[hit]])]
        dst = pos[np.concatenate([joined[1][both], y[full], y2[hit]])]
        labels, n_labels = component_labels(present.size, src, dst)
        label_owner = np.empty(n_labels, dtype=np.intp)
        label_owner[labels] = owner[present]
        group_label = np.full(owner.size, -1)
        group_label[present] = labels
        return group_label, np.bincount(label_owner, minlength=centres.size), label_owner

    chunk = []
    for config, ((ball_in, _), (_, inner_out)) in zip(configs, spheres):
        ball = member_d <= config.ball_radius
        shell = ball & (member_d > config.shell_inner)
        # a group's count is its cell's size where the cell lies wholly in the
        # region, and else the number of its checked members in it
        in_shell = decided & ball_in & inner_out
        ball_count, shell_count = (
            np.where(wholly, size, np.bincount(group[np.flatnonzero(region)], minlength=owner.size))
            for wholly, region in ((ball_in, ball), (in_shell, shell))
        )
        connected = components(ball_count, ball)[1] <= 1
        shell_labels, n_shell, label_owner = components(shell_count, shell)
        # Each candidate centre owns two consecutive labels, and labels grow
        # with the centre. Members are summed in member order, as in a scan.
        cand = connected & (n_shell == 2)
        comp = np.cumsum(cand[label_owner]) - 1
        whole = np.flatnonzero(in_shell & cand[owner])
        at, entry = _entries(cell[whole], cells.ptr)
        sel = np.flatnonzero(shell & cand[owner[group]])
        members = np.concatenate([cells.members[entry], member[sel]])
        comp = comp[shell_labels[np.concatenate([whole[at], group[sel]])]]
        order = np.argsort(comp * len(coords) + members)
        n_cand = int(cand.sum())
        centroids = component_centroids(coords, comp[order], 2 * n_cand, members[order])
        centroids = centroids.reshape(n_cand, 2, coords.shape[1])
        p = coords[centres[cand]]
        a, b = centroids[:, 0] - p, centroids[:, 1] - p
        ip = np.full(centres.size, np.nan)
        ip[cand] = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
        vertex_like = connected & ((n_shell != 2) | (ip > config.ip_threshold))
        chunk.append(LocalLabels(vertex_like, connected, n_shell, ip))
    return chunk


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


def _edge_pairs(vertices: np.ndarray, ends: np.ndarray, first: bool = False):
    """Every pair of edges k < l of the embedded graph with edge array `ends`,
    in the order nested loops over k and then l visit them, in two kinds; with
    `first`, only the pairs (0, l), which are the loops' first row.

    Returns ((k, l, dist), (apex, a, b, cos)): the pairs that share no vertex,
    with the distance between their segments; and the corners, pairs that meet
    at `apex`, stably ordered by it, with the far ends a of k and b of l and
    the cosine of the angle a-apex-b.
    """
    k, l = (np.zeros(len(ends) - 1, dtype=np.intp), np.arange(1, len(ends))) if first else np.triu_indices(len(ends), 1)
    (a, b), f = ends[k].T, ends[l]
    shared = np.where((a == f[:, 0]) | (a == f[:, 1]), a, np.where((b == f[:, 0]) | (b == f[:, 1]), b, -1))
    apart = shared < 0
    p, q = vertices[ends[k[apart]]], vertices[ends[l[apart]]]
    dist = segment_segment_distance(p[:, 0], p[:, 1], q[:, 0], q[:, 1])
    corner = np.flatnonzero(~apart)
    corner = corner[np.argsort(shared[corner], kind="stable")]
    apex = shared[corner]
    a, b = ends[k[corner]].sum(axis=1) - apex, ends[l[corner]].sum(axis=1) - apex
    return (k[apart], l[apart], dist), (apex, a, b, angle_cosine(vertices[apex], vertices[a], vertices[b]))


def _least(name: str, values: np.ndarray, bound: float, witness: str, *columns, strict: bool = True) -> ConditionCheck:
    """The condition min(values) > bound (>= unless `strict`). A failure is
    witnessed by `witness` formatted with each column's entry at the first
    smallest value."""
    worst = float(values.min(initial=math.inf))
    ok = worst > bound if strict else worst >= bound
    if ok:
        return ConditionCheck(name, ok, worst - bound)
    first = np.argmin(values)
    return ConditionCheck(name, ok, worst - bound, witness.format(*(c[first] for c in columns)))


def check_assumptions(graph: "EmbeddedGraphSpec", config: ReconstructionConfig) -> AssumptionReport:
    """Evaluate the five embedding conditions the guarantees rest on.

    The report is total: every condition is evaluated even after a failure,
    and each failing condition carries the violating witness.
    """
    R, eps = config.R, config.eps
    V = graph.vertices
    ends = graph.ends
    checks = []

    # 1. vertex separation > 9R/2 + 6 eps (strict)
    i, j = np.triu_indices(graph.n_vertices, 1)
    d = distance(V[i], V[j])
    checks.append(_least("vertex_separation", d, 4.5 * R + 6 * eps, "vertices {},{} at distance {:.6g}", i, j, d))

    # 2. vertex to non-incident edge > 3R/2 + 4 eps
    v = np.repeat(np.arange(graph.n_vertices), graph.n_edges)
    a, b = np.tile(ends, (graph.n_vertices, 1)).T
    off = (a != v) & (b != v)
    v, a, b = v[off], a[off], b[off]
    d = point_segment_distance(V[v], V[a], V[b])
    witness = "vertex {} to edge ({},{}) at distance {:.6g}"
    checks.append(_least("vertex_edge_clearance", d, 1.5 * R + 4 * eps, witness, v, a, b, d))

    # 3. edges sharing no vertex > 5 eps apart
    (k, l, d), (apex, a, b, cos) = _edge_pairs(V, ends)
    (a1, b1), (a2, b2) = ends[k].T, ends[l].T
    witness = "edges ({}, {}) and ({}, {}) at distance {:.6g}"
    checks.append(_least("edge_edge_clearance", d, 5 * eps, witness, a1, b1, a2, b2, d))
    angle = np.arccos(np.clip(cos, -1.0, 1.0))

    # 4. every shared-vertex angle >= Phi(R, eps)
    try:
        lower = phi(R, eps)
    except ValueError as exc:
        checks.append(ConditionCheck("angle_lower_bound", False, -math.inf, f"Phi undefined: {exc}"))
    else:
        witness = "angle {:.6g} rad at vertex {} between edges to {},{}"
        checks.append(_least("angle_lower_bound", angle, lower, witness, angle, apex, a, b, strict=False))

    # 5. degree-2 vertex angles <= Psi(R, eps), that is -angle >= -Psi
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            upper = psi(R, eps)
    except ValueError as exc:
        checks.append(ConditionCheck("deg2_angle_upper_bound", False, -math.inf, f"Psi undefined: {exc}"))
    else:
        deg2 = graph.degrees[apex] == 2
        angle, apex = angle[deg2], apex[deg2]
        witness = "angle {:.6g} rad at degree-2 vertex {}"
        checks.append(_least("deg2_angle_upper_bound", -angle, -upper, witness, angle, apex, strict=False))

    return AssumptionReport(tuple(checks))
