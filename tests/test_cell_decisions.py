"""Stage 1 decides whole cells against the ball and shell spheres.

A cell lies wholly inside a sphere of radius t about a centre when D + rho is
below t, and wholly outside when D - rho is above it, where D is the
centre's distance to the cell's lead and rho the cell's reach. Computed in
floats, either bound can be off by a few ulps, so a cell is decided only with
a relative margin, and only where squared distances are normal doubles;
every other cell's members are checked one by one, as a scan checks them.

Each trap below is a two-member cell {L, x} on a ray from the centre c, with
x a few ulps from a sphere, on the side the bound without a margin gets
wrong. A line of samples along the ray gives c a connected ball and a shell
component on each side, so one member more or less in the shell moves a
shell centroid, and the inner product with it.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import graphskel as gs
from graphskel import local_structure
from graphskel.local_structure import ReconstructionConfig, classify_all
from oracles import classify_point, label_rows

# (sphere, where x and the bound without a margin put the cell, R, eps): (c, L, x)
TRAPS = {
    ("R + eps", "x outside, cell inside", 1.2, 0.1): (
        [0.877, 0.524, -1.398],
        [1.1303013776070192, -0.6245684311591224, -1.7713429670518235],
        [1.1438491012067464, -0.6859991576230624, -1.7913110673965726],
    ),
    ("R + eps", "x inside, cell outside", 1.2, 0.1): (
        [-1.274, -1.725, -0.816],
        [-0.42381595144949236, -1.7486178301696045, -1.997763631902906],
        [-0.5149070995084754, -1.7460873483657182, -1.8711460999133092],
    ),
    ("R - eps", "x outside, cell inside", 1.2, 0.1): (
        [2.089, -2.193, 0.23],
        [1.5819258535742835, -1.3132197643709762, 0.30201768548884556],
        [1.5410809812688722, -1.2423533799686384, 0.3078187171294009],
    ),
    ("R - eps", "x inside, cell outside", 1.2, 0.1): (
        [-1.059, 2.957, 1.66],
        [-0.24622535220461583, 3.7803577803849793, 1.6486713910558943],
        [-0.2862669727096606, 3.739794778239825, 1.6492294988431146],
    ),
    # At eps = 1e-159 squared distances are subnormal: near the sphere they
    # are rounded to a relative 1e-8, more than the margin, so no cell may be
    # decided there.
    ("R + eps", "x outside, cell inside", 12e-159, 1e-159): (
        [1.739e-159, -1.415e-159, -3.95e-160],
        [-5.493328070099942e-159, -7.023588891739329e-159, -8.59301990394702e-159],
        [-5.913011468302488e-159, -7.3490486361524e-159, -9.068741250997728e-159],
    ),
    ("R + eps", "x inside, cell outside", 12e-159, 1e-159): (
        [2.853e-159, 2.8719999999999996e-159, -6.83e-160],
        [-8.289889503925431e-159, -1.7805377330417305e-159, 6.718383324181559e-159],
        [-7.374886997805374e-159, -1.3984928707955757e-159, 6.110615986275571e-159],
    ),
    ("R - eps", "x outside, cell inside", 12e-159, 1e-159): (
        [1.633e-159, -2.0910000000000002e-159, -2.05e-160],
        [-6.057340515462839e-159, -2.462594755119773e-159, -5.369496211866291e-159],
        [-7.491554596905543e-159, -2.53189551355972e-159, -6.332651637262998e-159],
    ),
    ("R - eps", "x inside, cell outside", 12e-159, 1e-159): (
        [2.3479999999999997e-159, -2.0600000000000001e-159, 2.605e-159],
        [-4.243548424145381e-159, 2.90046777831887e-159, -6.082096682202744e-159],
        [-3.70433995534253e-159, 2.4946866077678885e-159, -5.371466068734987e-159],
    ),
}


def scan_distance(a, b) -> float:
    return float(np.sqrt(np.sum((np.asarray(a) - np.asarray(b)) ** 2)))


def ray_cloud(c, cell, eps: float) -> gs.PointCloud:
    """c, then the given cell members, then samples every eps/2 along the
    ray from c through the last member, up to 2 eps short of the nearest
    member, and back to -15 eps."""
    c, cell = np.array(c), np.array(cell)
    u = (cell[-1] - c) / np.linalg.norm(cell[-1] - c)
    top = min(scan_distance(p, c) for p in cell) - 2 * eps
    s = np.arange(-15, 15.001, 0.5) * eps
    line = c + s[(s < top) & (np.abs(s) > 1e-9 * eps)][:, None] * u
    return gs.PointCloud(np.vstack([c, cell, line]))


def assert_labels_match_oracle(cloud: gs.PointCloud, config: ReconstructionConfig) -> None:
    labels = classify_all(cloud, config)
    assert label_rows(labels) == [classify_point(cloud, k, config) for k in range(len(cloud))]


@pytest.mark.parametrize("sphere, side, R, eps", list(TRAPS))
def test_rounding_trap_matches_oracle(sphere, side, R, eps):
    c, lead, x = TRAPS[sphere, side, R, eps]
    config = ReconstructionConfig(R=R, eps=eps)
    t = config.ball_radius if sphere == "R + eps" else config.shell_inner
    cloud = ray_cloud(c, [lead, x], eps)
    cells = local_structure._clique_cells(cloud, config.contact_scale)
    assert cells.of[1] == cells.of[2] and cells.size[cells.of[1]] == 2  # the cell {L, x}, led by L
    d, rho, dx = scan_distance(lead, c), scan_distance(x, lead), scan_distance(x, c)
    if side == "x outside, cell inside":
        assert dx > t and d + rho < t
    else:
        assert dx <= t and d - rho > t
    if eps < 1e-150:  # even the margin does not cover the rounding here
        margin = local_structure._MARGIN
        assert d + rho < t * (1 - margin) if side == "x outside, cell inside" else d - rho > t * (1 + margin)
    assert_labels_match_oracle(cloud, config)


def test_cell_across_both_spheres_matches_oracle():
    """A three-member cell with one member a few ulps inside R - eps, one
    between the spheres and one a few ulps beyond R + eps."""
    config = ReconstructionConfig(R=1.2, eps=0.1)
    c = [2.61, 1.895, -2.984]
    lead = [3.4256557246227715, 2.48740182708776, -3.424188384845834]
    x = [3.5739567654632762, 2.5951112501946256, -3.504222636635986]
    middle = (np.array(lead) + np.array(x)) / 2
    cloud = ray_cloud(c, [lead, middle, x], config.eps)
    cells = local_structure._clique_cells(cloud, config.contact_scale)
    assert len({cells.of[1], cells.of[2], cells.of[3]}) == 1 and cells.size[cells.of[1]] == 3
    assert scan_distance(lead, c) <= config.shell_inner < scan_distance(middle, c) <= config.ball_radius
    assert scan_distance(x, c) > config.ball_radius
    assert_labels_match_oracle(cloud, config)


def test_classify_all_memory_is_bounded(twelve_vertex_5d_recovery):
    """Stage 1 on the 12-vertex 5-D cloud (m = 2290) holds little beyond the
    cloud's tree and contact pairs: its traced peak stays under 3.5 MiB."""
    cloud = twelve_vertex_5d_recovery.cloud
    config = ReconstructionConfig(R=1.2, eps=0.1)
    cloud.contact_pairs(config.contact_scale)  # builds the tree too
    tracemalloc.start()
    try:
        classify_all(cloud, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20
