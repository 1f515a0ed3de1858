from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import graphskel as gs

# One profile for the whole suite: every run draws the same examples, keeps no
# example database and puts no deadline on an example.
settings.register_profile("graphskel", derandomize=True, database=None, deadline=None)
settings.load_profile("graphskel")


@pytest.fixture(scope="session")
def fixture_spec():
    return gs.builtin_fixture()


@pytest.fixture(scope="session")
def fixture_cloud(fixture_spec):
    return gs.sample_graph(fixture_spec, gs.SampleSpec(eps=0.1, seed=1))


@pytest.fixture(scope="session")
def ratio8_config():
    return gs.ReconstructionConfig(R=0.8, eps=0.1)


@pytest.fixture(scope="session")
def ratio8_recovery(fixture_cloud, ratio8_config):
    """The graph recovered from the fixture cloud at ratio 8."""
    return gs.recover_graph(fixture_cloud, ratio8_config)


@pytest.fixture(scope="session")
def twelve_vertex_5d_recovery():
    """The graph of a 12-vertex compliant graph in R^5 sampled at spacing eps
    (m = 2290), recovered at ratio 12."""
    spec = gs.random_compliant_graph(5, 12, gs.GraphGenConfig(R=1.2, eps=0.1), seed=0)
    cloud = gs.sample_graph(spec, gs.SampleSpec(eps=0.1, spacing=0.1, seed=0))
    return gs.recover_graph(cloud, gs.ReconstructionConfig(R=1.2, eps=0.1))


@pytest.fixture
def computed_labelings(monkeypatch):
    """The node counts of the component labelings computed from here on, in order."""
    sizes = []
    real = gs.geometry.component_labels
    monkeypatch.setattr(gs.geometry, "component_labels", lambda n, i, j: sizes.append(n) or real(n, i, j))
    return sizes


def random_cloud(rng: np.random.Generator, n: int, dim: int, scale: float = 1.0) -> gs.PointCloud:
    return gs.PointCloud(rng.normal(size=(n, dim)) * scale)
