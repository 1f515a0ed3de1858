"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them inline).
Criteria 1, 2 and 7 share one batch of structure+fit runs on the built-in
fixture: 10 fresh seeds x ratios {6, 8, 10, 12}.
"""
from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest

import graphskel as gs
from graphskel.densities import edge_log_density
from graphskel.em import StrataModel, em_fit, initialize
from graphskel.geometry import PointCloud, threshold_components
from graphskel.local_structure import phi, psi
from oracles import ball_query, component_sets, edge_density_quadrature, grad_vertices, log_likelihood, shell_query

SEEDS = list(range(10))
RATIOS = (6.0, 8.0, 10.0, 12.0)
EPS = 0.1
SIGMA = EPS / 2


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def fixture_runs():
    """Structure + EM fit for every (seed, ratio); timed as one batch."""
    spec = gs.builtin_fixture()
    results = {}
    t0 = time.perf_counter()
    for seed in SEEDS:
        cloud = gs.sample_graph(spec, gs.SampleSpec(eps=EPS, seed=seed))
        for ratio in RATIOS:
            config = gs.ReconstructionConfig(R=ratio * EPS, eps=EPS)
            entry = {"iso": False, "max_err": math.inf, "trace": None, "final_ll": None}
            try:
                graph = gs.recover_graph(cloud, config)
                match = gs.match_to_ground_truth(graph, spec)
                entry["iso"] = match.is_isomorphic
                if match.is_isomorphic:
                    model, state = initialize(graph, cloud, SIGMA)
                    report = em_fit(model, state, cloud)
                    entry["trace"] = report.loglik_trace
                    entry["final_ll"] = float(report.loglik_trace[-1])
                    entry["max_err"] = max(
                        float(np.linalg.norm(report.state.v[i] - spec.vertices[match.vertex_map[i]]))
                        for i in range(graph.n_vertices)
                    )
            except (gs.StructureError, gs.NumericalError):
                pass
            results[(seed, ratio)] = entry
    elapsed = time.perf_counter() - t0
    return {"results": results, "elapsed": elapsed, "spec": spec}


def test_criterion_01_structure_recovery(fixture_runs):
    results = fixture_runs["results"]
    counts = {
        ratio: sum(results[(seed, ratio)]["iso"] for seed in SEEDS) for ratio in RATIOS
    }
    ok = all(c >= 9 for c in counts.values()) and fixture_runs["elapsed"] <= 60.0
    _report(
        1,
        ok,
        f"isomorphic recoveries per ratio {counts} (need >= 9/10 each); "
        f"batch runtime {fixture_runs['elapsed']:.1f}s (limit 60s)",
    )


def test_criterion_02_vertex_accuracy(fixture_runs):
    results = fixture_runs["results"]
    worst = max(
        e["max_err"] for e in results.values() if e["iso"]
    )
    ll_ok = True
    for seed in SEEDS:
        l8, l12 = results[(seed, 8.0)], results[(seed, 12.0)]
        if l8["iso"] and l12["iso"]:
            ll_ok = ll_ok and (l8["final_ll"] >= l12["final_ll"] - 0.5)
    ok = worst <= 0.2 and ll_ok
    _report(
        2,
        ok,
        f"worst fitted-vertex error {worst:.4f} (limit 0.2 = 2*eps); "
        f"loglik(ratio 8) >= loglik(ratio 12) - 0.5 on shared clouds: {ll_ok}",
    )


def test_criterion_03_ratio4_degradation(fixture_runs):
    spec = fixture_runs["spec"]
    failures = 0
    for seed in SEEDS:
        cloud = gs.sample_graph(spec, gs.SampleSpec(eps=EPS, seed=seed))
        config = gs.ReconstructionConfig(R=4 * EPS, eps=EPS)
        try:
            graph = gs.recover_graph(cloud, config)
            iso = gs.match_to_ground_truth(graph, spec).is_isomorphic
        except (gs.StructureError, gs.NumericalError):
            iso = False  # orderly structural abort, not a crash
        failures += int(not iso)
    ok = failures >= 7
    _report(3, ok, f"ratio-4 isomorphism failures {failures}/10 (need >= 7), no crashes")


def test_criterion_04_classification_guarantees():
    eps, R = 0.05, 0.6
    gen = gs.GraphGenConfig(R=R, eps=eps)
    rcfg = gs.ReconstructionConfig(R=R, eps=eps)
    near_zone = (R - eps) / 2
    far_zone = (3 * R + eps) / 2
    mis = 0
    checked = 0
    for g_idx in range(20):
        dim = 2 if g_idx % 2 == 0 else 3
        spec = gs.random_compliant_graph(dim, 3 + g_idx % 2, gen, seed=500 + g_idx)
        cloud = gs.sample_graph(spec, gs.SampleSpec(eps=eps, seed=g_idx))
        labels = gs.classify_all(cloud, rcfg)
        angles = {}
        for v in range(spec.n_vertices):
            nbrs = spec.neighbors(v)
            if len(nbrs) == 2:
                u1 = spec.vertices[nbrs[0]] - spec.vertices[v]
                u2 = spec.vertices[nbrs[1]] - spec.vertices[v]
                c = float(np.dot(u1, u2) / (np.linalg.norm(u1) * np.linalg.norm(u2)))
                angles[v] = math.acos(min(1.0, max(-1.0, c)))
        for idx in range(len(cloud)):
            x = cloud.coords[idx]
            dists = np.linalg.norm(spec.vertices - x, axis=1)
            must_vertex = False
            for v in range(spec.n_vertices):
                deg = spec.degree(v)
                if deg != 2 and dists[v] <= near_zone:
                    must_vertex = True
                elif deg == 2 and angles[v] > math.pi / 2 and dists[v] <= 4 * eps:
                    must_vertex = True
                elif deg == 2 and angles[v] <= math.pi / 2 and dists[v] <= near_zone:
                    must_vertex = True
            must_edge = bool(np.all(dists > far_zone))
            if must_vertex:
                checked += 1
                mis += int(not labels.vertex_like[idx])
            elif must_edge:
                checked += 1
                mis += int(labels.vertex_like[idx])
    ok = mis == 0 and checked > 1000
    _report(4, ok, f"{mis} misclassifications in {checked} guaranteed-zone points over 20 graphs")


def test_criterion_05_closed_form_density():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.choice([2, 3]))
        sigma = float(10 ** rng.uniform(-3, 0))
        v1, v2 = rng.normal(size=(2, n))
        while np.linalg.norm(v1 - v2) < 1e-2:
            v2 = rng.normal(size=n)
        t = rng.uniform(0.0, 1.0)
        off = rng.normal(size=n)
        off /= np.linalg.norm(off)
        x = t * v1 + (1 - t) * v2 + off * rng.uniform(0, 10 * sigma)
        want = edge_density_quadrature(x, v1, v2, sigma)
        got = float(np.exp(edge_log_density(x, v1, v2, sigma)))
        worst = max(worst, abs(got - want) / max(want, 1e-300))
    tail_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for sigma in (1e-3, 0.03, 1.0):
            for along in (0.5, -0.2, 1.3):
                v1, v2 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
                x = np.array([along, 50 * sigma])
                tail_ok = tail_ok and not np.isnan(edge_log_density(x, v1, v2, sigma))
    ok = worst <= 1e-8 and tail_ok
    _report(
        5,
        ok,
        f"closed form vs quadrature worst rel err {worst:.3e} over 1000 configs "
        f"(limit 1e-8); 50-sigma tails NaN-free: {tail_ok}",
    )


def test_criterion_06_gradient_correctness():
    rng = np.random.default_rng(4048)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        dim = int(rng.choice([2, 3]))
        n0 = int(rng.integers(2, 5))
        pairs = [(i, j) for i in range(n0) for j in range(i + 1, n0)]
        rng.shuffle(pairs)
        n1 = int(rng.integers(1, min(3, len(pairs)) + 1))
        sigma = float(rng.uniform(0.05, 0.5))
        model = StrataModel(n0=n0, edge_endpoints=tuple(pairs[:n1]), sigma=sigma)
        data = PointCloud(rng.normal(size=(10, dim)) * 1.5)
        v = rng.normal(size=(n0, dim)) * 1.5
        a = rng.random((10, n0 + n1))
        a /= a.sum(axis=1, keepdims=True)
        pi = rng.random(n0 + n1)
        pi /= pi.sum()
        g = grad_vertices(model, v, pi, a, data)
        for i in range(n0):
            for d in range(dim):
                vp = v.copy()
                vp[i, d] += h
                vm = v.copy()
                vm[i, d] -= h
                fd = (
                    log_likelihood(model, vp, pi, a, data)
                    - log_likelihood(model, vm, pi, a, data)
                ) / (2 * h)
                rel = abs(g[i, d] - fd) / max(abs(g[i, d]), abs(fd), 1e-8)
                worst = max(worst, rel)
    ok = worst <= 1e-5
    _report(6, ok, f"analytic vs finite-difference gradient worst rel err {worst:.3e} over 100 states")


def test_criterion_07_em_monotonicity(fixture_runs):
    worst = 0.0
    n_traces = 0
    for entry in fixture_runs["results"].values():
        if entry["trace"] is not None:
            deltas = np.diff(entry["trace"])
            if deltas.size:
                worst = min(worst, float(deltas.min())) if n_traces else float(deltas.min())
            n_traces += 1
    ok = worst >= -1e-9
    _report(7, ok, f"worst per-iteration loglik delta {worst:.3e} over {n_traces} fits (floor -1e-9)")


def test_criterion_08_geometry_oracles():
    rng = np.random.default_rng(808)
    query_bad = 0
    comp_bad = 0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        n = int(rng.integers(5, 501))
        cloud = PointCloud(rng.normal(size=(n, dim)))
        center = rng.normal(size=dim)
        r = float(rng.uniform(0, 2.0))
        d = np.linalg.norm(cloud.coords - center, axis=1)
        if not np.array_equal(ball_query(cloud, center, r), np.flatnonzero(d <= r)):
            query_bad += 1
        r_in = float(rng.uniform(0, r)) if r > 0 else 0.0
        if not np.array_equal(
            shell_query(cloud, center, r_in, r), np.flatnonzero((d > r_in) & (d <= r))
        ):
            query_bad += 1

        subset = np.flatnonzero(rng.random(n) < 0.8)
        if subset.size == 0:
            subset = np.arange(n)
        thr = float(rng.uniform(0.05, 1.2))
        cc = threshold_components(cloud, subset, thr)
        pts = cloud.coords[subset]
        adj = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) <= thr
        seen = np.zeros(subset.size, dtype=bool)
        oracle_sets = []
        for start in range(subset.size):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in np.flatnonzero(adj[i] & ~seen):
                    seen[j] = True
                    stack.append(int(j))
            oracle_sets.append(sorted(subset[comp].tolist()))
        got_sets = sorted(members.tolist() for members in component_sets(cc))
        if got_sets != sorted(oracle_sets):
            comp_bad += 1
    ok = query_bad == 0 and comp_bad == 0
    _report(8, ok, f"query mismatches {query_bad}, component mismatches {comp_bad} over 100 instances each")


def _ball_dirs(rng, n, dim, radius):
    d = rng.normal(size=(n, dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * (radius * rng.random(n) ** (1 / dim))[:, None]


def test_criterion_09_lemma_spot_checks():
    rng = np.random.default_rng(909)

    # opposite-side inner-product bound: 1e4 hypothesis-satisfying trials
    violations_ip = 0
    collected = 0
    while collected < 10_000:
        dim = int(rng.integers(2, 6))
        eps = float(rng.uniform(0.05, 0.5))
        R = eps * float(rng.uniform(12.5, 25.0))
        batch = 4000
        p = _ball_dirs(rng, batch, dim, eps)
        side = rng.choice([-1.0, 1.0], size=batch)
        x1 = np.zeros((batch, dim))
        x1[:, 0] = side * rng.uniform(R - 2 * eps, R + 2 * eps, size=batch)
        x1 += _ball_dirs(rng, batch, dim, eps)
        x2 = np.zeros((batch, dim))
        x2[:, 0] = -side * rng.uniform(R - 2 * eps, R + 2 * eps, size=batch)
        x2 += _ball_dirs(rng, batch, dim, eps)
        d1 = np.linalg.norm(x1 - p, axis=1)
        d2 = np.linalg.norm(x2 - p, axis=1)
        s1 = x1[:, 0] - p[:, 0]
        s2 = x2[:, 0] - p[:, 0]
        keep = (
            (d1 >= R - eps) & (d1 <= R + eps) & (d2 >= R - eps) & (d2 <= R + eps)
            & (np.sign(s1) != np.sign(s2)) & (s1 != 0) & (s2 != 0)
        )
        idx = np.flatnonzero(keep)[: 10_000 - collected]
        ips = np.einsum("ij,ij->i", x1[idx] - p[idx], x2[idx] - p[idx])
        bound = -R * R + 2 * R * eps + 7 * eps * eps
        violations_ip += int(np.sum(ips > bound + 1e-9))
        collected += idx.size

    # angle-separation bound: 1e4 trials
    violations_sep = 0
    done = 0
    while done < 10_000:
        dim = int(rng.integers(2, 5))
        eps = float(rng.uniform(0.05, 0.5))
        D = float(rng.uniform(2.2 * eps, 10 * eps))
        bound = math.acos((2 * D * D - 9 * eps * eps) / (2 * D * D)) + 2 * math.asin(eps / D)
        if bound >= math.pi:
            continue
        alpha = float(rng.uniform(bound + 1e-9, math.pi))
        d1 = np.zeros(dim)
        d1[0] = 1.0
        d2 = np.zeros(dim)
        d2[0] = math.cos(alpha)
        d2[1] = math.sin(alpha)
        x1 = d1 * rng.uniform(D, 3 * D) + _ball_dirs(rng, 1, dim, eps)[0]
        x2 = d2 * rng.uniform(D, 3 * D) + _ball_dirs(rng, 1, dim, eps)[0]
        if np.linalg.norm(x1) <= D or np.linalg.norm(x2) <= D:
            continue
        violations_sep += int(np.linalg.norm(x1 - x2) <= 3 * eps)
        done += 1

    ok = violations_ip == 0 and violations_sep == 0
    _report(
        9,
        ok,
        f"inner-product bound violations {violations_ip}/10000, "
        f"separation bound violations {violations_sep}/10000",
    )


def test_criterion_10_angle_bound_references():
    import mpmath as mp

    mp.mp.dps = 50
    psi_ref = float(
        mp.pi - mp.atan(mp.mpf(15) / 6)
        + mp.asin(mp.mpf(87) / (13 * mp.sqrt(250)))
    )
    phi_ref = float(mp.acos(mp.mpf(103) / 121) + 2 * mp.asin(mp.mpf(2) / 11))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        psi_err = abs(psi(12, 1) - psi_ref)
        phi_err = abs(phi(12, 1) - phi_ref)
        scale_err = max(
            abs(psi(12 * 7.3, 7.3) - psi(12, 1)), abs(phi(12 * 7.3, 7.3) - phi(12, 1))
        )
    ok = psi_err <= 1e-9 and phi_err <= 1e-9 and scale_err <= 1e-12
    _report(
        10,
        ok,
        f"psi(12,1)={psi_ref:.12f} err {psi_err:.2e}, "
        f"phi(12,1)={phi_ref:.12f} err {phi_err:.2e} (limit 1e-9); "
        f"scale invariance err {scale_err:.2e} (limit 1e-12)",
    )
