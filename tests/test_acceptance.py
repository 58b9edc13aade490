"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with -s or in captured output on
failure).  Criteria that share expensive artifacts (the regularized spiral
runs) reuse module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from circuit_sharp import (
    Circuit,
    ParamSet,
    forward,
    leaf_node,
    sum_node,
)
from circuit_sharp.cli import main as cli_main
from circuit_sharp.curvature import full_hessian_tree, hessian_trace
from circuit_sharp.data import FractionSpec, gen_manifold, minmax_scale, subsample
from circuit_sharp.diagnostics import landscape, nll_hessian_eigenvalues
from circuit_sharp.fd import analytic_gradient, fd_gradient, fd_hessian
from circuit_sharp.learning import (
    MU_GRID,
    RegularizerConfig,
    em_step_sharp,
    em_step_vanilla,
    em_train,
    sgd_train,
    sharp_update,
)
from circuit_sharp.structure import HcltConfig, RatConfig, build_hclt, build_rat, chow_liu_tree

from oracles import ProductPair, SumPair, classify_pair, cubic_update_oracle, enumerate_total_probability
from zoo import batch_for, dag_zoo, random_tree, tree_zoo


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def mixed_zoo(count_trees=10, count_dags=10, max_edges=200):
    fams = ("binary", "continuous", "cat3")
    zoo = tree_zoo(count_trees, base_seed=1000, max_edges=max_edges, families=fams)
    zoo += dag_zoo(count_dags, base_seed=2000, max_edges=max_edges, families=fams)
    assert len(zoo) >= 20
    return zoo


@pytest.fixture(scope="module")
def gradient_zoo():
    return mixed_zoo()


def test_c01_gradient_correctness(gradient_zoo):
    t0 = time.perf_counter()
    worst = 0.0
    for seed, (circuit, params) in enumerate(gradient_zoo):
        batch = batch_for(circuit, 5, 9000 + seed)
        an = analytic_gradient(circuit, params, batch)
        fd = fd_gradient(circuit, params, batch, h=1e-5)
        worst = max(worst, float(np.abs(an - fd).max()))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "gradient correctness",
        worst <= 1e-6 and elapsed < 60.0,
        f"max |analytic - fd| = {worst:.2e} over {len(gradient_zoo)} circuits in {elapsed:.1f}s",
    )


def test_c02_trace_correctness(gradient_zoo):
    t0 = time.perf_counter()
    worst = 0.0
    for seed, (circuit, params) in enumerate(gradient_zoo):
        batch = batch_for(circuit, 4, 9100 + seed)
        tr = hessian_trace(circuit, params, batch)
        fd_tr = abs(np.diag(fd_hessian(circuit, params, batch)).sum())
        worst = max(worst, abs(tr - fd_tr) / max(abs(fd_tr), 1e-12))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "trace correctness",
        worst <= 1e-4 and elapsed < 300.0,
        f"max relative deviation = {worst:.2e} in {elapsed:.1f}s",
    )


def test_c03_full_tree_hessian():
    t0 = time.perf_counter()
    worst = 0.0
    counts = {"sum": 0, "product": 0, "path": 0}
    used = 0
    seed = 3000
    while used < 10:
        circuit, params = random_tree(seed, max_depth=3, families=("binary", "continuous"))
        seed += 1
        if circuit.num_sum_edges > 40:
            continue
        used += 1
        batch = batch_for(circuit, 3, seed)
        dense = full_hessian_tree(circuit, params, batch)
        fd = fd_hessian(circuit, params, batch)
        worst = max(worst, float(np.abs(dense - fd).max()))
        e = circuit.num_sum_edges
        for i in range(e):
            for j in range(i + 1, e):
                cls = classify_pair(circuit, circuit.edge(i), circuit.edge(j))
                if isinstance(cls, SumPair):
                    counts["sum"] += 1
                elif isinstance(cls, ProductPair):
                    counts["product"] += 1
                else:
                    counts["path"] += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and all(v >= 10 for v in counts.values()) and elapsed < 300.0
    report(3, "full tree Hessian", ok, f"max |dense - fd| = {worst:.2e}, classes {counts}, {elapsed:.1f}s")


def test_c04_linear_scaling(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "bench.csv"
    code = cli_main(
        [
            "bench",
            "--sizes",
            "1000,3000,10000,30000,100000,300000,1000000",
            "--samples",
            "4",
            "--out",
            str(out),
            "--r2-threshold",
            "0.98",
        ]
    )
    printed = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        r2_line = [ln for ln in printed.splitlines() if "r_squared" in ln]
        report(4, "linear scaling", code == 0 and elapsed < 600.0, f"{r2_line[0] if r2_line else '?'}; {elapsed:.1f}s")


def test_c05_mu_zero_degeneration():
    rng = np.random.default_rng(55)
    checked = 0
    exact = True
    for case in range(100):
        circuit, params = random_tree(5000 + case % 25, families=("binary", "continuous"))
        batch = batch_for(circuit, int(rng.integers(1, 6)), 5100 + case)
        alpha = float(rng.uniform(0.05, 1.0))
        cfg = RegularizerConfig(mu=0.0, smoothing_alpha=alpha)
        a = em_step_vanilla(circuit, params, batch, alpha=alpha)
        b = em_step_sharp(circuit, params, batch, cfg)
        for n in circuit.sum_nodes:
            if not np.array_equal(a.sum_weights[n], b.sum_weights[n]):
                exact = False
        checked += 1
    report(5, "mu = 0 degeneration", exact and checked == 100, f"{checked} random flow configurations, exact equality")


def test_c06_closed_form_updates():
    fs = np.linspace(0.0, 8.0, 25)
    lams = np.linspace(0.25, 2.5, 20)
    mus = np.linspace(0.0, 2.0, 20)
    worst_quad = 0.0
    disc_ok = True
    for f in fs:
        for lam in lams:
            t = sharp_update(np.repeat(f, len(mus)), lam, mus)
            disc_ok &= bool(np.all(f * f + 4 * lam * mus * f >= 0.0))
            worst_quad = max(worst_quad, float(np.abs(lam * t * t - f * t - mus * f).max()))
    worst_cubic = 0.0
    for f in np.linspace(0.0, 4.0, 25):
        for lam in np.linspace(0.5, 2.0, 20):
            for mu in np.linspace(0.0, 1.5, 20):
                t = cubic_update_oracle(f, lam, mu)
                worst_cubic = max(worst_cubic, abs(lam * t**3 - f * t * t - 2 * mu * f * f))
    ok = worst_quad <= 1e-12 and worst_cubic <= 1e-12 and disc_ok
    report(
        6,
        "closed-form update correctness",
        ok,
        f"quadratic residual {worst_quad:.2e}, cubic residual {worst_cubic:.2e} on 10^4-point grids",
    )


def test_c07_em_monotonicity():
    worst_drop = 0.0
    cases = [random_tree(7000 + k, families=("binary", "continuous")) for k in range(5)]
    rng = np.random.default_rng(7)
    for k in range(2):
        data = rng.integers(0, 2, size=(300, 6)).astype(float)
        tree = chow_liu_tree(data, 0.1)
        cases.append(build_hclt(tree, HcltConfig(num_latents=3, seed=k), data=data))
    for idx, (circuit, params) in enumerate(cases):
        batch = batch_for(circuit, 64, 7100 + idx)
        p = params
        prev = -np.inf
        for _ in range(50):
            p = em_step_vanilla(circuit, p, batch, alpha=1.0)
            ll = float(forward(circuit, p, batch).root_log_p.sum())
            worst_drop = min(worst_drop, ll - prev) if np.isfinite(prev) else worst_drop
            prev = ll
    report(7, "EM monotonicity", worst_drop >= -1e-9, f"worst per-step change {worst_drop:.2e}")


def test_c08_normalization_before_and_after_training():
    worst = 0.0
    rng = np.random.default_rng(8)
    builds = []
    builds.append(build_rat(RatConfig(num_vars=4, depth=2, num_sums=2, num_input_distributions=2,
                                      num_repetitions=2, leaf_family="bern", seed=1)))
    builds.append(build_rat(RatConfig(num_vars=8, depth=1, num_sums=3, num_input_distributions=2,
                                      num_repetitions=1, leaf_family="bern", seed=2)))
    for k in range(2):
        data = rng.integers(0, 2, size=(200, 6 + 3 * k)).astype(float)
        tree = chow_liu_tree(data, 0.1)
        builds.append(build_hclt(tree, HcltConfig(num_latents=2 + k, seed=k), data=data))
    from circuit_sharp.structure import build_layered_dag

    builds.append(build_layered_dag(6, 3, seed=3))
    for circuit, params in builds:
        worst = max(worst, abs(enumerate_total_probability(circuit, params) - 1.0))
        data = batch_for(circuit, 128, 8000)
        trained, _ = em_train(circuit, params, data, epochs=5, batch_size=64,
                              config=RegularizerConfig(mu=0.05, smoothing_alpha=0.5), seed=0)
        worst = max(worst, abs(enumerate_total_probability(circuit, trained) - 1.0))
    report(8, "normalization by enumeration", worst <= 1e-9, f"max |sum p - 1| = {worst:.2e}")


@pytest.fixture(scope="module")
def spiral_runs():
    """3 seeds x mu in {0, 0.1}: trained spiral models at the 5% fraction."""
    runs = {}
    for seed in (1, 2, 3):
        ds = gen_manifold("spiral", 1000, noise=0.05, seed=seed)
        ds, _, _ = minmax_scale(ds)
        ds = subsample(ds, FractionSpec(0.05, seed))
        for mu in (0.0, 0.1):
            circuit, params = build_rat(RatConfig(num_vars=2, depth=1, seed=seed))
            trained, rep = sgd_train(
                circuit,
                params,
                ds.train,
                ds.valid,
                config=RegularizerConfig(mu=mu),
                epochs=200,
                batch_size=200,
                lr=0.1,
                seed=seed,
            )
            runs[(seed, mu)] = (circuit, trained, ds, rep)
    return runs


def test_c09_spiral_sharpness_reduction(spiral_runs):
    t0 = time.perf_counter()
    sharps = {mu: [] for mu in (0.0, 0.1)}
    test_nlls = {mu: [] for mu in (0.0, 0.1)}
    for (seed, mu), (circuit, params, ds, _rep) in spiral_runs.items():
        sharps[mu].append(hessian_trace(circuit, params, ds.train))
        test_nlls[mu].append(float(-forward(circuit, params, ds.test).root_log_p.mean()))
    mean_sharp0, mean_sharp1 = np.mean(sharps[0.0]), np.mean(sharps[0.1])
    mean_nll0, mean_nll1 = np.mean(test_nlls[0.0]), np.mean(test_nlls[0.1])
    nll_ok = mean_nll1 <= mean_nll0 + 0.02 * abs(mean_nll0)
    ok = mean_sharp1 < mean_sharp0 and nll_ok
    report(
        9,
        "spiral sharpness reduction",
        ok,
        f"sharpness {mean_sharp0:.0f} -> {mean_sharp1:.0f}, test NLL {mean_nll0:.3f} -> {mean_nll1:.3f}",
    )
    assert time.perf_counter() - t0 < 1200.0


def test_c10_em_regularization_direction():
    # 50-variable correlated-binary surrogate (benchmark files are not bundled)
    rng = np.random.default_rng(10)
    w = rng.standard_normal((3, 50)) * 1.5
    b = rng.uniform(-0.5, 0.5, 50)

    def draw(n, seed):
        r = np.random.default_rng(seed)
        z = r.standard_normal((n, 3))
        logits = z @ w + b
        return (r.random((n, 50)) < 1.0 / (1.0 + np.exp(-logits))).astype(float)

    train_full, valid, test = draw(2000, 1), draw(500, 2), draw(500, 3)
    idx = np.random.default_rng(4).permutation(2000)[:100]  # 5% fraction
    train = train_full[idx]

    tree = chow_liu_tree(train, 0.1)

    def run(mu):
        circuit, params = build_hclt(tree, HcltConfig(num_latents=8, seed=7), data=train)
        cfg = RegularizerConfig(mu=mu, smoothing_alpha=0.1)
        trained, rep = em_train(circuit, params, train, valid, config=cfg,
                                epochs=40, batch_size=200, seed=7)
        return circuit, trained, rep

    circuit0, vanilla, _ = run(0.0)
    vanilla_sharp = hessian_trace(circuit0, vanilla, train)
    best = None
    for mu in MU_GRID:
        circuit1, sharp_model, rep = run(mu)
        valid_nll = rep.final.valid_nll
        if best is None or valid_nll < best[0]:
            best = (valid_nll, mu, hessian_trace(circuit1, sharp_model, train))
    _, best_mu, best_sharp = best
    report(
        10,
        "EM regularization direction",
        best_sharp < vanilla_sharp,
        f"vanilla sharpness {vanilla_sharp:.1f} vs sharp-EM(mu={best_mu}) {best_sharp:.1f}",
    )


def test_c11_landscape_sanity(spiral_runs):
    origin_exact = True
    for (seed, mu), (circuit, params, ds, _rep) in spiral_runs.items():
        grid = landscape(circuit, params, ds.train, grid_points=5, seed=seed)
        train_nll = float(-forward(circuit, params, ds.train).root_log_p.mean())
        if grid.values[2] != train_nll:
            origin_exact = False
    wins = 0
    for seed in (1, 2, 3):
        c0, p0, ds, _ = spiral_runs[(seed, 0.0)]
        c1, p1, _, _ = spiral_runs[(seed, 0.1)]
        top0 = nll_hessian_eigenvalues(c0, p0, ds.train, k=1)[0]
        top1 = nll_hessian_eigenvalues(c1, p1, ds.train, k=1)[0]
        if top1 < top0:
            wins += 1
    report(
        11,
        "landscape sanity",
        origin_exact and wins >= 2,
        f"origin exact on all runs; regularized top eigenvalue smaller in {wins}/3 seeds",
    )


def test_c12_chow_liu_recovery():
    # known 5-variable tree: 0-1, 0-2, 2-3, 2-4 with ancestral flip sampling
    edges_true = [(0, 1), (0, 2), (2, 3), (2, 4)]
    parents = {1: 0, 2: 0, 3: 2, 4: 2}
    flips = {1: 0.12, 2: 0.2, 3: 0.1, 4: 0.15}
    rng = np.random.default_rng(12)
    n = 10_000
    x = np.zeros((n, 5))
    x[:, 0] = rng.integers(0, 2, n)
    for child in (1, 2, 3, 4):
        flip = rng.random(n) < flips[child]
        x[:, child] = np.where(flip, 1 - x[:, parents[child]], x[:, parents[child]])
    recovered = chow_liu_tree(x, 0.1)
    report(12, "Chow-Liu recovery", recovered == sorted(edges_true), f"recovered {recovered}")
