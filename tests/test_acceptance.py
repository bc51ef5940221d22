"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from emgd.cli import main
from emgd.experiment import (
    RunConfig,
    compute_metrics,
    run_pcl,
    run_toy,
)
from emgd.net import (
    Network,
    add_head,
    backward,
    edit_direction,
    input_gradient,
)
from emgd.solver import (
    ElasticState,
    GradientBundle,
    combine,
    elastic_factors_gmc,
    elastic_factors_gs,
    solve_emgd,
)
from emgd.streams import derive_seed, specs_from_manifest, synthetic_dataset
from oracles import (Batch, brute_force_weights, directional_edit_gradient, forward,
                     make_split, two_task_closed_form)


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


# --- criteria 1 and 2 share one instance set ---------------------------------


@pytest.fixture(scope="module")
def solver_instances():
    rng = np.random.default_rng(20240817)
    ks, dims, modes = (2, 3, 4), (2, 8, 32), ("gmc", "gs", "fixed")
    instances = []
    for i in range(200):
        k = ks[i % 3]
        dim = dims[(i // 3) % 3]
        mode = modes[(i // 9) % 3]
        grads = rng.normal(size=(k, dim)) / math.sqrt(dim)
        grads *= rng.uniform(0.3, 2.0, size=(k, 1))
        bundle = GradientBundle(tuple(range(1, k + 1)), grads)
        if mode == "gmc":
            sigma = elastic_factors_gmc(bundle, ElasticState()).sigma
        elif mode == "gs":
            sigma = elastic_factors_gs(bundle).sigma
        else:
            sigma = rng.uniform(0.2, 1.0, size=k)
        instances.append((bundle, sigma, solve_emgd(bundle, sigma)))
    return instances


def test_criterion_01_solver_oracle_equivalence(solver_instances):
    start = time.monotonic()
    for bundle, sigma, result in solver_instances:
        _, grid_obj = brute_force_weights(bundle, sigma, 1e-2)
        assert result.objective <= grid_obj + 1e-3
        assert result.objective >= 0.0
        if bundle.size == 2:
            sol = two_task_closed_form(
                bundle.grads[0], bundle.grads[1], sigma[0], sigma[1]
            )
            d = sol.lam1 * bundle.grads[0] + sol.lam2 * bundle.grads[1]
            assert abs(result.objective - float(d @ d)) <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(1, f"200 instances within 1e-3 of the grid oracle, k=2 within 1e-8 "
          f"of the closed form ({elapsed:.1f}s)")


def test_criterion_02_pareto_descent_certificate(solver_instances):
    for bundle, sigma, result in solver_instances:
        assert result.converged
        d = result.direction
        dd = float(d @ d)
        scaled = bundle.grads / np.asarray(sigma)[:, None]
        assert np.min(scaled @ d) >= dd - 1e-8
        # sigma = 1 reproduces the uniform-constraint certificate
        mgda, _ = combine("mgda", bundle, ElasticState())
        assert mgda.converged
        dd_m = float(mgda.direction @ mgda.direction)
        assert np.min(bundle.grads @ mgda.direction) >= dd_m - 1e-8
    ok(2, "min-norm inequality <g_i/sigma_i, d> >= ||d||^2 - 1e-8 on every "
          "converged solve, elastic and uniform")


def test_criterion_03_zero_in_scaled_hull():
    rng = np.random.default_rng(7)
    for trial in range(50):
        dim = int(rng.integers(2, 16))
        g1 = rng.normal(size=dim)
        c = rng.uniform(0.2, 4.0)
        sigma = rng.uniform(0.3, 1.0, size=2)
        bundle = GradientBundle((1, 2), np.stack([g1, -c * g1]))
        result = solve_emgd(bundle, sigma)
        assert np.linalg.norm(result.direction) <= 1e-6
        assert abs(-result.objective) <= 1e-6
        if trial % 2 == 0:  # three-point variant with the origin inside
            p = rng.normal(size=(2, dim))
            pts = np.vstack([p, -(p[0] + p[1])[None, :]])
            sig3 = rng.uniform(0.3, 1.0, size=3)
            bundle3 = GradientBundle((1, 2, 3), pts * sig3[:, None])
            result3 = solve_emgd(bundle3, sig3)
            assert np.linalg.norm(result3.direction) <= 1e-6
            assert abs(-result3.objective) <= 1e-6
    ok(3, "constructed Pareto-critical instances give ||d|| <= 1e-6 and "
          "||d||^2 = 0 within 1e-6")


def test_criterion_04_small_gradient_preference():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 17))
        g1 = rng.normal(size=dim) * rng.uniform(1.0, 4.0)
        g2 = rng.normal(size=dim)
        n1, n2 = np.linalg.norm(g1), np.linalg.norm(g2)
        if n1 == n2:
            continue
        if n1 < n2:
            g1, g2 = g2, g1
        result, _ = combine("mgda", GradientBundle((1, 2), np.stack([g1, g2])), ElasticState())
        assert result.lam[0] <= result.lam[1] + 1e-9
        checked += 1
    ok(4, "1000 random pairs with ||g1|| > ||g2|| all give lambda1 <= lambda2 + 1e-9")


def test_criterion_05_elastic_two_task_ratio():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 500:
        dim = int(rng.integers(2, 9))
        g1, g2 = rng.normal(size=(2, dim))
        s1, s2 = rng.uniform(0.1, 1.0, size=2)
        sol = two_task_closed_form(g1, g2, s1, s2)
        if sol.degenerate or sol.lam1 <= 0.0 or sol.lam2 <= 0.0:
            continue
        result = solve_emgd(GradientBundle((1, 2), np.stack([g1, g2])), [s1, s2])
        num = s1 * float(g2 @ g2) - s2 * float(g1 @ g2)
        den = s2 * float(g1 @ g1) - s1 * float(g1 @ g2)
        ratio = result.lam[0] / result.lam[1]
        assert ratio == pytest.approx(num / den, rel=1e-8)
        checked += 1
    ok(5, "500 interior-branch instances match the closed-form "
          "lambda1/lambda2 ratio within 1e-8 relative")


def test_criterion_06_toy_experiment():
    start = time.monotonic()
    emgd = run_toy(method="emgd_gs")
    avg = run_toy(method="avg_grad")
    elapsed = time.monotonic() - start
    # tick t is rows[t - 1]
    assert emgd.rows[1499].f1 <= emgd.rows[499].f1 + 1e-9
    assert emgd.rows[1499].f2 < emgd.rows[499].f2
    emgd_reg = emgd.rows[1499].f1 - emgd.rows[499].f1
    avg_reg = avg.rows[1499].f1 - avg.rows[499].f1
    assert avg_reg > emgd_reg
    assert elapsed < 5.0
    ok(6, f"old task never worsened (delta f1 = {emgd_reg:+.2e}), new task "
          f"trained, plain averaging regressed more ({avg_reg:+.2e}) "
          f"({elapsed:.1f}s)")


def test_criterion_07_gradient_correctness():
    rng = np.random.default_rng(17)
    h = 1e-5

    def close(got, fd):
        return abs(got - fd) <= 1e-4 * max(abs(got), abs(fd)) + 1e-10

    for net_idx in range(20):
        widths = (
            int(rng.integers(3, 10)),
            int(rng.integers(4, 20)),
            int(rng.integers(3, 10)),
        )
        net = Network(widths, seed=int(rng.integers(100_000)))
        classes = int(rng.integers(2, 6))
        add_head(net, 1, classes, seed=int(rng.integers(100_000)))
        batch = Batch(
            rng.uniform(0, 1, size=(4, widths[0])),
            rng.integers(0, classes, size=4),
            1,
        )
        backbone_grad = backward(net, *batch)[0]
        flat = net.theta.copy()
        for coord in rng.choice(net.backbone_dim, size=min(50, net.backbone_dim),
                                replace=False):
            mod = flat.copy()
            mod[coord] += h
            net.set_backbone_flat(mod)
            _, up = forward(net, batch)
            mod[coord] -= 2 * h
            net.set_backbone_flat(mod)
            _, down = forward(net, batch)
            net.set_backbone_flat(flat)
            assert close(backbone_grad[coord], (up - down) / (2 * h))
        grad_x, _ = input_gradient(net, batch.inputs, batch.labels,
                                   [(batch.task_id, slice(None))])
        for _ in range(50):
            i = int(rng.integers(len(batch.labels)))
            j = int(rng.integers(widths[0]))
            x = batch.inputs.copy()
            x[i, j] += h
            _, up = forward(net, Batch(x, batch.labels, 1))
            x[i, j] -= 2 * h
            _, down = forward(net, Batch(x, batch.labels, 1))
            assert close(grad_x[i, j], (up - down) / (2 * h))
    ok(7, "parameter and input gradients match central differences at "
          "relative error <= 1e-4 (50 coordinates x 20 nets)")


def test_criterion_08_editing_descent():
    rng = np.random.default_rng(19)
    decreased = 0
    trials = 200
    for trial in range(trials):
        widths = (6, int(rng.integers(6, 14)), 5)
        net = Network(widths, seed=trial)
        classes = int(rng.integers(2, 5))
        add_head(net, 1, classes, seed=trial + 1)
        batch = Batch(
            rng.uniform(0, 1, size=(3, 6)), rng.integers(0, classes, size=3), 1
        )
        other = Batch(
            rng.uniform(0, 1, size=(3, 6)), rng.integers(0, classes, size=3), 1
        )
        target = -backward(net, *other)[0]

        def objective(x):
            v = -backward(net, x, batch.labels, 1)[0] - target
            return float(v @ v)

        before = objective(batch.inputs)
        delta, _ = edit_direction(net, batch.inputs, batch.labels, [(1, slice(None))], target)
        after = objective(batch.inputs - 1e-3 * delta)
        if after <= before + 1e-12:
            decreased += 1
    assert decreased >= 0.95 * trials

    # quadratic model: the analytic gradient 4 theta x (theta x^2 + d)
    # against the directional-difference oracle of tests/oracles.py
    for _ in range(100):
        theta = float(rng.uniform(-2, 2))
        x = float(rng.uniform(-2, 2))
        d = float(rng.uniform(-2, 2))
        v = np.array([-theta * x * x - d])
        if np.linalg.norm(v) < 1e-9:
            continue
        got = directional_edit_gradient(
            lambda th: th**2 * x, np.array([theta]), v, eps=1e-4
        )
        analytic = 4.0 * theta * x * (theta * x * x + d)
        assert float(got[0]) == pytest.approx(analytic, rel=1e-3, abs=1e-9)
    ok(8, f"one editing step decreased the objective in {decreased}/{trials} "
          "triples; quadratic oracle matches within 1e-3 relative")


def test_criterion_09_metrics():
    a, f = compute_metrics([(0.9, 0.8), (0.7, 0.7)])
    assert a == 0.75
    assert f == pytest.approx(-0.05, abs=1e-15)

    rng = np.random.default_rng(23)
    for _ in range(50):
        tasks = int(rng.integers(2, 7))
        pairs = [(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))) for _ in range(tasks)]
        a_direct = sum(final for _, final in pairs) / tasks
        f_direct = sum(final - at_finish for at_finish, final in pairs) / tasks
        a, f = compute_metrics(pairs)
        assert abs(a - a_direct) <= 1e-12
        assert abs(f - f_direct) <= 1e-12
    ok(9, "hand fixture reproduced exactly; random accuracy pairs agree with "
          "direct recomputation within 1e-12")


# --- criterion 10: desk-scale end-to-end runs ---------------------------------


def desk_run(seed, method, editing):
    ds = synthetic_dataset(12, 32, 25, 10, 0.1, seed=seed)
    specs, timeline = specs_from_manifest(make_split(
        ds, num_tasks=3, label_bounds=(4, 4), seed=seed, batch_size=16, epochs=3
    ), ds)
    net = Network((32, 64, 32), seed=derive_seed(seed, "net-init"))
    cfg = RunConfig(
        method=method,
        editing=editing,
        gamma=0.2,
        gamma_heads=1.0,
        seed=seed,
        capacity_per_class=5,
        eta_edit=0.005,
    )
    result = run_pcl(specs, timeline, net, cfg)
    return compute_metrics([(result.at_finish[t][0], result.final[t][0])
                            for t in sorted(result.final)])


def test_criterion_10_desk_scale_comparison():
    start = time.monotonic()
    seeds = (1234, 1235, 1236)
    a_avg = np.mean([desk_run(s, "avg_grad", "none")[0] for s in seeds])
    gs = [desk_run(s, "emgd_gs", "none") for s in seeds]
    edited = [desk_run(s, "emgd_gs", "emgd") for s in seeds]
    a_gs = np.mean([a for a, _ in gs])
    f_gs = np.mean([f for _, f in gs])
    f_edited = np.mean([f for _, f in edited])
    elapsed = time.monotonic() - start
    assert a_gs >= a_avg - 0.02
    assert f_edited >= f_gs - 0.02
    assert elapsed < 120.0
    ok(10, f"A(elastic)={a_gs:.3f} vs A(average)={a_avg:.3f}; "
           f"F(edited)={f_edited:+.3f} vs F(plain)={f_gs:+.3f} ({elapsed:.1f}s)")


def test_criterion_11_determinism(tmp_path):
    toy_a, toy_b = tmp_path / "toy_a", tmp_path / "toy_b"
    main(["run-toy", "--method", "emgd_gs", "--iters", "600", "--out", str(toy_a)])
    main(["run-toy", "--method", "emgd_gs", "--iters", "600", "--out", str(toy_b)])
    assert (toy_a / "toy_trace.csv").read_bytes() == (toy_b / "toy_trace.csv").read_bytes()
    assert (toy_a / "toy_summary.json").read_bytes() == (toy_b / "toy_summary.json").read_bytes()

    cfg = {
        "seed": 1234,
        "dataset": {
            "synthetic": {
                "num_classes": 12,
                "input_dim": 32,
                "samples_per_class": 25,
                "test_per_class": 10,
                "noise_sigma": 0.1,
            }
        },
        "split": {"num_tasks": 3, "label_bounds": [4, 4], "batch_size": 16, "epochs": 3},
        "run": {"method": "emgd_gs", "editing": "emgd", "gamma": 0.2,
                "gamma_heads": 1.0, "eta_edit": 0.005},
        "net": {"hidden": [64], "feature_dim": 32},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    for out in (run_a, run_b):
        assert main(["run-pcl", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (run_a / "tick_log.csv").read_bytes() == (run_b / "tick_log.csv").read_bytes()
    assert (run_a / "metrics.json").read_bytes() == (run_b / "metrics.json").read_bytes()

    man_a, man_b = tmp_path / "a.json", tmp_path / "b.json"
    main(["build-splits", "--config", str(cfg_path), "--out", str(man_a)])
    main(["build-splits", "--config", str(cfg_path), "--out", str(man_b)])
    assert man_a.read_bytes() == man_b.read_bytes()
    ok(11, "toy trace, run logs, metrics and manifests are byte-identical "
           "across reruns")
