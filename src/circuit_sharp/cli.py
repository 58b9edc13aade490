"""Command-line entry point: build structures, train, compute curvature,
export landscape diagnostics, and benchmark trace scaling.

Exit codes: 0 ok, 1 check failed, 2 input error, 3 numerical divergence.
Every training run writes a manifest echoing the fully resolved config so
sweeps are scriptable and reruns reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import timeit
from dataclasses import asdict, dataclass, fields

import numpy as np

from .circuit import Circuit, ParamSet, deserialize, serialize, validate
from .curvature import hessian_diag, hessian_trace
from .data import (
    DATA_ROOT_ENV,
    Dataset,
    FractionSpec,
    gen_manifold,
    load_debd,
    minmax_scale,
    subsample,
)
from .diagnostics import dof, landscape, nll_hessian_eigenvalues, write_diag_csv, write_eigenvalues_csv
from .errors import CircuitError, CostGuardExceeded, DivergedNaN, MalformedFile
from .evaluate import log_likelihood
from .fd import fd_gradient, analytic_gradient
from .learning import (
    ADAPTIVE_DOF,
    FIXED,
    LAYER_MEAN_FLOW,
    RegularizerConfig,
    check_fit,
    em_train,
    sgd_train,
)
from .structure import (
    HcltConfig,
    RatConfig,
    build_hclt,
    build_layered_dag,
    build_rat,
    chow_liu_tree,
    layered_width_for_edges,
)


@dataclass
class RunConfig:
    """Fully resolved training-run description; serialized as the manifest."""

    dataset: str | None = None
    manifold: str | None = None
    data_root: str | None = None
    fraction: float = 1.0
    seed: int = 0
    structure: str = "auto"  # auto | hclt[:latents] | rat[:key=val,...]
    learner: str = "em"  # em | sgd
    mu: str = "0"  # float literal, or adaptive / layerflow
    lam: float = 1.0
    alpha: float = 1.0
    epochs: int = 100
    batch_size: int = 200
    lr: float = 0.1
    noise: float = 0.05
    out_dir: str = "run"


def _resolve_data(cfg: RunConfig) -> Dataset:
    if cfg.manifold:
        ds = gen_manifold(cfg.manifold, 1000, noise=cfg.noise, seed=cfg.seed)
        ds, _, _ = minmax_scale(ds)
    elif cfg.dataset:
        ds = load_debd(cfg.dataset, cfg.data_root or os.environ.get(DATA_ROOT_ENV))
    else:
        raise CircuitError("either --dataset or --manifold is required")
    return subsample(ds, FractionSpec(cfg.fraction, cfg.seed))


RAT_OPTIONS = ("inputs", "sums", "reps", "depth", "leaf")  # the keys of --structure rat:key=value,...


def _resolve_structure(cfg: RunConfig, ds: Dataset) -> tuple[Circuit, ParamSet]:
    spec = cfg.structure
    if spec == "auto":
        spec = "rat" if cfg.manifold else "hclt"
    kind, _, arg = spec.partition(":")
    if kind == "hclt":
        latents = int(arg) if arg else 100
        tree = chow_liu_tree(ds.train, pseudo_count=0.1)
        return build_hclt(tree, HcltConfig(latents, seed=cfg.seed), data=ds.train)
    if kind == "rat":
        opts = {}
        if arg:
            for kv in arg.split(","):
                k, _, v = kv.partition("=")
                if k not in RAT_OPTIONS:
                    raise CircuitError(f"unknown rat option {k!r} in {spec!r}; known: {', '.join(RAT_OPTIONS)}")
                opts[k] = v
        nv = ds.num_vars
        rat = RatConfig(
            num_vars=nv,
            num_input_distributions=int(opts.get("inputs", 10)),
            num_sums=int(opts.get("sums", 10)),
            num_repetitions=int(opts.get("reps", 10)),
            depth=int(opts.get("depth", min(1, max(0, int(np.floor(np.log2(nv))))))),
            leaf_family=opts.get("leaf", "bern" if cfg.dataset else "gauss"),
            seed=cfg.seed,
        )
        return build_rat(rat)
    raise CircuitError(f"unknown structure spec {cfg.structure!r}")


def _regularizer(cfg: RunConfig) -> RegularizerConfig:
    if cfg.mu == "adaptive":
        return RegularizerConfig(0.0, cfg.lam, cfg.alpha, ADAPTIVE_DOF)
    if cfg.mu == "layerflow":
        return RegularizerConfig(0.0, cfg.lam, cfg.alpha, LAYER_MEAN_FLOW)
    return RegularizerConfig(float(cfg.mu), cfg.lam, cfg.alpha, FIXED)


def cmd_train(cfg: RunConfig) -> int:
    ds = _resolve_data(cfg)
    circuit, params = _resolve_structure(cfg, ds)
    report_cfg = _regularizer(cfg)
    # before the run directory is written
    check_fit(cfg.epochs, cfg.batch_size, cfg.lr if cfg.learner == "sgd" else None)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)

    trainer = em_train if cfg.learner == "em" else sgd_train
    kwargs = dict(
        config=report_cfg,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )
    if cfg.learner == "sgd":
        kwargs["lr"] = cfg.lr
    elif cfg.learner != "em":
        raise CircuitError(f"unknown learner {cfg.learner!r}")
    params, report = trainer(circuit, params, ds.train, ds.valid, **kwargs)

    report.write_csv(os.path.join(cfg.out_dir, "train_log.csv"))
    with open(os.path.join(cfg.out_dir, "model.pc"), "wb") as fh:
        fh.write(serialize(circuit, params))
    np.savetxt(os.path.join(cfg.out_dir, "train.csv"), ds.train, delimiter=",")

    metrics = {
        f"{split}_nll": float(-log_likelihood(circuit, params, rows).mean())
        for split, rows in (("train", ds.train), ("valid", ds.valid), ("test", ds.test))
    }
    metrics["sharpness"] = hessian_trace(circuit, params, ds.train)
    metrics["dof"] = dof(metrics["train_nll"], metrics["test_nll"])
    with open(os.path.join(cfg.out_dir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _load_model(path: str) -> tuple[Circuit, ParamSet]:
    with open(path, "rb") as fh:
        circuit, params = deserialize(fh.read())
    report = validate(circuit)
    if not report.ok:
        raise CircuitError(f"model failed validation:\n{report}")
    params.check(circuit)
    return circuit, params


def _load_table(path: str) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        [float(tok) for tok in lines[0].split(",")]
    except (IndexError, ValueError):
        lines = lines[1:]  # header row
    if not any(line.split("#", 1)[0].strip() for line in lines):  # loadtxt drops "#" comments
        raise MalformedFile(f"{path} has no data rows")
    return np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2)


def cmd_trace(args) -> int:
    circuit, params = _load_model(args.model)
    data = _load_table(args.data)
    value = hessian_trace(circuit, params, data)
    print(f"abs_trace {value!r}")
    if args.per_edge:
        write_diag_csv(hessian_diag(circuit, params, data), args.per_edge)
    if args.fd_check:
        if circuit.num_sum_edges > 200:
            raise CostGuardExceeded("--fd-check supports at most 200 sum edges")
        dev = float(np.abs(analytic_gradient(circuit, params, data) - fd_gradient(circuit, params, data)).max())
        print(f"fd_max_deviation {dev!r}")
        if dev > 1e-4:
            return 1
    return 0


def cmd_landscape(args) -> int:
    circuit, params = _load_model(args.model)
    data = _load_table(args.data)
    grid = landscape(
        circuit,
        params,
        data,
        mode=args.mode,
        grid_radius=args.grid_radius,
        grid_points=args.grid_points,
        seed=args.seed,
    )
    eig = nll_hessian_eigenvalues(circuit, params, data, k=args.top_k) if args.eig_out else None
    grid.write_csv(args.out)  # after the eigenvalues, so that a bad --top-k writes no file
    print(f"landscape written to {args.out} (origin nll {grid.origin_value!r})")
    if args.eig_out:
        write_eigenvalues_csv(eig, args.eig_out)
        print(f"top-{len(eig)} eigenvalues written to {args.eig_out}")
    return 0


BENCH_REPEATS = 3  # timed calls per size: their median keeps one slow call under load out of the fit


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if args.samples <= 0:
        print("zero samples requested: nothing to time")
        return 0
    rng = np.random.default_rng(args.seed)
    rows = []
    for target in sizes:
        width = layered_width_for_edges(target, args.num_vars)
        circuit, params = build_layered_dag(args.num_vars, width, seed=args.seed)
        batch = rng.integers(0, 2, size=(args.samples, args.num_vars)).astype(float)
        hessian_trace(circuit, params, batch)  # warm-up outside the clock
        seconds = timeit.repeat(lambda: hessian_trace(circuit, params, batch), repeat=BENCH_REPEATS, number=1)
        rows.append((circuit.num_sum_edges, float(np.median(seconds))))
        print(f"edges={rows[-1][0]} seconds={rows[-1][1]:.4f}")
    with open(args.out, "w") as fh:
        fh.write("edges,seconds\n")
        for e, s in rows:
            fh.write(f"{e},{float(s)!r}\n")
    if len(rows) < 2:
        print("r_squared n/a (need >= 2 sizes)")
        return 0
    x = np.array([r[0] for r in rows], dtype=float)
    y = np.array([r[1] for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - resid @ resid / ((y - y.mean()) @ (y - y.mean()))
    print(f"linear fit: seconds = {slope:.3e} * edges + {intercept:.3e}; r_squared {r2:.5f}")
    return 0 if r2 >= args.r2_threshold else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="circuit-sharp")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a circuit and write run artifacts")
    t.add_argument("--dataset")
    t.add_argument("--manifold")
    t.add_argument("--data-root")
    t.add_argument("--fraction", type=float, default=1.0)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--structure", default="auto")
    t.add_argument("--learner", choices=("em", "sgd"), default="em")
    t.add_argument("--mu", default="0")
    t.add_argument("--lam", type=float, default=1.0)
    t.add_argument("--alpha", type=float, default=1.0)
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--batch-size", type=int, default=200)
    t.add_argument("--lr", type=float, default=0.1)
    t.add_argument("--noise", type=float, default=0.05)
    t.add_argument("--out", dest="out_dir", default="run")

    tr = sub.add_parser("trace", help="print the Hessian trace of a saved model")
    tr.add_argument("model")
    tr.add_argument("data")
    tr.add_argument("--per-edge", help="write per-edge diagonal CSV here")
    tr.add_argument("--fd-check", action="store_true")

    ls = sub.add_parser("landscape", help="export loss-landscape and eigenvalue CSVs")
    ls.add_argument("model")
    ls.add_argument("data")
    ls.add_argument("--mode", choices=("1d", "2d"), default="1d")
    ls.add_argument("--grid-radius", type=float, default=1.0)
    ls.add_argument("--grid-points", type=int, default=51)
    ls.add_argument("--seed", type=int, default=0)
    ls.add_argument("--out", default="landscape.csv")
    ls.add_argument("--eig-out")
    ls.add_argument("--top-k", type=int, default=15)

    b = sub.add_parser("bench", help="time hessian_trace across circuit sizes")
    b.add_argument("--sizes", default="1000,3000,10000,30000,100000,300000,1000000")
    b.add_argument("--samples", type=int, default=8)
    b.add_argument("--num-vars", type=int, default=17)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default="bench.csv")
    b.add_argument("--r2-threshold", type=float, default=0.98)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
            return cmd_train(cfg)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "landscape":
            return cmd_landscape(args)
        return cmd_bench(args)
    except DivergedNaN as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CircuitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
