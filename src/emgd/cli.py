"""Command-line front end: solve | run-toy | run-pcl | build-splits | report.

Data goes to stdout or files under --out, diagnostics go to stderr. Exit
codes: 0 success, 1 input error (a malformed command line and an unwritable
output path included), 2 solver non-convergence (solve), 3 mid-run numeric
failure (run-pcl, reported with the failing tick). run-pcl and build-splits
take every run setting from their config document; their only flags are
--config, --seed (in place of the document's seed) and --out. Config documents
are parsed strictly: unknown keys, ill-typed values and out-of-range values
are rejected naming the dotted field path. All randomness flows from the
single top-level seed through named substreams, so identical configs produce
byte-identical outputs. EMGD_LOG selects stderr verbosity: debug,
info, warning (the default), error or critical, in any case; any other value
exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import experiment, solver, streams
from .errors import (ConfigError, EmgdError, InvalidInputError, NumericError, load_json_object,
                     parse_json, read_field, section)
from .net import Network, flat_size

log = logging.getLogger("emgd")


_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def _configure_logging() -> None:
    level = os.environ.get("EMGD_LOG", "warning")
    if level.lower() not in _LOG_LEVELS:
        raise ConfigError(f"EMGD_LOG must be one of {', '.join(_LOG_LEVELS)}, got {level!r}")
    logging.basicConfig(
        stream=sys.stderr,
        level=level.upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )


# Each table gives a config section's fields with their defaults, and so their JSON
# types; a type in place of a default marks a required field.
_TOP = {"dataset": dict, "split": {}, "manifest": "", "run": {}, "net": {},
        "seed": experiment.RunConfig.seed}
_SYNTHETIC = {"num_classes": 12, "input_dim": 32, "samples_per_class": 50, "test_per_class": 20,
              "noise_sigma": 0.1}
_IDX = {"train_images": str, "train_labels": str, "test_images": str, "test_labels": str}
_SPLIT = {"num_tasks": 3, "label_bounds": [2, 15], "overlap": 0.0, "serial": False,
          "batch_size": 128, "epochs": 1}
# the seed comes from the top level
_RUN = {f.name: f.default for f in dataclasses.fields(experiment.RunConfig) if f.name != "seed"}
_NET = {"hidden": [100], "feature_dim": 64}


def _load_config(args):
    """The checked top level of the config, the seed and the dataset."""
    raw = load_json_object(args.config, "config")
    doc = section(raw, "config", _TOP)
    if "split" in raw and doc["manifest"]:  # a manifest is a built split
        raise ConfigError("config needs at most one of: split, manifest")
    seed = doc["seed"] if args.seed is None else args.seed
    return doc, seed, _build_dataset(doc["dataset"], seed)


def _dataset_section(raw, path: str) -> tuple:
    """The checked dataset section at ``path``: its kind and that kind's fields."""
    doc = section(raw, path, {"synthetic": {}, "idx": {}})
    if ("synthetic" in raw) == ("idx" in raw):
        raise ConfigError(f"{path} needs exactly one of: synthetic, idx")
    kind = "synthetic" if "synthetic" in raw else "idx"
    return kind, section(doc[kind], f"{path}.{kind}", _SYNTHETIC if kind == "synthetic" else _IDX)


def _build_dataset(raw: dict, seed: int) -> streams.Dataset:
    kind, spec = _dataset_section(raw, "dataset")
    if kind == "synthetic":
        return streams.synthetic_dataset(**spec, seed=seed)
    train_x, train_y = streams.load_idx(spec["train_images"], spec["train_labels"])
    test_x, test_y = streams.load_idx(spec["test_images"], spec["test_labels"])
    try:
        return streams.Dataset(train_x, train_y, test_x, test_y)
    except InvalidInputError as err:  # load_idx already matched each file pair's counts
        raise ConfigError(f"test images {spec['test_images']}: {err}") from None


def _build_net(doc: dict, input_dim: int, seed: int) -> Network:
    net = section(doc, "net", _NET)
    for key, widths in (("hidden", net["hidden"]), ("feature_dim", [net["feature_dim"]])):
        if any(width < 1 for width in widths):
            raise ConfigError(f"widths in field net.{key} must be >= 1, got {net[key]!r}")
    sizes = [input_dim, *net["hidden"], net["feature_dim"]]
    if flat_size(sizes) > streams.MAX_FLOAT64S:
        raise ConfigError(f"widths in fields net.hidden and net.feature_dim give more backbone "
                          f"parameters than one array can address, got {sizes[1:]!r}")
    return Network(sizes, seed=streams.derive_seed(seed, "net-init"))


def _write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def cmd_solve(args) -> int:
    result = solver.solve_request(parse_json(sys.stdin.read(), "request"))
    print(json.dumps(result, sort_keys=True, allow_nan=False))
    return 0 if result["converged"] else 2


def cmd_run_toy(args) -> int:
    # only the flags given reach run_toy, whose signature holds the defaults
    trace = experiment.run_toy(**{key: value for key, value in vars(args).items()
                                  if key in ("method", "iterations", "start")})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "toy_trace.csv").write_text(experiment.toy_trace_csv(trace))
    _write_json(experiment.toy_summary(trace), out / "toy_summary.json")
    log.info("toy run (%s) written to %s", trace.method, out)
    return 0


def cmd_run_pcl(args) -> int:
    doc, seed, dataset = _load_config(args)
    # a split section runs exactly as the manifest build-splits writes from it
    manifest = (load_json_object(doc["manifest"], "split manifest") if doc["manifest"] else
                streams.build_parallel_split(dataset, seed,
                                             **section(doc["split"], "split", _SPLIT)))
    if "dataset" in manifest:  # build-splits wrote its config's, whose seed may differ
        # the kind first, so fields are compared only between datasets of one kind
        built, ours = ({"dataset": kind, **{f"dataset.{kind}.{k}": v for k, v in spec.items()}}
                       for kind, spec in (_dataset_section(manifest["dataset"], "manifest.dataset"),
                                          _dataset_section(doc["dataset"], "dataset")))
        name = next((key for key in ours if built[key] != ours[key]), None)
        if name:
            raise ConfigError(f"split manifest {doc['manifest']} was built over other data: "
                              f"its {name} is {built[name]!r}, the config's is {ours[name]!r}")
    specs, timeline = streams.specs_from_manifest(manifest, dataset)
    cfg = experiment.RunConfig(**section(doc["run"], "run", _RUN), seed=seed)
    net = _build_net(doc["net"], dataset.input_dim, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unwritable path fails before training

    try:
        result = experiment.run_pcl(specs, timeline, net, cfg)
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    (out / "tick_log.csv").write_text(experiment.tick_log_csv(result.tick_rows))
    _write_json(experiment.metrics_document(result, cfg), out / "metrics.json")
    log.info("run (%s/%s, seed %d) written to %s", cfg.method, cfg.editing, seed, out)
    return 0


def cmd_build_splits(args) -> int:
    # accepts the same document as run-pcl so one config serves both commands
    doc, seed, dataset = _load_config(args)
    if doc["manifest"]:
        raise ConfigError(f"build-splits builds a split from the split section, but field "
                          f"manifest names a built one: {doc['manifest']!r}")
    manifest = streams.build_parallel_split(dataset, seed, **section(doc["split"], "split", _SPLIT))
    _write_json({**manifest, "dataset": doc["dataset"]}, args.out)
    log.info("split manifest written to %s", args.out)
    return 0


def _metric_rows(path: Path) -> list:
    """The file's task-incremental row, then its class-incremental one."""
    doc, where = load_json_object(path, "metrics file"), str(path)
    # every key run-pcl writes is required, so no file joins a row it was not scored for
    method, editing, seed = (read_field(doc, key, kind, where)
                             for key, kind in (("method", str), ("editing", str), ("seed", int)))
    modes = read_field(doc, "modes", dict, where)
    rows = []
    for mode in ("task", "class"):
        scores = read_field(modes, mode, dict, f"{where}.modes")
        a, f = (read_field(scores, key, float, f"{where}.modes.{mode}")
                for key in ("A_final", "F_final"))
        rows.append((method, editing, mode, seed, a, f))
    return rows


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    files = sorted(run_dir.glob("**/metrics*.json"))
    if not files:
        print(f"error: no metrics files under {run_dir}", file=sys.stderr)
        return 1
    rows = [row for p in files for row in _metric_rows(p)]

    # task- and class-incremental accuracies measure different things, so never share a row
    groups: dict = {}
    for method, editing, mode, seed, a, f in rows:
        groups.setdefault((method, editing, mode), []).append((seed, a, f))

    def spread(values):
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        return mean, std

    header = (f"{'method':<12} {'editing':<8} {'eval_mode':<9} {'n':>3}  {'A_final':>17}  "
              f"{'F_final':>17}")
    print(header)
    print("-" * len(header))
    summary_lines = ["method,editing,eval_mode,n,A_mean,A_std,F_mean,F_std"]
    for (method, editing, mode), entries in sorted(groups.items()):
        a_mean, a_std = spread([a for _, a, _ in entries])
        f_mean, f_std = spread([f for _, _, f in entries])
        print(
            f"{method:<12} {editing:<8} {mode:<9} {len(entries):>3}  "
            f"{a_mean:8.4f} ± {a_std:6.4f}  {f_mean:+8.4f} ± {f_std:6.4f}"
        )
        summary_lines.append(f"{method},{editing},{mode},{len(entries)},"
                             f"{a_mean!r},{a_std!r},{f_mean!r},{f_std!r}")
    rows_lines = ["method,editing,eval_mode,seed,A_final,F_final"]
    rows_lines += [f"{m},{e},{mode},{s},{a!r},{f!r}" for m, e, mode, s, a, f in rows]
    (run_dir / "report_summary.csv").write_text("\n".join(summary_lines) + "\n")
    (run_dir / "report_rows.csv").write_text("\n".join(rows_lines) + "\n")
    return 0


# argparse takes "-1e-05" for an option: its negative-number pattern has no exponent (checked
# on Python 3.10 to 3.13.0). run-toy matches any negative float; none of its options looks like one.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emgd",
        description="Elastic multi-gradient descent for parallel continual learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="one-shot combination solve, JSON stdin to stdout")
    p.set_defaults(func=cmd_solve, parser=p)

    p = sub.add_parser("run-toy", help="two-function toy experiment",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--method", help="emgd_gmc | emgd_gs | mgda | avg_grad")
    p.add_argument("--iters", dest="iterations", type=int, metavar="N")
    p.add_argument("--start", type=float, nargs=2, metavar=("X", "Y"))
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_run_toy, parser=p)
    p._negative_number_matcher = _NEGATIVE_NUMBER

    p = sub.add_parser("run-pcl", help="multi-stream training run from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_run_pcl, parser=p)

    p = sub.add_parser("build-splits", help="write a split manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_splits, parser=p)

    p = sub.add_parser("report", help="aggregate metrics files into a table")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report, parser=p)

    return parser


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # named by the command's own parser, whose usage lists its options
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as done:  # argparse exits 2 on a malformed command line, 0 after --help
        return 1 if done.code else 0
    try:
        _configure_logging()
        return args.func(args)
    except (EmgdError, OSError, MemoryError) as err:  # OSError names a path, MemoryError a size
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
