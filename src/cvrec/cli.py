"""Command-line surface: prepare, train, evaluate, eval-cold, predict,
ablate, and sweep.

`ablate` (each prior variant and seed) and `sweep` (a grid over neg_ratio or
latent_dim) fit and evaluate each config in turn on one loaded dataset; a sweep
point with an invalid value or a diverged fit becomes a `failed:` row.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure
(diverged training), 4 I/O failure (missing or malformed files). Logs go
to stderr; tabular results to stdout or --out as CSV with a header row.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import data as dat
from . import evaluate as ev
from . import model as mdl
from . import predict as pred
from . import train as tr

log = logging.getLogger("cvrec")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

DATASETS = tuple(dat.DATASETS)
VARIANTS = tuple(mdl.VARIANT_FLAGS)


def default_cache_dir() -> Path:
    return Path(os.environ.get("CVREC_CACHE_DIR", "."))


def cmd_prepare(args) -> int:
    out = Path(args.out) if args.out else default_cache_dir() / f"{args.dataset}.npz"
    dataset = dat.prepare_dataset(
        args.dataset, args.input, seed=args.seed, threshold=args.threshold,
        n_negatives=args.negatives,
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    dat.save_dataset(dataset, out)
    stats = dataset.stats()
    print(f"dataset: {dataset.name} (seed={dataset.seed})")
    print(f"users: {stats['users']}  items: {stats['items']}  "
          f"positives: {stats['positives']}  sparsity: {stats['sparsity']:.1%}")
    print(f"user side-info dim: {stats['user_feature_dim']}  "
          f"item side-info dim: {stats['item_feature_dim']}")
    print(f"eval cases: {stats['eval_cases']}")
    print(f"cache written to {out}")
    return EXIT_OK


def _parse_ks(text: str) -> tuple[int, ...]:
    """Comma-separated HR/NDCG cutoffs, each at least 1."""
    ks = tuple(int(k) for k in text.split(","))
    if min(ks) < 1:
        raise ValueError(f"--k cutoffs must be >= 1, got {text}")
    return ks


def _load_config(path, variant=None) -> tr.TrainConfig:
    config = tr.TrainConfig.from_file(path) if path else tr.TrainConfig()
    if variant:
        use_u, use_v = mdl.VARIANT_FLAGS[variant]
        config = dataclasses.replace(
            config, use_user_prior=use_u, use_item_prior=use_v
        )
    return config


def _fit_once(dataset, config, ckpt_path, history_path, split=None,
              cold_fraction=0.3):
    """Train on the leave-one-out split or on a cold split's 80% matrix."""
    extra = {"split": split or "loo"}
    if split in ("cold-user", "cold-item"):
        mode = split.removeprefix("cold-")
        cold = dat.make_cold_split(
            dataset.interactions, dataset.side, fraction=cold_fraction,
            mode=mode, seed=config.seed,
        )
        extra["cold_fraction"] = cold_fraction
        result = tr.fit(dataset, config, train_matrix=cold.train,
                        eval_cases=cold.val_cases, history_path=history_path)
    else:
        result = tr.fit(dataset, config, history_path=history_path)
    if ckpt_path:
        mdl.save_checkpoint(result.model, ckpt_path, seed=config.seed,
                            step=result.steps, extra=extra)
    return result


def cmd_train(args) -> int:
    dataset = dat.load_dataset(args.data)
    config = _load_config(args.config, args.variant)
    history_path = args.history or (Path(args.out).with_suffix(".history.csv")
                                    if args.out else None)
    try:
        result = _fit_once(dataset, config, args.out, history_path,
                           split=args.split, cold_fraction=args.fraction)
    except tr.TrainingDiverged as exc:
        # the model still holds the last finite parameters; keep them
        if args.out:
            mdl.save_checkpoint(exc.last_model, args.out, seed=config.seed,
                                step=exc.step, extra={"diverged_at": exc.step})
            log.error("%s; last-good checkpoint retained at %s", exc, args.out)
        else:
            log.error("%s", exc)
        return EXIT_NUMERIC
    print(f"trained {config.variant} for {len(result.history)} epochs "
          f"(best epoch {result.best_epoch}, val HR@5 {result.best_val_hr:.4f})")
    if args.out:
        print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ks = _parse_ks(args.k)
    dataset = dat.load_dataset(args.data)
    model, meta = mdl.load_checkpoint(args.ckpt)
    report = ev.evaluate(
        model, dataset, ks=ks, n_samples=args.samples, seed=args.seed,
        fingerprint=meta.get("extra", {}).get("fingerprint", ""),
    )
    print(report.format_table())
    if args.out:
        report.to_csv(args.out)
        print(f"metrics written to {args.out}")
    return EXIT_OK


def cmd_eval_cold(args) -> int:
    ks = _parse_ks(args.k)
    dataset = dat.load_dataset(args.data)
    model, meta = mdl.load_checkpoint(args.ckpt)
    trained_split = meta.get("extra", {}).get("split", "loo")
    if trained_split != f"cold-{args.mode}":
        raise dat.DataError(
            f"checkpoint was trained on split {trained_split!r}; "
            f"eval-cold --mode {args.mode} needs one trained with "
            f"--split cold-{args.mode}"
        )
    split = dat.make_cold_split(
        dataset.interactions, dataset.side, fraction=args.fraction,
        mode=args.mode, seed=meta["seed"],
    )
    report = ev.evaluate_cold(
        model, dataset, split, mode=args.mode, ks=ks,
        n_samples=args.samples, seed=args.seed,
    )
    print(report.format_table())
    if args.out:
        report.to_csv(args.out)
        print(f"metrics written to {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    if args.topk is not None and args.topk < 1:
        log.error("--topk must be >= 1, got %d", args.topk)
        return EXIT_USAGE
    dataset = dat.load_dataset(args.data)
    if not 0 <= args.user < dataset.n_users:
        log.error("--user %d out of range [0, %d)", args.user, dataset.n_users)
        return EXIT_USAGE
    if args.items:
        candidates = np.array([int(x) for x in args.items.split(",")], dtype=np.int64)
        bad = candidates[(candidates < 0) | (candidates >= dataset.n_items)]
        if len(bad):
            log.error("--items id %d out of range [0, %d)", bad[0], dataset.n_items)
            return EXIT_USAGE
        if len(np.unique(candidates)) < len(candidates):
            log.error("--items repeats an id: %s", args.items)
            return EXIT_USAGE
    else:
        candidates = np.setdiff1d(np.arange(dataset.n_items),
                                  dataset.train.user_items[args.user])
    model, _ = mdl.load_checkpoint(args.ckpt)
    ranked = pred.rank(model, dataset.train, dataset.side, args.user, candidates,
                       n_samples=args.samples, seed=args.seed)
    if args.topk:
        ranked = ranked[:args.topk]
    _write_csv(["user", "item", "score", "rank"],
               [[args.user, item, f"{score:.6f}", r]
                for r, (item, score) in enumerate(ranked, start=1)],
               args.out, "predictions")
    return EXIT_OK


def _experiment_inputs(args):
    """Checked cutoffs, base config and dataset of `ablate` and `sweep`."""
    ks = _parse_ks(args.k)
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    return ks, _load_config(args.config), dat.load_dataset(args.data)


def _metric_header(ks) -> list[str]:
    return [f"hr@{k}" for k in ks] + [f"ndcg@{k}" for k in ks]


def _fit_and_evaluate(dataset, config, ks, n_samples) -> list[str]:
    """Train one config on the leave-one-out split; its hr@k and ndcg@k cells."""
    result = tr.fit(dataset, config)
    report = ev.evaluate(result.model, dataset, ks=ks, n_samples=n_samples,
                         seed=config.seed, fingerprint=config.fingerprint())
    cells = [f"{report.hr[k]:.6f}" for k in ks] + [f"{report.ndcg[k]:.6f}" for k in ks]
    log.info("%s seed %d: %s", config.variant, config.seed, ",".join(cells))
    return cells


def _write_csv(header, rows, out, what: str) -> None:
    """Write the table to `out` and say so on stdout, or print it."""
    text = "\n".join(",".join(map(str, row)) for row in [header, *rows])
    if out:
        Path(out).write_text(text + "\n")
        print(f"{what} written to {out}")
    else:
        print(text)


def cmd_ablate(args) -> int:
    ks, config, dataset = _experiment_inputs(args)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [config.seed]
    rows = []
    for seed in seeds:
        for variant, (use_u, use_v) in mdl.VARIANT_FLAGS.items():
            point = dataclasses.replace(config, seed=seed, use_user_prior=use_u,
                                        use_item_prior=use_v)
            cells = _fit_and_evaluate(dataset, point, ks, args.samples)
            rows.append([variant, seed, *cells])
    _write_csv(["variant", "seed", *_metric_header(ks)], rows, args.out,
               "ablation table")
    return EXIT_OK


def _sweep_cells(dataset, config, field, value, ks, n_samples) -> list[str]:
    """Status and metric cells of one grid point. Only an invalid value or a
    diverged fit makes a failed row; any other error ends the sweep."""
    try:
        point = dataclasses.replace(config, **{field: value})
    except ValueError as exc:
        failure = exc
    else:
        try:
            return ["ok", *_fit_and_evaluate(dataset, point, ks, n_samples)]
        except tr.TrainingDiverged as exc:
            failure = exc
    return [f"failed: {failure}"] + [""] * (2 * len(ks))


def cmd_sweep(args) -> int:
    values = [int(v) for v in args.values.split(",")]
    ks, config, dataset = _experiment_inputs(args)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    field = "latent_dim" if args.param == "dim" else "neg_ratio"
    rows = [[args.param, value, config.seed,
             *_sweep_cells(dataset, config, field, value, ks, args.samples)]
            for value in values]
    _write_csv(["param", "value", "seed", "status", *_metric_header(ks)], rows,
               args.out, "sweep results")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvrec",
        description="Conditional variational recommender: data preparation, "
                    "training, evaluation, prediction, ablations, sweeps.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse raw files into a dataset cache")
    p.add_argument("--dataset", choices=DATASETS, required=True)
    p.add_argument("--in", dest="input", required=True,
                   help="directory with the raw dataset files")
    p.add_argument("--out", help="cache file (default: $CVREC_CACHE_DIR/<name>.npz)")
    p.add_argument("--seed", type=int, default=7, help="split seed (default 7)")
    p.add_argument("--threshold", type=float, default=4.0,
                   help="MovieLens only: ratings >= threshold become positives "
                        "(default 4); Lastfm listens are positives as-is")
    p.add_argument("--negatives", type=int, default=99,
                   help="negatives per eval case (default 99)")
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a prepared cache")
    p.add_argument("--data", required=True, help="dataset cache from `prepare`")
    p.add_argument("--config", help="JSON config (missing keys use defaults)")
    p.add_argument("--out", help="checkpoint output path")
    p.add_argument("--variant", choices=VARIANTS, default=None,
                   help="prior ablation variant (default: config flags)")
    p.add_argument("--split", choices=("loo", "cold-user", "cold-item"),
                   default="loo", help="training split (default leave-one-out)")
    p.add_argument("--fraction", type=float, default=0.3,
                   help="cold fraction for cold splits (default 0.3)")
    p.add_argument("--history", help="loss/metric history CSV path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="leave-one-out metrics for a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--k", default="5,10", help="comma-separated cutoffs (default 5,10)")
    p.add_argument("--samples", type=int, default=128,
                   help="Monte Carlo samples per score (default 128)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="write metrics CSV here")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("eval-cold", help="cold-start metrics for a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True,
                   help="checkpoint trained with the matching --split cold-*")
    p.add_argument("--mode", choices=("user", "item"), required=True)
    p.add_argument("--fraction", type=float, default=0.3)
    p.add_argument("--k", default="5,10")
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval_cold)

    p = sub.add_parser("predict", help="score candidate items for a user")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--items", help="comma-separated item ids (default: all unseen)")
    p.add_argument("--topk", type=int, help="truncate output to the top k rows")
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("ablate", help="train and evaluate all prior variants")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--seeds", help="comma-separated seeds (default: config seed)")
    p.add_argument("--k", default="10")
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("sweep", help="train and evaluate each grid value in turn; "
                       "an invalid value or a diverged fit is a failed row")
    p.add_argument("--data", required=True)
    p.add_argument("--param", choices=("neg_ratio", "dim"), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated grid, e.g. 2,4,6,8,10")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", default="5,10")
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except dat.DataError as exc:
        log.error("%s", exc)
        return EXIT_IO
    except (FileNotFoundError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_IO
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except tr.TrainingDiverged as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
