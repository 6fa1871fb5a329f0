"""Batch entry points: train, eval, synth, verify, sweep.

Configuration is a flat key=value file with # comments; --set overrides win
over file values. Every run writes an atomic manifest sufficient to
reproduce it bit-for-bit (resolved config + seed + code fingerprint), a
deterministic metrics JSON, a per-epoch CSV, and a parameter snapshot.

Exit codes: 0 success, 1 check/metric failure, 2 configuration error,
3 data error.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import fields

import numpy as np

from .graph import (DataError, chronological_split, load_events, save_events,
                    sparsify, synth_generate)
from .training import ConfigError, EmptySetError, RunConfig, Trainer
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_CHECK_FAIL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key, raw):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    if ftype is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if ftype in (int, float):
        try:
            return ftype(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected {ftype.__name__}, "
                              f"got {raw!r}")
    return raw


def parse_config(path=None, overrides=()):
    """Flat key=value file plus repeatable key=value overrides."""
    cfg = RunConfig()
    pairs = []
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                k, v = line.split("=", 1)
                pairs.append((k.strip(), v))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        pairs.append((k.strip(), v))
    for k, v in pairs:
        if k not in _FIELD_TYPES:
            raise ConfigError(
                f"unknown config key {k!r}; valid keys: "
                + ", ".join(sorted(_FIELD_TYPES)))
        setattr(cfg, k, _coerce(k, v))
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# shared assembly

def build_store(cfg):
    if cfg.dataset == "synth":
        return synth_generate(cfg.synth_communities, cfg.synth_users,
                              cfg.synth_items, cfg.synth_events,
                              cfg.synth_noise, cfg.synth_seed,
                              jitter=cfg.synth_jitter)
    return load_events(cfg.dataset)


def build_split(cfg, store):
    split = chronological_split(store, mask_frac=cfg.mask_frac,
                                seed=cfg.split_seed)
    if cfg.sparsify_n > 1:
        store, split = sparsify(store, split, cfg.sparsify_n)
    return store, split


def make_trainer(cfg, store, split, seed):
    return Trainer(store, split, cfg, seed)


def code_fingerprint():
    h = hashlib.sha256()
    pkg = os.path.dirname(__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode())
                h.update(f.read())
    return h.hexdigest()[:16]


def run_id_for(cfg, seed):
    # the output location is not part of the run's scientific identity
    resolved = {k: v for k, v in cfg.resolved().items() if k != "out_dir"}
    blob = json.dumps(resolved, sort_keys=True) + f"|{seed}"
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def _json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands

def cmd_train(args):
    cfg = parse_config(args.config, args.set or [])
    if args.seed is not None:
        cfg.seeds = str(args.seed)
    if args.out:
        cfg.out_dir = args.out
    if args.sparsify is not None:
        cfg.sparsify_n = args.sparsify
    cfg.validate()
    try:
        store = build_store(cfg)
        store, split = build_split(cfg, store)
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    statuses = []
    for seed in cfg.seed_list():
        statuses.append(_train_one(cfg, store, split, seed))
    return max(statuses)


def _train_one(cfg, store, split, seed):
    rid = run_id_for(cfg, seed)
    out = os.path.join(cfg.out_dir, f"run-{rid}")
    os.makedirs(out, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    t_start = time.time()

    trainer = make_trainer(cfg, store, split, seed)
    try:
        history = trainer.fit(log=lambda e: print(
            f"[{rid}] epoch {e['epoch']}: ori={e['loss_task_ori']:.4f} "
            f"aug={e['loss_task_aug']:.4f} cl={e['loss_cl']:.4f} "
            f"val_ap={e['val_ap']:.4f} ({e['wall_seconds']:.1f}s)"))
    except RuntimeError as e:           # the non-finite loss guard
        print(f"[{rid}] training failed: {e}", file=sys.stderr)
        return EXIT_CHECK_FAIL
    trans = trainer.evaluate("transductive", "test", seed=seed)
    try:
        induc = trainer.evaluate("inductive", "test", seed=seed)
    except EmptySetError:
        induc = None

    dataset_name = (cfg.dataset if cfg.dataset != "synth"
                    else f"synth-c{cfg.synth_communities}")
    metrics = {
        "run_id": rid,
        "seed": seed,
        "dataset": dataset_name,
        "strategy": cfg.strategy,
        "K": cfg.k,
        "alpha": cfg.alpha,
        "epochs": [{k: e[k] for k in ("epoch", "loss_task_ori",
                                      "loss_task_aug", "loss_cl", "val_ap")}
                   for e in history],
        "best_epoch": trainer.best_epoch,
        "transductive": {"test_acc": trans.acc, "test_ap": trans.ap},
        "inductive": (None if induc is None
                      else {"test_acc": induc.acc, "test_ap": induc.ap}),
    }
    metrics_path = os.path.join(out, "metrics.json")
    atomic_write(metrics_path, _json(metrics))

    csv_path = os.path.join(out, "epochs.csv")
    head = ("run_id,seed,dataset,strategy,K,alpha,setting,epoch,"
            "loss_task_ori,loss_task_aug,loss_cl,val_ap,test_acc,test_ap,"
            "wall_seconds\n")
    rows = [head]
    base = f"{rid},{seed},{dataset_name},{cfg.strategy},{cfg.k},{cfg.alpha}"
    for e in history:
        rows.append(f"{base},val,{e['epoch']},{e['loss_task_ori']!r},"
                    f"{e['loss_task_aug']!r},{e['loss_cl']!r},"
                    f"{e['val_ap']!r},,,{e['wall_seconds']:.3f}\n")
    total_s = time.time() - t_start
    rows.append(f"{base},transductive,{len(history)},,,,,"
                f"{trans.acc!r},{trans.ap!r},{total_s:.3f}\n")
    if induc is not None:
        rows.append(f"{base},inductive,{len(history)},,,,,"
                    f"{induc.acc!r},{induc.ap!r},{total_s:.3f}\n")
    atomic_write(csv_path, "".join(rows))

    params_path = os.path.join(out, "params.npz")
    snap = trainer.snapshot()
    flat = {}
    for group, d in snap.items():
        for name, arr in d.items():
            flat[f"{group}|{name}"] = arr
    np.savez(params_path + ".tmp.npz", **flat)
    os.replace(params_path + ".tmp.npz", params_path)

    tr0, tr1 = split.train_range
    manifest = {
        "run_id": rid,
        "config": cfg.resolved(),
        "seed": seed,
        "fingerprint": code_fingerprint(),
        "data": {"events": len(store), "nodes": store.num_nodes,
                 "train_events": tr1 - tr0,
                 "usable_train_events": len(split.usable_train_ids),
                 "masked_nodes": len(split.masked_nodes)},
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metrics_json": "metrics.json",
        "epochs_csv": "epochs.csv",
        "params": "params.npz",
        "final": {"transductive_ap": trans.ap,
                  "transductive_acc": trans.acc,
                  "inductive_ap": None if induc is None else induc.ap,
                  "inductive_acc": None if induc is None else induc.acc},
    }
    atomic_write(os.path.join(out, "manifest.json"), _json(manifest))
    print(f"[{rid}] transductive test AP={trans.ap:.4f} ACC={trans.acc:.4f}"
          + (f"; inductive AP={induc.ap:.4f} ACC={induc.acc:.4f}"
             if induc else "; inductive set empty"))
    print(f"[{rid}] wrote {out}/manifest.json")
    return EXIT_OK


def load_run(manifest_path):
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        cfg = RunConfig(**manifest["config"])
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(f"bad manifest {manifest_path}: {e}")
    cfg.validate()
    store = build_store(cfg)
    store, split = build_split(cfg, store)
    trainer = make_trainer(cfg, store, split, manifest["seed"])
    run_dir = os.path.dirname(os.path.abspath(manifest_path))
    with np.load(os.path.join(run_dir, manifest["params"])) as z:
        snap = {}
        for key in z.files:
            group, name = key.split("|", 1)
            snap.setdefault(group, {})[name] = z[key]
    trainer.restore(snap)
    return manifest, cfg, trainer


def cmd_eval(args):
    if not os.path.exists(args.manifest):
        print(f"manifest not found: {args.manifest}", file=sys.stderr)
        return EXIT_CONFIG
    if args.setting not in ("transductive", "inductive"):
        print(f"unknown setting {args.setting!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        manifest, cfg, trainer = load_run(args.manifest)
    except FileNotFoundError as e:
        print(f"missing snapshot: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    rep = trainer.evaluate(args.setting, "test", seed=manifest["seed"],
                           use_augmented=not args.original_graph)
    doc = {"run_id": manifest["run_id"], "setting": args.setting,
           "inference_graph": ("original" if args.original_graph
                               else "augmented"),
           "test_acc": rep.acc, "test_ap": rep.ap}
    print(_json(doc), end="")
    return EXIT_OK


def cmd_synth(args):
    cfg = parse_config(args.config, args.set or [])
    if args.seed is not None:
        cfg.synth_seed = args.seed
    try:
        store = synth_generate(cfg.synth_communities, cfg.synth_users,
                               cfg.synth_items, cfg.synth_events,
                               cfg.synth_noise, cfg.synth_seed,
                               jitter=cfg.synth_jitter)
        out = args.out or "synth.csv"
        parent = os.path.dirname(os.path.abspath(out))
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            print(f"unwritable path: {out}", file=sys.stderr)
            return EXIT_CONFIG
        save_events(store, out)
    except (ValueError, OSError) as e:
        print(f"synth error: {e}", file=sys.stderr)
        return EXIT_DATA
    print(f"wrote {len(store)} events to {out}")
    return EXIT_OK


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(f"unknown suite {unknown}; have {sorted(SUITES)} or 'all'",
              file=sys.stderr)
        return EXIT_CONFIG
    checks, ok = run_suites(names)
    for c in checks:
        print(c.line())
    print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return EXIT_OK if ok else EXIT_CHECK_FAIL


def cmd_sweep(args):
    """Train over a strategy x K grid (one run per cell per seed)."""
    strategies = (args.strategies.split(",") if args.strategies
                  else ["one-hop", "third-hop", "random"])
    try:
        k_grid = ([int(k) for k in args.k_grid.split(",")] if args.k_grid
                  else [2, 4, 8, 16, 32])
    except ValueError:
        raise ConfigError(f"--k-grid expects comma-separated integers, "
                          f"got {args.k_grid!r}")
    status = EXIT_OK
    for strat in strategies:
        for k in k_grid:
            overrides = list(args.set or []) + [f"strategy={strat}", f"k={k}"]
            sub = argparse.Namespace(config=args.config, set=overrides,
                                     seed=args.seed, out=args.out,
                                     sparsify=args.sparsify)
            status = max(status, cmd_train(sub))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tgsl",
        description="Temporal graph structure learning: train, evaluate, "
                    "generate synthetic data, and run verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, help="single training seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--sparsify", type=int, metavar="N",
                       help="keep one train event in every N")

    p_train = sub.add_parser("train", help="train and evaluate one config")
    common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="re-evaluate a finished run")
    p_eval.add_argument("manifest", help="path to a run manifest.json")
    p_eval.add_argument("--setting", default="transductive",
                        choices=["transductive", "inductive"])
    p_eval.add_argument("--original-graph", action="store_true",
                        help="infer on the original graph instead of the "
                             "augmented one")
    p_eval.set_defaults(fn=cmd_eval)

    p_synth = sub.add_parser("synth", help="write a synthetic jodie-csv file")
    p_synth.add_argument("--config", help="flat key=value config file")
    p_synth.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_synth.add_argument("--seed", type=int, help="generator seed")
    p_synth.add_argument("--out", help="output csv path", required=True)
    p_synth.set_defaults(fn=cmd_synth)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          help="grad | gumbel | metrics | leakage | all")
    p_verify.set_defaults(fn=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="strategy x K grid of train runs")
    common(p_sweep)
    p_sweep.add_argument("--strategies", help="comma list (default all)")
    p_sweep.add_argument("--k-grid", help="comma list (default 2,4,8,16,32)")
    p_sweep.set_defaults(fn=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
