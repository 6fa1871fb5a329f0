"""Batch entry points: train, eval, synth, verify, sweep.

Configuration is a flat key=value file with # comments, then --set pairs,
then a sweep cell's strategy= and k=, then the flags that are shorthand for
a key (--seed for seeds=, or synth_seed= in synth; --out for out_dir=;
--sparsify for sparsify_n=): a later pair wins, and the config is validated
once. Every run writes an atomic manifest sufficient to reproduce it
bit-for-bit (resolved config + seed + code fingerprint), a deterministic
metrics JSON, a per-epoch CSV, and a parameter snapshot.

Exit codes: 0 success, 1 check/metric failure, 2 configuration error,
3 data error.
"""

import argparse
import hashlib
import json
import os
import sys
import time
import zipfile
from dataclasses import fields

import numpy as np

from .graph import (DataError, chronological_split, load_events, save_events,
                    sparsify, synth_generate)
from .structure import STRATEGIES
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
    """Flat key=value file plus repeatable key=value overrides, applied in
    order (a later pair wins) and validated once. A file that cannot be
    read or decoded is a ConfigError."""
    cfg = RunConfig()
    pairs = []
    if path:
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = f.readlines()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        for lineno, line in enumerate(lines, start=1):
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


def _check_writable(path, directory):
    """ConfigError unless `path` can be written: as a file in an existing
    directory, or as a directory that os.makedirs can make."""
    target = os.path.abspath(path)
    head = target if directory else os.path.dirname(target)
    while directory and not os.path.lexists(head):
        head = os.path.dirname(head)
    if (not directory and os.path.isdir(target)) or not (
            os.path.isdir(head) and os.access(head, os.W_OK | os.X_OK)):
        raise ConfigError(f"unwritable path: {path}")


# ---------------------------------------------------------------------------
# shared assembly

def build_store(cfg):
    if cfg.dataset != "synth":
        return load_events(cfg.dataset)
    try:
        return synth_generate(cfg.synth_communities, cfg.synth_users,
                              cfg.synth_items, cfg.synth_events,
                              cfg.synth_noise, cfg.synth_seed,
                              jitter=cfg.synth_jitter)
    except MemoryError:         # a size numpy refuses to allocate
        raise ConfigError(f"synth_users={cfg.synth_users}, synth_items="
                          f"{cfg.synth_items} and synth_events="
                          f"{cfg.synth_events} cannot be allocated") from None


def build_split(cfg, store):
    if cfg.sparsify_n > 1:
        return sparsify(store, cfg.sparsify_n, mask_frac=cfg.mask_frac,
                        seed=cfg.split_seed)
    return store, chronological_split(store, mask_frac=cfg.mask_frac,
                                      seed=cfg.split_seed)


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

def _config(args, *pairs):
    """The config of the file, then --set, then `pairs`, then each given
    flag whose dest is a config key, as its key=value pair."""
    flags = [f"{k}={v}" for k, v in vars(args).items()
             if k in _FIELD_TYPES and v is not None]
    return parse_config(args.config, [*(args.set or []), *pairs, *flags])


def cmd_train(args):
    return _train_runs([_config(args)])


def _train_runs(cfgs):
    for cfg in cfgs:            # every output is checked before any data
        _check_writable(cfg.out_dir, directory=True)
    statuses = []
    for cfg in cfgs:
        try:
            store, split = build_split(cfg, build_store(cfg))
        except DataError as e:
            print(f"data error: {e}", file=sys.stderr)
            statuses.append(EXIT_DATA)
        else:
            statuses += [_train_one(cfg, store, split, seed)
                         for seed in cfg.seed_list()]
    return max(statuses)


def _train_one(cfg, store, split, seed):
    rid = run_id_for(cfg, seed)
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
    # made only now, so a run that fails leaves no directory behind
    out = os.path.join(cfg.out_dir, f"run-{rid}")
    os.makedirs(out, exist_ok=True)
    atomic_write(os.path.join(out, "metrics.json"), _json(metrics))

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
    np.savez(params_path + ".tmp.npz", **{
        f"{group}|{name}": arr for group, d in trainer.snapshot().items()
        for name, arr in d.items()})
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
    """Read a run's manifest and parameter snapshot, then rebuild its
    trainer. A file that cannot be read or is malformed raises ConfigError
    before any data is built; a snapshot that does not fit the rebuilt
    model (a missing group, or a tensor name or shape that differs), once
    the model exists."""
    run_dir = os.path.dirname(os.path.abspath(manifest_path))
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        cfg = RunConfig(**manifest["config"])
        cfg.validate()
        # cmd_eval reports run_id: a manifest without one is bad too
        seed, params, _ = (manifest[k] for k in ("seed", "params", "run_id"))
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        snap = {}
        with np.load(os.path.join(run_dir, params)) as z:
            for key in z.files:
                group, name = key.split("|", 1)
                snap.setdefault(group, {})[name] = z[key]
    except (OSError, ValueError, TypeError, KeyError,
            zipfile.BadZipFile) as e:
        raise ConfigError(f"bad manifest {manifest_path}: {e}")
    store = build_store(cfg)
    store, split = build_split(cfg, store)
    trainer = make_trainer(cfg, store, split, seed)
    try:
        trainer.restore(snap)
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad manifest {manifest_path}: snapshot {e}")
    return manifest, cfg, trainer


def cmd_eval(args):
    manifest, cfg, trainer = load_run(args.manifest)
    augmented = trainer.learner is not None and not args.original_graph
    rep = trainer.evaluate(args.setting, "test", seed=manifest["seed"],
                           use_augmented=augmented)
    doc = {"run_id": manifest["run_id"], "setting": args.setting,
           "inference_graph": "augmented" if augmented else "original",
           "test_acc": rep.acc, "test_ap": rep.ap}
    print(_json(doc), end="")
    return EXIT_OK


def cmd_synth(args):
    cfg = _config(args, "dataset=synth")
    _check_writable(args.out, directory=False)
    store = build_store(cfg)
    try:
        save_events(store, args.out)
    except (ValueError, OSError) as e:
        print(f"synth error: {e}", file=sys.stderr)
        return EXIT_DATA
    print(f"wrote {len(store)} events to {args.out}")
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
    """Train over a strategy x K grid (one run per cell per seed). Every
    cell's config, and that no cell repeats, is checked before the first
    cell trains."""
    strategies = (args.strategies.split(",") if args.strategies
                  else list(STRATEGIES))
    try:
        k_grid = ([int(k) for k in args.k_grid.split(",")] if args.k_grid
                  else [2, 4, 8, 16, 32])
    except ValueError:
        raise ConfigError(f"--k-grid expects comma-separated integers, "
                          f"got {args.k_grid!r}")
    for flag, grid in (("--strategies", strategies), ("--k-grid", k_grid)):
        if len(set(grid)) < len(grid):
            raise ConfigError(f"{flag} must not repeat a value, got "
                              f"{','.join(map(str, grid))}")
    return _train_runs([_config(args, f"strategy={s}", f"k={k}")
                        for s in strategies for k in k_grid])


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
        p.add_argument("--seed", type=int, dest="seeds", metavar="SEED",
                       help="one training seed: shorthand for seeds=")
        p.add_argument("--out", dest="out_dir", metavar="DIR",
                       help="output directory: shorthand for out_dir=")
        p.add_argument("--sparsify", type=int, dest="sparsify_n",
                       metavar="N", help="keep one train event in every N: "
                                         "shorthand for sparsify_n=")

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
    p_synth.add_argument("--seed", type=int, dest="synth_seed", metavar="SEED",
                         help="generator seed: shorthand for synth_seed=")
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
