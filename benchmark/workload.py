"""One pass of a benchmark workload, run in a fresh process.

    python benchmark/workload.py --workload accept-tgsl --seed 0 --trace 0

A pass sets the workload up (synthetic store, split, trainer) and then makes
its calls into the package one after another, each waiting for the previous
one to return. It prints one JSON record as the last line of its standard
output; `run.py` starts passes, aggregates them and prints the metrics.

The package is driven only through its public entry points: the `tgsl.cli`
config keys with `build_store`/`build_split`/`make_trainer`, and
`Trainer.fit`/`Trainer.evaluate`. Untraced passes wrap only the calls the
result needs (train_epoch and evaluate for their times; score_batch
and build_augmented_view for the output checks), each once per epoch or per
batch. Traced passes wrap every public entry point of the graph, encoder,
structure, autodiff and training layers.

Set-up, train_epoch and evaluate are timed in CPU time of this process
(`time.process_time`): the pass is single-threaded with one BLAS thread, so
that is the work done, without the time the process waited for a CPU. So is
`run_s`, the last set-up before the first call plus the calls.
Spans of the traced layers are timed in wall time (`time.perf_counter`),
which costs less per call than reading the process clock.
"""

import argparse
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tr  # noqa: E402

# The acceptance model of the structure-recovery experiment.
ACCEPT_MODEL = dict(d_model=16, layers=1, heads=2, d_hidden=32,
                    etgnn_layers=1, n_nb=20, lr=1e-2, batch_size=200,
                    alpha=0.0, strategy="one-hop", k=8, n_can=16, n_rnn=10)

# Each workload: RunConfig keys on top of the CLI defaults, the calls one
# pass makes, and whether it trains. Why each exists is in BENCHMARK.json.
WORKLOADS = {
    # 20k-event synth thinned by N=2: 5.6k usable train events, 29 batches
    # per epoch. Tiny tensors, so per-node Python loops in neighbor queries
    # and the structure learner dominate.
    "accept-tgsl": dict(
        config=dict(ACCEPT_MODEL, synth_users=400, synth_items=400,
                    synth_events=20_000, sparsify_n=2, max_epochs=2),
        calls=(("fit", dict(val_limit=1000)),
               ("evaluate", dict(setting="transductive"))),
        trains=True),
    # CLI defaults (d=100, 2 layers, alpha=0.5 so MoCo/InfoNCE runs) on a
    # dense 1.2k-event synth: 683 usable train events, 4 batches. Large
    # tensors, so backward and the encoder dominate; each batch's tape stays
    # alive, which the peak RSS shows.
    "paper-tgsl": dict(
        config=dict(synth_users=60, synth_items=60, synth_events=1_200,
                    max_epochs=1),
        calls=(("fit", dict(val_limit=None)),
               ("evaluate", dict(setting="transductive"))),
        trains=True),
    # Wikipedia-sized synth (8,227 users, 1,000 items, 157,474 events) with
    # the acceptance model at its seeded init: forward-only augmented
    # inference, no tape, no backward, no Adam.
    "wiki-infer": dict(
        config=dict(ACCEPT_MODEL, synth_users=8_227, synth_items=1_000,
                    synth_events=157_474),
        calls=(("evaluate", dict(setting="transductive")),
               ("evaluate", dict(setting="inductive"))),
        trains=False),
}

# A pass sets up in bursts, one before its first call and one after each
# call, so that its set-up times sample the machine across the pass and not
# in one second whose speed may be off. A burst sets up at least
# MIN_BURST_SETUPS times and until the bursts have taken SETUP_CPU_S of CPU
# time in all. The pass reports the median set-up.
SETUP_CPU_S = 1.0
MIN_BURST_SETUPS = 2


def import_package():
    """Import `tgsl` from this checkout's `src`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "tgsl", "__init__.py")):
        raise SystemExit(f"benchmark: no package source at {SRC}")
    sys.path.insert(0, SRC)
    import tgsl
    import tgsl.cli  # bind every module before patching: cli imports names
    if os.path.dirname(os.path.abspath(tgsl.__file__)) != os.path.join(
            SRC, "tgsl"):
        raise SystemExit(f"benchmark: tgsl imported from {tgsl.__file__}")
    return tgsl


def run_config(name, seed):
    from tgsl import cli
    cfg = cli.RunConfig(**WORKLOADS[name]["config"])
    cfg.synth_seed = cfg.split_seed = seed
    cfg.seeds = str(seed)
    cfg.validate()
    return cfg


def setup(cfg, seed):
    from tgsl import cli
    store = cli.build_store(cfg)
    store, split = cli.build_split(cfg, store)
    return cli.make_trainer(cfg, store, split, seed)


# ---------------------------------------------------------------------------
# probes: what every pass records, traced or not

class Probe:
    """Times the calls into train_epoch/evaluate and collects the raw
    facts the output checks need, on the tracer's spans and counters."""

    def __init__(self, tracer):
        self.t = tracer
        self.epoch_s = []
        self.eval_calls = []        # (positive events scored, seconds)
        self._eval_depth = 0
        self._step_t0 = tracer.clock()

    def install(self, patches, tgsl):
        t = self.t
        trainer_cls = tgsl.training.Trainer
        patches.method(trainer_cls, "train_epoch", t, "training.train_epoch",
                       before=self._epoch_begin, after=self._epoch_end)
        patches.method(trainer_cls, "evaluate", t, "training.evaluate",
                       before=self._eval_begin, after=self._eval_end)
        patches.method(tgsl.encoder.TgatEncoder, "score_batch", t,
                       "encoder.score_batch", after=self._scores)
        patches.function(tgsl.structure, "build_augmented_view", t,
                         "structure.build_augmented_view", after=self._added)

    def _epoch_begin(self, t, args, kwargs):
        self._step_t0 = t.clock()
        self._epoch_t0 = time.process_time()

    def _epoch_end(self, t, rec, args, kwargs):
        self.epoch_s.append(time.process_time() - self._epoch_t0)
        t.count("check.nonfinite_losses", sum(
            not math.isfinite(x) for v in rec.values() for x in v))

    def _eval_begin(self, t, args, kwargs):
        self._eval_depth += 1
        self._eval_t0 = time.process_time()
        self._scores0 = t.counts.get("check.eval_scores", 0)

    def _eval_end(self, t, rep, args, kwargs):
        self._eval_depth -= 1
        n = t.counts.get("check.eval_scores", 0) - self._scores0
        self.eval_calls.append((n // 2, time.process_time() - self._eval_t0))

    def _scores(self, t, out, args, kwargs):
        v = out.values
        if v.size and not (v.min() > 0.0 and v.max() < 1.0):
            t.count("check.scores_out_of_range")
        if self._eval_depth:
            t.count("check.eval_scores", v.size)

    def _added(self, t, view, args, kwargs):
        t.count("structure.added_edges", view.num_added)


def _count_len(key):
    def after(t, out, args, kwargs):
        t.count(key, len(out))
    return after


def install_trace(patches, probe, tgsl):
    """Wrap the public entry points of every layer beyond the probes."""
    t = probe.t
    g, enc, st = tgsl.graph, tgsl.encoder, tgsl.structure
    ad, trn = tgsl.autodiff, tgsl.training

    patches.method(g.NeighborIndex, "build", t, "graph.index_build")
    patches.method(g.NeighborIndex, "batch_neighbors", t,
                   "graph.batch_neighbors")
    patches.method(g.NeighborIndex, "neighbors_before", t,
                   "graph.neighbors_before")

    patches.method(enc.TgatEncoder, "encode_batch", t, "encoder.encode_batch")

    patches.method(st.StructureLearner, "propose", t, "structure.propose")
    patches.function(st, "visible_window", t, "structure.visible_window",
                     after=_count_len("structure.window_events"))
    patches.function(st, "etgnn_forward", t, "structure.etgnn_forward")
    patches.function(st, "context_predict_batch", t,
                     "structure.context_predict_batch")
    patches.function(st, "sample_candidates", t, "structure.sample_candidates",
                     after=_count_len("structure.candidates"))
    patches.function(st, "time_map_batch", t, "structure.time_map_batch")

    def selected(t, out, args, kwargs):
        t.count("structure.selected", len(out[2]))
    patches.function(st, "gumbel_topk_select", t,
                     "structure.gumbel_topk_select", after=selected)
    patches.method(st.AugmentedView, "batch_neighbors", t,
                   "structure.augmented_batch_neighbors")

    def tape_size(t, args, kwargs):
        t.sample("autodiff.tape_entries", len(args[0]))
    patches.method(ad.Tape, "backward", t, "autodiff.backward",
                   before=tape_size)

    def after_step(t, out, args, kwargs):
        # one sample per optimizer step: the time since the previous step
        # ended (or its epoch began), and the RSS once the step is done
        now = t.clock()
        t.sample("training.step_ms", 1e3 * (now - probe._step_t0))
        probe._step_t0 = now
        t.sample("autodiff.rss_mb", tr.rss_mb())
    patches.function(ad, "adam_step", t, "autodiff.adam_step",
                     after=after_step)

    patches.function(trn, "info_nce_batch", t, "training.info_nce_batch")
    patches.function(trn, "moco_step", t, "training.moco_step")


# Entry points that must run on every workload, and on training workloads.
REQUIRED_CALLS = ("structure.propose", "encoder.encode_batch",
                  "graph.batch_neighbors")
REQUIRED_TRAINING_CALLS = ("autodiff.backward", "autodiff.adam_step")


def layer_metrics(t):
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    m = {}

    def self_s(span, key=None):
        m[(key or span) + ".self_s"] = (t.self_s(span), "s")

    self_s("graph.batch_neighbors")
    m["graph.neighbors_before.calls"] = (
        t.calls("graph.neighbors_before"), "count")
    self_s("graph.neighbors_before")
    m["graph.index_build_s"] = (          # per set-up: two builds each
        tr.ratio(t.total_s("graph.index_build"), t.calls("setup")), "s")

    m["structure.propose.s"] = (t.total_s("structure.propose"), "s")
    m["structure.propose.calls"] = (t.calls("structure.propose"), "count")
    self_s("structure.visible_window")
    cnt = t.counts.get
    m["structure.window_events"] = (cnt("structure.window_events", 0),
                                    "count")
    for stage in ("etgnn_forward", "context_predict_batch",
                  "sample_candidates"):
        self_s("structure." + stage)
    m["structure.candidates"] = (cnt("structure.candidates", 0), "count")
    self_s("structure.time_map_batch")
    self_s("structure.gumbel_topk_select")
    m["structure.selected"] = (cnt("structure.selected", 0), "count")
    self_s("structure.build_augmented_view")
    m["structure.added_edges"] = (cnt("structure.added_edges", 0), "count")
    self_s("structure.augmented_batch_neighbors")
    m["structure.selected_per_candidate"] = (
        tr.ratio(cnt("structure.selected", 0), cnt("structure.candidates", 0)),
        "ratio")
    m["structure.added_per_selected"] = (
        tr.ratio(cnt("structure.added_edges", 0), cnt("structure.selected", 0)),
        "ratio")

    self_s("encoder.encode_batch")
    m["encoder.encode_batch.calls"] = (t.calls("encoder.encode_batch"),
                                       "count")
    self_s("encoder.score_batch")

    entries = t.samples.get("autodiff.tape_entries", [])
    m["autodiff.backward.s"] = (t.total_s("autodiff.backward"), "s")
    m["autodiff.tape_entries"] = (tr.ratio(sum(entries), len(entries)),
                                  "count")
    m["autodiff.adam_step.s"] = (t.total_s("autodiff.adam_step"), "s")
    m["autodiff.rss_growth_mb_per_step"] = (
        tr.slope(t.samples.get("autodiff.rss_mb", [])), "MB/step")

    for span in ("train_epoch", "evaluate", "info_nce_batch", "moco_step"):
        self_s("training." + span)
    steps = t.samples.get("training.step_ms", [])
    m["training.step_ms.p50"] = (tr.percentile(steps, 50), "ms")
    m["training.step_ms.p90"] = (tr.percentile(steps, 90), "ms")
    m["training.step_ms.samples"] = (len(steps), "count")
    return m


# ---------------------------------------------------------------------------
# one pass

def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f
                       if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def check_report(rep, where):
    errors = []
    for key in ("ap", "acc"):
        v = getattr(rep, key)
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            errors.append(f"{where}: {key}={v} outside [0, 1]")
    return errors


def check_history(history):
    errors = []
    for e in history:
        for key in ("loss_task_ori", "loss_task_aug", "loss_cl"):
            if not math.isfinite(e[key]):
                errors.append(f"fit epoch {e['epoch']}: {key}={e[key]}")
        if not (0.0 <= e["val_ap"] <= 1.0):
            errors.append(f"fit epoch {e['epoch']}: val_ap={e['val_ap']}")
    return errors


def run_pass(name, seed, trace):
    tgsl = import_package()
    spec = WORKLOADS[name]
    tracer = tr.Tracer()
    probe = Probe(tracer)
    patches = tr.Patches()
    out = {"workload": name, "seed": seed, "trace": trace, "errors": [],
           "attempted": 0, "failed": 0}
    try:
        probe.install(patches, tgsl)
        if trace:
            install_trace(patches, probe, tgsl)
        cfg = run_config(name, seed)
        setup_s = []
        burst_s = SETUP_CPU_S / (1 + len(spec["calls"]))

        def setup_burst():
            trainer, n, spent = None, 0, 0.0
            while n < MIN_BURST_SETUPS or spent < burst_s:
                trainer = None       # free the last set-up's store first
                c0 = time.process_time()
                tracer.begin("setup")
                trainer = setup(cfg, seed)
                tracer.end()
                setup_s.append(time.process_time() - c0)
                n, spent = n + 1, spent + setup_s[-1]
            return trainer

        trainer = setup_burst()
        out["train_events"] = len(trainer.split.usable_train_ids)
        out["run_s"] = setup_s[-1]
        reports = []
        for call, kwargs in spec["calls"]:
            out["attempted"] += 1
            added0 = tracer.counts.get("structure.added_edges", 0)
            bad0 = (tracer.counts.get("check.scores_out_of_range", 0)
                    + tracer.counts.get("check.nonfinite_losses", 0))
            c0 = time.process_time()
            try:
                if call == "fit":
                    errors = check_history(
                        trainer.fit(early_stop=False, **kwargs))
                else:
                    rep = trainer.evaluate(subset="test", **kwargs)
                    reports.append(rep)
                    errors = check_report(rep, f"evaluate {kwargs['setting']}")
            except Exception as e:     # a failed call is a measured outcome
                errors = [f"{call}: {type(e).__name__}: {e}"]
            out["run_s"] += time.process_time() - c0
            if tracer.counts.get("structure.added_edges", 0) == added0:
                errors.append(f"{call}: the augmented graph added no edges")
            if (tracer.counts.get("check.scores_out_of_range", 0)
                    + tracer.counts.get("check.nonfinite_losses", 0)) > bad0:
                errors.append(f"{call}: a score left (0, 1) or a loss was "
                              "not finite")
            if errors:
                out["failed"] += 1
                out["errors"] += errors
            setup_burst()
        out["setup_s"] = sorted(setup_s)[len(setup_s) // 2]
    finally:
        patches.restore()
    left = tr.wrapped_names()
    if left:
        out["errors"].append(f"patches not restored: {left}")
        out["failed"] = out["attempted"]

    out["test_ap"] = reports[0].ap if reports else float("nan")
    out["epoch_s"] = probe.epoch_s
    out["eval_calls"] = probe.eval_calls
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["blas_threads"] = blas_threads()
    if trace:
        required = REQUIRED_CALLS + (REQUIRED_TRAINING_CALLS
                                     if spec["trains"] else ())
        missing = [c for c in required if tracer.calls(c) == 0]
        if missing:
            out["errors"].append(f"entry points never called: {missing}")
            out["failed"] = out["attempted"]
        out["layers"] = layer_metrics(tracer)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, args.trace)))


if __name__ == "__main__":
    main()
