"""Benchmark of the tgsl package: one workload, one seed, one run.

    python3 benchmark/run.py --workload accept-tgsl --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. A run makes passes of the workload, one
after another, each in a fresh child process (`workload.py`): at least
MIN_PASSES, and then more while the last pass's wall time still fits in
`--seconds`. Pass i generates its inputs from the seed 1000 * seed + i, so
one run averages over several inputs and the same seed always gives the
same inputs. A child that raises, is killed (say for lack of memory) or
times out fails every call of its pass; the run goes on.

The gated times are CPU times of the child (see `workload.py`): `setup_s`
is the median of a pass's set-ups, and `events_per_s` divides the events
of every train_epoch and evaluate call by their CPU seconds.

With `--trace 1` the run makes pairs of passes on the same inputs, one
untraced and one traced, at least MIN_PAIRS; the per-layer metrics are the
medians over the traced passes, and the trace overhead is the median over
pairs of the traced minus the untraced `run_s`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric by name with its unit, and the machine the run used.
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workload import WORKLOADS  # noqa: E402

# One BLAS thread per process. The machine this was tuned on has 2 CPUs,
# and a single thread keeps the matmul-heavy paper-tgsl workload from
# competing with itself.
BLAS_THREADS = 1
MIN_PASSES = 3
MIN_PAIRS = 2
# Every run must end within 180 s: a pass that has not finished by then is
# killed and counted as failed, and no pass starts that could not finish in
# time at the slowest pace seen so far.
RUN_LIMIT_S = 170.0
# AP the trained model must reach on the transductive test set; chance is
# 0.5. Not applied where the model is untrained or trained for one epoch.
MIN_TEST_AP = {"accept-tgsl": 0.55}

END_TO_END_UNITS = {
    "setup_s": "s", "events_per_s": "events/s", "peak_rss_mb": "MB",
}


def machine(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "seed": seed,
    }


def groups(seed, trace):
    """Endless groups of passes as (input seed, traced): one untraced
    pass each, or with `trace` a pair on the same inputs."""
    for i in itertools.count():
        s = 1000 * seed + i
        if not trace:
            yield [(s, 0)]
        else:
            # alternating order, so neither side always runs first
            yield [(s, 0), (s, 1)] if i % 2 == 0 else [(s, 1), (s, 0)]


def run_child(workload, seed, trace, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    n_calls = len(WORKLOADS[workload]["calls"])
    failed = {"attempted": n_calls, "failed": n_calls, "trace": trace}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return dict(failed, errors=[f"pass killed after {timeout:.0f} s"])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return dict(failed, errors=[f"pass exited {proc.returncode}: "
                                    + " | ".join(tail)])
    return json.loads(lines[-1])


def end_to_end(passes):
    """End-to-end metrics over untraced passes, as name -> value, plus
    the metrics shown but not gated, as name -> (value, unit).

    Rates are the work of all passes over their summed call CPU time: on
    a shared machine whose speed wanders over seconds, that averages better
    than a median of a few per-pass rates. The peak RSS is the largest of
    the passes: how many leaked tapes are alive at the peak depends on
    where the garbage collector runs, which differs between inputs."""
    ev_n = sum(n for p in passes for n, _ in p["eval_calls"])
    ev_s = sum(s for p in passes for _, s in p["eval_calls"])
    tr_n = sum(p["train_events"] * len(p["epoch_s"]) for p in passes)
    tr_s = sum(s for p in passes for s in p["epoch_s"])
    out = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "events_per_s": (tr_n + ev_n) / (tr_s + ev_s),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    shown = {"run_s": (statistics.fmean(p["run_s"] for p in passes), "s"),
             "eval_events_per_s": (ev_n / ev_s, "events/s"),
             "test_ap": (statistics.median(p["test_ap"] for p in passes),
                         "AP")}
    if tr_s:
        shown["train_events_per_s"] = (tr_n / tr_s, "events/s")
    return out, shown


def per_layer(traced, untraced):
    """Per-layer metrics: medians over traced passes, plus the overhead,
    taken per pair of passes on the same inputs."""
    out = {}
    for key, (_, unit) in traced[0]["layers"].items():
        out[key] = (statistics.median(p["layers"][key][0] for p in traced),
                    unit)
    base = {p["seed"]: p["run_s"] for p in untraced}
    pairs = [(p["run_s"], base[p["seed"]]) for p in traced
             if p["seed"] in base]
    if not pairs:                   # a failed pass broke every pair
        return out
    out["trace.run_s"] = (statistics.median(t for t, _ in pairs), "s")
    out["trace.overhead_s"] = (statistics.median(t - u for t, u in pairs),
                               "s")
    out["trace.overhead_share"] = (
        statistics.median((t - u) / u for t, u in pairs), "ratio")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tgsl", "__init__.py")):
        print(f"benchmark: no package source under {ROOT}/src; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2

    info = machine(args.seed)
    info["load_before"] = os.getloadavg()
    start = time.perf_counter()
    passes, errors, last, slowest = [], [], 0.0, 0.0
    least = MIN_PAIRS if args.trace else MIN_PASSES
    for n, group in enumerate(groups(args.seed, args.trace)):
        elapsed = time.perf_counter() - start
        if n >= least and elapsed + last > args.seconds:
            break
        if elapsed + 1.5 * slowest > RUN_LIMIT_S:
            if n < least:
                errors.append(f"stopped after {n} of {least} groups of "
                              f"passes to end within {RUN_LIMIT_S:.0f} s")
            break
        t0 = time.perf_counter()
        for pass_seed, trace in group:
            passes.append(run_child(
                args.workload, pass_seed, trace,
                RUN_LIMIT_S - (time.perf_counter() - start)))
        last = time.perf_counter() - t0
        slowest = max(slowest, last)
    info["load_after"] = os.getloadavg()

    attempted = sum(q["attempted"] for q in passes)
    failed = sum(q["failed"] for q in passes)
    errors += [e for q in passes for e in q["errors"]]
    ok = [q for q in passes if q["failed"] == 0]
    floor = MIN_TEST_AP.get(args.workload)
    errors += [f"input seed {q['seed']}: test_ap {q['test_ap']:.4f} below "
               f"{floor}" for q in ok if floor and q["test_ap"] < floor]
    untraced = [q for q in ok if not q["trace"]]
    traced = [q for q in ok if q["trace"]]
    if ok:
        info["blas_threads"] = ok[0]["blas_threads"]
    info["passes"] = (f"{len(untraced)} untraced and {len(traced)} traced "
                      f"passed of {len(passes)}")

    print("machine: " + json.dumps(info))
    metrics, shown = {}, {}
    if args.trace and traced and untraced:
        metrics = per_layer(traced, untraced)
    elif not args.trace and untraced:
        e2e, shown = end_to_end(untraced)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    shown["op_failure_rate"] = (failed / max(attempted, 1), "ratio")
    for k, (v, unit) in {**metrics, **shown}.items():
        print(f"{args.workload} {k} = {v:.6g} {unit}")
    for e in errors:
        print(f"error: {e}")
    result = {
        "correct": not errors and failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
