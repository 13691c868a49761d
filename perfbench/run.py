"""pcddg benchmark: one workload per invocation.

    python3 perfbench/run.py --workload pcd1d_lowbias --seed 1 --seconds 10 --trace 0

Prints a human-readable report and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, measured with no wrapper installed; with
--trace 1 the same untraced operations run first, then one traced
operation gives the per-layer metrics.  See NOTES.md for the workloads and
what each metric is expected to move.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 15

WORKLOADS = ("pcd1d_lowbias", "grating2d", "pcd1d_shipped")
END_TO_END = {"setup_s": "s", "run_s": "s", "transient_s": "s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def git_commit():
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def undeclared(workload, trace, metrics, failed):
    """Why `metrics` break BENCHMARK.json's declaration, or ''.  A run with
    failed operations may lack timings, never carry extra names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if workload not in {w["name"] for w in bench["workloads"]}:
        return ""
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if any(declared.get(name) != unit for name, unit in got.items()) or \
            (not failed and got.keys() != declared.keys()):
        return f"metrics {sorted(got.items())} differ from BENCHMARK.json"
    return ""


def median(xs):
    return statistics.median(xs) if xs else None


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# workloads; each returns (samples, per-layer metrics or None)

def timed_ops(seconds, op):
    """Run op(k) for k = 0, 1, ... until `seconds` have passed (at least
    once); returns the list of results."""
    deadline = time.perf_counter() + seconds
    results = []
    while not results or time.perf_counter() < deadline:
        results.append(op(len(results)))
    return results


def traced(op):
    """Run op(rec) with every wrapper installed; all are removed after."""
    import layers
    from spans import SpanRecorder
    rec = SpanRecorder()
    layers.install(rec)
    try:
        result = op(rec)
    finally:
        rec.restore()
    return rec, result


def run_pcd1d(args, work, outcome, deck, ref_deck=None):
    import workloads as wl
    ref_probes = None
    chk = None
    if ref_deck is not None:
        # m = 1 reference for carrier_err: deterministic, so once per run
        ref = wl.pcd1d_op(ref_deck, os.path.join(work, "reference"),
                          outcome, "reference")
        ref_probes = ref["probes"]
        if "stationary_s" in ref:
            chk = os.path.join(work, "reference", "stationary.chk")
    samples = {"setup_s": [wl.pcd1d_setup(deck, chk)
                           for _ in range(SETUP_REPS)]}

    def op(k, rec=None):
        return wl.pcd1d_op(deck, os.path.join(work, f"op{k}"), outcome,
                           f"op{k}", rec, ref_probes=ref_probes,
                           check_current=ref_deck is not None)

    results = timed_ops(args.seconds, op)
    ok = [r for r in results if "transient_s" in r]
    samples["run_s"] = [r["stationary_s"] + r["transient_s"] for r in ok]
    samples["transient_s"] = [r["transient_s"] for r in ok]
    samples["stationary_s"] = [r["stationary_s"] for r in results
                               if "stationary_s" in r]
    samples["carrier_err"] = [r["carrier_err"] for r in ok
                              if "carrier_err" in r]
    if not args.trace:
        return samples, None

    rec, res = traced(lambda rec: op("traced", rec))
    per_layer = trace_summary(rec, work, samples["run_s"],
                              res.get("stationary_s", 0.0)
                              + res.get("transient_s", 0.0))
    per_layer["stationary_s"] = (median(samples["stationary_s"]) or 0.0, "s")
    per_layer["carrier_err"] = (median(samples["carrier_err"]) or 0.0,
                                "ratio")
    per_layer["output.bytes"] = (
        wl.dir_bytes(os.path.join(work, "optraced")), "B")
    return samples, per_layer


def run_grating(args, work, outcome):
    import workloads as wl
    peak = wl.grating_peak_field(args.seed)
    samples = {"setup_s": [wl.grating_setup(peak) for _ in range(SETUP_REPS)]}
    results = [r for r in timed_ops(
        args.seconds, lambda k: wl.grating_op(peak, outcome, f"op{k}")) if r]
    for key in ("run_s", "transient_s"):
        samples[key] = [r[key] for r in results]
    samples["setup_s"] += [r["setup_s"] for r in results]
    if not args.trace:
        return samples, None

    rec, res = traced(lambda rec: wl.grating_op(peak, outcome, "traced", rec))
    per_layer = trace_summary(rec, work, samples["run_s"],
                              res.get("run_s", 0.0))
    per_layer.update({"stationary_s": (0.0, "s"),
                      "carrier_err": (0.0, "ratio"),
                      "output.bytes": (0, "B")})
    return samples, per_layer


def trace_summary(rec, work, untraced_walls, traced_wall):
    import layers
    rec.write(os.path.join(work, "spans.jsonl"))
    per_layer = layers.layer_metrics(rec)
    per_layer["trace.overhead_s"] = (
        traced_wall - (median(untraced_walls) or 0.0), "s")
    return per_layer


def run_workload(args, work):
    import workloads as wl
    outcome = wl.Outcome()
    if args.workload == "grating2d":
        samples, per_layer = run_grating(args, work, outcome)
    elif args.workload == "pcd1d_lowbias":
        deck = write_text(os.path.join(work, "deck.cfg"),
                          wl.lowbias_deck_text(args.seed))
        ref_deck = write_text(os.path.join(work, "deck_m1.cfg"),
                              wl.lowbias_deck_text(args.seed, m=1))
        samples, per_layer = run_pcd1d(args, work, outcome, deck, ref_deck)
    else:
        # the shipped deck verbatim; its failure is the result
        samples, per_layer = run_pcd1d(args, work, outcome, wl.SHIPPED_DECK)
    return outcome, samples, per_layer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS/OpenMP thread, set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "pcddg")):
        print(f"pcddg sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import workloads as wl
    for path in (wl.SHIPPED_DECK, wl.LOWBIAS_DECK):
        if not os.path.isfile(path):
            print(f"missing input {path}", file=sys.stderr)
            return 2

    work = wl.fresh_dir(os.path.join(WORK, args.workload))
    outcome, samples, per_layer = run_workload(args, work)

    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples["peak_rss_mb"] = [peak_rss]
    samples["ok_ratio"] = [1.0 - len(outcome.failures) / outcome.attempted]
    if args.trace:
        metrics = per_layer
    else:
        metrics = {k: (median(samples[k]), u) for k, u in END_TO_END.items()
                   if samples.get(k)}
    problem = undeclared(args.workload, args.trace, metrics,
                         outcome.failures)
    if problem:
        print(problem, file=sys.stderr)
        return 3
    env = environment()
    result = {"correct": not outcome.failures and bool(outcome.attempted),
              "attempted": outcome.attempted,
              "failed": len(outcome.failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in outcome.failures:
        print(f"failure: {line}")
    for name, (value, unit) in metrics.items():
        n = len(samples.get(name, ())) or 1
        print(f"  {name:36s} {value:16.6g} {unit:8s} n={n}")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    write_text(os.path.join(WORK, "results",
                            f"{args.workload}-trace{args.trace}.json"),
               json.dumps({"workload": args.workload, "seed": args.seed,
                           "seconds": args.seconds, "environment": env,
                           "samples": samples, "failures": outcome.failures,
                           "result": result},
                          indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
