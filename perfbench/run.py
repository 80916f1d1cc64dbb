"""Benchmark of pnspredict: three workloads, end-to-end and per-layer.

Usage:
    python3 perfbench/run.py --workload {ladder,online,design} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Load is one client in a closed loop: the
next op starts when the previous one has ended.  Ops run in passes; a
run's op list is drawn once from a generator seeded with N, so the same
seed gives the same inputs, and every pass repeats it.  Passes repeat until the next one would end after S
seconds (at least one pass).

`attempted` counts each op of the op list once, and `failed` the ops that
raised, were refused or broke a gate in any pass, so neither depends on how
many passes fit in S seconds; `correct` is false when any op returned an
output that breaks a gate.

--trace 0 prints the end-to-end metrics; --trace 1 installs the tracer,
runs untraced passes for S/2 seconds and traced passes for S/2 seconds,
and prints the per-layer metrics: the traced set-up once plus the mean of
one traced pass.  The last line of stdout is the result as JSON; the lines
before it give the machine, versions, op counts and sample counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import sys
from collections import Counter
from time import perf_counter

from common import (BENCH_DIR, ERROR, WORK, WRONG, TreeError, check_imported,
                    machine_info, median, percentile, require_tree, run_child)

WORKLOADS = ("ladder", "online", "design")
# Fresh set-ups per run, whose median is setup_s: ~0.2 s each on ladder
# (an import), ~0.6-2 s each on online and design.
SETUP_SAMPLES = {"ladder": 21, "online": 5, "design": 5}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
PERCENTILES = {"op_p50_ms": 0.50, "op_p90_ms": 0.90, "op_p99_ms": 0.99}
# Printed, with units and counts, but left out of the result line: they are
# unscaled times of single ops, which over ten seeds spread by up to
# 0.25-0.34 of their medians as the host's load drifts, and p99 has ten
# samples beyond it on `online` only.
INFO_ONLY = {"op_p50_ms": "ms", "op_p90_ms": "ms", "op_p99_ms": "ms"}
# The machine's speed drifts by up to ~25% over minutes with the load of
# its host, far more than a run can average out.  Between ops, at most
# every CAL_EVERY_S, a run times reference_work, a fixed piece of numpy
# work that does not call pnspredict, and wall_s is scaled by
# REFERENCE_S / (median reference_work time): seconds at the speed at which
# reference_work takes REFERENCE_S.
CAL_EVERY_S = 2.0
REFERENCE_S = 0.2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every pass, for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def reference_work() -> float:
    """Seconds this machine takes for a fixed piece of numpy work: a cubic
    B-spline-like piecewise polynomial on 20 000 points, 100 times."""
    import numpy as np

    x = np.linspace(-4.0, 4.0, 20_000)
    t0 = perf_counter()
    for k in range(100):
        u = np.abs(x - 0.01 * k)
        y = np.where(u < 1.0, 2.0 / 3.0 - u * u + 0.5 * u ** 3,
                     np.where(u < 2.0, (2.0 - u) ** 3 / 6.0, 0.0))
        float(y @ x)
    return perf_counter() - t0


class Run:
    """What a series of passes over an op list measured."""

    def __init__(self, n_ops):
        self.op_s = []                          # every op time, in run order
        self.by_op = [[] for _ in range(n_ops)]  # times of each listed op
        self.pass_s = []                        # times of complete passes
        self.reference_s = []                   # reference_work times
        self.attempted = n_ops
        self.failed = 0
        self.wrong = 0
        self.failures = []
        self.outcomes = Counter()
        self.by_name = {}

    def raw_wall_s(self) -> float:
        """One pass: the sum over the listed ops of each op's median time."""
        return sum(median(times) for times in self.by_op)

    def wall_s(self) -> float:
        """raw_wall_s at the reference speed of the machine."""
        return self.raw_wall_s() * REFERENCE_S / median(self.reference_s)


def measure(workload, state, op_list, seconds, tracer=None, first_pass=0,
            whole_passes=False) -> Run:
    """Run passes of op_list and check every output after its pass.

    The first pass always runs whole.  After it the run stops before the
    first op whose previous time would take it past `seconds`, or, with
    whole_passes, before the first pass whose previous time would.  Inputs
    are made and outputs checked outside the timed region, with the tracer
    paused; reference_work runs between ops, outside their times.  An op that raises in any pass counts
    as failed; one whose output breaks a gate in any pass counts as failed
    and wrong.
    """
    run = Run(len(op_list))
    failed, wrong = set(), set()
    begin = perf_counter()
    last_reference = None
    k = first_pass
    done = False
    while not done:
        if tracer is not None:
            tracer.active = False
        ops = workload.make_pass(state, op_list, k)
        results = []
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        for j, op in enumerate(ops):
            if k > first_pass and not whole_passes and (
                    perf_counter() - begin + run.by_op[j][-1] > seconds):
                done = True
                break
            if tracer is not None:
                tracer.op = f"{k}:{j}"
            t0 = perf_counter()
            try:
                out, err = workload.run_op(state, op), None
            except Exception as exc:   # a failed op, counted below
                out, err = None, f"{type(exc).__name__}: {exc}"
            run.op_s.append(perf_counter() - t0)
            run.by_op[j].append(run.op_s[-1])
            run.by_name.setdefault(workload.op_name(op), []).append(run.op_s[-1])
            results.append((j, op, out, err))
            if (last_reference is None
                    or perf_counter() - last_reference >= CAL_EVERY_S):
                run.reference_s.append(reference_work())
                last_reference = perf_counter()
        if not done:
            run.pass_s.append(perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        for j, op, out, err in results:
            if err is None:
                run.outcomes[workload.outcome(out)] += 1
                verdict = workload.check(state, op, out)
            else:
                run.outcomes["exception"] += 1
                verdict = (ERROR, err)
            if verdict is not None:
                kind, msg = verdict
                failed.add(j)
                if kind == WRONG:
                    wrong.add(j)
                if len(run.failures) < 10:
                    run.failures.append(f"{kind}: {msg}")
        if tracer is not None:
            tracer.active = True
        k += 1
        if whole_passes and perf_counter() - begin + run.pass_s[-1] > seconds:
            done = True
    run.failed, run.wrong = len(failed), len(wrong)
    return run


def setup_samples(workload, name, own, tiny):
    """Set-up times of fresh processes; `own` is this process's, if any."""
    if name == "ladder":
        return [workload.setup_probe() for _ in range(SETUP_SAMPLES[name])]
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--setup-probe"] + (["--tiny"] if tiny else [])
    samples = [own]
    for _ in range(SETUP_SAMPLES[name] - 1):
        proc = run_child(cmd)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb(name) -> float:
    who = resource.RUSAGE_CHILDREN if name == "ladder" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(run, setup, rss):
    metrics = {"setup_s": median(setup), "wall_s": run.wall_s()}
    samples = {"setup_s": {"n": len(setup)},
               "wall_s": {"n": len(run.op_s), "ops": len(run.by_op),
                          "min_per_op": min(map(len, run.by_op)),
                          "passes": len(run.pass_s),
                          "raw_s": run.raw_wall_s(),
                          "reference_work_s": median(run.reference_s),
                          "reference_n": len(run.reference_s)}}
    for key, q in PERCENTILES.items():
        value, beyond = percentile(run.op_s, q)
        metrics[key] = 1e3 * value
        samples[key] = {"n": len(run.op_s), "beyond": beyond}
    for key in INFO_ONLY:
        samples[key]["value"] = metrics.pop(key)
    metrics["peak_rss_mb"] = rss
    samples["peak_rss_mb"] = {"n": 1}
    return metrics, samples


def traced(workload, name, args, rng):
    """Untraced then traced passes; returns (untraced, traced, totals)."""
    from tracing import Tracer, merge_totals

    half = args.seconds / 2.0
    trace_dir = WORK / "trace" / f"{name}-seed{args.seed}"
    if name == "ladder":
        state = workload.setup(args.tiny)
        ops = workload.make_ops(state, rng, args.tiny)
        plain = measure(workload, state, ops, half, whole_passes=True)
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        state["trace_dir"] = trace_dir
        run = measure(workload, state, ops, half,
                      first_pass=len(plain.pass_s), whole_passes=True)
        totals = {}
        for path in sorted(trace_dir.glob("*-pass*.json")):
            pass_no = int(path.stem.rsplit("-pass", 1)[1])
            if pass_no >= len(plain.pass_s):
                merge_totals(totals, json.loads(path.read_text())["totals"],
                             1.0 / len(run.pass_s))
        return plain, run, totals
    tracer = Tracer()
    tracer.install()
    tracer.op = "setup"
    state = workload.setup(args.tiny)
    totals = tracer.totals()
    tracer.reset()
    tracer.uninstall()
    ops = workload.make_ops(state, rng, args.tiny)
    plain = measure(workload, state, ops, half, whole_passes=True)
    tracer.install()
    run = measure(workload, state, ops, half, tracer,
                  first_pass=len(plain.pass_s), whole_passes=True)
    tracer.uninstall()
    merge_totals(totals, tracer.totals(), 1.0 / len(run.pass_s))
    tracer.dump(trace_dir.with_suffix(".json"))
    return plain, run, totals


def op_counts(runs) -> dict:
    """Attempted, failed and wrong ops, fail_frac, passes and outcomes."""
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    outcomes = sum((r.outcomes for r in runs), Counter())
    return {"attempted": attempted, "failed": failed,
            "wrong": sum(r.wrong for r in runs),
            "fail_frac": failed / attempted,
            "passes": sum(len(r.pass_s) for r in runs),
            "ops_per_pass": len(runs[-1].by_op),
            "outcomes": dict(sorted(outcomes.items()))}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_tree()
    except TreeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        t0 = perf_counter()
        workload = importlib.import_module(args.workload)
        workload.setup(args.tiny)
        print(perf_counter() - t0)
        return 0

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": machine_info()}
    t0 = perf_counter()
    workload = importlib.import_module(args.workload)
    if "pnspredict" in sys.modules:
        check_imported(sys.modules["pnspredict"])
    import numpy as np

    rng = np.random.default_rng(args.seed)
    if args.trace:
        from tracing import per_layer_metric_units, per_layer_metrics

        plain, run, totals = traced(workload, args.workload, args, rng)
        units = per_layer_metric_units()
        values = per_layer_metrics(totals, run.raw_wall_s(), plain.raw_wall_s())
        samples = {"traced_passes": len(run.pass_s),
                   "untraced_passes": len(plain.pass_s)}
        runs = (plain, run)
    else:
        state = workload.setup(args.tiny)
        own = perf_counter() - t0
        run = measure(workload, state,
                      workload.make_ops(state, rng, args.tiny), args.seconds)
        setup = setup_samples(workload, args.workload, own, args.tiny)
        units = END_TO_END
        values, samples = end_to_end(run, setup,
                                     peak_rss_mb(args.workload))
        runs = (run,)

    info["ops"] = op_counts(runs)
    info["samples"] = samples
    info["failures"] = [f for r in runs for f in r.failures][:10]
    info["op_median_ms"] = {k: 1e3 * median(v)
                            for k, v in sorted(run.by_name.items())}
    print(json.dumps({"perfbench": info}))
    for k in units:
        n = samples.get(k, {})
        print(f"  {k:52s} {values[k]:14.6g} {units[k]:6s} {json.dumps(n) if n else ''}")
    if not args.trace:
        for k, unit in INFO_ONLY.items():
            n = dict(samples[k])
            print(f"  {k:52s} {n.pop('value'):14.6g} {unit:6s} {json.dumps(n)} (info only)")
    result = {"correct": info["ops"]["wrong"] == 0,
              "attempted": info["ops"]["attempted"],
              "failed": info["ops"]["failed"],
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
