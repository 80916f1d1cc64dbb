"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload prints each metric named in BENCHMARK.json with
its unit, in both modes; that every output corrupted on purpose is counted
as a failed and wrong op (the gates fail closed); that the op counts do not
depend on how many passes fit in a run; and that the benchmark refuses to
run, without printing a result, where the checkout holds only the
benchmark.  Takes about a minute.  Exits non-zero on the first broken check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import run as bench
from common import ROOT, WORK, require_tree

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def check_printed_metrics():
    # `online` is runnable but not graded; it prints the same metrics.
    names = [w["name"] for w in SPEC["workloads"]] + ["online"]
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, last, err = run_cli(ROOT, "--workload", name,
                                    "--seed", "3", "--seconds", "1",
                                    "--trace", str(trace), "--tiny")
            assert rc == 0, f"{name} trace {trace}: rc {rc}\n{err}"
            result = json.loads(last)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], result
            assert result["attempted"] >= 1
            # design reports the inversion's refusals of valid schemes
            assert name == "design" or result["failed"] == 0, result
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            for metric, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), metric
            print(f"ok   {name} --trace {trace}: "
                  f"{len(got)} metrics with units")


def corrupted(workload, corrupt, hits):
    """The workload with every op output passed through `corrupt`, which
    appends to `hits` each output it changes."""
    def run_op(state, op):
        return corrupt(op, workload.run_op(state, op), hits)

    return types.SimpleNamespace(make_pass=workload.make_pass, run_op=run_op,
                                 check=workload.check, op_name=workload.op_name,
                                 outcome=workload.outcome)


def check_gates_fail_closed():
    import numpy as np

    import design
    import ladder
    import online

    def bad_prediction(op, out, hits):
        hits.append(op)
        return out + 1e-3 * op["peak"]

    def bad_reconstruction(op, res, hits):
        if res["outcome"] == "accepted":
            hits.append(op)
            res["recon"] = res["recon"] * (1.0 + 1e-6)
        return res

    def bad_csv(op, res, hits):
        hits.append(op)
        path = ladder.out_dir(op["name"]) / ladder.OPS[op["name"]][1]
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) * 1.02)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return res

    for module, corrupt in ((online, bad_prediction),
                            (design, bad_reconstruction),
                            (ladder, bad_csv)):
        state = module.setup(True)
        rng = np.random.default_rng(5)
        ops = module.make_ops(state, rng, True)
        clean = bench.measure(module, state, ops, 0.0)
        assert clean.wrong == 0, clean.failures
        hits = []
        broken = bench.measure(corrupted(module, corrupt, hits), state, ops,
                               0.0)
        assert len(hits) > 0, module.__name__
        assert broken.wrong == len(hits), (broken.wrong, len(hits))
        assert broken.failed >= broken.wrong
        counts = bench.op_counts([broken])
        print(f"ok   {module.__name__}: {len(hits)} corrupted outputs of "
              f"{counts['attempted']} ops all counted wrong; fail_frac "
              f"{counts['fail_frac']:.3g}")


def check_counts_do_not_depend_on_seconds():
    """A longer run repeats the same ops, so it counts the same attempted
    and failed ops; the scheme the inversion refuses is one failed op, not
    a wrong one, however often it ran."""
    import pnspredict as pns
    import numpy as np

    import design

    state = design.setup(True)
    rng = np.random.default_rng(2)
    g, offs, r = design.KNOWN_FAILURE
    ops = design.make_ops(state, rng, True) + [design.make_op(
        rng, "known/residual", state["gens"][g], pns.SamplingScheme(offs, r),
        None, None)]
    short = bench.measure(design, state, ops, 0.0)
    long = bench.measure(design, state, ops, 2.5 * sum(short.pass_s))
    assert len(long.op_s) > len(ops), "the longer run made no second pass"
    for run in (short, long):
        assert (run.attempted, run.failed, run.wrong) == (len(ops), 1, 0), (
            run.attempted, run.failed, run.wrong, run.failures)
    print(f"ok   design: {len(short.op_s)} and {len(long.op_s)} ops run, "
          f"both count {len(ops)} attempted and 1 failed")


def check_bare_directory_fails():
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, last, _ = run_cli(bare, "--workload", "design", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert rc != 0, "the benchmark ran without the program"
    assert '"metrics"' not in last, last
    print(f"ok   bare directory: exit code {rc}, no result printed")


if __name__ == "__main__":
    require_tree()
    check_bare_directory_fails()
    check_gates_fail_closed()
    check_counts_do_not_depend_on_seconds()
    check_printed_metrics()
    print("selftest passed")
