"""Workload `ladder`: the CLI runs a reader of the paper makes.

One op is one fresh `python -m pnspredict.cli ... --quiet` process:
table1 (built-in set-up), predict on quartic_r1, quartic_hermite and
db3_r1, and convergence on quartic_r1_chebyshev.  Every process pays the
import and the Daubechies table, as a CLI user does.  The seed only
shuffles the op order.  Each op must exit 0 and write CSV values within 1%
of reference.json, recorded from the commit that defined the benchmark.

Run this file directly to record reference.json again.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys

from common import BENCH_DIR, ERROR, WORK, WRONG, child_env, run_child

REFERENCE = BENCH_DIR / "reference.json"
REL_TOL = 0.01
# name -> (CLI arguments, CSV file the gate compares)
OPS = {
    "table1": (["table1"], "table1.csv"),
    "predict/quartic_r1": (["predict", "--config", "configs/quartic_r1.cfg"],
                           "errors.csv"),
    "predict/quartic_hermite": (
        ["predict", "--config", "configs/quartic_hermite.cfg"], "errors.csv"),
    "predict/db3_r1": (["predict", "--config", "configs/db3_r1.cfg"],
                       "errors.csv"),
    "convergence/quartic_r1_chebyshev": (
        ["convergence", "--config", "configs/quartic_r1_chebyshev.cfg"],
        "convergence.csv"),
}
TINY_OPS = ("predict/quartic_r1",)
LAUNCHER = BENCH_DIR / "launch.py"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pnspredict.cli; "
                "print(time.perf_counter() - t)")


def out_dir(name):
    return WORK / "ladder" / name.replace("/", "-")


def setup(tiny=False):
    """The ladder pays set-up in every child; the parent only loads refs."""
    return {"reference": json.loads(REFERENCE.read_text()),
            "ops": TINY_OPS if tiny else tuple(OPS), "trace_dir": None}


def setup_probe() -> float:
    """Seconds a fresh interpreter takes to import pnspredict.cli."""
    proc = run_child([sys.executable, "-c", IMPORT_PROBE])
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def make_ops(state, rng, tiny=False):
    names = state["ops"]
    return [{"name": names[i]} for i in rng.permutation(len(names))]


def make_pass(state, ops, k):
    """The ops with pass number k, their output directories emptied."""
    for op in ops:
        shutil.rmtree(out_dir(op["name"]), ignore_errors=True)
    return [{**op, "pass": k} for op in ops]


def command(state, op):
    args, _ = OPS[op["name"]]
    out = out_dir(op["name"])
    tail = args + ["--out", str(out), "--quiet"]
    if state["trace_dir"] is None:
        return [sys.executable, "-m", "pnspredict.cli"] + tail, None
    trace_out = state["trace_dir"] / f"{out.name}-pass{op['pass']}.json"
    return [sys.executable, str(LAUNCHER)] + tail, trace_out


def run_op(state, op):
    cmd, trace_out = command(state, op)
    env = child_env() if trace_out is None else child_env(
        PERFBENCH_TRACE_OUT=str(trace_out), PERFBENCH_OP=op["name"])
    proc = run_child(cmd, env=env)
    return {"returncode": proc.returncode, "stderr": proc.stderr,
            "trace_out": trace_out}


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def check(state, op, res):
    """None when the op exited 0 and its CSV matches the reference, else
    ERROR (non-zero exit) or WRONG (CSV) and a message."""
    name = op["name"]
    if res["returncode"] != 0:
        return ERROR, f"{name}: exit code {res['returncode']}: {res['stderr'][-300:]}"
    _, fname = OPS[name]
    ref = state["reference"][name]
    try:
        header, rows = read_csv(out_dir(name) / fname)
    except (OSError, ValueError, IndexError) as exc:
        return WRONG, f"{name}: unreadable {fname}: {exc}"
    if header != ref["header"] or len(rows) != len(ref["rows"]):
        return WRONG, f"{name}: {fname} has header {header} and {len(rows)} rows"
    for row, want in zip(rows, ref["rows"]):
        if len(row) != len(want) or row[0] != want[0]:
            return WRONG, f"{name}: row {row} does not match {want}"
        for got, exp in zip(row[1:], want[1:]):
            if not abs(got - exp) <= REL_TOL * abs(exp):
                return WRONG, f"{name}: {fname} value {got!r} not within 1% of {exp!r}"
    return None


def op_name(op) -> str:
    return op["name"]


def outcome(res) -> str:
    return "exit0" if res["returncode"] == 0 else f"exit{res['returncode']}"


def record_reference():
    """Run every op once and store its CSV as the reference."""
    state = {"ops": tuple(OPS), "trace_dir": None}
    ref = {}
    for name in OPS:
        res = run_op(state, {"name": name, "pass": 0})
        if res["returncode"] != 0:
            raise SystemExit(f"{name} failed: {res['stderr']}")
        header, rows = read_csv(out_dir(name) / OPS[name][1])
        ref[name] = {"header": header, "rows": rows}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    from common import require_tree

    require_tree()
    record_reference()
