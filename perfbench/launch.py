"""Run the pnspredict CLI with the benchmark's tracer installed.

Usage: python3 perfbench/launch.py <cli arguments>, with
PERFBENCH_TRACE_OUT naming the file that receives the totals (spans go
next to it) and PERFBENCH_OP naming the op the spans belong to.
"""

import os

import pnspredict.cli as cli

from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.op = os.environ.get("PERFBENCH_OP")
    tracer.install()
    try:
        cli.main(prog_name="pnspredict")
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])
