#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a tree's src/ directory.  Every subcommand runs on every
config in this repository's configs/, table1 once more on its built-in
set-up, and every subcommand once with --help (so a changed option or help
text shows), each in a fresh `python3 -m pnspredict.cli` process with
PYTHONPATH set to the tree's src/.  Both trees write to the same --out
path, one after the other, so the paths printed and the path lengths agree.

For each run it reports the two exit codes, and for stdout, stderr and each
output file either "identical" (the same bytes) or the largest relative
change |a - b| / max(|a|, |b|) of each numeric column: a CSV column by its
header, a JSON file by its top-level key, and a text line by its words
with the numbers replaced by '#' and its spaces collapsed.  A difference in
anything but numbers is reported as such, and the last line names the
runs that differ.  The script decides nothing: it
holds no tolerance and always exits 0 once both trees have run.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("check-cis", "kernels", "moments", "predict", "convergence",
               "table1")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def get_args():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="the parent tree's src/")
    parser.add_argument("change", type=Path, help="the changed tree's src/")
    return parser.parse_args()


def source_dir(path: Path) -> Path:
    path = path.resolve()
    if not (path / "pnspredict").is_dir():
        sys.exit(f"{path} holds no pnspredict package")
    return path


def runs():
    """(label, argv) of every run: each subcommand on each config, the
    built-in table1, then each subcommand's --help."""
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for sub in SUBCOMMANDS:
            yield f"{sub} {cfg.stem}", [sub, "--config", str(cfg)]
    yield "table1 built-in", ["table1"]
    for sub in SUBCOMMANDS:
        yield f"{sub} --help", [sub, "--help"]


def run_tree(src: Path, work: Path, store: Path) -> dict:
    """Run every CLI run under src; each run's outputs are moved from the
    shared --out path work/out to store/<index>."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    out = work / "out"
    results = {}
    for index, (label, argv) in enumerate(runs()):
        proc = subprocess.run([sys.executable, "-m", "pnspredict.cli", *argv,
                               "--out", str(out)],
                              cwd=work, env=env, capture_output=True)
        files = store / str(index)
        files.mkdir(parents=True)
        if out.exists():
            for path in out.iterdir():
                shutil.move(str(path), files / path.name)
            out.rmdir()
        results[label] = (proc.returncode, proc.stdout, proc.stderr, files)
    return results


def rel_change(a: float, b: float) -> float:
    if a == b or (a != a and b != b):      # equal, or both nan
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else float("inf")


def text_columns(text: str):
    """({line template: [numbers]}, list of templates) of a text, a
    template being the line with each number replaced by '#' and its runs
    of spaces by one (a padded column widens with its digits)."""
    columns, templates = {}, []
    for line in text.splitlines():
        template = " ".join(NUMBER.sub("#", line).split())
        templates.append(template)
        columns.setdefault(template, []).extend(
            float(v) for v in NUMBER.findall(line))
    return columns, templates


def csv_columns(text: str):
    lines = text.splitlines()
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    shape = [len(header)]
    for line in lines[1:]:
        cells = line.split(",")
        shape.append(len(cells))
        for name, cell in zip(header, cells):
            columns[name].append(float(cell))
    return columns, shape


def json_columns(text: str):
    """{top-level key: [numbers]}, and the document with every number
    replaced by '#' (its shape)."""
    def walk(node, acc):
        if isinstance(node, bool) or not isinstance(node, (int, float, list, dict)):
            return node
        if isinstance(node, (int, float)):
            acc.append(float(node))
            return "#"
        if isinstance(node, list):
            return [walk(v, acc) for v in node]
        return {k: walk(v, acc) for k, v in node.items()}

    columns, shape = {}, {}
    for key, value in json.loads(text).items():
        columns[key] = []
        shape[key] = walk(value, columns[key])
    return columns, shape


def compare(name: str, a: bytes, b: bytes) -> list:
    """Report lines for one output: "identical", or the largest relative
    change of each numeric column."""
    if a == b:
        return ["identical"]
    reader = {".csv": csv_columns, ".json": json_columns}.get(Path(name).suffix,
                                                               text_columns)
    try:
        (cols_a, shape_a), (cols_b, shape_b) = (reader(x.decode()) for x in (a, b))
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return [f"differs and cannot be read as columns ({exc})"]
    if shape_a != shape_b or cols_a.keys() != cols_b.keys() or any(
            len(cols_a[k]) != len(cols_b[k]) for k in cols_a):
        return ["differs in more than its numbers"]
    return [f"{max(map(rel_change, cols_a[key], cols_b[key]), default=0.0):<9.3g} "
            f"{key}" for key in cols_a]


def main():
    args = get_args()
    parent, change = source_dir(args.parent), source_dir(args.change)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        old = run_tree(parent, tmp, tmp / "parent")
        new = run_tree(change, tmp, tmp / "change")
        print(f"parent {parent}\nchange {change}")
        differing = []
        for label, (code_a, out_a, err_a, dir_a) in old.items():
            code_b, out_b, err_b, dir_b = new[label]
            report = [f"exit code: {code_a} -> {code_b}" if code_a != code_b
                      else f"exit code: {code_a}, identical"]
            names = sorted({p.name for p in dir_a.iterdir()}
                           | {p.name for p in dir_b.iterdir()})
            outputs = [("stdout", out_a, out_b), ("stderr", err_a, err_b)]
            for fname in names:
                if not (dir_a / fname).exists() or not (dir_b / fname).exists():
                    side = "change" if (dir_a / fname).exists() else "parent"
                    report.append(f"{fname}: missing from the {side}")
                else:
                    outputs.append((fname, (dir_a / fname).read_bytes(),
                                    (dir_b / fname).read_bytes()))
            for fname, a, b in outputs:
                lines = compare(fname, a, b)
                report.append(f"{fname}: {lines[0]}" if len(lines) == 1
                              else f"{fname}:\n      " + "\n      ".join(lines))
            same = code_a == code_b and all(line.endswith("identical")
                                            for line in report)
            if not same:
                differing.append(label)
            print(f"{label}\n    " + "\n    ".join(report))
        print(f"{len(old)} runs: " + ("identical" if not differing else
                                      f"{len(differing)} differ: "
                                      + ", ".join(differing)))


if __name__ == "__main__":
    main()
