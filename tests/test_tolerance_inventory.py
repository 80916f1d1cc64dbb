"""Every small float literal in the package, pinned.

A positive float literal below 1e-2 in src/pnspredict is nearly always an
absolute threshold.  TOLERANCES lists each one with its module and count,
so a threshold can neither land nor leave without an edit here, as the
option lists of the subcommands are pinned in test_cli.
"""

import io
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pnspredict"

# (module, literal as written) -> occurrences
TOLERANCES = {
    ("approximation", "1e-3"): 1,     # lp_error's relative stop rule, _REL_TOL
    ("generators", "1e-10"): 1,       # daubechies_taps' orthonormality check
    ("generators", "1e-8"): 2,        # cascade residual, eigenvalue 1
    ("moments", "1e-6"): 1,           # floor of the monomial-check guard
    ("moments", "1e-8"): 1,           # reproduction_order's default tol
    ("polyphase", "1e-9"): 1,         # CIS_THRESHOLD
}


def small_float_literals(source: str) -> Counter:
    """Positive float literals below 1e-2 in Python source, as written.

    Integers, imaginary literals and numbers inside strings are skipped.
    """
    found = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.NUMBER:
            continue
        text = tok.string.lower()
        if text.startswith(("0x", "0o", "0b")) or text.endswith("j"):
            continue
        if ("." in text or "e" in text) and 0.0 < float(text) < 1e-2:
            found[tok.string] += 1
    return found


def test_the_scan_finds_small_float_literals():
    source = ('x = 1e-9 * y + 0.5 - 0.0 + 10 + 1E-3j\n'
              'z = max(w, 0.001, 1e-300)  # 1e-4\n'
              'msg = "tolerance 1e-7"\n')
    assert small_float_literals(source) == {"1e-9": 1, "0.001": 1, "1e-300": 1}


def test_small_float_literals_are_the_pinned_table():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for literal, count in small_float_literals(path.read_text()).items():
            found[path.stem, literal] = count
    assert found == TOLERANCES
