"""Command line front end for the sampling/prediction pipeline.

Subcommands: check-cis, kernels, moments, predict, convergence, table1.
Configuration is a flat text file of dotted keys, one `key = value` per
line.  Outputs are CSV files (comma separator, '.' decimal point, LF line
endings, header row) plus a resolved-config copy per run.
"""

from __future__ import annotations

import ast
import shutil
import sys
import tempfile
import warnings
from dataclasses import dataclass, replace
from math import isfinite
from pathlib import Path

import click
import numpy as np

from .approximation import (TestSignal, approx_operator, builtin_signal,
                            convergence_study, lp_error)
from .generators import (BSplineGenerator, DaubechiesGenerator,
                         stability_bounds)
from .kernels import (KernelSet, SingularSamplePointError, _causal_weights,
                      build_kernels, invert_polyphase, save_kernels)
from .moments import reproduction_order
from .polyphase import (CIS_THRESHOLD, SamplingScheme, build_polyphase,
                        cis_determinant, det_on_circle, frame_bounds)
from .prediction import modify_kernels, window_bound

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CIS = 3

DEFAULT_W = (5.0, 7.0, 10.0, 15.0, 20.0, 25.0, 30.0)


class ConfigError(Exception):
    """Invalid configuration; message carries file and line context."""


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat dotted-key parser: returns {key: (value, line_number)}."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} "
                              f"(first at line {entries[key][1]})")
        entries[key] = (value, lineno)
    return entries


class _NotFinite(ValueError):
    """A number that parses, as inf or nan, but is not finite."""


def _number(raw: str) -> float:
    v = float(raw)
    if not isfinite(v):
        raise _NotFinite(raw.strip())
    return v


def _number_list(raw: str) -> tuple:
    return tuple(_number(v) for v in raw.split(",") if v.strip())


# the type of each non-text reader, as a refused value's message names it
_MUST_BE = {int: "an integer", _number: "a number",
            _number_list: "a comma-separated number list"}

# Every config key with its reader and its default (None: not given).
_KEYS = {
    "generator.kind": (str, "bspline"),
    "generator.order": (int, None),
    "generator.level": (int, None),
    "scheme.offsets": (_number_list, None),
    "scheme.offset_mode": (str, None),
    "scheme.r": (int, 1),
    "scheme.L": (int, None),
    "scheme.rho": (int, None),
    "scheme.s": (int, None),
    "prediction.epsilons": (_number_list, None),
    "prediction.eps0": (_number, None),
    "prediction.spacing": (_number, None),
    "signal.name": (str, None),
    "signal.expr": (str, None),
    "signal.file": (str, None),
    "W.list": (_number_list, DEFAULT_W),
    "error.p": (_number, 2.0),
}

# The offset families of scheme.offset_mode; table1 runs both.
_OFFSET_FAMILIES = {"equally_spaced": SamplingScheme.equally_spaced,
                    "chebyshev": SamplingScheme.chebyshev}


# lp_error's run time grows with W (b - a) over the signal's window (a, b):
# a file's own span, else (-8, 10).  A W.list and window with
# 400 W (b - a) above 2^22 are refused before the run, which caps its time.
_QUAD_POINTS = 1 << 22


@dataclass
class RunConfig:
    gen: object
    scheme: SamplingScheme
    epsilons: tuple
    signal: TestSignal
    signal_entry: tuple     # (key, value) the signal was read from
    W_list: tuple
    p: float
    source: str

    @property
    def weights(self):
        """The nodes' Lagrange weights, None without nodes."""
        return None if self.epsilons is None else _causal_weights(
            self.epsilons, self.scheme.rho)


def _resolve_generator(v: dict, fail):
    kind, order, level = (v["generator.kind"], v["generator.order"],
                          v["generator.level"])
    if order is None:
        fail("generator.order", "generator.order is required")
    try:
        if kind == "bspline":
            if level is not None:
                fail("generator.level", "generator.level applies only to daubechies")
            return BSplineGenerator(order)
        if kind == "daubechies":
            return (DaubechiesGenerator(order) if level is None
                    else DaubechiesGenerator(order, level))
    except ValueError as exc:
        bad_level = level is not None and level < 1
        fail("generator.level" if bad_level else "generator.order", str(exc))
    fail("generator.kind", f"unknown generator kind {kind!r}")


def _resolve_scheme(v: dict, fail, gen):
    r, offsets, mode = v["scheme.r"], v["scheme.offsets"], v["scheme.offset_mode"]
    L, rho, s = v["scheme.L"], v["scheme.rho"], v["scheme.s"]
    if offsets is not None and mode is not None:
        fail("scheme.offset_mode",
             "give either scheme.offsets or scheme.offset_mode, not both")
    try:
        if offsets is not None:
            scheme = SamplingScheme(offsets, r)
        elif mode is not None:
            if L is None:
                fail("scheme.offset_mode", "scheme.L is required with offset_mode")
            if mode not in _OFFSET_FAMILIES:
                fail("scheme.offset_mode", f"unknown offset mode {mode!r}")
            scheme = _OFFSET_FAMILIES[mode](L, r, 0 if s is None else s)
        else:
            fail("scheme.offsets", "scheme.offsets or scheme.offset_mode is required")
    except ValueError as exc:
        fail("scheme.offsets" if offsets is not None else "scheme.offset_mode",
             str(exc))
    if rho is not None and rho != scheme.rho:
        fail("scheme.rho", f"scheme.rho = {rho} but L*r = {scheme.rho}")
    if L is not None and L != scheme.L:
        fail("scheme.L", f"scheme.L = {L} but {scheme.L} offsets given")
    if s is not None and scheme.s is not None and s != scheme.s:
        fail("scheme.s", f"scheme.s = {s} but offsets lie in cell "
             f"[{scheme.s}, {scheme.s + 1})")
    # the samples take derivatives of phi up to order r - 1
    if gen.regularity < r - 1:
        fail("scheme.r", f"scheme needs derivatives up to order {r - 1} but the "
             f"generator only provides {gen.regularity}")
    return scheme


def _resolve_prediction(v: dict, fail, scheme: SamplingScheme):
    eps, eps0, d = (v["prediction.epsilons"], v["prediction.eps0"],
                    v["prediction.spacing"])
    if eps is not None and eps0 is not None:
        fail("prediction.eps0",
             "give either prediction.epsilons or prediction.eps0, not both")
    if d is not None and eps0 is None:
        fail("prediction.spacing", "prediction.spacing applies only with "
             "prediction.eps0")
    if eps is None and eps0 is None:
        return None
    if eps is None:
        if d is None:
            fail("prediction.eps0", "prediction.spacing is required "
                 "with prediction.eps0")
        if d <= 0:
            fail("prediction.spacing", "spacing must be positive")
        eps = tuple(eps0 + p * d for p in range(scheme.rho))
    try:
        _causal_weights(eps, scheme.rho)
    except ValueError as exc:
        fail("prediction.epsilons" if eps0 is None else "prediction.eps0",
             str(exc))
    return eps


def _signal_from_file(path: str) -> TestSignal:
    try:
        with warnings.catch_warnings():
            # an empty table is refused below in one line, not also warned of
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if len(rows) == 0:
            raise ConfigError(f"signal.file {path} has no data rows")
        ts, vs = rows[:, 0], rows[:, 1]
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"cannot read signal.file {path}: {exc}")
    bad = np.flatnonzero(~(np.isfinite(ts) & np.isfinite(vs)))
    if bad.size:
        i = int(bad[0])
        raise ConfigError(f"signal.file {path} holds a value that is not finite "
                          f"in data row {i + 1}: t = {ts[i]:g}, f = {vs[i]:g}")
    # np.interp reads a t column that is not increasing without a word
    down = np.flatnonzero(~(ts[1:] > ts[:-1]))
    if down.size:
        i = int(down[0])
        raise ConfigError(f"the t column of signal.file {path} is not strictly "
                          f"increasing: {ts[i]:g} then {ts[i + 1]:g}")

    def f(t):
        return np.interp(t, ts, vs, left=0.0, right=0.0)

    # the interpolant kinks at every row and jumps to 0 past the ends
    return TestSignal(Path(path).stem, (f,), (float(ts[0]), float(ts[-1])), ts)


_EXPR_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
                ast.Div: np.true_divide, ast.Pow: np.power, ast.Mod: np.mod}
_EXPR_UNOPS = {ast.UAdd: np.positive, ast.USub: np.negative}
_EXPR_CONSTANTS = {"pi": np.pi, "e": np.e}


def _expr_value(node, t):
    """Evaluate a whitelisted expression tree at t.

    Allowed: the name t, numeric literals, pi and e, arithmetic and unary
    operators, and calls np.<ufunc>(args) with positional inputs only.
    Anything else raises ConfigError, so config text runs no other code.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id == "t":
            return t
        if node.id in _EXPR_CONSTANTS:
            return _EXPR_CONSTANTS[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
        return _EXPR_BINOPS[type(node.op)](_expr_value(node.left, t),
                                           _expr_value(node.right, t))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNOPS:
        return _EXPR_UNOPS[type(node.op)](_expr_value(node.operand, t))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            and not node.keywords):
        fn = getattr(np, node.func.attr, None)
        # at most nin arguments: a further positional one would be `out`
        if (isinstance(fn, np.ufunc) and len(node.args) == fn.nin
                and not any(isinstance(a, ast.Starred) for a in node.args)):
            return fn(*(_expr_value(a, t) for a in node.args))
    raise ConfigError(f"signal.expr: {ast.unparse(node)!r} is not allowed "
                      "(use t, numbers, pi, e, arithmetic and np.<ufunc> calls)")


def _signal_from_expr(expr: str) -> TestSignal:
    try:
        tree = ast.parse(expr, mode="eval").body
    except (SyntaxError, RecursionError) as exc:
        raise ConfigError(f"signal.expr is not an expression: {exc}")

    def f(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            v = np.broadcast_to(np.asarray(_expr_value(tree, t), dtype=float),
                                t.shape)
        bad = ~np.isfinite(v)
        if bad.any():
            raise ConfigError(f"signal.expr {expr!r} is not finite at "
                              f"t = {t[bad][0]:g}: {v[bad][0]:g}")
        return v

    try:
        f(np.array([0.0, 0.5]))
    except (ArithmeticError, RecursionError, TypeError, ValueError) as exc:
        raise ConfigError(f"signal.expr failed to evaluate: {exc}")
    return TestSignal("expr", (f,))


_SIGNAL_READERS = {"signal.name": builtin_signal, "signal.expr": _signal_from_expr,
                   "signal.file": _signal_from_file}


def _resolve_signal(v: dict, fail, scheme: SamplingScheme):
    """The signal and the (key, value) it was read from; the built-in f is
    the default."""
    given = [key for key in _SIGNAL_READERS if v[key] is not None]
    if len(given) > 1:
        fail(given[1], "give only one of signal.name / signal.expr / signal.file")
    key, raw = (given[0], v[given[0]]) if given else ("signal.name", "f")
    try:
        signal = _SIGNAL_READERS[key](raw)
    except (ConfigError, ValueError) as exc:
        fail(key, str(exc))
    if scheme.r > len(signal.derivs):
        # a default f that lacks channels is the fault of scheme.r
        fail(key if given else "scheme.r", f"scheme needs {scheme.r} derivative "
             f"channels but signal {signal.name!r} provides {len(signal.derivs)}")
    return signal, (key, raw)


def load_config(path: str) -> RunConfig:
    source = str(path)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {source}: {exc}")
    return _resolve_config(text, source)


def _resolve_config(text: str, source: str) -> RunConfig:
    """The run configuration of config text; `source` names it in errors.

    Every key is checked against `_KEYS` and every value read once, each
    complaint on its line; the cross-key rules follow, and `fail(key, msg)`
    names the key's line (only the source when the key is absent).
    """
    entries = parse_config_text(text, source)
    for key, (_, line) in entries.items():
        if key not in _KEYS:
            raise ConfigError(f"{source}:{line}: unknown key {key!r}")
    v = {key: default for key, (_, default) in _KEYS.items()}
    for key, (raw, line) in entries.items():
        read = _KEYS[key][0]
        try:
            v[key] = read(raw)
        except _NotFinite as exc:
            raise ConfigError(f"{source}:{line}: {key} must be a finite number, "
                              f"got {exc.args[0]!r}")
        except ValueError:
            raise ConfigError(f"{source}:{line}: {key} must be {_MUST_BE[read]}, "
                              f"got {raw!r}")

    def fail(key, msg):
        where = f"{source}:{entries[key][1]}" if key in entries else source
        raise ConfigError(f"{where}: {msg}")

    gen = _resolve_generator(v, fail)
    scheme = _resolve_scheme(v, fail, gen)
    eps = _resolve_prediction(v, fail, scheme)
    signal, signal_entry = _resolve_signal(v, fail, scheme)
    if any(w <= 0 for w in v["W.list"]):
        fail("W.list", "all W values must be positive")
    W = max(v["W.list"], default=0.0)
    span = signal.interval[1] - signal.interval[0]
    if 400.0 * W * span > _QUAD_POINTS:
        key, what = (("signal.file", f"signal.file {v['signal.file']}")
                     if v["signal.file"] is not None
                     else ("W.list", f"signal {signal.name!r}"))
        fail(key, f"{what} spans {span:g} in t; at W = {W:g}, 400 W (b - a) = "
             f"{400.0 * W * span:.2g} is above the error quadrature's bound "
             f"{_QUAD_POINTS}")
    if v["error.p"] < 1:
        fail("error.p", "error.p must be >= 1")
    return RunConfig(gen=gen, scheme=scheme, epsilons=eps, signal=signal,
                     signal_entry=signal_entry, W_list=v["W.list"],
                     p=v["error.p"], source=source)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header, rows):
    """Comma / '.' / LF dialect with a mandatory header row."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_resolved(cfg: RunConfig, out: Path):
    desc = cfg.gen.descriptor()
    lines = [f"generator.kind = {desc['kind']}",
             f"generator.order = {desc['order']}"]
    if "level" in desc:
        lines.append(f"generator.level = {desc['level']}")
    lines += [f"scheme.r = {cfg.scheme.r}",
              f"scheme.L = {cfg.scheme.L}",
              f"scheme.rho = {cfg.scheme.rho}"]
    if cfg.scheme.s is not None:
        lines.append(f"scheme.s = {cfg.scheme.s}")
    lines.append("scheme.offsets = " + ", ".join(repr(x) for x in cfg.scheme.offsets))
    if cfg.epsilons is not None:
        lines.append("prediction.epsilons = "
                     + ", ".join(repr(e) for e in cfg.epsilons))
    lines += [" = ".join(cfg.signal_entry),
              "W.list = " + ", ".join(repr(w) for w in cfg.W_list),
              f"error.p = {cfg.p!r}"]
    (out / "resolved.cfg").write_text("\n".join(lines) + "\n")


def _echo(quiet: bool, msg: str):
    if not quiet:
        click.echo(msg)


def _build_kernel_set(cfg: RunConfig, scheme: SamplingScheme = None) -> KernelSet:
    """Kernels of cfg.gen on `scheme` (default cfg.scheme); a scheme that
    kernel synthesis rejects is a ConfigError."""
    scheme = cfg.scheme if scheme is None else scheme
    try:
        psi = build_polyphase(cfg.gen, scheme)
        return build_kernels(cfg.gen, scheme, invert_polyphase(psi))
    except ValueError as exc:
        raise ConfigError(f"{cfg.source}: {exc}")


def _require_prediction(cfg: RunConfig, ks: KernelSet):
    if cfg.epsilons is None:
        raise ConfigError(f"{cfg.source}: prediction.epsilons (or "
                          "prediction.eps0 + prediction.spacing) is required")
    return modify_kernels(ks, cfg.epsilons)


@click.group()
def main():
    """Reconstruction and causal prediction in shift-invariant spaces."""


def _subcommand(name, builtin=None):
    """Register body(cfg, stage, out, grid, quiet) as subcommand `name`.

    The command refuses a --grid below 32, the fewest points it writes on a
    `kernels` or `predict` curve (no other subcommand reads --grid), and
    resolves --config (else the `builtin` pair of config text and source
    name).  resolved.cfg and the body's files are written to a fresh
    staging directory `stage`; `out` (--out) is only named.  Once the body
    has returned, --out is created and the staged files are copied into it,
    and the command exits with the body's code.  ConfigError exits 2 and SingularSamplePointError exits 3,
    each with its message on stderr; like any other error, they leave
    --out and its parents as the run found them.
    """
    options = [
        click.option("--config", "config_path", required=builtin is None,
                     type=click.Path(),
                     help="flat dotted-key config file" if builtin is None else
                     "optional config overriding the built-in quartic setup"),
        click.option("--out", "out_dir", default="out", show_default=True,
                     type=click.Path(file_okay=False), help="output directory"),
        click.option("--grid", default=256, show_default=True, type=int,
                     help="points of the kernels and predict curves"),
        click.option("--quiet", is_flag=True, help="suppress progress output"),
    ]

    def register(body):
        def command(config_path, out_dir, grid, quiet):
            out = Path(out_dir)
            stage = Path(tempfile.mkdtemp())
            try:
                if grid < 32:
                    raise ConfigError(f"--grid must be >= 32, got {grid}")
                # --out is made once the body has run; a file above it would
                # stop that only then, with the run's work lost
                above = next((d for d in out.parents if d.exists()), None)
                if above is not None and not above.is_dir():
                    raise ConfigError(f"--out {out_dir}: {above} is not a directory")
                cfg = (_resolve_config(*builtin) if config_path is None
                       else load_config(config_path))
                _write_resolved(cfg, stage)
                code = body(cfg, stage, out, grid, quiet)
                # copied, not renamed: the staging directory may be on
                # another filesystem
                out.mkdir(parents=True, exist_ok=True)
                for path in stage.iterdir():
                    shutil.copyfile(path, out / path.name)
            except ConfigError as exc:
                click.echo(f"config error: {exc}", err=True)
                code = EXIT_CONFIG
            except SingularSamplePointError as exc:
                click.echo(f"not a complete interpolation set: {exc}", err=True)
                code = EXIT_NOT_CIS
            finally:
                shutil.rmtree(stage)
            sys.exit(code)

        for option in reversed(options):
            command = option(command)
        return main.command(name, help=body.__doc__)(command)

    return register


@_subcommand("check-cis")
def cmd_check_cis(cfg, stage, out, grid, quiet):
    """Test the complete-interpolation-set property of the configured scheme."""
    psi = build_polyphase(cfg.gen, cfg.scheme)
    # the verdict is invert_polyphase's: det_on_circle's minimum against
    # CIS_THRESHOLD; det C, where it exists, is printed as information
    min_abs, argmin = det_on_circle(psi)
    if cfg.scheme.s is not None and cfg.scheme.rho >= cfg.gen.mu:
        lines = [f"det C = {cis_determinant(cfg.gen, cfg.scheme)!r}",
                 "|det Psi| = |det C| on the whole circle"]
    else:
        lines = ["det C = n/a (offsets span cells or rho < mu)",
                 f"min |det Psi| = {min_abs!r} at x = {argmin!r}"]
    phi_min, phi_max = stability_bounds(cfg.gen)
    A, B = frame_bounds(psi, phi_min, phi_max)
    lines.append(f"frame bounds A = {A!r}, B = {B!r}")
    cis = min_abs > CIS_THRESHOLD
    lines.append(f"verdict: {'CIS' if cis else 'not a CIS'} of order "
                 f"{cfg.scheme.r - 1}")
    (stage / "check_cis.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        _echo(quiet, line)
    return EXIT_OK if cis else EXIT_NOT_CIS


@_subcommand("kernels")
def cmd_kernels(cfg, stage, out, grid, quiet):
    """Build the interpolating kernels and write them with sampled curves."""
    ks = _build_kernel_set(cfg)
    save_kernels(ks, stage / "kernels.json")
    lo, hi = ks.support
    ts = np.linspace(lo, hi, grid)
    header = ["t"]
    cols = [ts]
    for n in range(cfg.scheme.L):
        for i in range(cfg.scheme.r):
            header.append(f"theta_{n}_{i}")
            cols.append(ks.kernel(n, i, ts))
    write_csv(stage / "kernel_curves.csv", header,
              [[float(c[k]) for c in cols] for k in range(len(ts))])
    _echo(quiet, f"kernel support [{lo:g}, {hi:g}]")
    for n in range(cfg.scheme.L):
        for i in range(cfg.scheme.r):
            shifts, coefs = ks.term_table(n, i)
            pieces = ", ".join(f"{c:+.6g} phi(t - {sh:g})"
                               for sh, c in zip(shifts, coefs))
            _echo(quiet, f"theta_{n}_{i}(t) = {pieces}")
    _echo(quiet, f"wrote {out / 'kernels.json'} and "
                 f"{out / 'kernel_curves.csv'}")
    return EXIT_OK


@_subcommand("moments")
def cmd_moments(cfg, stage, out, grid, quiet):
    """Report vanishing-moment defects and the reproduction order."""
    report = reproduction_order(_build_kernel_set(cfg))
    write_csv(stage / "moments.csv", ["degree", "defect", "monomial_check"],
              zip(range(report.kappa + 1), report.defects, report.cross_defects))
    _echo(quiet, str(report))
    return EXIT_OK


@_subcommand("predict")
def cmd_predict(cfg, stage, out, grid, quiet):
    """Run the causal predictor over the configured W values."""
    ps = _require_prediction(cfg, _build_kernel_set(cfg))
    save_kernels(ps, stage / "prediction.json")
    lo, hi = ps.support
    _echo(quiet, f"support [{lo:g}, {hi:g}]")
    bound = window_bound(ps)
    _echo(quiet, f"past samples per evaluation <= "
                 f"{cfg.scheme.rho * bound} (|window| <= {bound})")
    _echo(quiet, f"reproduction order kappa = {reproduction_order(ps).kappa}")
    ts = np.linspace(*cfg.signal.interval, grid)
    fs = np.asarray(cfg.signal.eval(ts), dtype=float)
    errors = []
    for W in cfg.W_list:
        ps_vals = approx_operator(ps, cfg.signal, W, ts)
        write_csv(stage / f"trace_W{W:g}.csv", ["t", "f", "prediction"],
                  [[float(ts[k]), float(fs[k]), float(ps_vals[k])]
                   for k in range(len(ts))])
        err = lp_error(ps, cfg.signal, W, cfg.p)
        errors.append(err)
        _echo(quiet, f"W = {W:g}: L^{cfg.p:g} error {err:.6e}")
    write_csv(stage / "errors.csv", ["W", "error"],
              [[float(w), float(e)] for w, e in zip(cfg.W_list, errors)])
    return EXIT_OK


@_subcommand("convergence")
def cmd_convergence(cfg, stage, out, grid, quiet):
    """Fit the error decay rate over the configured W ladder."""
    if len(cfg.W_list) < 3:
        raise ConfigError(f"{cfg.source}: W.list needs at least three values")
    ks = _build_kernel_set(cfg)
    kset = _require_prediction(cfg, ks) if cfg.epsilons is not None else ks
    report = convergence_study(kset, cfg.signal, cfg.W_list, cfg.p)
    write_csv(stage / "convergence.csv", ["W", "error"],
              [[float(w), float(e)] for w, e in report.rows])
    _echo(quiet, str(report))
    return EXIT_OK


# The quartic_r1 example (configs/quartic_r1.cfg): table1's set-up when no
# --config is given.
_TABLE1_BUILTIN = ("""\
generator.kind = bspline
generator.order = 4
scheme.offset_mode = equally_spaced
scheme.L = 4
scheme.r = 1
scheme.s = 0
prediction.eps0 = 4.0
prediction.spacing = 0.25
signal.name = f
W.list = 5, 7, 10, 15, 20, 25, 30
error.p = 2
""", "<builtin quartic setup>")


@_subcommand("table1", builtin=_TABLE1_BUILTIN)
def cmd_table1(cfg, stage, out, grid, quiet):
    """Prediction errors over the W ladder for both offset families."""
    # the families of the config's (L, r, s); other offsets would be
    # replaced without a word, so they are refused
    L, r, s = cfg.scheme.L, cfg.scheme.r, cfg.scheme.s
    if s is None:
        raise ConfigError(f"{cfg.source}: offsets must lie in one cell")
    families = [family(L, r, s) for family in _OFFSET_FAMILIES.values()]
    if cfg.scheme not in families:
        raise ConfigError(f"{cfg.source}: table1 runs the equally spaced and "
                          "chebyshev offsets of the scheme's (L, r, s); give "
                          "scheme.offset_mode instead of scheme.offsets")
    # resolved.cfg, written from the config, records the first family instead
    _write_resolved(replace(cfg, scheme=families[0]), stage)
    with (stage / "resolved.cfg").open("a") as fh:
        fh.write("# the run covers the chebyshev offset family as well\n")
    columns = []
    for scheme in families:
        ps = _require_prediction(cfg, _build_kernel_set(cfg, scheme))
        columns.append([lp_error(ps, cfg.signal, W, cfg.p) for W in cfg.W_list])
    rows = [[float(W), float(eq), float(ch)]
            for W, eq, ch in zip(cfg.W_list, *columns)]
    write_csv(stage / "table1.csv", ["W", *_OFFSET_FAMILIES], rows)
    _echo(quiet, f"{'W':>6}  {'equally spaced':>15}  {'chebyshev':>15}")
    for W, eq, ch in rows:
        _echo(quiet, f"{W:6g}  {eq:15.6g}  {ch:15.6g}")
    return EXIT_OK


if __name__ == "__main__":
    main()
