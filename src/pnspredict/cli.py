"""Command line front end for the sampling/prediction pipeline.

Subcommands: check-cis, kernels, moments, predict, convergence, table1.
Configuration is a flat text file of dotted keys, one `key = value` per
line.  Outputs are CSV files (comma separator, '.' decimal point, LF line
endings, header row) plus a resolved-config copy per run.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .approximation import (TestSignal, _default_interval, approx_operator,
                            builtin_signal, convergence_study, lp_error)
from .generators import (BSplineGenerator, DaubechiesGenerator,
                         stability_bounds)
from .kernels import (KernelSet, SingularSamplePointError, build_kernels,
                      invert_polyphase, load_kernels, save_kernels)
from .moments import reproduction_order
from .polyphase import (CIS_THRESHOLD, SamplingScheme, build_polyphase,
                        cis_determinant, det_on_circle, frame_bounds)
from .prediction import (equally_spaced_weights, lagrange_weights,
                         modify_kernels, window_bound)

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


class _Raw:
    """Typed access to parsed entries with line-numbered complaints."""

    def __init__(self, entries: dict, source: str):
        self.entries = entries
        self.source = source
        self.used = set()

    def has(self, key):
        return key in self.entries

    def _fail(self, key, msg):
        lineno = self.entries[key][1] if key in self.entries else "?"
        raise ConfigError(f"{self.source}:{lineno}: {msg}")

    def get(self, key, default=None):
        if key not in self.entries:
            return default
        self.used.add(key)
        return self.entries[key][0]

    def get_int(self, key, default=None):
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            self._fail(key, f"{key} must be an integer, got {raw!r}")

    def get_float(self, key, default=None):
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            self._fail(key, f"{key} must be a number, got {raw!r}")

    def get_floats(self, key, default=None):
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return tuple(float(v) for v in raw.split(",") if v.strip())
        except ValueError:
            self._fail(key, f"{key} must be a comma-separated number list")

    def line_of(self, key):
        return self.entries[key][1] if key in self.entries else "?"

    def unknown_keys(self):
        return sorted(set(self.entries) - self.used)


@dataclass
class RunConfig:
    gen: object
    scheme: SamplingScheme
    epsilons: tuple
    weights: tuple
    signal: TestSignal
    W_list: tuple
    p: float
    source: str


def _resolve_generator(raw: _Raw):
    kind = raw.get("generator.kind", "bspline")
    order = raw.get_int("generator.order")
    if order is None:
        raise ConfigError(f"{raw.source}: generator.order is required")
    try:
        if kind == "bspline":
            return BSplineGenerator(order)
        if kind == "daubechies":
            level = raw.get_int("generator.level")
            if level is None:
                return DaubechiesGenerator(order)
            return DaubechiesGenerator(order, level)
    except ValueError as exc:
        raw._fail("generator.order", str(exc))
    raw._fail("generator.kind", f"unknown generator kind {kind!r}")


def _resolve_scheme(raw: _Raw):
    r = raw.get_int("scheme.r", 1)
    offsets = raw.get_floats("scheme.offsets")
    mode = raw.get("scheme.offset_mode")
    if offsets is not None and mode is not None:
        raw._fail("scheme.offset_mode",
                  "give either scheme.offsets or scheme.offset_mode, not both")
    try:
        if offsets is not None:
            scheme = SamplingScheme(offsets, r)
        elif mode is not None:
            L = raw.get_int("scheme.L")
            if L is None:
                raw._fail("scheme.offset_mode", "scheme.L is required with offset_mode")
            s = raw.get_int("scheme.s", 0)
            if mode == "equally_spaced":
                scheme = SamplingScheme.equally_spaced(L, r, s)
            elif mode == "chebyshev":
                scheme = SamplingScheme.chebyshev(L, r, s)
            else:
                raw._fail("scheme.offset_mode", f"unknown offset mode {mode!r}")
        else:
            raise ConfigError(f"{raw.source}: scheme.offsets or scheme.offset_mode "
                              "is required")
    except ValueError as exc:
        raw._fail("scheme.offsets" if offsets is not None else "scheme.offset_mode",
                  str(exc))
    rho_given = raw.get_int("scheme.rho")
    if rho_given is not None and rho_given != scheme.rho:
        raw._fail("scheme.rho", f"scheme.rho = {rho_given} but L*r = {scheme.rho}")
    L_given = raw.get_int("scheme.L")
    if L_given is not None and L_given != scheme.L:
        raw._fail("scheme.L", f"scheme.L = {L_given} but {scheme.L} offsets given")
    s_given = raw.get_int("scheme.s")
    if s_given is not None and scheme.s is not None and s_given != scheme.s:
        raw._fail("scheme.s", f"scheme.s = {s_given} but offsets lie in cell "
                  f"[{scheme.s}, {scheme.s + 1})")
    return scheme


def _resolve_prediction(raw: _Raw, scheme: SamplingScheme):
    eps = raw.get_floats("prediction.epsilons")
    eps0 = raw.get_float("prediction.eps0")
    if eps is not None and eps0 is not None:
        raw._fail("prediction.eps0",
                  "give either prediction.epsilons or prediction.eps0, not both")
    weights = raw.get_floats("prediction.weights")
    if eps is None and eps0 is None:
        if weights is not None:
            raw._fail("prediction.weights", "weights given without epsilon nodes")
        return None, None
    try:
        if eps is None:
            d = raw.get_float("prediction.spacing")
            if d is None:
                raw._fail("prediction.eps0", "prediction.spacing is required "
                          "with prediction.eps0")
            eps = tuple(eps0 + p * d for p in range(scheme.rho))
            if weights is None:
                weights = tuple(equally_spaced_weights(eps0, d, scheme.rho))
        if weights is None:
            weights = tuple(lagrange_weights(eps))
    except ValueError as exc:
        raw._fail("prediction.epsilons" if raw.has("prediction.epsilons")
                  else "prediction.eps0", str(exc))
    return tuple(eps), tuple(weights)


def _signal_from_file(path: str) -> TestSignal:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ts, vs = rows[:, 0], rows[:, 1]

    def f(t):
        return np.interp(t, ts, vs, left=0.0, right=0.0)

    return TestSignal(Path(path).stem, (f,), "tabulated")


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
        return np.broadcast_to(np.asarray(_expr_value(tree, t), dtype=float),
                               t.shape)

    try:
        f(np.array([0.0, 0.5]))
    except (ArithmeticError, RecursionError, TypeError, ValueError) as exc:
        raise ConfigError(f"signal.expr failed to evaluate: {exc}")
    return TestSignal("expr", (f,), "smooth")


def _resolve_signal(raw: _Raw, scheme: SamplingScheme):
    name = raw.get("signal.name")
    expr = raw.get("signal.expr")
    path = raw.get("signal.file")
    given = [k for k, v in (("signal.name", name), ("signal.expr", expr),
                            ("signal.file", path)) if v is not None]
    if len(given) > 1:
        raw._fail(given[1], "give only one of signal.name / signal.expr / signal.file")
    if name is not None:
        try:
            signal = builtin_signal(name)
        except ValueError as exc:
            raw._fail("signal.name", str(exc))
    elif expr is not None:
        signal = _signal_from_expr(expr)
    elif path is not None:
        signal = _signal_from_file(path)
    else:
        signal = builtin_signal("f")
    if scheme.r > len(signal.derivs):
        key = given[0] if given else "scheme.r"
        raw._fail(key, f"scheme needs {scheme.r} derivative channels but signal "
                  f"{signal.name!r} provides {len(signal.derivs)}")
    return signal


def load_config(path: str) -> RunConfig:
    source = str(path)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {source}: {exc}")
    raw = _Raw(parse_config_text(text, source), source)
    gen = _resolve_generator(raw)
    scheme = _resolve_scheme(raw)
    eps, weights = _resolve_prediction(raw, scheme)
    signal = _resolve_signal(raw, scheme)
    W_list = raw.get_floats("W.list", DEFAULT_W)
    if any(w <= 0 for w in W_list):
        raw._fail("W.list", "all W values must be positive")
    p = raw.get_float("error.p", 2.0)
    if p < 1:
        raw._fail("error.p", "error.p must be >= 1")
    stray = raw.unknown_keys()
    if stray:
        first = stray[0]
        raise ConfigError(f"{source}:{raw.line_of(first)}: unknown key {first!r}")
    return RunConfig(gen=gen, scheme=scheme, epsilons=eps, weights=weights,
                     signal=signal, W_list=tuple(W_list), p=float(p),
                     source=source)


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
              f"scheme.rho = {cfg.scheme.rho}",
              f"scheme.s = {cfg.scheme.s}",
              "scheme.offsets = " + ", ".join(repr(x) for x in cfg.scheme.offsets)]
    if cfg.epsilons is not None:
        lines.append("prediction.epsilons = "
                     + ", ".join(repr(e) for e in cfg.epsilons))
        lines.append("prediction.weights = "
                     + ", ".join(repr(a) for a in cfg.weights))
    lines += [f"signal.name = {cfg.signal.name}",
              "W.list = " + ", ".join(repr(w) for w in cfg.W_list),
              f"error.p = {cfg.p!r}"]
    (out / "resolved.cfg").write_text("\n".join(lines) + "\n")


def _prepare_out(out_dir: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo(quiet: bool, msg: str):
    if not quiet:
        click.echo(msg)


def _build_kernel_set(gen, scheme: SamplingScheme) -> KernelSet:
    psi = build_polyphase(gen, scheme)
    return build_kernels(gen, scheme, invert_polyphase(psi))


def _moment_tol(gen) -> float:
    return 1e-8 if gen.kind == "bspline" else 1e-6


_shared_options = [
    click.option("--config", "config_path", required=True,
                 type=click.Path(), help="flat dotted-key config file"),
    click.option("--out", "out_dir", default="out", show_default=True,
                 type=click.Path(file_okay=False), help="output directory"),
    click.option("--grid", "grid_n", default=256, show_default=True,
                 type=int, help="grid resolution for circle/curve sampling"),
    click.option("--quiet", is_flag=True, help="suppress progress output"),
]


def shared_options(fn):
    for opt in reversed(_shared_options):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Reconstruction and causal prediction in shift-invariant spaces."""


def _guarded(fn, quiet: bool):
    try:
        return fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except SingularSamplePointError as exc:
        click.echo(f"not a complete interpolation set: {exc}", err=True)
        sys.exit(EXIT_NOT_CIS)


@main.command("check-cis")
@shared_options
def cmd_check_cis(config_path, out_dir, grid_n, quiet):
    """Test the complete-interpolation-set property of the configured scheme."""

    def run():
        cfg = load_config(config_path)
        out = _prepare_out(out_dir)
        _write_resolved(cfg, out)
        try:
            psi = build_polyphase(cfg.gen, cfg.scheme)
        except ValueError as exc:
            raise ConfigError(f"{cfg.source}: {exc}")
        lines = []
        if cfg.scheme.s is not None and cfg.scheme.rho >= cfg.gen.mu:
            det_c = cis_determinant(cfg.gen, cfg.scheme)
            lines.append(f"det C = {det_c!r}")
        else:
            lines.append("det C = n/a (offsets span cells or rho < mu)")
        min_abs, argmin = det_on_circle(psi, grid_n)
        lines.append(f"min |det Psi| = {min_abs!r} at x = {argmin!r}")
        phi_min, phi_max = stability_bounds(cfg.gen)
        A, B = frame_bounds(psi, phi_min, phi_max, grid_n)
        lines.append(f"frame bounds A = {A!r}, B = {B!r}")
        cis = min_abs > CIS_THRESHOLD
        lines.append(f"verdict: {'CIS' if cis else 'not a CIS'} of order "
                     f"{cfg.scheme.r - 1}")
        (out / "check_cis.txt").write_text("\n".join(lines) + "\n")
        for line in lines:
            _echo(quiet, line)
        return EXIT_OK if cis else EXIT_NOT_CIS

    sys.exit(_guarded(run, quiet))


@main.command("kernels")
@shared_options
def cmd_kernels(config_path, out_dir, grid_n, quiet):
    """Build the interpolating kernels and write them with sampled curves."""

    def run():
        cfg = load_config(config_path)
        out = _prepare_out(out_dir)
        _write_resolved(cfg, out)
        try:
            ks = _build_kernel_set(cfg.gen, cfg.scheme)
        except ValueError as exc:
            raise ConfigError(f"{cfg.source}: {exc}")
        save_kernels(ks, out / "kernels.json")
        lo, hi = ks.support
        ts = np.linspace(lo, hi, grid_n)
        header = ["t"]
        cols = [ts]
        for n in range(cfg.scheme.L):
            for i in range(cfg.scheme.r):
                header.append(f"theta_{n}_{i}")
                cols.append(ks.kernel(n, i, ts))
        write_csv(out / "kernel_curves.csv", header,
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

    sys.exit(_guarded(run, quiet))


@main.command("moments")
@shared_options
def cmd_moments(config_path, out_dir, grid_n, quiet):
    """Report vanishing-moment defects and the reproduction order."""

    def run():
        cfg = load_config(config_path)
        out = _prepare_out(out_dir)
        _write_resolved(cfg, out)
        try:
            ks = _build_kernel_set(cfg.gen, cfg.scheme)
        except ValueError as exc:
            raise ConfigError(f"{cfg.source}: {exc}")
        report = reproduction_order(ks, tol=_moment_tol(cfg.gen))
        rows = [[j, float(d),
                 float(report.cross_defects[j]) if j < len(report.cross_defects)
                 else ""]
                for j, d in enumerate(report.defects)]
        write_csv(out / "moments.csv", ["degree", "defect", "monomial_check"],
                  rows)
        _echo(quiet, str(report))
        return EXIT_OK

    sys.exit(_guarded(run, quiet))


def _require_prediction(cfg: RunConfig, ks: KernelSet):
    if cfg.epsilons is None:
        raise ConfigError(f"{cfg.source}: prediction.epsilons (or "
                          "prediction.eps0 + prediction.spacing) is required")
    try:
        return modify_kernels(ks, cfg.epsilons, cfg.weights)
    except ValueError as exc:
        raise ConfigError(f"{cfg.source}: {exc}")


@main.command("predict")
@shared_options
@click.option("--kernels", "kernels_path", type=click.Path(exists=True),
              default=None, help="reload a serialized kernel set instead of "
              "rebuilding it")
def cmd_predict(config_path, out_dir, grid_n, quiet, kernels_path):
    """Run the causal predictor over the configured W values."""

    def run():
        cfg = load_config(config_path)
        out = _prepare_out(out_dir)
        _write_resolved(cfg, out)
        if kernels_path is not None:
            ks = load_kernels(kernels_path)
        else:
            try:
                ks = _build_kernel_set(cfg.gen, cfg.scheme)
            except ValueError as exc:
                raise ConfigError(f"{cfg.source}: {exc}")
        ps = _require_prediction(cfg, ks)
        save_kernels(ps, out / "prediction.json")
        lo, hi = ps.support
        _echo(quiet, f"support [{lo:g}, {hi:g}]")
        bound = window_bound(ps)
        _echo(quiet, f"past samples per evaluation <= "
                     f"{cfg.scheme.rho * bound} (|window| <= {bound})")
        report = reproduction_order(ps, tol=_moment_tol(cfg.gen))
        _echo(quiet, f"reproduction order kappa = {report.kappa}")
        a, b = _default_interval(cfg.signal)
        errors = []
        for W in cfg.W_list:
            ts = np.linspace(a, b, grid_n)
            fs = np.asarray(cfg.signal.eval(ts), dtype=float)
            ps_vals = approx_operator(ps, cfg.signal, W, ts)
            write_csv(out / f"trace_W{W:g}.csv", ["t", "f", "prediction"],
                      [[float(ts[k]), float(fs[k]), float(ps_vals[k])]
                       for k in range(len(ts))])
            err = lp_error(ps, cfg.signal, W, cfg.p)
            errors.append(err)
            _echo(quiet, f"W = {W:g}: L^{cfg.p:g} error {err:.6e}")
        write_csv(out / "errors.csv", ["W", "error"],
                  [[float(w), float(e)] for w, e in zip(cfg.W_list, errors)])
        return EXIT_OK

    sys.exit(_guarded(run, quiet))


@main.command("convergence")
@shared_options
def cmd_convergence(config_path, out_dir, grid_n, quiet):
    """Fit the error decay rate over the configured W ladder."""

    def run():
        cfg = load_config(config_path)
        out = _prepare_out(out_dir)
        _write_resolved(cfg, out)
        try:
            ks = _build_kernel_set(cfg.gen, cfg.scheme)
        except ValueError as exc:
            raise ConfigError(f"{cfg.source}: {exc}")
        kset = _require_prediction(cfg, ks) if cfg.epsilons is not None else ks
        if len(cfg.W_list) < 3:
            raise ConfigError(f"{cfg.source}: W.list needs at least three values")
        report = convergence_study(kset, cfg.signal, cfg.W_list, cfg.p)
        write_csv(out / "convergence.csv", ["W", "error"],
                  [[float(w), float(e)] for w, e in report.rows])
        _echo(quiet, str(report))
        return EXIT_OK

    sys.exit(_guarded(run, quiet))


@main.command("table1")
@click.option("--config", "config_path", default=None, type=click.Path(),
              help="optional config overriding the built-in quartic setup")
@click.option("--out", "out_dir", default="out", show_default=True,
              type=click.Path(file_okay=False))
@click.option("--grid", "grid_n", default=256, show_default=True, type=int)
@click.option("--quiet", is_flag=True)
def cmd_table1(config_path, out_dir, grid_n, quiet):
    """Prediction errors over the W ladder for both offset families."""

    def run():
        if config_path is None:
            gen = BSplineGenerator(4)
            L, r, s = 4, 1, 0
            epsilons = (4.0, 4.25, 4.5, 4.75)
            weights = tuple(lagrange_weights(epsilons))
            signal = builtin_signal("f")
            W_list = DEFAULT_W
            p = 2.0
        else:
            cfg = load_config(config_path)
            if cfg.epsilons is None:
                raise ConfigError(f"{cfg.source}: prediction nodes are required")
            if cfg.scheme.s is None:
                raise ConfigError(f"{cfg.source}: offsets must lie in one cell")
            gen = cfg.gen
            L, r, s = cfg.scheme.L, cfg.scheme.r, cfg.scheme.s
            epsilons, weights = cfg.epsilons, cfg.weights
            signal, W_list, p = cfg.signal, cfg.W_list, cfg.p
        out = _prepare_out(out_dir)
        resolved = RunConfig(
            gen=gen, scheme=SamplingScheme.equally_spaced(L, r, s),
            epsilons=tuple(epsilons), weights=tuple(weights), signal=signal,
            W_list=tuple(W_list), p=p,
            source=config_path or "<builtin quartic setup>")
        _write_resolved(resolved, out)
        with (out / "resolved.cfg").open("a") as fh:
            fh.write("# the run covers the chebyshev offset family as well\n")
        columns = []
        for family in (SamplingScheme.equally_spaced, SamplingScheme.chebyshev):
            ks = _build_kernel_set(gen, family(L, r, s))
            ps = modify_kernels(ks, epsilons, weights)
            columns.append([lp_error(ps, signal, W, p) for W in W_list])
        rows = [[float(W), float(eq), float(ch)]
                for W, eq, ch in zip(W_list, *columns)]
        write_csv(out / "table1.csv", ["W", "equally_spaced", "chebyshev"], rows)
        _echo(quiet, f"{'W':>6}  {'equally spaced':>15}  {'chebyshev':>15}")
        for W, eq, ch in rows:
            _echo(quiet, f"{W:6g}  {eq:15.6g}  {ch:15.6g}")
        return EXIT_OK

    sys.exit(_guarded(run, quiet))


if __name__ == "__main__":
    main()
