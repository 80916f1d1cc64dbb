import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import pnspredict
from pnspredict import approximation, cli, kernels, polyphase
from pnspredict.cli import (_KEYS, _TABLE1_BUILTIN, DEFAULT_W, EXIT_CONFIG,
                            EXIT_NOT_CIS, EXIT_OK, ConfigError, RunConfig,
                            _resolve_config, load_config, main,
                            parse_config_text, write_csv)
from pnspredict.polyphase import build_polyphase, cis_determinant, det_on_circle
from pnspredict.prediction import lagrange_weights

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

QUARTIC_CFG = """\
generator.kind = bspline
generator.order = 4
scheme.offset_mode = equally_spaced
scheme.L = 4
scheme.s = 0
prediction.eps0 = 4.0
prediction.spacing = 0.25
signal.name = f
W.list = 20
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def quartic_cfg(tmp_path):
    path = tmp_path / "quartic.cfg"
    path.write_text(QUARTIC_CFG)
    return path


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_CONFIG, EXIT_NOT_CIS}) == 3
    assert EXIT_OK == 0


def test_parse_config_basics():
    entries = parse_config_text("a.b = 1\n# comment\n\nc = x, y\n")
    assert entries["a.b"] == ("1", 1)
    assert entries["c"] == ("x, y", 4)


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError, match=r"<config>:2"):
        parse_config_text("a = 1\nnonsense\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")
    with pytest.raises(ConfigError, match=r"duplicate key 'a'.*line 1"):
        parse_config_text("a = 1\na = 2\n")


def test_load_config_resolves_defaults(quartic_cfg):
    cfg = load_config(str(quartic_cfg))
    assert cfg.scheme.offsets == (0.0, 0.25, 0.5, 0.75)
    assert cfg.epsilons == (4.0, 4.25, 4.5, 4.75)
    assert cfg.weights == (969.0, -2736.0, 2584.0, -816.0)
    assert cfg.signal.name == "f"
    assert cfg.W_list == (20.0,)
    assert cfg.p == 2.0


def test_load_config_error_messages(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("generator.order = 4\nscheme.L = 4\n"
                   "scheme.offset_mode = equally_spaced\nwhatever = 1\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:4: unknown key 'whatever'"):
        load_config(str(bad))
    bad.write_text("generator.order = four\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1: .*integer"):
        load_config(str(bad))
    bad.write_text("scheme.offsets = 0.0, 0.5\n")
    with pytest.raises(ConfigError, match="generator.order is required"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.cfg"))


def test_check_cis_accepts_quartic(runner, quartic_cfg, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(main, ["check-cis", "--config", str(quartic_cfg),
                               "--out", str(out)])
    assert res.exit_code == EXIT_OK
    assert "verdict: CIS of order 0" in res.output
    det_line = next(l for l in res.output.splitlines() if l.startswith("det C"))
    assert float(det_line.split("=")[1]) == pytest.approx(1.0 / 4096.0, rel=1e-9)
    assert (out / "check_cis.txt").exists()
    assert (out / "resolved.cfg").exists()
    resolved = (out / "resolved.cfg").read_text()
    assert "scheme.offsets = 0.0, 0.25, 0.5, 0.75" in resolved
    # the nodes fix the weights, so resolved.cfg records the nodes only
    assert "prediction.epsilons = 4.0, 4.25, 4.5, 4.75" in resolved
    assert "weights" not in resolved


def test_check_cis_rejects_split_cells(runner, tmp_path):
    cfg = tmp_path / "split.cfg"
    cfg.write_text("generator.kind = bspline\ngenerator.order = 3\n"
                   "scheme.offsets = 0.5, 2.5\nscheme.r = 2\n")
    res = runner.invoke(main, ["check-cis", "--config", str(cfg),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == EXIT_NOT_CIS
    assert "not a CIS of order 1" in res.output


def test_check_cis_refuses_a_one_cell_scheme_as_the_inversion_does(runner, tmp_path):
    # rho = 4 > mu = 3 leaves C and M a zero column: det C = 0 is printed,
    # and |det M| = 0 is the verdict of check-cis and of the inversion
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("generator.order = 3\nscheme.offset_mode = equally_spaced\n"
                   "scheme.L = 4\n")
    res = runner.invoke(main, ["check-cis", "--config", str(cfg),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == EXIT_NOT_CIS
    assert res.output.splitlines()[1] == "|det Psi| = |det C| on the whole circle"
    assert abs(float(res.output.splitlines()[0].split("=")[1])) <= 1e-12
    assert "not a CIS of order 0" in res.output
    # a verdict is a finished run: its files reach --out
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "check_cis.txt", "resolved.cfg"]
    # the inversion refuses det M = 0 by the same test, as exit 3
    res = runner.invoke(main, ["kernels", "--config", str(cfg), "--out",
                               str(tmp_path / "k"), "--quiet"])
    assert res.exit_code == EXIT_NOT_CIS
    assert res.stderr.splitlines() == [
        "not a complete interpolation set: |det Psi(0.0)| = 0.000e+00, "
        "scheme is not a CIS"]
    assert not (tmp_path / "k").exists()


@pytest.mark.parametrize("name", ["quartic_r1_chebyshev", "db3_r1",
                                  "quartic_hermite"])
def test_check_cis_and_kernels_give_one_verdict(runner, tmp_path, monkeypatch,
                                                name):
    # |det C| and |det M| differ in their last bits on these configs.  With
    # the threshold at the smaller one, a check-cis that compared |det C|
    # disagreed with the inversion: exit 0 against 3, or 3 against 0.
    cfg = load_config(str(CONFIGS / f"{name}.cfg"))
    det_c = abs(cis_determinant(cfg.gen, cfg.scheme))
    det_m, _ = det_on_circle(build_polyphase(cfg.gen, cfg.scheme))
    assert det_c != det_m
    for module in (polyphase, kernels, cli):
        monkeypatch.setattr(module, "CIS_THRESHOLD", min(det_c, det_m),
                            raising=False)
    want = EXIT_OK if det_m > det_c else EXIT_NOT_CIS
    for sub in ("check-cis", "kernels"):
        res = runner.invoke(main, [sub, "--config", str(CONFIGS / f"{name}.cfg"),
                                   "--out", str(tmp_path / sub), "--quiet"])
        assert res.exit_code == want, (sub, res.output)


def test_rho_mismatch_is_a_config_error(runner, tmp_path):
    cfg = tmp_path / "badrho.cfg"
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   "scheme.L = 4\nscheme.rho = 5\n")
    res = runner.invoke(main, ["check-cis", "--config", str(cfg),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == EXIT_CONFIG
    assert "scheme.rho = 5 but L*r = 4" in res.output


def test_kernels_command_writes_tables(runner, quartic_cfg, tmp_path,
                                       monkeypatch):
    stages = tmp_path / "stages"
    stages.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(stages))
    out = tmp_path / "k"
    res = runner.invoke(main, ["kernels", "--config", str(quartic_cfg),
                               "--out", str(out), "--grid", "64"])
    assert res.exit_code == EXIT_OK
    # the files are copied to --out, and the paths printed are theirs
    assert list(stages.iterdir()) == []
    assert res.output.splitlines()[-1] == (f"wrote {out / 'kernels.json'} and "
                                           f"{out / 'kernel_curves.csv'}")
    assert "kernel support [-3, 4]" in res.output
    assert "theta_0_0(t) = -19 phi(t - 0)" in res.output
    curves = (out / "kernel_curves.csv").read_text()
    assert curves.splitlines()[0] == "t,theta_0_0,theta_1_0,theta_2_0,theta_3_0"
    assert len(curves.splitlines()) == 65
    assert (out / "kernels.json").exists()


def test_kernels_rejects_noncompact_inverse(runner, tmp_path):
    cfg = tmp_path / "q4split.cfg"
    cfg.write_text("generator.kind = bspline\ngenerator.order = 4\n"
                   "scheme.offsets = 0.5, 2.5\nscheme.r = 2\n")
    res = runner.invoke(main, ["kernels", "--config", str(cfg),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == EXIT_CONFIG
    assert "compactly supported" in res.output


def test_moments_command(runner, quartic_cfg, tmp_path):
    out = tmp_path / "m"
    res = runner.invoke(main, ["moments", "--config", str(quartic_cfg),
                               "--out", str(out)])
    assert res.exit_code == EXIT_OK
    assert "kappa = 4" in res.output
    rows = (out / "moments.csv").read_text().splitlines()
    assert rows[0] == "degree,defect,monomial_check"
    assert float(rows[1].split(",")[1]) < 1e-12


def test_predict_command_outputs(runner, quartic_cfg, tmp_path):
    out = tmp_path / "p"
    res = runner.invoke(main, ["predict", "--config", str(quartic_cfg),
                               "--out", str(out), "--grid", "64"])
    assert res.exit_code == EXIT_OK
    assert "support [1, 8.75]" in res.output
    assert "past samples per evaluation <= 8 (|window| <= 2)" in res.output
    trace = (out / "trace_W20.csv").read_text()
    assert trace.splitlines()[0] == "t,f,prediction"
    assert len(trace.splitlines()) == 65
    errors = (out / "errors.csv").read_text().splitlines()
    assert errors[0] == "W,error"
    assert float(errors[1].split(",")[1]) == pytest.approx(0.17917, rel=1e-2)
    assert (out / "prediction.json").exists()


def test_convergence_command(runner, tmp_path):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   "scheme.L = 4\nprediction.eps0 = 4.0\n"
                   "prediction.spacing = 0.25\nW.list = 5, 10, 20\n")
    out = tmp_path / "v"
    res = runner.invoke(main, ["convergence", "--config", str(cfg),
                               "--out", str(out)])
    assert res.exit_code == EXIT_OK
    assert "fitted slope" in res.output
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "W,error"
    assert len(rows) == 4


def test_convergence_needs_three_W(runner, tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   "scheme.L = 4\nW.list = 5, 10\n")
    res = runner.invoke(main, ["convergence", "--config", str(cfg),
                               "--out", str(tmp_path / "v")])
    assert res.exit_code == EXIT_CONFIG


@pytest.mark.parametrize("order", [3, 4])
def test_convergence_counts_w_before_building_kernels(runner, tmp_path, order):
    # the split-cell scheme has no kernels: under Q3 it is no CIS (exit 3),
    # under Q4 its det Psi is no monomial; the short W.list used to be
    # reported only after either refusal
    cfg = tmp_path / "short.cfg"
    cfg.write_text(f"generator.order = {order}\nscheme.offsets = 0.5, 2.5\n"
                   "scheme.r = 2\nW.list = 5, 10\n")
    res = runner.invoke(main, ["convergence", "--config", str(cfg),
                               "--out", str(tmp_path / "v")])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert res.stderr == f"config error: {cfg}: W.list needs at least three values\n"


def test_table1_command(runner, tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   "scheme.L = 4\nprediction.eps0 = 4.0\n"
                   "prediction.spacing = 0.25\nW.list = 5, 20\n")
    out = tmp_path / "t"
    res = runner.invoke(main, ["table1", "--config", str(cfg),
                               "--out", str(out)])
    assert res.exit_code == EXIT_OK
    rows = (out / "table1.csv").read_text().splitlines()
    assert rows[0] == "W,equally_spaced,chebyshev"
    w20 = rows[2].split(",")
    assert float(w20[1]) == pytest.approx(0.17917, rel=1e-2)
    assert float(w20[2]) <= float(w20[1])
    assert "chebyshev offset family" in (out / "resolved.cfg").read_text()


def test_predict_without_nodes_is_config_error(runner, tmp_path):
    cfg = tmp_path / "plain.cfg"
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   "scheme.L = 4\nW.list = 20\n")
    for sub in ("predict", "table1"):
        res = runner.invoke(main, [sub, "--config", str(cfg),
                                   "--out", str(tmp_path / sub)])
        assert res.exit_code == EXIT_CONFIG
        assert "prediction.epsilons" in res.output


def test_signal_expression_config(runner, tmp_path):
    cfg = tmp_path / "expr.cfg"
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   "scheme.L = 4\nsignal.expr = np.cos(t)\nW.list = 20\n")
    assert load_config(str(cfg)).signal.eval(0.0) == 1.0
    cfg.write_text(_MODE + "signal.expr = np.cos(pi * t) + e\n")
    assert load_config(str(cfg)).signal.eval(1.0) == np.cos(np.pi) + np.e
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   "scheme.L = 4\nsignal.expr = nonsense(t)\n")
    res = runner.invoke(main, ["check-cis", "--config", str(cfg),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_CONFIG


def test_signal_expression_cannot_reach_builtins(runner, tmp_path):
    cfg = tmp_path / "escape.cfg"
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   "scheme.L = 4\nsignal.expr = "
                   "np.__builtins__['__import__']('os').getpid() + t\n")
    with pytest.raises(ConfigError, match="not allowed"):
        load_config(str(cfg))
    res = runner.invoke(main, ["check-cis", "--config", str(cfg),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_CONFIG


def test_signal_file_config(tmp_path):
    table = tmp_path / "sig.csv"
    ts = np.linspace(-1.0, 1.0, 21)
    table.write_text("t,v\n" + "\n".join(f"{t},{t * t}" for t in ts) + "\n")
    cfg = tmp_path / "file.cfg"
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   f"scheme.L = 4\nsignal.file = {table}\n")
    sig = load_config(str(cfg)).signal
    assert sig.eval(0.5) == pytest.approx(0.25, abs=1e-12)
    assert sig.eval(5.0) == 0.0
    # the interpolant's kinks, and its jumps to 0, are lp_error's panel edges
    assert np.array_equal(sig.breaks, ts)


def test_derivative_scheme_needs_derivative_signal(tmp_path):
    cfg = tmp_path / "r2.cfg"
    cfg.write_text("generator.order = 4\nscheme.offsets = 0.5, 0.75\n"
                   "scheme.r = 2\nsignal.name = g\n")
    with pytest.raises(ConfigError, match="derivative channels"):
        load_config(str(cfg))


def test_write_csv_dialect(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[0.1, 2], [1.0 / 3.0, -4]])
    data = path.read_bytes()
    assert b"\r" not in data
    assert data == b"a,b\n0.1,2\n0.3333333333333333,-4\n"
    back = float(data.decode().splitlines()[2].split(",")[0])
    assert back == 1.0 / 3.0


def test_default_W_ladder():
    assert DEFAULT_W == (5.0, 7.0, 10.0, 15.0, 20.0, 25.0, 30.0)


@pytest.mark.parametrize("text, line, message", [
    ("generator.order = 4\nscheme.offset_mode = equally_spaced\nscheme.L = 4\n"
     "prediction.eps0 = 2\nprediction.spacing = 0.25\nW.list = 5, 20\n",
     4, "eps0 = 2.0 < rho = 4"),
    ("generator.order = 2\nscheme.offset_mode = equally_spaced\nscheme.L = 1\n"
     "scheme.r = 2\nprediction.eps0 = 4\nprediction.spacing = 0.25\n"
     "W.list = 5, 20\n", 4, "scheme needs derivatives up to order 1"),
], ids=["eps0_below_rho", "r2_on_Q2"])
def test_table1_config_errors_exit_2(runner, tmp_path, text, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    for sub in ("table1", "predict"):
        res = runner.invoke(main, [sub, "--config", str(cfg),
                                   "--out", str(tmp_path / sub)])
        assert res.exit_code == EXIT_CONFIG
        assert f"config error: {cfg}:{line}: {message}" in res.output


@pytest.mark.parametrize("eps0, spacing, L", [(4.1, 0.3, 4), (6.0, 0.1, 6)])
def test_spaced_nodes_take_lagrange_weights(tmp_path, eps0, spacing, L):
    head = ("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
            f"scheme.L = {L}\n")
    spaced, listed = tmp_path / "spaced.cfg", tmp_path / "listed.cfg"
    spaced.write_text(head + f"prediction.eps0 = {eps0}\n"
                      f"prediction.spacing = {spacing}\n")
    cfg = load_config(str(spaced))
    assert cfg.weights == tuple(lagrange_weights(cfg.epsilons))
    listed.write_text(head + "prediction.epsilons = "
                      + ", ".join(repr(e) for e in cfg.epsilons) + "\n")
    assert load_config(str(listed)).weights == cfg.weights


@pytest.mark.parametrize("eps0, spacing, message", [
    (4.0, 0.0, "spacing must be positive"),
    (4.0, -0.25, "spacing must be positive"),
    (0.0, 0.25, "epsilon nodes must be nonzero"),
    (-1.0, 0.25, "eps0 = -1.0 < rho = 4"),
])
def test_spaced_nodes_need_positive_eps0_and_spacing(tmp_path, eps0, spacing,
                                                    message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   f"scheme.L = 4\nprediction.eps0 = {eps0}\n"
                   f"prediction.spacing = {spacing}\n")
    # the refusal names the line of the key at fault
    line = 5 if spacing <= 0 else 4
    with pytest.raises(ConfigError, match=rf"bad\.cfg:{line}: {message}"):
        load_config(str(cfg))


def test_builtin_table1_is_the_quartic_r1_config(runner, tmp_path):
    builtin, given = tmp_path / "builtin", tmp_path / "given"
    assert runner.invoke(main, ["table1", "--out", str(builtin),
                                "--quiet"]).exit_code == EXIT_OK
    assert runner.invoke(main, ["table1", "--config",
                                str(CONFIGS / "quartic_r1.cfg"), "--out",
                                str(given), "--quiet"]).exit_code == EXIT_OK
    for name in ("table1.csv", "resolved.cfg"):
        assert (builtin / name).read_bytes() == (given / name).read_bytes()


# exit codes of check-cis and kernels that the shipped configs' comments promise
SHIPPED_EXITS = {
    "cubic_split_cells": (EXIT_NOT_CIS, EXIT_NOT_CIS),
    "quartic_split_cells": (EXIT_OK, EXIT_CONFIG),
    "quartic_r1": (EXIT_OK, EXIT_OK),
    "quartic_r1_chebyshev": (EXIT_OK, EXIT_OK),
    "quartic_hermite": (EXIT_OK, EXIT_OK),
    "db3_r1": (EXIT_OK, EXIT_OK),
}
# the one stderr line of each refusal; every other run writes no stderr
KERNELS_REFUSALS = {
    "cubic_split_cells": "not a complete interpolation set: |det Psi(0.0)|",
    "quartic_split_cells": "kernels would not be compactly supported",
}


def test_shipped_configs_are_all_covered():
    assert {p.stem for p in CONFIGS.glob("*.cfg")} == set(SHIPPED_EXITS)


@pytest.mark.parametrize("name", sorted(SHIPPED_EXITS))
def test_shipped_configs_exit_as_documented(runner, tmp_path, name):
    for sub, want in zip(("check-cis", "kernels"), SHIPPED_EXITS[name]):
        res = runner.invoke(main, [sub, "--config", str(CONFIGS / f"{name}.cfg"),
                                   "--out", str(tmp_path / sub), "--quiet"])
        assert res.exit_code == want, res.output
        reason = KERNELS_REFUSALS.get(name) if sub == "kernels" else None
        if reason is None:
            assert res.stderr == "", res.stderr
        else:
            [line] = res.stderr.splitlines()
            assert reason in line, line
    # a one-cell scheme prints det C, and |det M| needs no circle scan, so
    # no argmin
    text = (tmp_path / "check-cis" / "check_cis.txt").read_text()
    assert ("at x =" in text) == name.endswith("split_cells"), text


SHARED_HELP = [
    ("--config PATH", "flat dotted-key config file  [required]"),
    ("--out DIRECTORY", "output directory  [default: out]"),
    ("--grid INTEGER", "points of the kernels and predict curves  [default: 256]"),
    ("--quiet", "suppress progress output"),
    ("--help", "Show this message and exit."),
]
# table1's --config is optional: without it, table1 reads its built-in set-up
TABLE1_HELP = [("--config PATH", "optional config overriding the built-in "
                "quartic setup")] + SHARED_HELP[1:]


@pytest.mark.parametrize("sub", ["check-cis", "kernels", "moments", "predict",
                                 "convergence", "table1"])
def test_help_lists_the_shared_options(runner, sub):
    res = runner.invoke(main, [sub, "--help"], terminal_width=200,
                        max_content_width=200)
    assert res.exit_code == EXIT_OK
    body = res.output.split("Options:\n", 1)[1]
    options = [tuple((re.split(r"\s{2,}", line.strip(), maxsplit=1) + [""])[:2])
               for line in body.splitlines()]
    # the whole list: an option cannot be added without editing this test
    assert options == (TABLE1_HELP if sub == "table1" else SHARED_HELP)


@pytest.mark.parametrize("sub", ["convergence", "predict"])
def test_signal_expr_not_finite_is_one_line_on_stderr(tmp_path, sub):
    # sqrt(t) passes the config's probe at t = 0 and 0.5; it used to print
    # numpy's RuntimeWarning and end in a ValueError traceback, exit 1
    cfg = tmp_path / "sqrt.cfg"
    cfg.write_text((CONFIGS / "quartic_r1.cfg").read_text().replace(
        "signal.name = f", "signal.expr = np.sqrt(t)"))
    res = subprocess.run([sys.executable, "-m", "pnspredict.cli", sub, "--config",
                          str(cfg), "--out", str(tmp_path / "o"), "--quiet"],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert res.returncode == EXIT_CONFIG
    [line] = res.stderr.splitlines()
    assert re.fullmatch(r"config error: signal.expr 'np.sqrt\(t\)' is not finite "
                        r"at t = -[0-9.]+: nan", line)


def _assert_out_left_as_found(runner, tmp_path, monkeypatch, args, code):
    """Run `args` into a fresh nested --out and into a used one: each run
    exits `code`, creates no parent of --out, gives back the bytes of what
    it would overwrite, and leaves no staging directory."""
    stages = tmp_path / "stages"
    stages.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(stages))
    fresh = tmp_path / "fresh"
    res = runner.invoke(main, [*args, "--out", str(fresh / "a" / "b")])
    assert res.exit_code == code
    assert not fresh.exists()
    # resolved.cfg would otherwise echo the run that did not finish
    used = tmp_path / "used"
    used.mkdir()
    (used / "notes.txt").write_text("kept\n")
    (used / "resolved.cfg").write_text("# an earlier run's\n")
    before = {p.name: p.read_bytes() for p in used.iterdir()}
    res = runner.invoke(main, [*args, "--out", str(used)])
    assert res.exit_code == code
    assert {p.name: p.read_bytes() for p in used.iterdir()} == before
    assert list(stages.iterdir()) == []


@pytest.mark.parametrize("sub", ["predict", "convergence", "table1"])
def test_a_run_refused_in_its_body_leaves_no_new_file(runner, tmp_path,
                                                      monkeypatch, sub):
    # sqrt(t) is refused only once the signal is sampled, after resolved.cfg
    # (and for predict prediction.json) was written
    cfg = tmp_path / "sqrt.cfg"
    cfg.write_text((CONFIGS / "quartic_r1.cfg").read_text().replace(
        "signal.name = f", "signal.expr = np.sqrt(t)"))
    _assert_out_left_as_found(runner, tmp_path, monkeypatch,
                              [sub, "--config", str(cfg)], EXIT_CONFIG)


@pytest.mark.parametrize("sub", ["predict", "convergence", "table1"])
def test_a_run_stopped_by_an_error_leaves_no_new_file(runner, tmp_path,
                                                      monkeypatch, sub):
    # an error no subcommand expects, raised after resolved.cfg (and for
    # predict prediction.json and a trace) was written, exits 1
    def broken(*args, **kwargs):
        raise RuntimeError("lp_error failed")

    monkeypatch.setattr(approximation, "lp_error", broken)
    monkeypatch.setattr(cli, "lp_error", broken)
    _assert_out_left_as_found(runner, tmp_path, monkeypatch,
                              [sub, "--config", str(CONFIGS / "quartic_r1.cfg")],
                              1)


def test_a_w_list_beyond_the_quadrature_bound_is_refused(runner, tmp_path,
                                                          monkeypatch):
    # the built-in f spans (-8, 10): W = 3e6 gives 400 W (b - a) = 2.2e10,
    # far above the bound.  Such a W used to end in a MemoryError after
    # resolved.cfg was written; the bound refuses it before any array.
    def unreached(*args, **kwargs):
        raise AssertionError("the run was not refused before the study")

    monkeypatch.setattr(cli, "convergence_study", unreached)
    cfg = tmp_path / "wide_w.cfg"
    cfg.write_text((CONFIGS / "quartic_r1.cfg").read_text().replace(
        "W.list = 5, 7, 10, 15, 20, 25, 30", "W.list = 1e6, 2e6, 3e6"))
    line = next(i for i, row in enumerate(cfg.read_text().splitlines(), 1)
                if row.startswith("W.list"))
    out = tmp_path / "o"
    out.mkdir()
    res = runner.invoke(main, ["convergence", "--config", str(cfg), "--out",
                               str(out)])
    assert res.exit_code == EXIT_CONFIG
    assert res.stderr.splitlines() == [
        f"config error: {cfg}:{line}: signal 'f' spans 18 in t; at W = 3e+06, "
        "400 W (b - a) = 2.2e+10 is above the error quadrature's bound 4194304"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("sub", ["check-cis", "table1"])
def test_an_out_below_a_file_is_a_config_error(runner, tmp_path, monkeypatch, sub):
    # it used to end in a NotADirectoryError traceback, exit 1, once the
    # body had run (table1 computes its whole ladder first)
    blocker = tmp_path / "somefile"
    blocker.write_bytes(b"not a directory\n")
    out = blocker / "sub" / "deeper"
    res = subprocess.run([sys.executable, "-m", "pnspredict.cli", sub, "--config",
                          str(CONFIGS / "quartic_r1.cfg"), "--out", str(out),
                          "--quiet"], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert res.returncode == EXIT_CONFIG
    assert res.stderr.splitlines() == [
        f"config error: --out {out}: {blocker} is not a directory"]
    assert blocker.read_bytes() == b"not a directory\n"
    # refused before the config is resolved, so the body never runs

    def body_ran(*args, **kwargs):
        raise AssertionError("the body ran")

    monkeypatch.setattr(cli, "load_config", body_ran)
    monkeypatch.setattr(cli, "_resolve_config", body_ran)
    res = runner.invoke(main, [sub, "--config", str(CONFIGS / "quartic_r1.cfg"),
                               "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG
    assert blocker.read_bytes() == b"not a directory\n"


@pytest.mark.parametrize("sub", ["check-cis", "kernels", "moments", "predict",
                                 "convergence", "table1"])
def test_a_grid_below_32_is_a_config_error(runner, quartic_cfg, tmp_path, sub):
    for grid in ("16", "-5"):
        res = runner.invoke(main, [sub, "--config", str(quartic_cfg), "--out",
                                   str(tmp_path / "o"), "--grid", grid])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert f"config error: --grid must be >= 32, got {grid}" in res.output
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, code", [("quartic_hermite", EXIT_CONFIG),
                                        ("quartic_r1_chebyshev", EXIT_OK)])
def test_table1_refuses_offsets_it_would_replace(runner, tmp_path, name, code):
    cfg = CONFIGS / f"{name}.cfg"
    res = runner.invoke(main, ["table1", "--config", str(cfg), "--out",
                               str(tmp_path / "t"), "--quiet"])
    assert res.exit_code == code, res.output
    if code == EXIT_CONFIG:
        assert f"config error: {cfg}: " in res.output
        assert "give scheme.offset_mode" in res.output
        assert not (tmp_path / "t").exists()


_MODE = "generator.order = 4\nscheme.offset_mode = equally_spaced\nscheme.L = 4\n"
_OFFSETS = "generator.order = 4\nscheme.offsets = 0, 0.25, 0.5, 0.75\n"


# One case per ConfigError branch: (subcommand, config text, line of the
# offending key or None where the message names no line, message).
CONFIG_ERRORS = {
    "offsets_and_mode": ("check-cis", _OFFSETS + "scheme.offset_mode = chebyshev\n",
                         3, "give either scheme.offsets or scheme.offset_mode"),
    "unknown_mode": ("check-cis", "generator.order = 4\nscheme.L = 4\n"
                     "scheme.offset_mode = spread\n", 3,
                     "unknown offset mode 'spread'"),
    "mode_without_L": ("check-cis", "generator.order = 4\n"
                       "scheme.offset_mode = chebyshev\n", 2,
                       "scheme.L is required with offset_mode"),
    "L_disagrees": ("check-cis", _OFFSETS + "scheme.L = 3\n", 3,
                    "scheme.L = 3 but 4 offsets given"),
    "s_disagrees": ("check-cis", _OFFSETS + "scheme.s = 1\n", 3,
                    "scheme.s = 1 but offsets lie in cell [0, 1)"),
    "no_offsets": ("check-cis", "generator.order = 4\n", None,
                   "scheme.offsets or scheme.offset_mode is required"),
    "offsets_unordered": ("check-cis", "generator.order = 4\n"
                          "scheme.offsets = 0.5, 0.25\n", 2,
                          "offsets must be strictly increasing"),
    "expr_raises": ("check-cis", _MODE + "signal.expr = np.left_shift(t, 1)\n", 4,
                    "signal.expr failed to evaluate: "),
    "table1_split_cells": ("table1", "generator.order = 4\nscheme.offsets = 0.5, 2.5\n"
                           "scheme.r = 2\n", None, "offsets must lie in one cell"),
    "epsilons_and_eps0": ("predict", _MODE + "prediction.epsilons = 4, 5, 6, 7\n"
                          "prediction.eps0 = 4\n", 5,
                          "give either prediction.epsilons or prediction.eps0"),
    "weights_key_removed": ("predict", _MODE + "prediction.weights = 1, 2\n", 4,
                            "unknown key 'prediction.weights'"),
    "eps0_without_spacing": ("predict", _MODE + "prediction.eps0 = 4\n", 4,
                             "prediction.spacing is required with prediction.eps0"),
    "float_not_a_number": ("convergence", _MODE + "error.p = two\n", 4,
                           "error.p must be a number, got 'two'"),
    "malformed_number_list": ("convergence", _MODE + "W.list = 5, ten, 20\n", 4,
                              "W.list must be a comma-separated number list"),
    "W_zero": ("convergence", _MODE + "W.list = 5, 0, 20\n", 4,
               "all W values must be positive"),
    "p_below_one": ("convergence", _MODE + "error.p = 0.5\n", 4,
                    "error.p must be >= 1"),
    "unknown_signal": ("check-cis", _MODE + "signal.name = nosuch\n", 4,
                       "unknown built-in signal 'nosuch'"),
    "two_signal_keys": ("check-cis", _MODE + "signal.name = f\nsignal.expr = t\n",
                        5, "give only one of signal.name / signal.expr"),
    "unparsable_expr": ("check-cis", _MODE + "signal.expr = t +\n", 4,
                        "signal.expr is not an expression"),
    # numpy used to warn of the division and let the inf through
    "expr_not_finite": ("check-cis", _MODE + "signal.expr = 1/t\n", 4,
                        "signal.expr '1/t' is not finite at t = 0: inf"),
    "unknown_kind": ("kernels", "generator.kind = wavelet\n" + _MODE, 1,
                     "unknown generator kind 'wavelet'"),
    "order_zero": ("kernels", _MODE.replace("order = 4", "order = 0"), 1,
                   "B-spline order must be an integer >= 1, got 0"),
    "db3_r2": ("check-cis", "generator.kind = daubechies\ngenerator.order = 3\n"
               "scheme.offset_mode = equally_spaced\nscheme.L = 2\nscheme.r = 2\n",
               5, "scheme needs derivatives up to order 1 but the generator "
               "only provides 0"),
    "level_without_daubechies": ("kernels", "generator.level = 8\n" + _MODE, 1,
                                 "generator.level applies only to daubechies"),
    "level_zero": ("kernels", "generator.kind = daubechies\ngenerator.order = 3\n"
                   "scheme.offset_mode = equally_spaced\nscheme.L = 4\n"
                   "generator.level = 0\n", 5,
                   "refinement level must be an integer >= 1, got 0"),
    "spacing_with_epsilons": ("predict", _MODE + "prediction.epsilons = 4, 5, 6, 7\n"
                              "prediction.spacing = 0.25\n", 5,
                              "prediction.spacing applies only with prediction.eps0"),
    "missing_signal_file": ("check-cis", _MODE + "signal.file = {tmp}/absent.csv\n",
                            4, "cannot read signal.file {tmp}/absent.csv: "),
    "ragged_signal_file": ("check-cis", _MODE + "signal.file = {tmp}/ragged.csv\n",
                           4, "cannot read signal.file {tmp}/ragged.csv: the number "
                           "of columns changed"),
    "one_column_signal_file": ("check-cis", _MODE + "signal.file = {tmp}/one.csv\n",
                               4, "cannot read signal.file {tmp}/one.csv: "),
    "header_only_signal_file": ("check-cis", _MODE + "signal.file = {tmp}/header.csv\n",
                                4, "signal.file {tmp}/header.csv has no data rows"),
    "unsorted_signal_file": ("check-cis", _MODE + "signal.file = {tmp}/unsorted.csv\n",
                             4, "the t column of signal.file {tmp}/unsorted.csv is "
                             "not strictly increasing: 1 then 0"),
    # a NaN used to run through to errors of nan, exit 0, "noise floor"
    "nan_in_signal_file": ("convergence", _MODE + "signal.file = {tmp}/nan.csv\n", 4,
                           "signal.file {tmp}/nan.csv holds a value that is not "
                           "finite in data row 2: t = 0.5, f = nan"),
    "inf_in_signal_file": ("check-cis", _MODE + "signal.file = {tmp}/inf.csv\n", 4,
                           "signal.file {tmp}/inf.csv holds a value that is not "
                           "finite in data row 3: t = inf, f = 3"),
    # a file is scored over its whole span, and lp_error's cost grows with it
    "long_signal_file": ("predict", _MODE + "signal.file = {tmp}/long.csv\n", 4,
                         "signal.file {tmp}/long.csv spans 10000 in t; at W = 30, "
                         "400 W (b - a) = 1.2e+08 is above the error "
                         "quadrature's bound 4194304"),
}


def _write_signal_files(tmp_path):
    (tmp_path / "ragged.csv").write_text("t,v\n0,1\n1,2,3\n")
    (tmp_path / "one.csv").write_text("t\n0\n1\n")
    (tmp_path / "header.csv").write_text("t,v\n")
    (tmp_path / "unsorted.csv").write_text("t,v\n1,1\n0,0\n2,4\n")
    (tmp_path / "nan.csv").write_text("t,v\n0,1\n0.5,nan\n1,2\n")
    (tmp_path / "inf.csv").write_text("t,v\n0,1\n1,2\ninf,3\n")
    (tmp_path / "long.csv").write_text("t,v\n0,0\n10000,0\n")


# Nodes that give no causal predictor, on the line of their key: (config
# text, line, message).  Every subcommand resolves the nodes it is given.
NODE_ERRORS = {
    "count": (_MODE + "prediction.epsilons = 4, 5, 6\n", 4,
              "need exactly rho = 4 epsilon nodes, got 3"),
    "eps0_below_rho": (_MODE + "prediction.eps0 = 2\nprediction.spacing = 0.25\n",
                       4, "eps0 = 2.0 < rho = 4: shifted kernels would not be causal"),
    "unordered": (_MODE + "prediction.epsilons = 4, 6, 5, 7\n", 4,
                  "epsilon nodes must be strictly increasing"),
}


@pytest.mark.parametrize("case", sorted(NODE_ERRORS))
@pytest.mark.parametrize("sub", ["check-cis", "kernels", "moments", "predict",
                                 "convergence", "table1"])
def test_every_subcommand_refuses_nodes_on_their_line(runner, tmp_path, sub, case):
    text, line, message = NODE_ERRORS[case]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    res = runner.invoke(main, [sub, "--config", str(cfg),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert res.stderr == f"config error: {cfg}:{line}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_errors_name_the_offending_line(runner, tmp_path, case):
    sub, text, line, message = CONFIG_ERRORS[case]
    _write_signal_files(tmp_path)
    text, message = (s.replace("{tmp}", str(tmp_path)) for s in (text, message))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    res = runner.invoke(main, [sub, "--config", str(cfg),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_CONFIG
    where = f"{cfg}" if line is None else f"{cfg}:{line}"
    assert f"config error: {where}: {message}" in res.output


# Numbers that parse but are not finite, by case: (subcommand, config text,
# line of the key, key, value named).  Each used to reach the pipeline: a
# traceback (exit 1) from float's integer ratio or lp_error, or a refusal
# (exit 2) that named another rule.
NOT_FINITE = {
    "W_inf": ("convergence", _MODE + "W.list = inf\n", 4, "W.list", "inf"),
    "W_nan": ("convergence", _MODE + "W.list = nan\n", 4, "W.list", "nan"),
    "p_nan": ("convergence", _MODE + "error.p = nan\n", 4, "error.p", "nan"),
    "p_inf": ("convergence", _MODE + "error.p = inf\n", 4, "error.p", "inf"),
    "epsilons_inf": ("predict", _MODE + "prediction.epsilons = 4, 5, 6, inf\n", 4,
                     "prediction.epsilons", "inf"),
    "eps0_inf": ("predict", _MODE + "prediction.eps0 = inf\n"
                 "prediction.spacing = 0.25\n", 4, "prediction.eps0", "inf"),
    "offsets_nan": ("check-cis", "generator.order = 4\n"
                    "scheme.offsets = 0, 0.25, nan, 0.75\n", 2, "scheme.offsets",
                    "nan"),
}


@pytest.mark.parametrize("case", sorted(NOT_FINITE))
def test_config_numbers_must_be_finite(runner, tmp_path, case):
    sub, text, line, key, value = NOT_FINITE[case]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    out.mkdir()
    (out / "kept.txt").write_text("kept\n")
    res = runner.invoke(main, [sub, "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert (f"config error: {cfg}:{line}: {key} must be a finite number, "
            f"got {value!r}") in res.output
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert (out / "kept.txt").read_text() == "kept\n"


def test_header_only_signal_file_is_one_line_on_stderr(tmp_path):
    # numpy warns of the empty table on stderr before the refusal
    _write_signal_files(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_MODE + f"signal.file = {tmp_path}/header.csv\n")
    res = subprocess.run([sys.executable, "-m", "pnspredict.cli", "check-cis",
                          "--config", str(cfg), "--out", str(tmp_path / "o")],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert res.returncode == EXIT_CONFIG
    assert res.stderr.splitlines() == [
        f"config error: {cfg}:4: signal.file {tmp_path}/header.csv has no data rows"]


def _assert_same_run(again, cfg):
    """Every RunConfig field but the source agrees (generators by descriptor,
    signals by name, window and values)."""
    ts = np.linspace(-8.0, 10.0, 181)
    for field in fields(RunConfig):
        want, got = getattr(cfg, field.name), getattr(again, field.name)
        if field.name == "gen":
            want, got = want.descriptor(), got.descriptor()
        if field.name == "signal":
            want, got = ((sig.name, sig.interval, [d(ts).tolist() for d in sig.derivs])
                         for sig in (want, got))
        if field.name != "source":
            assert got == want, field.name


# configs whose signal is not built in, by the line that gives it
SIGNAL_LINES = {"expr": "signal.expr = np.cos(t) * np.exp(-t * t / 9)",
                "file": "signal.file = {tmp}/pulse.csv"}


@pytest.mark.parametrize("name", sorted(SHIPPED_EXITS) + sorted(SIGNAL_LINES))
def test_resolved_cfg_reloads_to_the_same_run(runner, tmp_path, name):
    path = CONFIGS / f"{name}.cfg"
    if name in SIGNAL_LINES:
        ts = np.linspace(-3.0, 4.0, 57)
        write_csv(tmp_path / "pulse.csv", ["t", "v"],
                  zip(ts.tolist(), np.cos(ts).tolist()))
        path = tmp_path / f"{name}.cfg"
        path.write_text(QUARTIC_CFG.replace(
            "signal.name = f", SIGNAL_LINES[name].format(tmp=tmp_path)))
    out = tmp_path / "out"
    res = runner.invoke(main, ["check-cis", "--config", str(path), "--out",
                               str(out), "--quiet"])
    assert res.exit_code in (EXIT_OK, EXIT_NOT_CIS), res.output
    _assert_same_run(load_config(str(out / "resolved.cfg")),
                     load_config(str(path)))


def test_a_cis_whose_kernels_leave_the_cell_is_refused_by_name(runner, tmp_path):
    # Q3 with its derivative at the knot 0 is a CIS (Psi = M z), but each
    # kernel needs phi(t + 2), left of the shifts -1..0 of the cell [0, 1)
    cfg = tmp_path / "knot.cfg"
    cfg.write_text("generator.order = 3\nscheme.offsets = 0\nscheme.r = 2\n")
    res = runner.invoke(main, ["check-cis", "--config", str(cfg), "--out",
                               str(tmp_path / "c"), "--quiet"])
    assert res.exit_code == EXIT_OK, res.output
    res = runner.invoke(main, ["kernels", "--config", str(cfg), "--out",
                               str(tmp_path / "k"), "--quiet"])
    assert res.exit_code == EXIT_CONFIG
    assert res.stderr.splitlines() == [
        f"config error: {cfg}: the kernels would need phi(t - k) at k = -2, "
        "outside the shifts -1..0 that offsets in the cell [0, 1) allow; "
        "choose other scheme.offsets or scheme.r"]
    assert not (tmp_path / "k").exists()


def test_table1_builtin_resolved_cfg_reloads_to_the_same_run(runner, tmp_path):
    # resolved.cfg records the nodes only; they give back the same weights
    res = runner.invoke(main, ["table1", "--out", str(tmp_path), "--quiet"])
    assert res.exit_code == EXIT_OK, res.output
    assert "weights" not in (tmp_path / "resolved.cfg").read_text()
    _assert_same_run(load_config(str(tmp_path / "resolved.cfg")),
                     _resolve_config(*_TABLE1_BUILTIN))


def test_signal_file_is_scored_on_its_own_span(runner, tmp_path):
    # One pulse tabulated on [15, 45] and the same rows moved by -29, a
    # multiple of rho / W = 0.2: the sampling lattice moves with them, so
    # the errors agree.  A fixed window (-8, 10) read the first as 0.0.
    ts = 15.0 + np.arange(481) / 16.0
    vs = np.exp(-(ts - 30.0) ** 2 / 16.0) * np.sin(2.0 * np.pi * (ts - 30.0) / 3.0)
    errors = []
    for shift in (0.0, -29.0):
        data = tmp_path / f"pulse{shift:+g}.csv"
        write_csv(data, ["t", "v"], zip((ts + shift).tolist(), vs.tolist()))
        cfg = tmp_path / "pulse.cfg"
        cfg.write_text(QUARTIC_CFG.replace("signal.name = f",
                                           f"signal.file = {data}"))
        assert load_config(str(cfg)).signal.interval == (15.0 + shift, 45.0 + shift)
        out = tmp_path / f"out{shift:+g}"
        res = runner.invoke(main, ["predict", "--config", str(cfg), "--out",
                                   str(out), "--quiet"])
        assert res.exit_code == EXIT_OK, res.output
        errors.append(float((out / "errors.csv").read_text().split(",")[-1]))
    assert errors[0] > 0.0
    assert errors[0] == pytest.approx(errors[1], rel=1e-9)


def test_readme_names_every_public_name():
    # a public name leaves __init__ only together with its README entry
    text = (ROOT / "README.md").read_text()
    assert [name for name in pnspredict.__all__
            if not re.search(rf"\b{name}\b", text)] == []


def test_readme_key_table_is_the_config_key_table():
    section = (ROOT / "README.md").read_text().split("### Config format\n")[1]
    section = section.split("\n## ")[0]
    keys = [key for row in section.splitlines() if row.startswith("|")
            for key in re.findall(r"`([\w]+\.[\w.]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(_KEYS)
