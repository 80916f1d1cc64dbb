import numpy as np
import pytest
from click.testing import CliRunner

from pnspredict.cli import (DEFAULT_W, EXIT_CONFIG, EXIT_NOT_CIS, EXIT_OK,
                            ConfigError, load_config, main, parse_config_text,
                            write_csv)

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
    assert "prediction.weights = 969.0, -2736.0, 2584.0, -816.0" in resolved


def test_check_cis_rejects_split_cells(runner, tmp_path):
    cfg = tmp_path / "split.cfg"
    cfg.write_text("generator.kind = bspline\ngenerator.order = 3\n"
                   "scheme.offsets = 0.5, 2.5\nscheme.r = 2\n")
    res = runner.invoke(main, ["check-cis", "--config", str(cfg),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == EXIT_NOT_CIS
    assert "not a CIS of order 1" in res.output


def test_rho_mismatch_is_a_config_error(runner, tmp_path):
    cfg = tmp_path / "badrho.cfg"
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   "scheme.L = 4\nscheme.rho = 5\n")
    res = runner.invoke(main, ["check-cis", "--config", str(cfg),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == EXIT_CONFIG
    assert "scheme.rho = 5 but L*r = 4" in res.output


def test_kernels_command_writes_tables(runner, quartic_cfg, tmp_path):
    out = tmp_path / "k"
    res = runner.invoke(main, ["kernels", "--config", str(quartic_cfg),
                               "--out", str(out), "--grid", "64"])
    assert res.exit_code == EXIT_OK
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


def test_predict_reloads_saved_kernels_bitwise(runner, quartic_cfg, tmp_path):
    kdir, fresh = tmp_path / "k", tmp_path / "fresh"
    assert runner.invoke(main, ["kernels", "--config", str(quartic_cfg),
                                "--out", str(kdir), "--quiet"]).exit_code == 0
    assert runner.invoke(main, ["predict", "--config", str(quartic_cfg),
                                "--out", str(fresh), "--grid", "64",
                                "--quiet"]).exit_code == 0
    for saved in (kdir / "kernels.json", fresh / "prediction.json"):
        reload_ = tmp_path / f"reload_{saved.stem}"
        assert runner.invoke(main, ["predict", "--config", str(quartic_cfg),
                                    "--out", str(reload_), "--grid", "64",
                                    "--quiet", "--kernels", str(saved)
                                    ]).exit_code == 0
        for name in ("trace_W20.csv", "errors.csv", "prediction.json"):
            assert (fresh / name).read_bytes() == (reload_ / name).read_bytes()


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
    res = runner.invoke(main, ["predict", "--config", str(cfg),
                               "--out", str(tmp_path / "p")])
    assert res.exit_code == EXIT_CONFIG
    assert "prediction.epsilons" in res.output


def test_signal_expression_config(runner, tmp_path):
    cfg = tmp_path / "expr.cfg"
    cfg.write_text("generator.order = 4\nscheme.offset_mode = equally_spaced\n"
                   "scheme.L = 4\nsignal.expr = np.cos(t)\nW.list = 20\n")
    assert load_config(str(cfg)).signal.eval(0.0) == 1.0
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
