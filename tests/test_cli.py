import io
import json
import subprocess
import sys

import numpy as np
import pytest

from susypiv import cli
from susypiv.cli import RunConfig, run


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestPotentialCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "pot.csv"
        config = RunConfig(
            command="potential", epsilon_re=-1.0, epsilon_im=1.0, lam=1.0, kappa=1.0,
            output_path=str(out),
        )
        assert run(config) == 0
        header, rows = _read_csv(out)
        assert header == ["x", "re", "im", "re_v", "im_v"]
        assert len(rows) == 1001
        values = np.array([[float(v) for v in row] for row in rows])
        assert np.all(np.isfinite(values))
        # Imaginary part genuinely nonzero, and the edges approach x^2 - 2.
        assert np.max(np.abs(values[:, 2])) > 1e-3
        assert abs(values[-1, 1] - (25.0 - 2.0)) <= 0.3

    def test_byte_stability(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            config = RunConfig(
                command="potential", epsilon_re=3.0, epsilon_im=1e-3, lam=2.0, kappa=2.0,
                output_path=str(out),
            )
            assert run(config) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestPivCommand:
    def test_json_embeds_config(self, tmp_path):
        out = tmp_path / "g.json"
        config = RunConfig(
            command="piv", epsilon_re=1.0, epsilon_im=1.0, lam=3.0, kappa=1.0,
            family=3, output_path=str(out), format="json",
        )
        assert run(config) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["lambda"] == 3.0
        assert payload["config"]["family"] == 3
        assert payload["config"]["command"] == "piv"
        row = payload["rows"][0]
        assert set(row) == {"x", "re", "im", "re_residual", "im_residual"}

    def test_residual_column_is_small(self, tmp_path):
        out = tmp_path / "g.csv"
        config = RunConfig(
            command="piv", epsilon_re=4.0, epsilon_im=0.5, lam=1.0, kappa=1.0,
            family=2, output_path=str(out),
        )
        assert run(config) == 0
        _, rows = _read_csv(out)
        resid = np.array([[float(row[3]), float(row[4])] for row in rows])
        assert np.max(np.abs(resid)) <= 1e-6


class TestSpectrumCommand:
    def test_flags(self, tmp_path):
        out = tmp_path / "spec.csv"
        config = RunConfig(
            command="spectrum", epsilon_re=3.0, epsilon_im=1e-3, n_max=2,
            output_path=str(out),
        )
        assert run(config) == 0
        header, rows = _read_csv(out)
        assert header == ["index", "re", "im", "off_real_axis", "degenerate"]
        assert rows[0][1:] == ["3", "0.001", "true", "false"]
        assert [row[1] for row in rows[1:]] == ["1", "3", "5"]

    def test_degenerate_flagging(self, tmp_path):
        out = tmp_path / "spec.csv"
        config = RunConfig(command="spectrum", epsilon_re=1.0, n_max=1, output_path=str(out))
        assert run(config) == 0
        _, rows = _read_csv(out)
        # epsilon row and the duplicated E_0 row both carry the flag.
        assert rows[0][4] == "true"
        assert rows[1][4] == "true"
        assert rows[2][4] == "false"


class TestExtremalCommand:
    def test_finite_and_nonconstant(self, tmp_path):
        out = tmp_path / "ext.csv"
        config = RunConfig(
            command="extremal", epsilon_re=-1.0, epsilon_im=1.0, lam=1.0, kappa=1.0,
            family=2, output_path=str(out),
        )
        assert run(config) == 0
        _, rows = _read_csv(out)
        values = np.array([[float(v) for v in row] for row in rows])
        assert np.all(np.isfinite(values))
        assert np.ptp(values[:, 1]) > 0 and np.ptp(values[:, 2]) > 0


class TestVerifyCommand:
    def test_single_set_passes(self, capsys):
        config = RunConfig(
            command="verify", epsilon_re=-1.0, epsilon_im=1.0, lam=1.0, kappa=1.0,
            step=0.05,
        )
        assert run(config) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any("PASS" in line for line in lines)
        assert lines[-1].startswith("verify:")

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        config = RunConfig(
            command="verify", epsilon_re=-1.0, epsilon_im=1.0, lam=1.0, kappa=1.0,
            step=0.05, output_path=str(out),
        )
        assert run(config) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["reports"]
        assert all(entry.get("passed", True) for entry in payload["reports"])

    def test_degenerate_seed_saturates(self, capsys):
        config = RunConfig(command="verify", epsilon_re=-1.0, step=0.05)
        assert run(config) == 3
        assert "SATURATED" in capsys.readouterr().out

    def test_all_benchmark_sets_pass(self, capsys):
        # Full default-grid sweep over every built-in parameter set.
        assert run(RunConfig(command="verify", run_all=True)) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "SATURATED" not in out
        assert out.strip().splitlines()[-1].endswith("0 failed, 0 saturated")

    def test_threshold_failure_exits_one(self, monkeypatch, capsys):
        from susypiv.verify import ResidualReport

        def inflated(kind, params, grid, n=None, h=None):
            return ResidualReport(
                kind=kind if kind != "eigen" else f"eigen({n})",
                max_relative=1.0, mean_relative=0.5, excluded_points=(), grid=grid,
            )

        monkeypatch.setattr(cli.verify, "residual_report", inflated)
        config = RunConfig(command="verify", epsilon_re=-1.0, epsilon_im=1.0, step=0.05)
        assert run(config) == 1
        assert "FAIL" in capsys.readouterr().out


WIDE_VERIFY_ARGV = [
    "verify", "--epsilon-re", "21", "--epsilon-im", "0.5", "--lambda", "1", "--kappa", "1",
    "--xmin", "-7", "--xmax", "7",
]
WIDE_VERIFY_KINDS = [
    "schrodinger", "riccati", "piv_family_1", "piv_family_2", "piv_family_3",
    "eigen(0)", "eigen(1)", "eigen(2)", "eigen(3)", "new_state",
    pytest.param(
        "annihilation",
        marks=pytest.mark.xfail(
            strict=True,
            reason="nested finite-difference stencil noise (about 2.6e-5 against 1e-5)",
        ),
    ),
]


@pytest.fixture(scope="module")
def wide_verify_lines():
    # z = x**2 reaches 49 on the +-7 grid, with Re eps = 21.
    stream = io.StringIO()
    run(cli.config_from_args(cli.build_parser().parse_args(WIDE_VERIFY_ARGV)), stream)
    return {line.split()[3]: line for line in stream.getvalue().splitlines()[:-1]}


@pytest.mark.parametrize("kind", WIDE_VERIFY_KINDS)
def test_wide_grid_large_epsilon_report_passes(wide_verify_lines, kind):
    assert wide_verify_lines[kind].endswith("PASS"), wide_verify_lines[kind]


def test_overflow_is_one_error_line(tmp_path):
    # z = 27**2 = 729 lies past the double-range limit of 1F1 near z = 709.
    proc = subprocess.run(
        [sys.executable, "-m", "susypiv.cli", "potential", "--epsilon-re", "-1",
         "--epsilon-im", "1", "--lambda", "1", "--kappa", "1", "--xmin", "-27",
         "--xmax", "27", "--output", str(tmp_path / "pot.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "overflowed" in lines[0], proc.stderr
    assert "RuntimeWarning" not in proc.stderr


class TestValidation:
    def test_missing_family(self, tmp_path):
        config = RunConfig(command="piv", output_path=str(tmp_path / "x.csv"))
        assert run(config) == 2

    def test_missing_output(self):
        assert run(RunConfig(command="potential")) == 2

    def test_bad_grid(self, tmp_path):
        config = RunConfig(
            command="potential", xmin=2.0, xmax=-2.0, output_path=str(tmp_path / "x.csv")
        )
        assert run(config) == 2

    def test_bad_format(self, tmp_path):
        config = RunConfig(
            command="potential", output_path=str(tmp_path / "x.csv"), format="yaml"
        )
        assert run(config) == 2

    def test_unwritable_output(self):
        config = RunConfig(command="potential", output_path="/nonexistent/dir/x.csv")
        assert run(config) == 2

    def test_parser_requires_family(self):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(["piv", "--output", "x.csv"])
        assert err.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "spec.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "susypiv.cli", "spectrum", "--epsilon-re", "2",
         "--epsilon-im", "0.25", "--n-max", "1", "--output", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("index,re,im,off_real_axis,degenerate")
