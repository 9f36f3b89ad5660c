import hashlib
import importlib
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from susypiv import AllPointsExcluded, cli, grid, seed_eval_grid, verify
from susypiv.cli import RunConfig, run
from susypiv.grid import singular

from conftest import oracle_seed


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

    def test_degenerate_family_writes_nothing(self, tmp_path, capsys):
        # eps = -1, lam = kappa = 0: beta' - 1 is rounding noise at every
        # point, so every row of family 1 is singular (verify: SATURATED).
        out = tmp_path / "g.csv"
        config = RunConfig(command="piv", epsilon_re=-1.0, family=1, output_path=str(out))
        assert run(config) == 3
        assert "no non-singular points on the grid" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_rows_are_dropped(self, tmp_path):
        # eps = 1, lam = kappa = 0: u = e^{-x^2/2}, so x + beta, family 2's
        # denominator, vanishes to rounding level wherever beta is exact.
        out = tmp_path / "g.csv"
        config = RunConfig(command="piv", epsilon_re=1.0, family=2, output_path=str(out))
        assert run(config) == 0
        _, rows = _read_csv(out)
        xs = np.array([float(row[0]) for row in rows])
        _, _, beta, beta_p = seed_eval_grid(config.params(), xs)
        assert 0 < xs.size < config.grid().n_points
        assert not bool(np.any(singular(np.abs(xs + beta), 1.0 + np.abs(1.0 + beta_p))))


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

        def inflated(kind, params, grid, n=None):
            return ResidualReport(
                kind=kind if kind != "eigen" else f"eigen({n})",
                max_relative=1.0, mean_relative=0.5, excluded_points=(), grid=grid,
            )

        monkeypatch.setattr(verify, "residual_report", inflated)
        config = RunConfig(command="verify", epsilon_re=-1.0, epsilon_im=1.0, step=0.05)
        assert run(config) == 1
        assert "FAIL" in capsys.readouterr().out


def test_saturated_eigen_reports_keep_their_level(monkeypatch, tmp_path):
    # The SATURATED line and JSON entry of each eigen level used to read
    # plain "eigen" four times.
    original = verify.residual_report

    def saturate_eigen(kind, params, grid, n=None):
        if kind == "eigen":
            raise AllPointsExcluded(f"eigen({n}): every grid point is singular")
        return original(kind, params, grid, n=n)

    monkeypatch.setattr(verify, "residual_report", saturate_eigen)
    out = tmp_path / "report.json"
    config = RunConfig(
        command="verify", epsilon_re=-1.0, epsilon_im=1.0, lam=1.0, kappa=1.0,
        step=0.05, output_path=str(out),
    )
    stream = io.StringIO()
    assert run(config, stream) == 3
    saturated = [line.split()[3] for line in stream.getvalue().splitlines() if "SATURATED" in line]
    assert saturated == ["eigen(0)", "eigen(1)", "eigen(2)", "eigen(3)"]
    entries = json.loads(out.read_text())["reports"]
    assert [e["kind"] for e in entries if e.get("saturated")] == saturated


def test_annihilated_eigen_level_is_reported_not_failed(tmp_path):
    # eps = 5 = E_2 with lambda = kappa = 0: u is proportional to psi_2, so
    # -psi_2' + beta psi_2 vanishes identically.  eigen(2) used to FAIL here
    # at 7.5e-5, a residual relative to a state at rounding level.
    out = tmp_path / "report.json"
    stream = io.StringIO()
    assert run(RunConfig(command="verify", epsilon_re=5.0, output_path=str(out)), stream) == 0
    lines = stream.getvalue().splitlines()
    annihilated = [line for line in lines if "ANNIHILATED" in line]
    assert [line.split()[3] for line in annihilated] == ["eigen(2)"]
    assert sum(line.endswith("PASS") for line in lines) == 10
    assert lines[-1] == "verify: 11 reports, 0 failed, 0 saturated"
    entries = json.loads(out.read_text())["reports"]
    assert [e for e in entries if e.get("annihilated")] == [
        {"params": "eps=5+0i lam=0 kappa=0", "kind": "eigen(2)", "annihilated": True}
    ]


def test_verify_report_replaces_the_output_only_when_written(monkeypatch, tmp_path, capsys):
    # The report goes to a temporary file that replaces --output: a failed
    # replace leaves an earlier report as it was and no temporary file.
    out = tmp_path / "report.json"
    out.write_text("an earlier report\n")

    def failing(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(cli.os, "replace", failing)
    config = RunConfig(command="verify", step=0.05, output_path=str(out))
    assert run(config, io.StringIO()) == 2
    assert "replace failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == "an earlier report\n"
    monkeypatch.undo()
    assert run(config, io.StringIO()) == 0
    assert list(tmp_path.iterdir()) == [out]
    assert len(json.loads(out.read_text())["reports"]) == 11


def test_level_energy_off_the_degenerate_seed_is_checked():
    # eps = 5 with lambda = 1: u is not proportional to psi_2, so eigen(2) is
    # an ordinary check.
    stream = io.StringIO()
    assert run(RunConfig(command="verify", epsilon_re=5.0, lam=1.0), stream) == 0
    out = stream.getvalue()
    assert "ANNIHILATED" not in out
    assert [line for line in out.splitlines() if "eigen(2)" in line][0].endswith("PASS")


# (Re eps, Im eps, lambda, kappa) of +-7 verify runs: 21+0.5i, then the sets
# the wide_domain benchmark draws for its seeds 1, 8, 13 and 37.
WIDE_VERIFY_SETS = [
    ("21", "0.5", "1", "1"),
    ("21.9257", "0.3725", "1.073", "0.562"),
    ("20.1194", "0.631", "1.469", "1.003"),
    ("20.2682", "0.5542", "1.193", "0.848"),
    ("20.9295", "0.3461", "0.936", "0.731"),
]
WIDE_VERIFY_KINDS = [
    "schrodinger", "riccati", "piv_family_1", "piv_family_2", "piv_family_3",
    "eigen(0)", "eigen(1)", "eigen(2)", "eigen(3)", "new_state", "annihilation",
]


@pytest.fixture(scope="module")
def wide_verify_lines():
    # z = x**2 reaches 49 on the +-7 grid, with Re eps near 21.
    lines = {}
    for re, im, lam, kappa in WIDE_VERIFY_SETS:
        argv = [
            "verify", "--epsilon-re", re, "--epsilon-im", im, "--lambda", lam,
            "--kappa", kappa, "--xmin", "-7", "--xmax", "7",
        ]
        stream = io.StringIO()
        run(cli.config_from_args(cli.build_parser().parse_args(argv)), stream)
        for line in stream.getvalue().splitlines()[:-1]:
            lines.setdefault(line.split()[3], []).append(line)
    return lines


@pytest.mark.parametrize("kind", WIDE_VERIFY_KINDS)
def test_wide_grid_large_epsilon_report_passes(wide_verify_lines, kind):
    assert len(wide_verify_lines[kind]) == len(WIDE_VERIFY_SETS)
    for line in wide_verify_lines[kind]:
        assert line.endswith("PASS"), line


def test_overflow_is_one_error_line(tmp_path):
    # u grows like exp(x**2/2); for eps = -1+i its Taylor chain leaves the
    # double range near |x| = 36.6, inside the +-40 grid.
    proc = subprocess.run(
        [sys.executable, "-m", "susypiv.cli", "potential", "--epsilon-re", "-1",
         "--epsilon-im", "1", "--lambda", "1", "--kappa", "1", "--xmin", "-40",
         "--xmax", "40", "--output", str(tmp_path / "pot.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "overflowed" in lines[0], proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_epsilon_past_the_double_range_is_one_error_line(capsys):
    # |eps| passes the double range (Python's abs raises OverflowError), and
    # so would the seed's c_4 = eps^2 / 24: the usual overflow error.
    config = RunConfig(command="verify", epsilon_re=1.5e308, epsilon_im=1.5e308)
    assert run(config, io.StringIO()) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["error: seed u overflowed the double range at x = 0"]


# Past |lambda + i kappa| of about 1.3e154, beta(0)^2 overflows the double
# range; at 1e300 on a grid of width 1e-300 every report saturates.
HUGE_SEED_DATA = [("potential", None)] + [(c, f) for c in ("piv", "extremal") for f in (1, 2, 3)]


@pytest.mark.parametrize("command,family", HUGE_SEED_DATA)
def test_huge_seed_data_command_warns_nothing(tmp_path, capsys, command, family):
    config = RunConfig(command=command, family=family, lam=1e200, output_path=str(tmp_path / "o.csv"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(config) == 0
    assert [str(w.message) for w in caught] == [] and capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "overrides", [{"lam": 1e200}, {"lam": 1e300, "xmin": 0.0, "xmax": 1e-300, "step": 1e-301}]
)
def test_huge_seed_verify_warns_nothing(capsys, overrides):
    # The exit status is left open: at 1e200 schrodinger fails a correct
    # seed beside u's zero near x = 0 (CHANGES.md, FOUND line).
    stream = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(RunConfig(command="verify", **overrides), stream)
    assert [str(w.message) for w in caught] == [] and capsys.readouterr().err == ""
    lines = stream.getvalue().splitlines()
    assert [line.split()[3] for line in lines[:-1]] == [label for _, _, label in verify.report_plan()]


def test_potential_past_the_1f1_overflow_limit_matches_oracle(tmp_path):
    # z = 27**2 = 729 lies past the double-range limit of the 1F1 series near
    # z = 709, which used to end this run with exit 2.
    out = tmp_path / "pot.csv"
    config = RunConfig(
        command="potential", epsilon_re=-1.0, epsilon_im=1.0, lam=1.0, kappa=1.0,
        xmin=-27.0, xmax=27.0, step=0.75, output_path=str(out),
    )
    assert run(config) == 0
    _, rows = _read_csv(out)
    values = np.array([[float(v) for v in row] for row in rows])
    assert values.shape == (73, 5)
    params = config.params()
    for x, re, im in values[:, :3]:
        # V~ = x^2 - 2 beta' = 2 beta^2 + 2 eps - x^2 with beta = u'/u.
        u, up = oracle_seed(params, x)
        want = 2.0 * (up / u) ** 2 + 2.0 * params.epsilon - x * x
        assert abs(complex(re, im) - want) <= 1e-12 * abs(want), (x, complex(re, im), want)


@pytest.mark.parametrize("lam", [-1.1283791670955123, -1.1283791670955126])
def test_recessive_real_seed_verify_is_clean(lam):
    # eps = -1 with the real-reduction lambda, -2/sqrt(pi): the second value
    # is real_case_lambda(-1, -1), the double nearest it, and the first is the
    # adjacent double: u decays on +x.  The 1F1 seed leaked RuntimeWarnings
    # here and failed 8 of 11 reports; at the second value it stopped with
    # "1F1 input is not finite" (exit 2).
    from susypiv import real_case_lambda

    assert real_case_lambda(-1.0, -1.0) == -1.1283791670955126
    config = RunConfig(command="verify", epsilon_re=-1.0, lam=lam, xmin=-8.0, xmax=8.0)
    stream = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(config, stream)
    assert code != 2, stream.getvalue()


def test_benchmark_tracer_hooks_install(monkeypatch, tmp_path):
    # bench/spans.py wraps library functions by module attribute, and some of
    # them have no caller in src/, so a cleanup could break only the
    # benchmark.  Import it as bench/selftest.py does.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    data = [
        RunConfig(command="piv", family=1, output_path=str(tmp_path / "g.csv")),
        RunConfig(command="potential", output_path=str(tmp_path / "v.json"), format="json"),
        RunConfig(command="extremal", family=3, output_path=str(tmp_path / "e.csv")),
    ]
    with tracer.installed():
        assert cli.run(RunConfig(command="verify"), io.StringIO()) == 0
        for config in data:
            assert cli.run(config, io.StringIO()) == 0
    assert cli.run.__module__ == "susypiv.cli"  # wrappers removed
    names = {span.name for span in tracer.spans}
    assert {
        "seed.seed_eval_grid", "painleve.family_grid_eval", "painleve.extremal_state_grid",
        "susy.partner_potential", "verify.residual_report", "cli.run",
    } <= names
    # cli.bytes_out of grid_export counts the written files.
    written = [span.attrs["bytes"] for span in tracer.spans if span.name == "cli.run"][1:]
    assert written == [Path(config.output_path).stat().st_size for config in data]


def test_digest_tool_hashes_each_command_of_a_workload(tmp_path, monkeypatch):
    # tools/digest_outputs.py prints one line per command and seed; the
    # verify_suite workload is `verify --all`, digested by its stdout and its
    # JSON report, written as cmd0.json.
    tool = Path(__file__).resolve().parents[1] / "tools" / "digest_outputs.py"
    run_dir, own_dir = tmp_path / "run", tmp_path / "own"
    run_dir.mkdir()
    own_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(tool), "--workload", "verify_suite", "--seeds", "1-2"],
        capture_output=True, text=True, cwd=run_dir,
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(own_dir)
    stream = io.StringIO()
    assert run(RunConfig(command="verify", run_all=True, output_path="cmd0.json"), stream) == 0
    digest = hashlib.sha256(stream.getvalue().encode() + Path("cmd0.json").read_bytes()).hexdigest()
    assert proc.stdout.splitlines() == [
        f"{digest}  seed {s}  #0  exit 0  verify --all --output cmd0.json" for s in (1, 2)
    ]
    assert not list(run_dir.iterdir())


def test_digest_tool_runs_every_workload_for_all(tmp_path):
    # --workload all prints the lines of each workload of
    # bench/workloads.WORKLOADS in turn, as one run per workload does, and
    # then the 24 lines of spectrum.
    tool = Path(__file__).resolve().parents[1] / "tools" / "digest_outputs.py"

    def lines(workload):
        proc = subprocess.run(
            [sys.executable, str(tool), "--workload", workload, "--seeds", "1"],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    each = [lines(w) for w in ("verify_suite", "grid_export", "wide_domain", "spectrum")]
    assert all(each) and lines("all") == sum(each, [])
    assert len(each[-1]) == 24
    assert not list(tmp_path.iterdir())


def test_digest_tool_hashes_each_spectrum_command(tmp_path, monkeypatch):
    # --workload spectrum digests spectrum at 4 epsilons x 3 n_max x CSV/JSON,
    # once, whatever the seeds; each line is the hash of the file that the
    # same command writes.
    tool = Path(__file__).resolve().parents[1] / "tools" / "digest_outputs.py"
    run_dir, own_dir = tmp_path / "run", tmp_path / "own"
    run_dir.mkdir()
    own_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(tool), "--workload", "spectrum", "--seeds", "1-2"],
        capture_output=True, text=True, cwd=run_dir,
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(own_dir)
    got = proc.stdout.splitlines()
    cases = set()
    for i, line in enumerate(got):
        digest, seed, index, code, command = line.split("  ")
        assert (seed, index, code) == ("seed -", f"#{i}", "exit 0")
        argv = command.split()
        assert run(cli.config_from_args(cli.build_parser().parse_args(argv))) == 0
        assert digest == hashlib.sha256(Path(argv[-1]).read_bytes()).hexdigest()
        cases.add(tuple(argv[1:-2]))
    assert len(got) == len(cases) == 24
    assert not list(run_dir.iterdir())


def test_rows_timing_tool_times_each_data_command(tmp_path):
    # tools/time_rows.py prints one line per data command (wide_domain has
    # one, `potential` on +-26 at step 1e-3; its two verify commands write
    # no data) and the total, and writes no file.
    tool = Path(__file__).resolve().parents[1] / "tools" / "time_rows.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "--workload", "wide_domain"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    command, total = proc.stdout.splitlines()
    ms, unit, rows, _, size, _, name = command.split()[:7]
    assert (unit, rows, name) == ("ms", "52001", "potential") and float(ms) > 0 and int(size) > 0
    assert total.split()[1:] == ["ms", "total"]
    assert not list(tmp_path.iterdir())


# The per-row writer the column writer replaced, kept as the reference its
# output must match byte for byte.
def _reference_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _reference_keep_finite(*columns):
    stacked = np.vstack([np.asarray(c, dtype=float) for c in columns])
    return np.all(np.isfinite(stacked), axis=0)


def _reference_rows(config):
    params = config.params()
    if config.command == "spectrum":
        levels = cli.susy.spectrum(params, config.n_max)
        degenerate = cli.susy.spectrum_degenerate(params, config.n_max)
        return [
            (i, float(v.real), float(v.imag), bool(v.imag != 0.0), bool(degenerate and v == levels[0]))
            for i, v in enumerate(levels)
        ]
    xs = config.grid().points()
    if config.command == "potential":
        vt = cli.susy.partner_potential(params, xs)
        keep = _reference_keep_finite(xs, vt.real, vt.imag)
        return [
            (float(x), float(v.real), float(v.imag), float(x * x), 0.0)
            for x, v in zip(xs[keep], vt[keep])
        ]
    if config.command == "extremal":
        values = cli.painleve.extremal_state_grid(params, config.family, xs)
        keep = _reference_keep_finite(xs, values.real, values.imag)
        return [(float(x), float(v.real), float(v.imag)) for x, v in zip(xs[keep], values[keep])]
    g, gp, gpp, denominators = cli.painleve.family_grid_eval(params, config.family, xs)
    a, b = cli.painleve.piv_parameters(params, config.family)
    with np.errstate(all="ignore"):
        terms = cli.painleve.piv_residual_terms(g, gp, gpp, xs, a, b)
        resid = cli.painleve.piv_residual_sum(terms)
    # A row where a family denominator is singular is dropped, finite or not.
    for mag, scale in denominators.values():
        resid[singular(mag, scale)] = np.nan
    keep = _reference_keep_finite(xs, g.real, g.imag, resid.real, resid.imag)
    return [
        (float(x), float(gv.real), float(gv.imag), float(rv.real), float(rv.imag))
        for x, gv, rv in zip(xs[keep], g[keep], resid[keep])
    ]


def _reference_text(config) -> str:
    header, rows = cli._COMMANDS[config.command][0], _reference_rows(config)
    if config.format == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_reference_fmt(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    payload = {"config": config.to_dict(), "rows": [dict(zip(header, row)) for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


# -1+i and 3+1e-3i are benchmark sets; eps = 5 with lambda = kappa = 0 has real
# nodes, and family 2 drops its row at x = 0, where x + beta vanishes.  The
# two real seeds (real eps, kappa = 0) have Im V, Im g and the residual's
# imaginary part +0.0 at every point, columns that text.rows writes once as
# text; their extremal states' imaginary parts mix 0.0 and -0.0 for eps = 3
# (families 1 and 3), which must not fold.  Family 1 at eps = -1 drops the
# two rows where beta' - 1 is singular.
PIN_SETS = {
    "-1+1i": (-1.0, 1.0, 1.0, 1.0),
    "5": (5.0, 0.0, 0.0, 0.0),
    "3+1e-3i": (3.0, 1e-3, 2.0, 2.0),
    "3 real": (3.0, 0.0, 1.0, 0.0),
    "-1 real": (-1.0, 0.0, 0.5, 0.0),
}
DROPPED = {("5", "piv", 2): 1, ("-1 real", "piv", 1): 2}
PIN_COMMANDS = [("potential", None), ("spectrum", None)] + [
    (name, family) for name in ("piv", "extremal") for family in (1, 2, 3)
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command,family", PIN_COMMANDS)
@pytest.mark.parametrize("set_id", list(PIN_SETS))
def test_column_writer_matches_the_per_row_writer(monkeypatch, tmp_path, set_id, command, family, fmt):
    re, im, lam, kappa = PIN_SETS[set_id]
    out = tmp_path / f"out.{fmt}"
    config = RunConfig(
        command=command, epsilon_re=re, epsilon_im=im, lam=lam, kappa=kappa, family=family,
        step=0.05, n_max=10, output_path=str(out), format=fmt,
    )
    want = _reference_text(config).encode()
    # 201 grid points (200 rows where a row is dropped) and 12 spectrum rows:
    # blocks of 7 end mid-table, blocks of 67 split the full grid evenly, and
    # the default block holds everything.
    for block in (1, 7, 67, grid.BLOCK):
        monkeypatch.setattr(grid, "BLOCK", block)
        assert run(config) == 0
        assert out.read_bytes() == want, (block, set_id, command, family, fmt)
    dropped = DROPPED.get((set_id, command, family), 0)
    assert len(_reference_rows(config)) == (12 if command == "spectrum" else 201 - dropped)


def test_blocks_yield_finite_columns_as_computed(monkeypatch):
    # Two blocks of 3 points: the first is all finite and comes through as
    # the computed arrays themselves; the second loses its NaN row in every
    # column, the integer and boolean ones included.
    monkeypatch.setattr(grid, "BLOCK", 3)
    computed = []

    def columns(config, xs):
        values = np.where(xs == 1.0, np.nan, xs * xs)
        computed.append((xs, values, np.arange(xs.size), xs > 0.5))
        return computed[-1]

    config = RunConfig(command="potential", xmin=0.0, xmax=1.25, step=0.25)
    first, second = cli._blocks(config, columns)
    assert all(got is made for got, made in zip(first, computed[0]))
    assert [c.tolist() for c in second] == [[0.75, 1.25], [0.5625, 1.5625], [0, 2], [True, True]]


def test_no_row_left_writes_no_file(monkeypatch, tmp_path):
    out = tmp_path / "pot.csv"
    monkeypatch.setattr(cli.susy, "partner_potential", lambda params, xs: np.full(xs.shape, np.nan + 0j))
    assert run(RunConfig(command="potential", output_path=str(out))) == 3
    assert not out.exists()


@pytest.mark.parametrize("existing", [False, True])
def test_failure_in_a_later_block_leaves_the_output_alone(monkeypatch, tmp_path, capsys, existing):
    # For eps = -1+i the Taylor chain leaves the double range near x = 36.6:
    # the ninth of ten 500-point blocks on [-5, 40], after eight were written.
    out = tmp_path / "pot.csv"
    if existing:
        out.write_bytes(b"an earlier run\n")
    computed = []
    partner_potential = cli.susy.partner_potential

    def counted(params, xs):
        values = partner_potential(params, xs)
        computed.append(xs.size)
        return values

    monkeypatch.setattr(cli.susy, "partner_potential", counted)
    monkeypatch.setattr(grid, "BLOCK", 500)
    config = RunConfig(
        command="potential", epsilon_re=-1.0, epsilon_im=1.0, lam=1.0, kappa=1.0,
        xmin=-5.0, xmax=40.0, output_path=str(out),
    )
    assert run(config) == 2
    assert computed == [500] * 8
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "overflowed" in lines[0], lines
    assert list(tmp_path.iterdir()) == ([out] if existing else [])  # no temporary file left
    if existing:
        assert out.read_bytes() == b"an earlier run\n"


@pytest.mark.parametrize("command", ["potential", "piv", "extremal", "spectrum"])
def test_peak_memory_does_not_grow_with_the_grid(tmp_path, command):
    # A warm JSON run holds one block of columns and text at a time: the
    # tracemalloc peak is a few MiB at 1e5 rows and barely moves when the
    # rows double.  Computing every piv column over the whole grid first
    # peaked at 43 MiB here, and at 31 MiB on half the points; spectrum as
    # one block of n_max + 2 levels went from 3.9 MiB at 5e4 rows to 5.3 MiB.
    import tracemalloc

    def config(rows):
        # About ``rows`` points on [-5, 5], or spectrum rows; each command reads its own flags.
        return RunConfig(
            command=command, epsilon_re=-1.0, epsilon_im=1.0, lam=1.0, kappa=1.0, family=1,
            step=10.0 / rows, n_max=rows - 2, output_path=str(tmp_path / "g.json"), format="json",
        )

    def peak(rows):
        tracemalloc.start()
        try:
            assert run(config(rows)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert run(config(1000)) == 0  # warm: the seed chain of this set on [-5, 5]
    half, full = peak(5 * 10**4), peak(10**5)
    assert full < 8 * 2**20, full
    assert full < 1.25 * half, (half, full)


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_non_finite_step_is_invalid(tmp_path, capsys, step):
    from susypiv import Grid

    with pytest.raises(ValueError, match="finite"):
        Grid(-5.0, 5.0, float(step))
    argv = ["potential", "--step", step, "--output", str(tmp_path / "pot.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(cli.config_from_args(cli.build_parser().parse_args(argv))) == 2
    assert capsys.readouterr().err.startswith("invalid configuration: step must be positive and finite")
    assert not (tmp_path / "pot.csv").exists()


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

    def test_n_max_past_the_row_limit(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        argv = ["spectrum", "--n-max", str(10**18), "--output", str(out)]
        assert run(cli.config_from_args(cli.build_parser().parse_args(argv))) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: n_max too large") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", ["--epsilon-re", "--epsilon-im", "--lambda", "--kappa", "--xmin", "--xmax", "--step"]
    )
    def test_negative_float_with_an_exponent_is_a_value(self, flag):
        # argparse by itself takes "-1e-3" for an option and exits 2 with
        # "expected one argument", though it reads "-0.001" and "--flag=-1e-3";
        # so too "-inf" and "-nan", in any case, as float() reads them.
        parse = cli.build_parser().parse_args
        for value in ("-1e-3", "-inf", "-INF", "-Infinity", "-iNfInItY", "-nan", "-NaN"):
            args = parse(["verify", flag, value])
            # By repr, as nan != nan.
            assert repr(args) == repr(parse(["verify", f"{flag}={value}"]))
            assert repr(float(value)) in map(repr, vars(args).values())

    def test_negative_infinity_reaches_the_finite_check(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        with pytest.raises(SystemExit) as status:
            cli.main(["potential", "--lambda", "-inf", "--output", str(out)])
        assert status.value.code == 2
        assert capsys.readouterr().err == "invalid configuration: lam and kappa must be finite\n"
        assert not out.exists()

    def test_negative_exponent_values_run(self, tmp_path):
        with pytest.raises(SystemExit) as status:
            cli.main(["verify", "--lambda", "-1e-3"])
        assert status.value.code == 0
        args = cli.build_parser().parse_args(
            ["potential", "--xmin", "-1e1", "--xmax", "1e1", "--output", str(tmp_path / "p.csv")]
        )
        assert (args.xmin, args.xmax) == (-10.0, 10.0)

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
