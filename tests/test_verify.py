import contextlib
import io
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import PARAM_IDS
from susypiv import (
    AllPointsExcluded,
    EvaluationFailed,
    Grid,
    LevelAnnihilated,
    SingularPoint,
    SusypivError,
    TransformParams,
    fd_derivative,
    residual_report,
    seed_eval,
    seed_u,
    threshold_for,
)
from susypiv import cli, kummer, seed, susy, verify
from susypiv.grid import EXCLUDE_REL, MAX_POINTS, singular
from susypiv.verify import BENCHMARK_PARAMS, THRESHOLDS

SET_1 = BENCHMARK_PARAMS[0]


class TestFdDerivative:
    def test_polynomial_second_derivative_is_exact(self):
        got = fd_derivative(lambda t: t * t, 1.7, order=2, h=0.1)
        assert abs(got - 2.0) <= 1e-9

    def test_imaginary_exponential_first_derivative(self):
        got = fd_derivative(lambda t: np.exp(1j * t), 0.0, order=1, h=1e-3)
        assert abs(got - 1j) <= 1e-10

    def test_array_positions_give_an_array(self):
        xs = np.array([[0.0, 1.0], [2.0, -3.0]])
        got = fd_derivative(lambda t: t**3, xs, order=1, h=0.1)
        assert got.shape == xs.shape
        np.testing.assert_allclose(got, 3.0 * xs * xs, rtol=0, atol=1e-12)

    def test_seed_derivative_cross_check(self):
        ev = seed_eval(SET_1, 1.0)
        got = fd_derivative(lambda t: seed_u(SET_1, t), 1.0, order=1)
        assert abs(got - ev.u_prime) <= 1e-7 * abs(ev.u_prime)

    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_order_and_step(self):
        with pytest.raises(ValueError):
            fd_derivative(lambda t: t, 0.0, order=3)
        with pytest.raises(ValueError):
            fd_derivative(lambda t: t, 0.0, order=1, h=0.0)
        with pytest.raises(ValueError):
            fd_derivative(lambda t: t, 0.0, order=1, h=float("nan"))
        # 0.25 h^3 is below the smallest normal double: no order takes h.
        with pytest.raises(ValueError, match="too small"):
            fd_derivative(lambda t: t * t, 1.0, order=2, h=1e-170)
        with pytest.raises(ValueError, match="too small"):
            fd_derivative(lambda t: t, 1.0, order=1, h=1e-300)

    def test_singular_stencil_point_fails(self):
        def f(t):
            raise SingularPoint("nope")

        with pytest.raises(EvaluationFailed):
            fd_derivative(f, 0.0, order=1)

    def test_non_finite_stencil_point_fails(self):
        with pytest.raises(EvaluationFailed):
            fd_derivative(lambda t: float("nan"), 0.0, order=1, h=1e-4)


class TestResidualReport:
    def test_determinism(self, coarse_grid):
        a = residual_report("riccati", SET_1, coarse_grid)
        b = residual_report("riccati", SET_1, coarse_grid)
        assert a == b

    def test_monotone_refinement(self, coarse_grid, monkeypatch):
        # In the truncation-dominated regime halving h must not lose accuracy
        # by more than a factor two on a smooth parameter set.  A report made
        # outside shared() builds its own state, so it reads the step set here.
        monkeypatch.setattr(verify, "_H_ORDER2", 1e-2)
        big = residual_report("schrodinger", SET_1, coarse_grid)
        monkeypatch.setattr(verify, "_H_ORDER2", 5e-3)
        small = residual_report("schrodinger", SET_1, coarse_grid)
        assert small.max_relative <= 2.0 * big.max_relative

    def test_statistics_ordering(self, coarse_grid):
        report = residual_report("schrodinger", SET_1, coarse_grid)
        assert report.max_relative >= report.mean_relative >= 0.0

    def test_excluded_points_lie_on_grid(self):
        grid = Grid(-5.0, 5.0, 0.01)
        params = TransformParams(epsilon=1.0, lam=5.0, kappa=0.0)
        report = residual_report("annihilation", params, grid)
        points = set(float(v) for v in grid.points())
        assert set(report.excluded_points) <= points

    def test_all_points_excluded_for_degenerate_family_one(self, coarse_grid):
        # eps = -1, lam = kappa = 0 makes (beta' - 1) u vanish identically.
        with pytest.raises(AllPointsExcluded):
            residual_report("piv_family_1", TransformParams(epsilon=-1.0), coarse_grid)

    def test_eigen_requires_level(self, coarse_grid):
        with pytest.raises(ValueError):
            residual_report("eigen", SET_1, coarse_grid)
        with pytest.raises(ValueError):
            residual_report("eigen", SET_1, coarse_grid, n=11)

    def test_unknown_kind_rejected(self, coarse_grid):
        with pytest.raises(ValueError):
            residual_report("banana", SET_1, coarse_grid)

    def test_real_node_annihilation_excludes_straddled_points(self):
        # Real eps with a node of u inside the grid: the beta-capped stencil
        # never reaches the pole of 1/u, so the check excludes exactly the
        # points of the u denominator rule (none on this grid) and passes.
        grid = Grid(-5.0, 5.0, 0.01)
        params = TransformParams(epsilon=1.0, lam=5.0, kappa=0.0)
        xs = grid.points()
        u, up, _, _ = seed.seed_eval_grid(params, xs)
        assert len(seed.sign_change_brackets(u)) == 1
        mag, local_scale = seed.u_denominator(u, up)["u"]
        by_u_rule = (mag < EXCLUDE_REL * (local_scale - 1.0)) | singular(mag, local_scale)
        report = residual_report("annihilation", params, grid)
        assert report.excluded_points == tuple(float(v) for v in xs[by_u_rule])
        assert report.max_relative <= THRESHOLDS["annihilation"]

    def test_kind_label_carries_level(self, coarse_grid):
        report = residual_report("eigen", SET_1, coarse_grid, n=2)
        assert report.kind == "eigen(2)"

    @pytest.mark.parametrize(
        "kind, n, match",
        [
            # A level on a kind without levels used to be accepted and ignored.
            pytest.param("riccati", 2, "no level n", id="riccati-n2"),
            pytest.param("piv_family_3", 0, "no level n", id="piv_family_3-n0"),
            # The kind is checked before its arguments.
            pytest.param("bogus", -1.0, "unknown residual kind", id="bogus--1.0"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_step(self, coarse_grid, kind, n, match):
        with pytest.raises(ValueError, match=match):
            residual_report(kind, SET_1, coarse_grid, n=n)


# wide_domain's seed-1 set and grid: |u| runs from about 1 near the origin to
# 1.6e47 at the ends, so a point must be judged by its own values.
WIDE_SET = TransformParams(epsilon=complex(-40.3465, 1.037), lam=1.424, kappa=0.676)
WIDE_GRID = Grid(-12.0, 12.0, 0.01)


def _verify_reports(params, grid):
    """The reports of a default verify run on one set and grid."""
    with verify.shared():
        return [residual_report(kind, params, grid, n=n) for kind, n, _ in verify.report_plan()]


class TestLocalExclusion:
    """Each point is excluded by its own denominators, never by the rest of
    the grid."""

    def test_a_wide_grid_excludes_nothing(self):
        for report in _verify_reports(WIDE_SET, WIDE_GRID):
            assert report.excluded_points == (), report.kind
            assert report.max_relative <= threshold_for(report.kind), report.kind

    @pytest.mark.parametrize("distance", [1e-7, 1e-8])
    def test_a_point_next_to_a_real_zero_is_the_one_excluded(self, distance):
        # eps = 3.7, lambda = kappa = 0: u is real with a zero near 0.83.
        params = TransformParams(epsilon=3.7)
        zero = 0.83
        for _ in range(20):
            u, up, _, _ = seed.seed_eval_grid(params, np.array([zero]))
            zero -= float((u[0] / up[0]).real)
        grid = Grid(zero + distance - 5.83, zero + distance + 4.17, 0.01)
        (near,) = np.flatnonzero(np.abs(grid.points() - zero) < 1e-6)
        assert abs(grid.points()[near] - zero) == pytest.approx(distance, rel=1e-6)
        for report in _verify_reports(params, grid):
            assert report.excluded_points == (float(grid.points()[near]),), report.kind
            assert report.max_relative <= threshold_for(report.kind), report.kind

    def test_verify_does_not_load_numpy_ma(self):
        # Loading numpy.ma costs about 2 MB of memory; verify needs none of it.
        code = (
            "import contextlib, io, sys\n"
            "from susypiv import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        cli.main(['verify', '--xmin', '-2', '--xmax', '2', '--step', '0.05'])\n"
            "    except SystemExit as exc:\n"
            "        assert not exc.code, exc.code\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestStencilEngine:
    def test_chunks_are_bounded_and_values_exact(self):
        sizes = []

        def fn(t):
            sizes.append(t.size)
            return np.exp(1j * t)

        xs = np.linspace(-1.0, 1.0, 3001)
        h = np.full(xs.shape, 1e-3)
        offsets = [0.0, h, -h, 0.5 * h, -0.5 * h]
        got = verify._on_offsets(fn, xs, offsets)
        assert got.shape == (5, xs.size)
        assert max(sizes) <= verify._CHUNK and sum(sizes) == 5 * xs.size
        for row, d in zip(got, offsets):
            np.testing.assert_array_equal(row, np.exp(1j * (xs + d)))

    def test_default_verify_call_count(self, monkeypatch):
        # One seed evaluation per stencil chunk, not per stencil point, and
        # each position summed once per parameter set: a default single-set
        # run (11 reports on 1001 points) takes 5 evaluations over 13,417
        # points.  The grid (1001); riccati's stencil (4004); the partner
        # stencil's four nonzero offsets (4004), whose u schrodinger reads
        # where the cap leaves its step at h (every point here); annihilation's
        # offsets +-1 and +-2 (4004), and its +-1/2 where they are not the
        # partner's +-1 (2 x 202), in two chunks.  Summing the partner
        # stencil's centre again takes 6 evaluations, schrodinger's stencil
        # 7, annihilation's rows +-1/2 15,015 points and its centre too
        # 16,016; with no shared rows it took 8 over 22,022 points, one grid
        # evaluation per report 26, one call per stencil offset 194, and the
        # nested annihilation lattice 37.  The seed evaluates its Taylor
        # chain, so no kummer_m call is left at all.
        calls = []
        original = kummer.kummer_m

        def counting(a, b, z):
            calls.append(1)
            return original(a, b, z)

        evaluations = []
        evaluate = seed._Chain.evaluate

        def counting_evaluate(chain, xs, derivative):
            evaluations.append(xs.size)
            return evaluate(chain, xs, derivative)

        monkeypatch.setattr(kummer, "kummer_m", counting)
        monkeypatch.setattr(seed._Chain, "evaluate", counting_evaluate)
        monkeypatch.setattr(seed, "_last_chain", None)
        config = cli.RunConfig(
            command="verify", epsilon_re=-1.0, epsilon_im=1.0, lam=1.0, kappa=1.0
        )
        assert cli.run(config, io.StringIO()) == 0
        assert calls == []
        assert (len(evaluations), sum(evaluations)) == (5, 13_417)

    def test_verify_all_builds_one_chain_per_set(self, monkeypatch):
        # The seed caches the last parameter set's Taylor chain, and --all
        # runs the sets one after another.
        built = []

        class CountingChain(seed._Chain):
            def __init__(self, params):
                built.append(params)
                super().__init__(params)

        monkeypatch.setattr(seed, "_Chain", CountingChain)
        monkeypatch.setattr(seed, "_last_chain", None)
        config = cli.RunConfig(command="verify", run_all=True)
        assert cli.run(config, io.StringIO()) == 0
        assert built == list(BENCHMARK_PARAMS)


# SET_1 as RunConfig fields.
_SET_1_FLAGS = dict(epsilon_re=-1.0, epsilon_im=1.0, lam=1.0, kappa=1.0)


def _run_recorded(monkeypatch, config):
    """Run ``config`` through the CLI, and return its stdout, its JSON report
    and, per residual_report call, (kind, params, grid, n) with the report or
    the type of the error it raised."""
    calls = []
    original = verify.residual_report

    def recording(kind, params, grid, n=None):
        try:
            report = original(kind, params, grid, n=n)
        except SusypivError as exc:
            calls.append(((kind, params, grid, n), type(exc)))
            raise
        calls.append(((kind, params, grid, n), report))
        return report

    monkeypatch.setattr(verify, "residual_report", recording)
    stream = io.StringIO()
    cli.run(config, stream)
    monkeypatch.setattr(verify, "residual_report", original)
    with open(config.output_path) as fh:
        return stream.getvalue(), fh.read(), calls


def _alone(kind, params, grid, n):
    """The report, or the type of the error, of one residual_report call."""
    try:
        return residual_report(kind, params, grid, n=n)
    except SusypivError as exc:
        return type(exc)


def _watch_scope(monkeypatch):
    """Record, after each seed evaluation, whether ``shared()`` is open."""
    scoped = []
    evaluate = seed._Chain.evaluate

    def watching(chain, xs, derivative):
        try:
            return evaluate(chain, xs, derivative)
        finally:
            scoped.append(verify._shared is not None)

    monkeypatch.setattr(seed._Chain, "evaluate", watching)
    return scoped


class TestSharedGridState:
    """The CLI builds one grid state per parameter set, and no report changes."""

    @pytest.mark.parametrize(
        "flags, sets",
        [
            (dict(run_all=True), 5),
            (dict(epsilon_re=5.0), 1),  # eigen(2) ANNIHILATED
            (dict(epsilon_re=-1.0, step=0.05), 1),  # piv_family_1 SATURATED
            (dict(epsilon_re=-1.0, lam=0.3, step=0.05), 1),  # beta' - 1 excludes 19 points
            (dict(epsilon_re=1.0), 1),  # x + beta excludes 773 points
        ],
        ids=["benchmark-sets", "annihilated", "saturated", "family-1-denominator", "family-2-denominator"],
    )
    def test_reports_equal_a_report_alone(self, monkeypatch, tmp_path, flags, sets):
        built = []

        class CountingState(verify._GridState):
            def __init__(self, params, grid):
                built.append(params)
                super().__init__(params, grid)

        monkeypatch.setattr(verify, "_GridState", CountingState)
        config = cli.RunConfig(command="verify", output_path=str(tmp_path / "r.json"), **flags)
        stdout, report, calls = _run_recorded(monkeypatch, config)
        assert len(built) == sets and len(calls) == 11 * sets
        assert [outcome for _, outcome in calls] == [_alone(*call) for call, _ in calls]
        # Without the scope every report builds its own state, and the
        # stdout and JSON keep every byte.
        built.clear()
        monkeypatch.setattr(verify, "shared", contextlib.nullcontext)
        assert _run_recorded(monkeypatch, config)[:2] == (stdout, report)
        assert len(built) == 11 * sets

    def test_signed_zeros_keep_their_own_state(self, default_grid):
        # Equal as parameters, but the seed's chain keeps the sign of
        # lambda's zero: the grid values differ in bits.
        plus, minus = TransformParams(1.0, 0.0), TransformParams(1.0, -0.0)
        assert plus == minus

        def bits(values):
            return [v.tobytes() for v in values]

        fresh = {p.lam.hex(): bits(seed.seed_eval_grid(p, default_grid.points())) for p in (plus, minus)}
        assert fresh["0x0.0p+0"] != fresh["-0x0.0p+0"]
        plan = verify.report_plan()
        states, scoped = [], []
        with verify.shared():
            for params in (plus, minus, plus):
                states.append(verify._grid_state(params, default_grid))
                assert bits(states[-1].values) == fresh[params.lam.hex()]
                scoped.append([_alone(kind, params, default_grid, n) for kind, n, _ in plan])
                assert verify._grid_state(params, default_grid) is states[-1]
        assert verify._shared is None
        assert len({id(state) for state in states}) == 3
        for params, reports in zip((plus, minus, plus), scoped):
            assert reports == [_alone(kind, params, default_grid, n) for kind, n, _ in plan]

    def test_horner_sums_per_verify_run(self, monkeypatch):
        # One sum per chunk of positions not summed before on the parameter
        # set: the grid (1), riccati's stencil (1), the partner-state stencil
        # but its centre (1), which schrodinger, eigen(0..3) and new_state
        # read, and what annihilation does not read from the grid and the
        # partner stencil (2).  With schrodinger's stencil summed apart and
        # the partner's centre summed again a default run summed 8 times,
        # without the shared partner stencil 16, and with no shared state at
        # all 26.  The points summed pin annihilation's share, which leaves
        # its chunk count as it is: 66,835 for --all, 110,110 with no rows
        # shared.
        sums = []
        horner = seed._horner

        def counting(table, index, t, terms, derivative):
            sums.append(t.size)
            return horner(table, index, t, terms, derivative)

        monkeypatch.setattr(seed, "_horner", counting)
        assert cli.run(cli.RunConfig(command="verify", **_SET_1_FLAGS), io.StringIO()) == 0
        assert len(sums) == 5
        sums.clear()
        assert cli.run(cli.RunConfig(command="verify", run_all=True), io.StringIO()) == 0
        assert (len(sums), sum(sums)) == (25, 66_835)

    @pytest.mark.parametrize("params", BENCHMARK_PARAMS, ids=PARAM_IDS)
    def test_reports_are_identical_in_the_scope(self, default_grid, params):
        calls = [(kind, n) for kind, n, _ in verify.report_plan()]

        def reports():
            return [verify.residual_report(kind, params, default_grid, n=n) for kind, n in calls]

        alone = reports()
        with verify.shared():
            scoped = reports()
        assert verify._shared is None
        assert scoped == alone

    def test_scope_is_open_only_inside_verify(self, monkeypatch, tmp_path):
        scoped = _watch_scope(monkeypatch)
        assert cli.run(cli.RunConfig(command="verify"), io.StringIO()) == 0
        assert scoped and all(scoped)
        assert verify._shared is None
        scoped.clear()
        config = cli.RunConfig(command="potential", output_path=str(tmp_path / "v.csv"))
        assert cli.run(config, io.StringIO()) == 0
        assert scoped and not any(scoped)

    @pytest.mark.parametrize(
        "overrides, code",
        [
            # eigen(2) raises LevelAnnihilated, which the report loop catches.
            (dict(epsilon_re=5.0), 0),
            # The chain stops near |x| = 36.6, and NoConvergence ends the run.
            (dict(_SET_1_FLAGS, xmin=-40.0, xmax=40.0), 2),
        ],
        ids=["annihilated", "no-convergence"],
    )
    def test_scope_closes_when_a_kind_raises(self, monkeypatch, overrides, code):
        scoped = _watch_scope(monkeypatch)
        config = cli.RunConfig(command="verify", **overrides)
        assert cli.run(config, io.StringIO()) == code
        assert scoped and all(scoped)
        assert verify._shared is None

    def test_memory_stays_bounded(self, monkeypatch):
        # The shared state holds the partner-state stencil for the whole
        # parameter set: u and beta at 5 offsets, 160 bytes a grid point
        # (10,001 points here), where each report would hold it only while it
        # runs.  Nothing more may stay.
        config = cli.RunConfig(command="verify", step=1e-3, **_SET_1_FLAGS)
        points = config.grid().n_points
        assert cli.run(config, io.StringIO()) == 0

        def peak():
            monkeypatch.setattr(seed, "_last_chain", None)
            tracemalloc.start()
            try:
                assert cli.run(config, io.StringIO()) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        scoped = peak()
        monkeypatch.setattr(verify, "shared", contextlib.nullcontext)
        alone = peak()
        assert scoped - alone <= 160 * points + 0.5 * 2**20


@pytest.mark.parametrize("params", BENCHMARK_PARAMS, ids=PARAM_IDS)
def test_partner_checks_difference_the_library_states(params, default_grid, monkeypatch):
    # eigen and new_state take -psi_n' + beta psi_n and 1/u from the shared
    # stencil's u and beta, not from susy: at the stencil's positions those
    # must be susy.partner_eigenfunction's and susy.new_state's bits.
    differenced = []
    d2 = verify._d2
    monkeypatch.setattr(verify, "_d2", lambda v, h: differenced.append(v) or d2(v, h))
    with verify.shared():
        for n in range(4):
            residual_report("eigen", params, default_grid, n=n)
        residual_report("new_state", params, default_grid)
        step, _, _ = verify._grid_state(params, default_grid).partner
    xs = default_grid.points()
    positions = np.stack([xs + c * step for c in verify._D2_OFFSETS])
    library = [susy.partner_eigenfunction(params, n, positions) for n in range(4)]
    library.append(susy.new_state(params, positions))
    for got, want in zip(differenced, library, strict=True):
        np.testing.assert_array_equal(got, want)


# Two wide-domain sets on which rows are only partly shared: on the first the
# partner's cap binds at 76 of 1401 points, so schrodinger sums its stencil
# there; on the second annihilation's offsets +-1/2 are the partner's +-1 at
# only 22 of 2401 points.
_PARTLY_SHARED = [
    (TransformParams(complex(21.9257, 0.3725), 1.073, 0.562), Grid(-7.0, 7.0, 0.01)),
    (TransformParams(complex(-40.3465, 1.037), 1.424, 0.676), Grid(-12.0, 12.0, 0.01)),
]


def _same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSharedRows:
    @pytest.mark.parametrize("params, grid", _PARTLY_SHARED, ids=["capped", "half-shared"])
    def test_rows_are_the_seed_at_their_positions(self, params, grid, monkeypatch):
        # Each row a kind differences is the library's value at that kind's
        # own positions, bit for bit, whether read from the state or summed.
        xs = grid.points()
        _, _, beta, _ = seed.seed_eval_grid(params, xs)
        step2 = verify._capped(verify._H_ORDER2, beta)
        step3 = verify._capped(verify._H_ORDER3, beta, verify._ORDER3_CAP)
        shared = 0.5 * step3 == step2
        counts = np.count_nonzero(step2 != verify._H_ORDER2), np.count_nonzero(shared)
        assert counts == {1401: (76, 787), 2401: (0, 22)}[xs.size]
        differenced = []
        for name in ("_d2", "_d3"):
            d = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda v, h, d=d: differenced.append(v) or d(v, h))

        def rows(kind, n=None):
            differenced.clear()
            residual_report(kind, params, grid, n=n)
            return differenced[-1]

        with verify.shared():
            got = [rows("schrodinger"), *(rows("eigen", n) for n in range(4)), rows("annihilation")]

        def at(offsets, step):
            return np.stack([xs + c * step for c in offsets])

        partner = at(verify._D2_OFFSETS, step2)
        want = [seed.seed_u(params, at(verify._D2_OFFSETS, verify._H_ORDER2))]
        want += [susy.partner_eigenfunction(params, n, partner) for n in range(4)]
        with np.errstate(divide="ignore", invalid="ignore"):
            want.append(1.0 / seed.seed_u(params, at(verify._D3_OFFSETS, step3)))
        for g, w in zip(got, want, strict=True):
            _same_bits(g, w)

    @pytest.mark.parametrize("params, grid", _PARTLY_SHARED, ids=["capped", "half-shared"])
    def test_scoped_reports_equal_bare_ones_in_any_order(self, params, grid):
        # A report reads the same bits from a shared state, whichever
        # reports ran on it before.
        plan = [(kind, n) for kind, n, _ in verify.report_plan()]
        unordered = [("eigen", 2), ("eigen", 1), ("annihilation", None), ("eigen", 3), ("eigen", 0)]
        bare = {(kind, n): _alone(kind, params, grid, n) for kind, n in plan}
        for calls in (plan, unordered):
            with verify.shared():
                scoped = [_alone(kind, params, grid, n) for kind, n in calls]
            assert scoped == [bare[call] for call in calls]


def _nested_fd1(fn, xs, h):
    coarse = (fn(xs + h) - fn(xs - h)) / (2.0 * h)
    fine = (fn(xs + 0.5 * h) - fn(xs - 0.5 * h)) / h
    return (4.0 * fine - coarse) / 3.0


def _nested_annihilation_rel(params, xs, h, psi):
    """Reference: (-d+beta)(d+x)(d+beta) psi with the seed's beta, by literal
    nested differencing, one call per stencil offset."""

    def beta_at(t):
        return seed.seed_eval_grid(params, t)[2]

    def w1(t):
        return _nested_fd1(psi, t, h) + beta_at(t) * psi(t)

    def w2(t):
        return _nested_fd1(w1, t, h) + t * w1(t)

    return -_nested_fd1(w2, xs, h) + beta_at(xs) * w2(xs)


def test_third_difference_is_exact_on_a_sextic():
    h = 0.1
    v = [(1.3 + c * h) ** 6 for c in verify._D3_OFFSETS]
    assert abs(verify._d3(v, h) - 120.0 * 1.3**3) <= 1e-9


@pytest.mark.parametrize(
    "params",
    list(BENCHMARK_PARAMS) + [TransformParams(epsilon=1.0, lam=5.0, kappa=0.0)],
    ids=PARAM_IDS + ["eps1_lam5_kap0_real_node"],
)
def test_annihilation_terms_match_nested_composition(params, coarse_grid):
    # The oscillator ground state, with exact derivatives, is not annihilated
    # for the seed's beta, so the expanded operator carries signal: it must
    # match the literal composition to finite-difference error.
    xs = coarse_grid.points()
    _, _, beta, beta_p = seed.seed_eval_grid(params, xs)
    g = np.exp(-0.5 * xs * xs)
    terms = verify._annihilation_terms(
        g, -xs * g, (xs * xs - 1.0) * g, (3.0 * xs - xs**3) * g, xs, beta, beta_p
    )
    expanded = sum(terms)
    scale = 1.0 + sum(np.abs(t) for t in terms)
    h = np.minimum(5e-3, 0.02 / (1.0 + np.abs(beta)))
    nested = _nested_annihilation_rel(params, xs, h, lambda t: np.exp(-0.5 * t * t))
    assert np.max(np.abs(expanded) / scale) > 0.5
    assert np.max(np.abs(expanded - nested) / scale) <= 1e-6


def _mutate_seed(monkeypatch, u_factor, up_factor):
    """Patch seed_u and seed_eval_grid together: u and u' times the given
    functions of x, with beta and beta' recomputed from the mutated pair."""
    exact_u, exact_grid = seed.seed_u, seed.seed_eval_grid

    def mutated_u(p, t):
        return exact_u(p, t) * u_factor(np.asarray(t, dtype=float))

    def mutated_grid(p, xs):
        u, up, _, _ = exact_grid(p, xs)
        xs = np.asarray(xs, dtype=float)
        u, up = u * u_factor(xs), up * up_factor(xs)
        beta = up / u
        return u, up, beta, xs * xs - p.epsilon - beta * beta

    monkeypatch.setattr(seed, "seed_u", mutated_u)
    monkeypatch.setattr(seed, "seed_eval_grid", mutated_grid)


def _perturb_beta(monkeypatch, factor):
    exact = seed.seed_eval_grid

    def perturbed(p, xs):
        u, up, beta, beta_p = exact(p, xs)
        return u, up, beta * factor, beta_p

    monkeypatch.setattr(seed, "seed_eval_grid", perturbed)


# Each mutation must fail the check by at least this multiple of its threshold.
_MUTATION_MARGIN = 3.0


@pytest.mark.parametrize("params", BENCHMARK_PARAMS, ids=PARAM_IDS)
def test_annihilation_fails_when_beta_is_wrong(params, default_grid, monkeypatch):
    # A 1e-5 relative error in beta alone must make the check fail.
    _perturb_beta(monkeypatch, 1.0 + 1e-5)
    report = residual_report("annihilation", params, default_grid)
    assert report.max_relative > _MUTATION_MARGIN * THRESHOLDS["annihilation"]


@pytest.mark.parametrize("params", BENCHMARK_PARAMS, ids=PARAM_IDS)
@pytest.mark.parametrize(
    "u_factor, up_factor",
    [
        pytest.param(lambda t: 1.0 + 1e-5 * t, lambda t: 1.0, id="u*(1+1e-5x)"),
        pytest.param(lambda t: 1.0, lambda t: 1.0 + 1e-5, id="u'*(1+1e-5)"),
    ],
)
def test_annihilation_fails_when_u_is_wrong(
    params, u_factor, up_factor, default_grid, monkeypatch
):
    # A 1e-5 error in u or u' reaches both 1/u and beta, and must fail too.
    _mutate_seed(monkeypatch, u_factor, up_factor)
    report = residual_report("annihilation", params, default_grid)
    assert report.max_relative > _MUTATION_MARGIN * THRESHOLDS["annihilation"]


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_eigen_fails_when_beta_is_wrong_at_a_level_energy(lam, default_grid, monkeypatch):
    # eps = 5 = E_2.  With lambda = 0, u is proportional to psi_2 and level 2
    # is annihilated, not checked; every level that is checked must still
    # fail on a 1e-5 relative error in beta.
    params = TransformParams(epsilon=5.0, lam=lam)
    _perturb_beta(monkeypatch, 1.0 + 1e-5)
    for n in range(4):
        if lam == 0.0 and n == 2:
            with pytest.raises(LevelAnnihilated, match=r"eigen\(2\)"):
                residual_report("eigen", params, default_grid, n=n)
            continue
        report = residual_report("eigen", params, default_grid, n=n)
        assert report.max_relative > _MUTATION_MARGIN * THRESHOLDS["eigen"], (n, report)


def test_a_wide_grid_catches_a_wrong_beta(monkeypatch):
    # Where |u| is large, 1/u and the residuals that carry it are tiny, so a
    # wrong beta shows only near the origin (|x| < 1.5, |u| < 1e4).
    _perturb_beta(monkeypatch, 1.0 + 1e-5)
    with verify.shared():
        for kind, n in (("annihilation", None), ("eigen", 1), ("eigen", 3)):
            report = residual_report(kind, WIDE_SET, WIDE_GRID, n=n)
            assert report.max_relative > _MUTATION_MARGIN * THRESHOLDS[kind], report


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="annihilation fails at a grid point 1e-4 to 3e-4 from a real zero of u, which "
    "no exclusion rule covers (CHANGES.md, FOUND line on _annihilation_rel)",
)
@pytest.mark.parametrize(
    "epsilon, lam, half_width", [(15.908, 0.975, 8.0), (7.709, -0.286, 8.0), (19.462, -1.831, 5.0)]
)
def test_annihilation_holds_next_to_a_real_zero(epsilon, lam, half_width):
    params = TransformParams(epsilon=epsilon, lam=lam)
    report = residual_report("annihilation", params, Grid(-half_width, half_width, 0.01))
    assert report.max_relative <= threshold_for("annihilation"), report


def test_threshold_lookup():
    assert threshold_for("eigen(3)") == THRESHOLDS["eigen"]
    assert threshold_for("piv_family_2") == 1e-8
    with pytest.raises(KeyError):
        threshold_for("nonsense")


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Grid(0.0, 1e6, 1e-9)
    grid = Grid(-1.0, 1.0, 0.5)
    np.testing.assert_array_equal(grid.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_grid_point_limit():
    # The limit counts points, as the spectrum's row limit does: 10^7 + 1
    # points is one too many, also where the span in steps is infinite.
    for xmin, xmax, step in [(0.0, 1e7, 1.0), (0.0, 1.0, 5e-324), (-1e308, 1e308, 1.0)]:
        with pytest.raises(ValueError, match="grid too fine"):
            Grid(xmin, xmax, step)
    tracemalloc.start()
    try:
        grid = Grid(0.0, 1e7 - 1, 1.0)
        assert grid.n_points == MAX_POINTS
        assert tracemalloc.get_traced_memory()[1] < 2**16  # no points are built
    finally:
        tracemalloc.stop()
