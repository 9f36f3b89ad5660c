import cmath
import io

import numpy as np
import pytest

from conftest import PARAM_IDS
from susypiv import (
    AllPointsExcluded,
    EvaluationFailed,
    Grid,
    SingularPoint,
    TransformParams,
    fd_derivative,
    residual_report,
    seed_eval,
    seed_u,
    threshold_for,
)
from susypiv import cli, kummer, seed, verify
from susypiv.verify import BENCHMARK_PARAMS, THRESHOLDS

SET_1 = BENCHMARK_PARAMS[0]


class TestFdDerivative:
    def test_polynomial_second_derivative_is_exact(self):
        got = fd_derivative(lambda t: t * t, 1.7, order=2, h=0.1)
        assert abs(got - 2.0) <= 1e-9

    def test_imaginary_exponential_first_derivative(self):
        got = fd_derivative(lambda t: cmath.exp(1j * t), 0.0, order=1, h=1e-3)
        assert abs(got - 1j) <= 1e-10

    def test_seed_derivative_cross_check(self):
        ev = seed_eval(SET_1, 1.0)
        got = fd_derivative(lambda t: seed_u(SET_1, t), 1.0, order=1)
        assert abs(got - ev.u_prime) <= 1e-7 * abs(ev.u_prime)

    def test_rejects_bad_order_and_step(self):
        with pytest.raises(ValueError):
            fd_derivative(lambda t: t, 0.0, order=3)
        with pytest.raises(ValueError):
            fd_derivative(lambda t: t, 0.0, order=1, h=0.0)
        with pytest.raises(ValueError):
            fd_derivative(lambda t: t, 0.0, order=1, h=float("nan"))

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

    def test_monotone_refinement(self, coarse_grid):
        # In the truncation-dominated regime halving h must not lose accuracy
        # by more than a factor two on a smooth parameter set.
        big = residual_report("schrodinger", SET_1, coarse_grid, h=1e-2)
        small = residual_report("schrodinger", SET_1, coarse_grid, h=5e-3)
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
        # Real eps with a node: the wide outer stencils would cross the pole
        # of 1/u; those points must be reported as excluded, not failed.
        grid = Grid(-5.0, 5.0, 0.01)
        params = TransformParams(epsilon=1.0, lam=5.0, kappa=0.0)
        report = residual_report("annihilation", params, grid)
        assert len(report.excluded_points) > 0
        assert report.max_relative <= THRESHOLDS["annihilation"]

    def test_kind_label_carries_level(self, coarse_grid):
        report = residual_report("eigen", SET_1, coarse_grid, n=2)
        assert report.kind == "eigen(2)"

    @pytest.mark.parametrize(
        "kind, h, n, match",
        [
            pytest.param(kind, h, None, "h must be positive", id=f"{kind}-{h}")
            for kind in ("annihilation", "schrodinger")
            for h in (-1e-3, 0.0, float("inf"), float("nan"))
        ]
        + [
            # A kind without a stencil, or a level on a kind without levels,
            # used to be accepted and ignored.
            pytest.param("piv_family_1", 123.0, None, "no step h", id="piv_family_1-123.0"),
            pytest.param("riccati", None, 2, "no level n", id="riccati-n2"),
            pytest.param("piv_family_3", None, 0, "no level n", id="piv_family_3-n0"),
            # The kind is checked before its arguments.
            pytest.param("bogus", -1.0, None, "unknown residual kind", id="bogus--1.0"),
        ],
    )
    def test_rejects_bad_step(self, coarse_grid, kind, h, n, match):
        # h = 0 used to fall back silently to the default step.
        with pytest.raises(ValueError, match=match):
            residual_report(kind, SET_1, coarse_grid, n=n, h=h)


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
        # One seed evaluation per stencil chunk, not per stencil point: a
        # default single-set run (11 reports on 1001 points) takes 37; one
        # call per stencil offset took 194.  The seed evaluates its Taylor
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
        assert len(calls) <= 40
        assert calls == []
        assert 0 < len(evaluations) <= 40

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


def _nested_fd1(fn, xs, h):
    coarse = (fn(xs + h) - fn(xs - h)) / (2.0 * h)
    fine = (fn(xs + 0.5 * h) - fn(xs - 0.5 * h)) / h
    return (4.0 * fine - coarse) / 3.0


def _nested_annihilation_rel(params, xs, h):
    """Reference: the annihilation residual by literal nested differencing,
    one seed call per stencil offset (150 per report)."""

    def psi(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / seed_u(params, t)

    def beta_at(t):
        return seed.seed_eval_grid(params, t)[2]

    u, up, b0, _ = seed.seed_eval_grid(params, xs)
    p0 = psi(xs)
    h_inner = np.minimum(h, verify._NESTED_CAP / (1.0 + np.abs(b0)))
    h_outer = verify._H_NESTED_OUTER

    def w1(t):
        return _nested_fd1(psi, t, h_inner) + beta_at(t) * psi(t)

    def w2(t):
        return _nested_fd1(w1, t, h_outer) + t * w1(t)

    d_psi = _nested_fd1(psi, xs, h_inner)
    w1_0 = d_psi + b0 * p0
    d_w1 = _nested_fd1(w1, xs, h_outer)
    w2_0 = d_w1 + xs * w1_0
    d_w2 = _nested_fd1(w2, xs, h_outer)
    lowered = -d_w2 + b0 * w2_0
    scale = (
        1.0
        + np.abs(d_psi)
        + np.abs(b0 * p0)
        + np.abs(d_w1)
        + np.abs(xs * w1_0)
        + np.abs(d_w2)
        + np.abs(b0 * w2_0)
    )
    forced = verify._node_straddle_mask(u, xs, 2.0 * h_outer + float(np.max(h_inner)))
    return np.abs(lowered) / scale, {"u": (np.abs(u), 1.0 + np.abs(up))}, forced


def _perturb_beta(monkeypatch, factor):
    exact = seed.seed_eval_grid

    def perturbed(p, xs):
        u, up, beta, beta_p = exact(p, xs)
        return u, up, beta * factor, beta_p

    monkeypatch.setattr(seed, "seed_eval_grid", perturbed)


def _assert_matches_nested_reference(params, xs):
    h = verify._H_NESTED_INNER
    rel, denoms = verify._annihilation_rel(params, xs, h, None)
    ref_rel, ref_denoms, ref_forced = _nested_annihilation_rel(params, xs, h)
    # Points whose outer stencils straddle a node come back non-finite.
    np.testing.assert_array_equal(~np.isfinite(rel), ~np.isfinite(ref_rel) | ref_forced)
    for got, ref in zip(denoms["u"], ref_denoms["u"]):
        np.testing.assert_array_equal(got, ref)
    keep = np.isfinite(rel)
    assert np.max(np.abs(rel[keep] - ref_rel[keep])) <= 1e-6


@pytest.mark.parametrize(
    "params",
    list(BENCHMARK_PARAMS) + [TransformParams(epsilon=1.0, lam=5.0, kappa=0.0)],
    ids=PARAM_IDS + ["eps1_lam5_kap0_real_node"],
)
def test_lattice_annihilation_matches_nested_reference(params, default_grid):
    _assert_matches_nested_reference(params, default_grid.points())


@pytest.mark.parametrize("params", BENCHMARK_PARAMS, ids=PARAM_IDS)
def test_lattice_annihilation_matches_reference_with_wrong_beta(
    params, coarse_grid, monkeypatch
):
    # With exact beta, w1 = psi' + beta psi is rounding noise and the outer
    # differences act on noise; a beta off by 1e-5 makes w1 ~ 1e-5 beta psi,
    # so the outer lattice stencils carry signal and a wrong row would show.
    # A 64-point chunk splits the grid into blocks and the lattice into
    # chunks that cross row boundaries.
    _perturb_beta(monkeypatch, 1.0 + 1e-5)
    monkeypatch.setattr(verify, "_CHUNK", 64)
    _assert_matches_nested_reference(params, coarse_grid.points())


@pytest.mark.parametrize("params", BENCHMARK_PARAMS, ids=PARAM_IDS)
def test_annihilation_fails_when_beta_is_wrong(params, default_grid, monkeypatch):
    # A 1e-5 relative error in beta alone must make the check fail.
    _perturb_beta(monkeypatch, 1.0 + 1e-5)
    report = residual_report("annihilation", params, default_grid)
    assert report.max_relative > THRESHOLDS["annihilation"]


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
