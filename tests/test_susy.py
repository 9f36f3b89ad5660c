import math

import numpy as np
import pytest

from susypiv import (
    Grid,
    NotNormalizable,
    TransformParams,
    level_annihilated,
    new_state,
    normalize,
    partner_eigenfunction,
    partner_potential,
    real_case_lambda,
    residual_report,
    spectrum,
    spectrum_degenerate,
)
from susypiv.grid import MAX_POINTS
from susypiv.verify import BENCHMARK_PARAMS

from conftest import PARAM_IDS, asymptote_error

SET_1 = TransformParams(epsilon=-1.0 + 1.0j, lam=1.0, kappa=1.0)
PI_QUARTER = math.pi ** -0.25


class TestPartnerPotential:
    def test_value_at_origin(self):
        got = partner_potential(SET_1, 0.0)
        assert abs(got - (-2.0 + 6.0j)) <= 1e-13

    def test_real_degenerate_case_is_shifted_oscillator(self):
        # u = e^{x^2/2} gives beta = x and V~ = x^2 - 2.
        params = TransformParams(epsilon=-1.0)
        xs = np.linspace(-5.0, 5.0, 101)
        np.testing.assert_allclose(partner_potential(params, xs), xs * xs - 2.0, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("params", BENCHMARK_PARAMS, ids=PARAM_IDS)
    def test_asymptote(self, params):
        assert np.max(asymptote_error(params, [-8.0, 8.0])) <= 2.0

    def test_conjugation(self):
        xs = np.linspace(-5.0, 5.0, 101)
        mirrored = TransformParams(epsilon=SET_1.epsilon.conjugate(), lam=1.0, kappa=-1.0)
        assert bool(np.all(partner_potential(mirrored, xs) == np.conj(partner_potential(SET_1, xs))))

    @pytest.mark.parametrize("symmetry", ["parity", "conjugation"])
    def test_symmetries_hold_bit_for_bit(self, symmetry):
        # V~(-x; eps, lam, kappa) = V~(x; eps, -lam, -kappa) and
        # V~(x; conj eps, lam, -kappa) = conj V~(x; eps, lam, kappa), to the bit
        # on every finite entry.
        rng = np.random.default_rng(4)
        xs = np.linspace(0.0, 6.0, 601)
        for _ in range(40):
            eps = complex(rng.uniform(-30.0, 30.0), rng.uniform(-3.0, 3.0) * rng.choice([0.0, 1e-6, 1.0]))
            lam, kappa = rng.uniform(-3.0, 3.0, size=2)
            params = TransformParams(epsilon=eps, lam=lam, kappa=kappa)
            if symmetry == "parity":
                want = partner_potential(params, -xs)
                got = partner_potential(TransformParams(epsilon=eps, lam=-lam, kappa=-kappa), xs)
            else:
                want = np.conj(partner_potential(params, xs))
                got = partner_potential(TransformParams(epsilon=eps.conjugate(), lam=lam, kappa=-kappa), xs)
            finite = np.isfinite(want)
            assert np.array_equal(finite, np.isfinite(got)), params
            assert np.array_equal(got[finite], want[finite]), params

    def test_cross_check_against_log_second_derivative(self, default_grid):
        # Independent route: V~ = x^2 - 2 (ln u)'' with (ln u)'' = (u''u - u'^2)/u^2
        # assembled from finite differences of u.
        from susypiv import fd_derivative, seed_u

        for x in (-1.1, 0.3, 2.2):
            u = seed_u(SET_1, x)
            up = fd_derivative(lambda t: seed_u(SET_1, t), x, 1)
            upp = fd_derivative(lambda t: seed_u(SET_1, t), x, 2)
            want = x * x - 2.0 * (upp * u - up * up) / (u * u)
            got = partner_potential(SET_1, x)
            assert abs(got - want) <= 1e-6 * (1.0 + abs(got))


class TestPartnerEigenfunction:
    def test_ground_level_at_origin(self):
        got = partner_eigenfunction(SET_1, 0, 0.0)
        assert abs(got - (1.0 + 1.0j) * PI_QUARTER) <= 1e-14

    def test_first_level_at_origin(self):
        got = partner_eigenfunction(SET_1, 1, 0.0)
        assert abs(got - (-math.sqrt(2.0) * PI_QUARTER)) <= 1e-14

    def test_intertwining_residual(self, default_grid):
        for n in range(6):
            report = residual_report("eigen", SET_1, default_grid, n=n)
            assert report.max_relative <= 1e-6, n

    def test_annihilated_only_where_u_is_proportional_to_the_level(self):
        # At eps = 2n+1 the image is -W(u, psi_n)/u with a constant Wronskian:
        # zero for an even level with lambda = kappa = 0, never for an odd one.
        annihilated = [
            (eps, n, lam)
            for eps in (1.0, 3.0, 5.0, 5.0 + 1e-12j)
            for lam in (0.0, 1.0)
            for n in range(4)
            if level_annihilated(TransformParams(epsilon=eps, lam=lam), n)
        ]
        assert annihilated == [(1.0, 0, 0.0), (5.0, 2, 0.0)]
        xs = np.linspace(-4.0, 4.0, 81)
        state = partner_eigenfunction(TransformParams(epsilon=5.0), 2, xs)
        assert np.max(np.abs(state)) <= 1e-13


class TestNewState:
    def test_value_at_origin(self):
        assert new_state(SET_1, 0.0) == 1.0 + 0.0j

    def test_real_degenerate_case(self):
        params = TransformParams(epsilon=-1.0)
        xs = np.linspace(-3.0, 3.0, 31)
        np.testing.assert_allclose(new_state(params, xs), np.exp(-0.5 * xs * xs), rtol=1e-13)

    def test_residual(self, default_grid):
        report = residual_report("new_state", SET_1, default_grid)
        assert report.max_relative <= 1e-6


class TestSpectrum:
    def test_complex_level_prepended(self):
        assert spectrum(SET_1, 2) == [-1.0 + 1.0j, 1.0, 3.0, 5.0]

    def test_minimal_ladder(self):
        params = TransformParams(epsilon=3.0 + 1e-3j, lam=2.0, kappa=2.0)
        assert spectrum(params, 0) == [3.0 + 1e-3j, 1.0]

    def test_duplicate_level_kept_and_flagged(self):
        params = TransformParams(epsilon=1.0)
        assert spectrum(params, 1) == [1.0, 1.0, 3.0]
        assert spectrum_degenerate(params, 1) is True
        assert spectrum_degenerate(SET_1, 10) is False

    @pytest.mark.parametrize("n_max", [0, 1, 5, 1000])
    def test_degenerate_agrees_with_the_level_loop(self, n_max):
        # The closed form against the level-by-level comparison it replaced,
        # kept here as the reference.
        def by_loop(eps):
            return any(eps == complex(2 * k + 1) for k in range(n_max + 1))

        top = float(2 * n_max + 1)
        reals = [
            1.0, top, top + 2.0, -1.0, 3.0, math.nextafter(3.0, 0.0), math.nextafter(3.0, 4.0),
            math.nextafter(1.0, 0.0), math.nextafter(top, math.inf), -3.0, -0.0, 0.0, 2.0, 4.0,
            2.0 * n_max, top + 1.0, 1e300, -1e300, 2.0**53 + 2.0, 2.0**53 - 1.0,
        ]
        for re in reals:
            for im in (0.0, -0.0, 0.5, -5e-324):
                eps = complex(re, im)
                got = spectrum_degenerate(TransformParams(epsilon=eps), n_max)
                assert got is by_loop(eps), eps

    def test_degenerate_at_the_row_limit(self):
        # n_max + 2 = MAX_POINTS rows: the two ends of the ladder, and no loop
        # over its levels.
        n_max = MAX_POINTS - 2
        top = float(2 * n_max + 1)
        assert spectrum_degenerate(TransformParams(epsilon=complex(top)), n_max) is True
        assert spectrum_degenerate(TransformParams(epsilon=complex(top + 2.0)), n_max) is False
        assert spectrum_degenerate(TransformParams(epsilon=4.0 + 0.5j), n_max) is False

    @pytest.mark.parametrize("fn", [spectrum, spectrum_degenerate], ids=lambda fn: fn.__name__)
    def test_negative_n_max_rejected(self, fn):
        # Both halves of the CLI's spectrum command validate alike.
        with pytest.raises(ValueError, match="nonnegative"):
            fn(SET_1, -1)

    @pytest.mark.parametrize("n_max", [MAX_POINTS - 1, 10**18])
    def test_n_max_past_the_row_limit_rejected(self, n_max):
        # n_max + 2 rows, past the limit of a grid: refused before the list
        # of levels, or the loop over them, is built.
        for fn in (spectrum, spectrum_degenerate):
            with pytest.raises(ValueError, match="n_max too large"):
                fn(SET_1, n_max)


class TestNormalize:
    def test_gaussian_norm(self):
        grid = Grid(-12.0, 12.0, 1e-3)
        xs = grid.points()
        c = normalize(np.exp(-0.5 * xs * xs), grid)
        assert abs(c - PI_QUARTER) <= 1e-6

    def test_transformed_ground_state_is_normalizable(self):
        grid = Grid(-12.0, 12.0, 1e-3)
        values = partner_eigenfunction(SET_1, 0, grid.points())
        c = normalize(values, grid)
        assert c > 0.0 and math.isfinite(c)

    def test_constant_rejected(self):
        grid = Grid(-5.0, 5.0, 0.01)
        with pytest.raises(NotNormalizable):
            normalize(np.ones(grid.n_points, dtype=complex), grid)

    @pytest.mark.parametrize(
        "samples, match",
        [
            ([0.0, 0.0, math.nan, 0.0, 0.0], "non-finite"),
            ([0.0] * 5, "identically vanishing"),
            ([0.0, 0.0, 1e200, 0.0, 0.0], "quadrature value inf"),  # the square overflows
            ([0.0, 1.2e154, 1.2e154, 1.2e154, 0.0], "quadrature value inf"),  # the sum does
        ],
        ids=["non-finite", "all-zero", "overflowing-square", "overflowing-sum"],
    )
    def test_degenerate_samples_rejected(self, samples, match):
        # A typed error, with no numpy warning (tier-1 turns those into errors).
        with pytest.raises(NotNormalizable, match=match):
            normalize(np.array(samples), Grid(-1.0, 1.0, 0.5))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.ones(7), Grid(-1.0, 1.0, 0.5))


def test_real_case_reduction(default_grid):
    lam = real_case_lambda(0.5, -1.0)
    params = TransformParams(epsilon=-1.0, lam=lam, kappa=0.0)
    vt = partner_potential(params, default_grid.points())
    assert np.max(np.abs(vt.imag)) <= 1e-10


def test_partner_system_over_one_grid(default_grid):
    # The partner system's grid samples, from the array entries directly.
    xs = default_grid.points()
    assert spectrum(SET_1, 1) == [SET_1.epsilon, 1.0, 3.0]
    pot = partner_potential(SET_1, xs)
    assert pot.shape == (default_grid.n_points,)
    assert np.all(np.isfinite(pot.real))
    assert partner_eigenfunction(SET_1, 2, xs).shape == pot.shape
    assert new_state(SET_1, xs)[0] != 0.0
