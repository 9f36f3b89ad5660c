import math

import mpmath
import numpy as np
import pytest

from susypiv import (
    Grid,
    NoConvergence,
    PoleArgument,
    SingularPoint,
    TransformParams,
    eigenfunction,
    eigenfunction_derivative,
    family_grid_eval,
    fd_derivative,
    kummer_m,
    kummer_oracle,
    locate_real_zeros,
    new_state,
    partner_eigenfunction,
    partner_potential,
    real_case_lambda,
    residual_report,
    seed_eval,
    seed_eval_grid,
    seed_u,
)
from susypiv import seed, verify
from susypiv.grid import singular
from susypiv.verify import BENCHMARK_PARAMS, THRESHOLDS

from conftest import PARAM_IDS, oracle_seed

SET_1 = TransformParams(epsilon=-1.0 + 1.0j, lam=1.0, kappa=1.0)


@pytest.mark.parametrize("params", BENCHMARK_PARAMS, ids=PARAM_IDS)
def test_value_at_origin_is_one(params):
    assert seed_u(params, 0.0) == 1.0 + 0.0j


def test_real_collapse_to_growing_gaussian():
    # eps = -1, lam = kappa = 0: a = b = 1/2 collapses M to e^{x^2}.
    params = TransformParams(epsilon=-1.0)
    xs = np.linspace(-4.0, 4.0, 33)
    np.testing.assert_allclose(seed_u(params, xs), np.exp(0.5 * xs * xs), rtol=1e-13)


def test_against_oracle_assembly():
    # Assemble u(1) from the extended-precision 1F1 oracle.
    eps = SET_1.epsilon
    o1 = complex(kummer_oracle((1.0 - eps) / 4.0, 0.5, 1.0, 30))
    o2 = complex(kummer_oracle((3.0 - eps) / 4.0, 1.5, 1.0, 30))
    want = math.exp(-0.5) * (o1 + (1.0 + 1.0j) * o2)
    got = seed_u(SET_1, 1.0)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_finite_just_below_overflow_limit():
    # At x = 26.6 the seed series reach 2e307; combined before the
    # exp(-x**2/2) scaling they would overflow.
    x = 26.6
    eps = SET_1.epsilon
    o1 = kummer_oracle((1.0 - eps) / 4.0, 0.5, x * x, 30)
    o2 = kummer_oracle((3.0 - eps) / 4.0, 1.5, x * x, 30)
    with mpmath.workdps(30):
        want = complex(mpmath.exp(-x * x / 2) * (o1 + mpmath.mpc(1, 1) * x * o2))
    values = seed_eval_grid(SET_1, np.array([x]))
    assert all(bool(np.all(np.isfinite(v))) for v in values)
    assert abs(values[0][0] - want) <= 1e-9 * abs(want)


# (eps, half-width of the grid).  Summing the 1F1 series of the seed instead
# was off by 9e-8 at 81+0.5i (on +-20), 2e7 at 200+0.5i and 4e40 at 1000+i.
ORACLE_SWEEP = [
    (81 + 0.5j, 35.0),
    (41 + 0.5j, 35.0),
    (21 + 0.5j, 35.0),
    (-40 + 1j, 35.0),
    (-1 + 1j, 35.0),
    (9 + 1e-4j, 35.0),
    (200 + 0.5j, 10.0),
    (1000 + 1j, 5.0),
    (-1000 + 1j, 5.0),
]


@pytest.mark.parametrize("eps,half", ORACLE_SWEEP, ids=[f"{e}" for e, _ in ORACLE_SWEEP])
def test_taylor_kernel_against_oracle(eps, half):
    # The finite-difference checks cannot see wrong initial data (a Taylor
    # patch satisfies the ODE locally), so the kernel is anchored here.  The
    # 61 points fall between the Taylor centres as well as on them.
    params = TransformParams(epsilon=eps, lam=1.0, kappa=1.0)
    xs = np.linspace(-half, half, 61)
    u, up, _, _ = seed_eval_grid(params, xs)
    want = np.array([oracle_seed(params, float(x)) for x in xs])
    np.testing.assert_allclose(u, want[:, 0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(up, want[:, 1], rtol=1e-12, atol=0.0)


def test_recessive_real_seed_against_oracle():
    # eps = -1 with the real-reduction lambda: u decays on +x, so the growing
    # solution carried along by rounding cancels it; for |x| <= 4 the loss
    # stays below 1e-8 (about 6e-10; the former 1F1-series seed: 1.7e-8).
    params = TransformParams(epsilon=-1.0, lam=real_case_lambda(-1.0, -1.0))
    xs = np.linspace(-4.0, 4.0, 41)
    want = np.array([oracle_seed(params, float(x))[0] for x in xs])
    np.testing.assert_allclose(seed_u(params, xs), want, rtol=1e-8, atol=0.0)


class TestDeterminism:
    def test_extending_the_chain_changes_no_value(self, monkeypatch):
        xs = np.linspace(-5.0, 5.0, 1001)
        monkeypatch.setattr(seed, "_last_chain", None)
        before = seed_eval_grid(SET_1, xs)
        seed_u(SET_1, np.array([-26.0, 26.0]))
        after = seed_eval_grid(SET_1, xs)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)
        # A fresh chain built straight out to +-26 gives the same bits too.
        monkeypatch.setattr(seed, "_last_chain", None)
        seed_u(SET_1, np.array([-26.0, 26.0]))
        for a, b in zip(before, seed_eval_grid(SET_1, xs)):
            np.testing.assert_array_equal(a, b)

    def test_scalar_grid_and_chunked_paths_agree(self, monkeypatch):
        xs = np.linspace(-5.0, 5.0, 1001)
        u, up, _, _ = seed_eval_grid(SET_1, xs)
        for i in (0, 137, 500, 1000):
            ev = seed_eval(SET_1, xs[i])
            assert ev.u == u[i] and ev.u_prime == up[i]
        monkeypatch.setattr(verify, "_CHUNK", 64)
        offsets = [0.0, 1e-3, -1e-3]
        chunked = verify._on_offsets(lambda t: seed_eval_grid(SET_1, t)[0], xs, offsets)
        for row, d in zip(chunked, offsets):
            np.testing.assert_array_equal(row, seed_u(SET_1, xs + d))


def _two_table_sums(params, xs):
    """u and u' at ``xs`` summed as two Horner passes, one over the chain's
    u table and one over its rows 1.. times k, each row gathered into a
    work column; and the number of terms summed."""
    seed_u(params, xs)  # grows the chain to cover xs
    chain = seed._chain(params)
    j = np.rint(xs / chain.h)
    t = (xs - j * chain.h).astype(complex)
    index = j.astype(np.intp) - chain.lo
    terms = int(chain.lengths[index.min() : index.max() + 1].max())
    du_table = chain.u_table[1:] * np.arange(1.0, chain.u_table.shape[0])[:, None]

    def horner(table, terms):
        acc = table[terms - 1].take(index)
        column = np.empty_like(acc)
        for k in range(terms - 2, -1, -1):
            acc *= t
            acc += table[k].take(index, out=column)
        return acc

    return horner(chain.u_table, terms), horner(du_table, max(terms - 1, 1)), terms


_GRID = np.linspace(-5.0, 5.0, 1001)
FUSED_CASES = [(p, _GRID) for p in BENCHMARK_PARAMS] + [
    # A stencil: the grid shifted by five offsets, stacked and flattened.
    (SET_1, np.add.outer([-2e-3, -1e-3, 0.0, 1e-3, 2e-3], _GRID).ravel()),
    (SET_1, np.random.default_rng(7).permutation(np.linspace(-5.0, 5.0, 8192))),
    # The potential of wide_domain: Re eps near 9, a small Im eps, on +-26.
    (TransformParams(9.13 + 4e-4j, 0.8, 1.3), np.linspace(-26.0, 26.0, 52001)),
]


@pytest.mark.parametrize(
    "params,xs", FUSED_CASES, ids=PARAM_IDS + ["stencil", "shuffled", "wide-26"]
)
def test_one_pass_sum_matches_the_two_table_sums(monkeypatch, params, xs):
    monkeypatch.setattr(seed, "_last_chain", None)
    u, up, terms = _two_table_sums(params, xs)
    assert terms > 1
    got_u, got_up = seed._chain(params).evaluate(xs, True)
    assert got_u.tobytes() == u.tobytes()
    assert got_up.tobytes() == up.tobytes()
    assert seed_u(params, xs).tobytes() == u.tobytes()


def test_one_pass_sum_with_a_single_term(monkeypatch):
    # With _TRIM = 1 each centre keeps only its largest term at |t| = h/2:
    # c_0 on [-1, 1], where u' is then row 1 (zero) times 1.
    monkeypatch.setattr(seed, "_TRIM", 1.0)
    monkeypatch.setattr(seed, "_last_chain", None)
    seed_u(SET_1, np.array([-26.0, 26.0]))  # centres with longer columns too
    xs = np.linspace(-1.0, 1.0, 201)
    u, up, terms = _two_table_sums(SET_1, xs)
    assert terms == 1 and seed._chain(SET_1).u_table.shape[0] > 1
    got_u, got_up = seed._chain(SET_1).evaluate(xs, True)
    assert got_u.tobytes() == u.tobytes()
    assert got_up.tobytes() == up.tobytes()


# The array-path entries as (params, x) -> values; each takes a scalar or an
# ndarray of positions.
ARRAY_PATH = {
    "seed_u": seed_u,
    "partner_potential": partner_potential,
    "partner_eigenfunction": lambda p, x: partner_eigenfunction(p, 3, x),
    "new_state": new_state,
    "eigenfunction": lambda p, x: eigenfunction(4, x),
    "eigenfunction_derivative": lambda p, x: eigenfunction_derivative(4, x),
    "kummer_m": lambda p, x: kummer_m((1.0 - p.epsilon) / 4.0, 0.5, x * x),
    "fd_derivative": lambda p, x: fd_derivative(lambda t: seed_u(p, t), x),
}


@pytest.mark.parametrize("params", BENCHMARK_PARAMS, ids=PARAM_IDS)
@pytest.mark.parametrize("entry", ARRAY_PATH)
def test_scalar_is_one_grid_element(entry, params):
    # A scalar is evaluated as a one-element array: the same bits as the
    # matching grid element, returned as a Python scalar.
    fn = ARRAY_PATH[entry]
    xs = np.array([-4.3, -1.7, 0.0, 0.7, 2.2, 4.9])
    grid = fn(params, xs)
    for i, x in enumerate(xs):
        got = fn(params, float(x))
        assert type(got) in (float, complex), (entry, type(got))
        assert np.asarray(got).tobytes() == np.asarray(grid[i]).tobytes(), (entry, x, got, grid[i])


@pytest.mark.parametrize("params", BENCHMARK_PARAMS, ids=PARAM_IDS)
def test_schrodinger_fails_when_the_recurrence_energy_is_wrong(monkeypatch, params, default_grid):
    # Mutation check: a chain built with eps (1 + 1e-6) still satisfies its
    # own ODE, but not the one the residual is measured against.
    original = seed._series

    def mutated(x0, c0, c1, eps, *rest):
        return original(x0, c0, c1, eps * (1.0 + 1e-6), *rest)

    monkeypatch.setattr(seed, "_series", mutated)
    monkeypatch.setattr(seed, "_last_chain", None)
    report = residual_report("schrodinger", params, default_grid)
    assert report.max_relative > THRESHOLDS["schrodinger"]


def _grown_to_its_stops(params):
    """A new chain of ``params`` grown on both sides until it overflows."""
    chain = seed._Chain(params)
    for side in (1, -1):
        with pytest.raises(NoConvergence, match="overflowed"):
            chain._grow(side, seed._MAX_CENTRES)
    return chain


# (params, centres the stopped chain holds past the full chain's stop on each
# side).  For eps = 1000 the terms that a full 96-term series computes past
# the stop rule leave the double range one centre before the kept terms do.
STOP_SWEEP = [(p, 0) for p in BENCHMARK_PARAMS] + [
    (TransformParams(0.0), 0),  # c_k = 0 unless 4 | k at the origin
    (TransformParams(1e-300), 0),
    (TransformParams(-1.0, lam=real_case_lambda(-1.0, -1.0)), 0),
    (TransformParams(0.5, 1.0, 1.0), 0),
    (TransformParams(5.0), 0),
    (TransformParams(-800 + 3j, 1.0, 1.0), 0),
    (TransformParams(200 + 1j, 1.0, 1.0), 0),
    (TransformParams(1000.0, 1.0, 1.0), 1),
]


@pytest.mark.parametrize(
    "params,extra", STOP_SWEEP, ids=[f"{p.epsilon}_lam{p.lam:g}" for p, _ in STOP_SWEEP]
)
def test_stopped_series_store_the_full_series_bits(monkeypatch, params, extra):
    # The stop rule drops only terms that cannot reach a stored column: with
    # _CUT = 0 every series runs to _TERMS, and every centre keeps the same
    # bits out to the overflow stop.  Three small terms without the bound G
    # stop at eps = 0 before c_8 = 1/672 and fail here.
    monkeypatch.setattr(seed, "_CUT", 0.0)
    full = _grown_to_its_stops(params)
    monkeypatch.undo()
    stopped = _grown_to_its_stops(params)
    assert stopped.lo == full.lo - extra
    assert len(stopped.columns) == len(full.columns) + 2 * extra
    assert all(stops is not None for stops in stopped.stops.values())
    if not extra:
        assert stopped.stops == full.stops
        assert stopped.u_table.tobytes() == full.u_table.tobytes()
    held = stopped.columns[extra : len(stopped.columns) - extra]
    assert [c.tobytes() for c in held] == [c.tobytes() for c in full.columns]


def test_series_stop_near_thirty_terms_on_the_benchmark_sets(monkeypatch):
    # Work count: the chains of the five sets out to +-5.2 sum 30 terms a
    # centre on average (at most 34), where every series used to run to 96.
    lengths = []
    series = seed._series

    def counted(*args):
        c = series(*args)
        lengths.append(len(c))
        return c

    monkeypatch.setattr(seed, "_series", counted)
    for params in BENCHMARK_PARAMS:
        monkeypatch.setattr(seed, "_last_chain", None)
        seed_u(params, np.array([-5.2, 5.2]))
    assert len(lengths) == 5 * (1 + 2 * 21)
    assert np.mean(lengths) <= 40


class TestOverflowGuard:
    # Python's abs of complex(1.5e308, 1.5e308) raises OverflowError where
    # numpy's gives inf: either way the series is out of range.
    HUGE = complex(1.5e308, 1.5e308)

    @pytest.mark.parametrize(
        "c0,c1,eps",
        [
            (HUGE, 0j, 1.0),
            (1.0, HUGE, 1.0),
            (1.0, complex(math.inf, 0.0), 1.0),
            (complex(math.nan, 0.0), 0j, 1.0),
            (1.0, 0j, -1.2e307),  # 3 |c_2| = 1.8e307 passes _RANGE
        ],
        ids=["c0-past-the-double-range", "c1-past-the-double-range", "inf", "nan", "past-range"],
    )
    def test_range_check_rejects(self, c0, c1, eps):
        assert seed._series(0.0, complex(c0), complex(c1), complex(eps), 0.25) is None

    def test_range_check_keeps_a_series_in_range(self):
        c = seed._series(0.0, 1e306 + 0j, 0j, 1.0 + 0j, 0.25)
        assert c[:3] == [1e306, 0j, -5e305]

    @pytest.mark.parametrize(
        "params",
        [TransformParams(HUGE), TransformParams(1.0, lam=HUGE.real, kappa=HUGE.imag)],
        ids=["epsilon", "lam-kappa"],
    )
    def test_parameters_past_the_double_range(self, params):
        with pytest.raises(NoConvergence, match=r"overflowed the double range at x = 0"):
            seed_u(params, 0.0)


class TestSeedEval:
    def test_log_derivative_at_origin(self):
        ev = seed_eval(SET_1, 0.0)
        assert ev.beta == 1.0 + 1.0j

    def test_riccati_value_at_origin(self):
        ev = seed_eval(SET_1, 0.0)
        assert ev.beta_prime == 1.0 - 3.0j

    def test_log_derivative_at_origin_second_set(self):
        params = TransformParams(epsilon=3.0 + 1e-3j, lam=2.0, kappa=2.0)
        assert seed_eval(params, 0.0).beta == 2.0 + 2.0j

    def test_beta_prime_matches_finite_difference(self):
        for x in (-2.3, 0.4, 1.7, 4.1):
            ev = seed_eval(SET_1, x)
            ref = fd_derivative(lambda t: seed_eval_grid(SET_1, t)[2], x, 1)
            assert abs(ev.beta_prime - ref) <= 1e-6 * abs(ev.beta_prime)

    def test_consistency_with_grid_path(self):
        xs = np.array([-1.0, 0.5, 2.0])
        u, up, beta, beta_p = seed_eval_grid(SET_1, xs)
        for i, x in enumerate(xs):
            ev = seed_eval(SET_1, x)
            assert ev.u == u[i] and ev.u_prime == up[i]
            assert ev.beta == beta[i] and ev.beta_prime == beta_p[i]

    def test_u_beta_relation(self):
        ev = seed_eval(SET_1, 1.3)
        assert abs(ev.u * ev.beta - ev.u_prime) <= 1e-14 * abs(ev.u_prime)

    def test_singular_at_real_node(self):
        # eps = 5, lam = kappa = 0: u = e^{-x^2/2}(1 - 2x^2), node at 1/sqrt(2).
        # Every screening scalar entry raises there; arrays are not screened,
        # and the Painleve IV families mark u singular among their denominators.
        params = TransformParams(epsilon=5.0)
        node = 1.0 / math.sqrt(2.0)
        screening = [
            seed_eval,
            partner_potential,
            new_state,
            lambda p, x: partner_eigenfunction(p, 1, x),
        ]
        for entry in screening:
            with pytest.raises(SingularPoint):
                entry(params, node)
        for entry in (partner_potential, new_state):
            assert entry(params, np.array([node])).shape == (1,)
        for family in (1, 2, 3):
            denoms = family_grid_eval(params, family, np.array([node]))[3]
            assert bool(singular(*denoms["u"])[0]), family


def test_schrodinger_residual_invariant(default_grid):
    report = residual_report("schrodinger", SET_1, default_grid)
    assert report.max_relative <= 1e-7


def test_conjugation_symmetry():
    xs = np.linspace(-5.0, 5.0, 101)
    mirrored = TransformParams(epsilon=SET_1.epsilon.conjugate(), lam=1.0, kappa=-1.0)
    assert bool(np.all(seed_u(mirrored, xs) == np.conj(seed_u(SET_1, xs))))


def test_even_parity_without_odd_branch():
    params = TransformParams(epsilon=-1.0 + 1.0j)
    xs = np.linspace(0.1, 5.0, 50)
    assert bool(np.all(seed_u(params, xs) == seed_u(params, -xs)))


class TestRealCaseLambda:
    def test_zero_nu(self):
        assert real_case_lambda(0.0, -3.0) == 0.0

    def test_known_gamma_values(self):
        # 2 * 0.5 * Gamma(1)/Gamma(1/2) = 1/sqrt(pi)
        got = real_case_lambda(0.5, -1.0)
        assert abs(got - 1.0 / math.sqrt(math.pi)) <= 1e-12

    def test_gamma_ratio_at_zero_energy(self):
        # 2 Gamma(3/4)/Gamma(1/4), frozen from the extended-precision oracle.
        assert abs(real_case_lambda(1.0, 0.0) - 0.6759782400672847) <= 1e-12

    def test_pole_raises(self):
        with pytest.raises(PoleArgument):
            real_case_lambda(0.5, 3.0)  # (3-eps)/4 = 0

    @pytest.mark.parametrize("epsilon", (7.0, -1.0 + 4.0 * 2**50))
    def test_infinite_ratio_raises(self, epsilon):
        # Gamma((3-eps)/4) has a pole and Gamma((1-eps)/4) none.
        with pytest.raises(PoleArgument):
            real_case_lambda(1.0, epsilon)

    @pytest.mark.parametrize("epsilon", (1.0, 5.0, 1.0 + 4.0 * 2**50))
    def test_lower_pole_gives_zero(self, epsilon):
        # 1/Gamma((1-eps)/4) vanishes: the even seed u, a Hermite function, has
        # u'(0) = 0 at eps = 1, 5, 9, ...
        assert real_case_lambda(0.5, epsilon) == 0.0

    def test_ratio_is_rounded_once(self):
        assert real_case_lambda(-1.0, -1.0) == -1.1283791670955126  # -2/sqrt(pi)
        assert real_case_lambda(0.5, -1.0) == 1.0 / math.sqrt(math.pi)
        assert real_case_lambda(1.0, 0.0) == 0.6759782400672847

    @pytest.mark.parametrize("epsilon", (-1e300, 1e300 + 2**947))
    def test_past_the_gamma_range(self, epsilon):
        # Each Gamma leaves the double range; their ratio, about sqrt(|eps|/4),
        # does not, and needs the fractions of arguments near 2.5e299.
        with mpmath.workprec(1200):
            eps = mpmath.mpf(epsilon)
            want = float(2 * mpmath.gammaprod([(3 - eps) / 4], [(1 - eps) / 4]))
        got = real_case_lambda(1.0, epsilon)
        assert got == want
        assert abs(got - math.sqrt(abs(epsilon))) <= 1e-3 * got

    def test_ratio_where_each_gamma_overflows(self):
        # Gamma(200.75) and Gamma(200.25) pass the double range; their ratio,
        # taken in mpmath, is 28.28.
        with mpmath.workprec(80):
            want = 2.0 * float(mpmath.gammaprod([mpmath.mpf(803) / 4], [mpmath.mpf(801) / 4]))
        assert real_case_lambda(1.0, -800.0) == want


class TestLocateRealZeros:
    def test_complex_energy_is_node_free(self, default_grid):
        assert locate_real_zeros(SET_1, default_grid) == []

    def test_growing_gaussian_is_node_free(self, default_grid):
        assert locate_real_zeros(TransformParams(epsilon=-1.0), default_grid) == []

    def test_ground_state_case_is_node_free(self, default_grid):
        # eps = 1, lam = kappa = 0: M(0, 1/2; x^2) = 1, u = e^{-x^2/2}.
        assert locate_real_zeros(TransformParams(epsilon=1.0), default_grid) == []

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(TransformParams(epsilon=-1.0), id="eps-1"),
            pytest.param(TransformParams(epsilon=complex(-40.3465, 1.037), lam=1.424, kappa=0.676), id="wide"),
        ],
    )
    def test_node_free_on_a_wide_grid(self, params):
        # On +-12 |u| spans many decades, so only a point's own u and u' can
        # say whether it is near a zero.
        assert locate_real_zeros(params, Grid(-12.0, 12.0, 0.01)) == []

    def test_polynomial_case_finds_both_nodes(self, default_grid):
        # u = e^{-x^2/2}(1 - 2x^2) vanishes at +-1/sqrt(2).
        zeros = locate_real_zeros(TransformParams(epsilon=5.0), default_grid)
        assert len(zeros) == 2
        for z, want in zip(zeros, (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))):
            assert abs(z - want) <= default_grid.step

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(TransformParams(epsilon=1.0, lam=5.0), id="eps1-lam5"),
            pytest.param(TransformParams(epsilon=5.0), id="eps5"),
        ],
    )
    def test_near_zero_flags_are_the_verify_exclusions(self, params, default_grid, monkeypatch):
        # One near-zero rule: on a grid through a real node of u, the points
        # that locate_real_zeros flags by |u| and |u'| alone are the points
        # that the denominator u excludes from a residual report.
        lo = locate_real_zeros(params, default_grid)[0]
        lo, hi = lo - default_grid.step, lo + default_grid.step
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            same_sign = seed_u(params, mid).real * seed_u(params, lo).real > 0.0
            lo, hi = (mid, hi) if same_sign else (lo, mid)
        grid = Grid(lo - 5.0, lo + 5.0, 0.01)
        with verify.shared():
            report = residual_report("new_state", params, grid)
            by_report = verify._grid_state(params, grid).u_excluded
        monkeypatch.setattr(seed, "sign_change_brackets", lambda u: np.empty(0, dtype=int))
        flagged = locate_real_zeros(params, grid)
        assert flagged and flagged == grid.points()[by_report].tolist()
        assert set(flagged) <= set(report.excluded_points)


def test_sign_change_brackets_at_large_magnitude():
    # |u| reaches 1e290 before the chain leaves the double range; the bracket
    # test must not overflow (tier-1 turns RuntimeWarnings into errors).
    u = np.array([3e200, -2e200, 1e200, 1e200]) * (1.0 + 1.0j)
    assert list(seed.sign_change_brackets(u)) == [0, 1]


def test_params_validation():
    with pytest.raises(ValueError):
        TransformParams(epsilon=complex(float("nan"), 0.0))
    with pytest.raises(ValueError):
        TransformParams(epsilon=1.0, lam=float("inf"))
