"""System assembly, the relative L1 objective, the closed-form inner
solve, the grid search and its pruned refinement passes."""

import threading
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermosig import regression
from thermosig import (
    FitResult,
    FrameSeries,
    GridSpec,
    HvacMode,
    NoiseModel,
    OutdoorProfile,
    RegressionSystem,
    Scenario,
    StationConstants,
    Theta,
    assemble,
    balance_target,
    best_beta,
    grid_fit,
    integrate,
    objective,
    simulate,
)
from thermosig.errors import (
    DegenerateColumn,
    EmptySystem,
    NoFeasiblePoint,
    NonPositiveDenominator,
)
from thermosig.models import load_terms, new_air_supply, refrigerator_supply


def _series(*frames):
    """One frame per dict of overrides; t_in rises by 1 a frame, so every delta is 1."""
    base = dict(
        t_out=33.0, n=10.0,
        t_water_in=12.0, t_water_out=7.0, v_cool_w=0.4, e_v=0.0,
        mode=HvacMode.REFRIGERATOR,
    )
    rows = [{**base, "t_in": 27.0 + i, **overrides} for i, overrides in enumerate(frames)]
    return FrameSeries(
        start=datetime(2021, 6, 1, tzinfo=timezone.utc),
        step=60.0,
        **{name: [row[name] for row in rows] for name in rows[0]},
    )


def _system(rows, targets):
    return RegressionSystem(rows=np.array(rows, dtype=float), targets=np.array(targets, dtype=float))


def _random_system(rng, n_rows):
    rows = np.column_stack([
        rng.uniform(0.5, 50.0, n_rows),
        rng.uniform(0.5, 20.0, n_rows),
        rng.uniform(-5.0, 5.0, n_rows),
    ])
    targets = rng.normal(0.0, 100.0, n_rows)
    return _system(rows, targets)


class TestAssemble:
    def test_hand_row(self):
        # a1 = 10 * (37 - 27) = 100, a2 = 33 - 27 = 6,
        # a3 = 0.4 * (12 - 7) = 2, b = 1 * 121 * 1 = 121
        constants = StationConstants(c=1.0, m_z=121.0)
        system = assemble(_series({}, {}), constants)
        assert system.rows.tolist() == [[100.0, 6.0, 2.0]]
        assert system.targets.tolist() == [121.0]

    def test_filter_drops_other_modes_and_final_frame(self):
        series = _series(
            {},
            {"mode": HvacMode.NEW_AIR, "e_v": 125.0, "v_cool_w": 0.0},
            {"mode": HvacMode.OFF, "v_cool_w": 0.0},
            {},  # the final frame has no delta
        )
        system = assemble(series, StationConstants())
        assert len(system) == 1

    def test_widened_filter_includes_mixed(self):
        series = _series({}, {"mode": HvacMode.MIXED, "e_v": 125.0}, {})
        both = frozenset({HvacMode.REFRIGERATOR, HvacMode.MIXED})
        system = assemble(series, StationConstants(), mode_filter=both)
        assert len(system) == 2

    def test_nothing_matching_raises(self):
        series = _series({"mode": HvacMode.OFF, "v_cool_w": 0.0}, {})
        with pytest.raises(EmptySystem):
            assemble(series, StationConstants())

    @pytest.mark.parametrize("modes", [tuple(HvacMode), (HvacMode.NEW_AIR, HvacMode.MIXED)], ids=["all", "vent"])
    def test_rows_are_the_terms_at_unit_coefficients(self, modes):
        rng = np.random.default_rng(21)
        frames = [
            {"mode": mode, "t_in": rng.uniform(15.0, 35.0), "t_out": rng.uniform(10.0, 40.0),
             "n": rng.uniform(0.0, 50.0), "t_water_in": rng.uniform(7.0, 14.0),
             "t_water_out": rng.uniform(5.0, 9.0), "v_cool_w": rng.uniform(0.0, 3.0), "e_v": rng.uniform(0.0, 900.0)}
            for mode in [*HvacMode] * 5
        ]
        series = _series(*frames)
        constants = StationConstants(c=1.21, m_z=12000.0)
        system = assemble(series, constants, frozenset(modes))
        kept = np.isin(series.mode[:-1], modes)
        # each path's supply where the frame's mode runs it, as models.supply gives it
        vent = np.isin(series.mode, (HvacMode.NEW_AIR, HvacMode.MIXED))
        water = np.isin(series.mode, (HvacMode.REFRIGERATOR, HvacMode.MIXED))
        a1, a2 = load_terms(1.0, 1.0, series.n, series.t_in, series.t_out, constants.t_p)
        a3 = np.where(water, refrigerator_supply(1.0, series.t_water_in, series.t_water_out, series.v_cool_w), 0.0)
        new_air = np.where(vent, new_air_supply(series.e_v, series.t_in, series.t_out, constants), 0.0)
        assert system.rows.tobytes() == np.column_stack([a1, a2, a3])[:-1][kept].tobytes()
        assert system.targets.tobytes() == (balance_target(series, constants) + new_air[:-1])[kept].tobytes()

    @pytest.mark.parametrize("modes", [tuple(HvacMode), (HvacMode.NEW_AIR,)], ids=["all", "new_air"])
    def test_the_truth_balances_every_kept_frame_of_a_noiseless_run(self, modes):
        # at 20 degC the plant runs 1056 refrigerator, 986 new-air and 2279 off frames
        scenario = Scenario(outdoor=OutdoorProfile(mean=20.0), seed=501)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series, _ = simulate(scenario)
        system = assemble(series, scenario.constants, frozenset(modes))
        assert objective(scenario.theta_true, system) < 1e-12


class TestRegressionSystem:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            _system([[1.0, 2.0]], [1.0])
        with pytest.raises(ValueError):
            _system([[1.0, 2.0, 3.0]], [1.0, 2.0])

    def test_arrays_are_frozen(self):
        system = _system([[1.0, 2.0, 3.0]], [1.0])
        with pytest.raises(ValueError):
            system.rows[0, 0] = 9.0


class TestIntegrate:
    def test_prefix_sums(self):
        system = _system([[1, 2, 3], [4, 5, 6]], [10, 20])
        integrated = integrate(system)
        assert integrated.c_rows.tolist() == [[1, 2, 3], [5, 7, 9]]
        assert integrated.d_targets.tolist() == [10, 30]
        # the raw arrays stay available next to the integrated ones
        assert integrated.rows.tolist() == system.rows.tolist()

    def test_integrated_fit_needs_integrate(self):
        # integrate is the one place the prefix sums are computed
        system = _random_system(np.random.default_rng(3), 20)
        with pytest.raises(ValueError, match=r"integrate\(system\)"):
            objective(Theta(2.0, 3.0, 1.0), system, use_integrated=True)
        with pytest.raises(ValueError, match=r"integrate\(system\)"):
            grid_fit(system, grid=GridSpec(cells=4), use_integrated=True)


class TestObjective:
    def test_hand_example(self):
        system = _system([[100.0, 6.0, 2.0]], [121.0])
        # modeled load 106, misfit |106 - 121| = 15
        assert objective(Theta(1.0, 1.0, 0.0), system) == 15.0 / 106.0

    def test_zero_misfit_at_exact_coefficients(self):
        system = _system([[100.0, 6.0, 2.0]], [121.0])
        # 100 * 1 + 6 * 3.5 = 121
        assert objective(Theta(1.0, 3.5, 0.0), system) == 0.0

    def test_beta_enters_negatively(self):
        system = _system([[100.0, 6.0, 2.0]], [100.0])
        # modeled 106, supply term 2 * 3 = 6, misfit |106 - 6 - 100| = 0
        assert objective(Theta(1.0, 1.0, 3.0), system) == 0.0

    def test_zero_denominator_raises(self):
        system = _system([[1.0, -1.0, 0.0]], [5.0])
        with pytest.raises(NonPositiveDenominator):
            objective(Theta(1.0, 1.0, 0.0), system)

    def test_negative_denominator_raises(self):
        # grid_fit counts such a cell infeasible; a "relative error" of -6 means nothing
        system = _system([[1.0, -2.0, 0.0]], [5.0])
        with pytest.raises(NonPositiveDenominator, match="not positive"):
            objective(Theta(1.0, 1.0, 0.0), system)

    def test_infinite_denominator_raises(self):
        # an overflowed load would make every misfit a "relative error" of 0
        system = _system([[1e308, 0.0, 1.0], [1e308, 0.0, 1.0]], [5.0, 5.0])
        with np.errstate(over="ignore"), pytest.raises(NonPositiveDenominator, match="finite"):
            objective(Theta(1.0, 1.0, 0.0), system)

    def test_unit_rescaling_leaves_the_error_unchanged(self):
        # doubling every row and target models a pure unit change; with
        # power-of-two factors the float ratio is bit-identical
        rng = np.random.default_rng(11)
        theta = Theta(3.0, 7.0, 2.0)
        for _ in range(20):
            system = _random_system(rng, 30)
            base = objective(theta, system)
            for k in (2.0, 0.25, 2.0**20):
                scaled = _system(system.rows * k, system.targets * k)
                assert objective(theta, scaled) == base


class TestBestBeta:
    def test_unweighted_median(self):
        # residuals at (0, 0) are -b, so the ratio set is {1, 2, 9}
        system = _system([[0, 0, 1], [0, 0, 1], [0, 0, 1]], [-1.0, -2.0, -9.0])
        assert best_beta(0.0, 0.0, system) == 2.0

    def test_even_split_takes_the_smaller_candidate(self):
        system = _system([[0, 0, 1], [0, 0, 1]], [-1.0, -3.0])
        assert best_beta(0.0, 0.0, system) == 1.0

    def test_weights_follow_the_water_column(self):
        # the first row carries weight 3, enough to dominate the median
        system = _system([[0, 0, 3], [0, 0, 1]], [-3.0, -5.0])
        assert best_beta(0.0, 0.0, system) == 1.0

    def test_negative_median_clamps_to_zero(self):
        system = _system([[0, 0, 1], [0, 0, 1], [0, 0, 1]], [1.0, 2.0, 9.0])
        assert best_beta(0.0, 0.0, system) == 0.0

    def test_all_zero_water_column_is_degenerate(self):
        system = _system([[1, 1, 0], [2, 1, 0]], [1.0, 2.0])
        with pytest.raises(DegenerateColumn):
            best_beta(1.0, 1.0, system)

    def test_matches_breakpoint_scan(self):
        # the L1 minimum sits on a breakpoint (or the clamp at zero), so
        # scanning all of them bounds the numerator from below
        rng = np.random.default_rng(5)
        for _ in range(300):
            n_rows = int(rng.integers(2, 30))
            system = _random_system(rng, n_rows)
            c_p = float(rng.uniform(0.1, 10.0))
            alpha = float(rng.uniform(0.1, 10.0))
            rows, targets = system.rows, system.targets
            residual = c_p * rows[:, 0] + alpha * rows[:, 1] - targets

            def numerator(beta):
                return float(np.abs(residual - beta * rows[:, 2]).sum())

            nonzero = rows[:, 2] != 0.0
            candidates = {0.0} | {
                max(r, 0.0) for r in (residual[nonzero] / rows[:, 2][nonzero]).tolist()
            }
            beta = best_beta(c_p, alpha, system)
            scan_best = min(numerator(b) for b in candidates)
            assert numerator(beta) <= scan_best * (1.0 + 1e-12) + 1e-12


def _weighted_median_beta(c_p, alpha, rows, targets):
    """Per-cell reference in plain Python: scan the ratios in sorted order
    until the running weight reaches half the total, then clamp at zero."""
    pairs = [
        ((c_p * a1 + alpha * a2 - b) / a3, abs(a3))
        for (a1, a2, a3), b in zip(rows.tolist(), targets.tolist())
        if a3 != 0.0
    ]
    if not pairs:
        return 0.0
    # np.sum, not sum(): the kernel totals the weights pairwise
    half_weight = 0.5 * float(np.sum([weight for _, weight in pairs]))
    running = 0.0
    for ratio, weight in sorted(pairs):
        running += weight
        if running >= half_weight:
            return max(ratio, 0.0)


class TestBracketedMedian:
    """The kernel sorts only the rows near the half-weight split; every beta
    must still equal the full sort's, which the plain-Python reference is."""

    @staticmethod
    def _check(rows, targets, c_p, alpha, start=None, threads=1):
        """Every cell's beta against the reference; a start rung, when
        given, replaces the one the solver would measure."""
        rows, targets = np.asarray(rows, dtype=float), np.asarray(targets, dtype=float)
        solver = regression._CellSolver(rows, targets, threads)
        if start is not None and solver.n_kept:
            solver.start = start
        beta, _, _ = solver(np.asarray(c_p, float), np.asarray(alpha, float))
        for cell, (cp, al) in enumerate(zip(c_p, alpha)):
            assert beta[cell] == _weighted_median_beta(cp, al, rows, targets), cell

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """Counts the cells that go back to the full sort."""
        count = []
        full_sort = regression._sorted_median

        def spy(ratios, weights, half_weight):
            count.append(len(ratios))
            return full_sort(ratios, weights, half_weight)

        monkeypatch.setattr(regression, "_sorted_median", spy)
        return count

    @staticmethod
    def _cells(rng, n_cells=60):
        return rng.uniform(0.1, 1000.0, n_cells), rng.uniform(0.1, 1000.0, n_cells)

    def test_random_systems(self, fallbacks):
        rng = np.random.default_rng(41)
        for n_rows in (600, 2000):
            system = _random_system(rng, n_rows)
            self._check(system.rows, system.targets, *self._cells(rng))
        # most cells take the bracketed path
        assert sum(fallbacks) < 12

    def test_quantized_weights_near_exact_splits(self):
        # raw rows as in the reference dataset: a3 takes the few products of
        # a flow and a 0.1-degree water delta, and b is a quantized delta
        rng = np.random.default_rng(43)
        for n_rows in (300, 1000, 3000):
            rows = np.column_stack([
                rng.uniform(0.5, 50.0, n_rows),
                rng.uniform(0.5, 20.0, n_rows),
                rng.choice([0.4, 0.8]) * rng.choice(np.arange(1, 8) * 0.1, n_rows),
            ])
            targets = 1.21 * 12000.0 * np.round(rng.normal(0.0, 0.05, n_rows), 1)
            c_p, alpha = self._cells(rng, 200)
            self._check(rows, targets, np.round(c_p), np.round(alpha))

    @pytest.mark.parametrize("case", ["duplicated rows", "zero a3 rows", "negative a3", "all ratios negative"])
    def test_awkward_systems(self, case):
        rng = np.random.default_rng(47)
        system = _random_system(rng, 800)
        rows, targets = system.rows.copy(), system.targets.copy()
        if case == "duplicated rows":
            # every ratio appears twice with the same weight
            rows[:, 2] = np.round(rows[:, 2])
            rows[rows[:, 2] == 0.0, 2] = 1.0
            rows, targets = np.tile(rows[:400], (2, 1)), np.tile(np.round(targets[:400]), 2)
        elif case == "zero a3 rows":
            rows[::3, 2] = 0.0
        elif case == "negative a3":
            rows[:, 2] = -np.abs(rows[:, 2])
        else:
            # every median is negative and clamps to zero
            rows[:, 2] = np.abs(rows[:, 2]) + 0.1
            targets = rows[:, 0] * 2000.0 + rows[:, 1] * 2000.0
        self._check(rows, targets, *self._cells(rng))
        if case == "all ratios negative":
            beta, _, _ = regression._CellSolver(rows, targets, 1)(*self._cells(rng))
            assert (beta == 0.0).all()

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 100, regression._SAMPLE_ROWS - 1])
    def test_fewer_rows_than_the_sample(self, n_rows):
        rng = np.random.default_rng(53)
        system = _random_system(rng, n_rows)
        self._check(system.rows, system.targets, *self._cells(rng))

    @pytest.mark.parametrize("small", ["sampled rows", "unsampled rows"])
    def test_bracket_miss_falls_back(self, fallbacks, small):
        # 1025 rows of weight 1 put the weight-quantile sample on the odd rows
        # alone. When those hold one end of the ratios, every bracket lies at
        # that end: the weight below it reaches half, or the weight through
        # it never does. The half, 512.5, is 0.5 away from every running sum,
        # far outside the rounding margin.
        n_rows = 1025
        ratios = np.linspace(0.0, 1.0, n_rows)
        odd = np.arange(n_rows) % 2 == 1
        ratios[odd == (small == "sampled rows")] += 100.0
        rows = np.column_stack([np.zeros(n_rows), np.zeros(n_rows), np.ones(n_rows)])
        self._check(rows, -ratios, [0.0, 0.0], [0.0, 0.0])
        assert sum(fallbacks) == 2

    def test_margin_falls_back(self, fallbacks):
        # equal weights on an even row count: the running weight at the pick
        # is exactly half, inside the rounding margin
        rng = np.random.default_rng(59)
        rows = np.column_stack([rng.uniform(0.5, 50.0, 1000), rng.uniform(0.5, 20.0, 1000), np.ones(1000)])
        c_p, alpha = self._cells(rng, 20)
        self._check(rows, rng.normal(0.0, 100.0, 1000), c_p, alpha)
        assert sum(fallbacks) == 20

    def test_wide_rung_decides_outside_the_narrow_brackets(self, fallbacks):
        # as above, the sample holds the 512 odd rows, here with ratios 0..511,
        # so a sample rank is its ratio. 216 even rows lie below all of them
        # and 297 above, which puts the median, the 513th ratio, at 296, 40
        # ranks above the sample's middle: past 256 +- 4, +- 12 and +- 24, and
        # inside 256 +- 64, from whichever rung the ladder starts. The half,
        # 512.5, is 0.5 away from every running sum.
        n_rows = 1025
        ratios = np.empty(n_rows)
        ratios[1::2] = np.arange(512)
        ratios[0::2] = np.r_[-1000.0 - np.arange(216), 1000.0 + np.arange(297)]
        rows = np.column_stack([np.zeros(n_rows), np.zeros(n_rows), np.ones(n_rows)])
        solver = regression._CellSolver(rows, -ratios, 1)
        assert (solver.sample == np.arange(1, n_rows, 2)).all()
        beta, _, _ = solver(np.zeros(2), np.zeros(2))
        assert (beta == 296.0).all()
        assert solver.distances.tolist() == [40, 40]
        for start in (None, *range(len(regression._SPANS))):
            self._check(rows, -ratios, [0.0, 0.0], [0.0, 0.0], start)
        assert sum(fallbacks) == 0

    def test_empty_rung_passes_every_cell_on(self, fallbacks, monkeypatch):
        # a span of -1 puts each bracket's low end above its high end, so the
        # first rung holds no row inside any cell's bracket; the next rung,
        # not the full sort, decides the batch
        monkeypatch.setattr(regression, "_SPANS", (-1, 64))
        rng = np.random.default_rng(61)
        system = _random_system(rng, 2000)
        self._check(system.rows, system.targets, *self._cells(rng))
        assert sum(fallbacks) == 0

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 3000),
        quantized=st.booleans(),
        a3_low=st.sampled_from([-5.0, 0.0]),
        zero_a3=st.sampled_from([0.0, 0.3]),
        copies=st.integers(1, 3),
        pushed=st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]),
        start=st.sampled_from([None, 0, 1, 2, 3]),
        threads=st.sampled_from([1, 2]),
    )
    def test_every_rung_matches_the_reference(
        self, seed, n_rows, quantized, a3_low, zero_a3, copies, pushed, start, threads
    ):
        # Pushing a share of the sampled rows far above every other ratio moves
        # the sample's middle below the median, by about pushed * 256 ranks:
        # past 256 +- 4 at 0.02, past +- 12 at 0.05, past +- 24 at 0.1 and
        # past every rung at 0.3. Quantized weights and copied rows give exact
        # splits, which the rounding margin sends to the full sort. Each start
        # rung, or the measured one (None), must give the reference's beta;
        # two cells a batch spread the eight cells over both threads.
        rng = np.random.default_rng(seed)
        a3 = rng.uniform(a3_low, 5.0, n_rows)
        if quantized:
            a3 = np.round(a3 * 2.0) / 2.0
        a3 *= rng.random(n_rows) >= zero_a3
        rows = np.column_stack([rng.uniform(0.5, 50.0, n_rows), rng.uniform(-20.0, 20.0, n_rows), a3])
        targets = rng.normal(0.0, 100.0, n_rows)
        if quantized:
            targets = np.round(targets, 1)
        # the first n_rows / copies rows, repeated `copies` times
        distinct = -(-n_rows // copies)
        rows, targets = np.tile(rows[:distinct], (copies, 1))[:n_rows], np.tile(targets[:distinct], copies)[:n_rows]
        if (rows[:, 2] != 0.0).any():
            solver = regression._CellSolver(rows, targets, 1)
            sampled = np.unique(solver.kept_rows[solver.sample])
            push = rng.choice(sampled, int(pushed * len(sampled)), replace=False)
            # b - K a3 raises the ratio (c_p a1 + alpha a2 - b) / a3 by K at every cell
            targets[push] -= 1e6 * rows[push, 2]
        with mock.patch.object(regression, "_BATCH_ELEMENTS", 2 * n_rows):
            self._check(rows, targets, *self._cells(rng, 8), start, threads)

    def test_running_float_weight_decides_an_even_split(self):
        # weights 0.1, 0.7, 0.7, 0.1 split evenly in exact arithmetic after the
        # second ratio, but the float running sum there, 0.7999999999999999,
        # falls short of half the total, 0.8; the third ratio is the pick.
        # Power-of-two ratios keep ratio * weight / weight exact.
        weights = [0.1, 0.7, 0.7, 0.1]
        assert Fraction(0.1) + Fraction(0.7) == sum(map(Fraction, weights)) / 2
        assert 0.1 + 0.7 < 0.5 * float(np.sum(weights))
        ratios = [1.0, 2.0, 4.0, 8.0]
        system = _system([[0.0, 0.0, w] for w in weights], [-r * w for r, w in zip(ratios, weights)])
        assert best_beta(0.0, 0.0, system) == 4.0


class TestBatching:
    """The batch size is a memory layout choice that no cell may see."""

    GRID = GridSpec(cells=12, refinement_passes=1)

    @staticmethod
    def _case(name, rng):
        system = _random_system(rng, 600)
        rows, targets = system.rows.copy(), system.targets
        if name == "zero a3 rows":
            rows[::5, 2] = 0.0
        elif name == "negative a3":
            rows[:, 2] = -np.abs(rows[:, 2])
        elif name == "duplicated rows":
            # every ratio appears twice, an exact tie in the sort
            rows, targets = np.tile(rows[:300], (2, 1)), np.tile(targets[:300], 2)
        elif name == "all-zero a3":
            rows[:, 2] = 0.0
        return _system(rows, targets)

    @pytest.mark.parametrize(
        "case", ["mixed-sign a3", "zero a3 rows", "negative a3", "duplicated rows", "all-zero a3"]
    )
    def test_batch_budget_does_not_change_any_cell(self, case, monkeypatch):
        system = self._case(case, np.random.default_rng(37))
        n_cells = self.GRID.cells**2
        # the default budget splits each pass into more than one batch
        assert regression._BATCH_ELEMENTS // len(system) < n_cells

        def fit(budget):
            monkeypatch.setattr(regression, "_BATCH_ELEMENTS", budget)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return grid_fit(system, grid=self.GRID)

        default = fit(regression._BATCH_ELEMENTS)
        # one cell a batch, then the whole pass in one batch
        for budget in (1, len(system) * n_cells):
            batched = fit(budget)
            assert np.array_equal(batched.surface[:, 2], default.surface[:, 2])
            assert np.array_equal(batched.surface[:, 3], default.surface[:, 3])
            assert batched == default

        for c_p, alpha, beta, _ in default.surface[[0, 41, 100, n_cells - 1]]:
            assert beta == _weighted_median_beta(c_p, alpha, system.rows, system.targets)

    def test_working_arrays_follow_the_workers_not_the_thread_count(self):
        # a list of 10**7 worker slots once took 76 MiB; two cells are one
        # batch, so the call runs one worker, on this thread
        system = _random_system(np.random.default_rng(37), 300)
        tracemalloc.start()
        try:
            solver = regression._CellSolver(system.rows, system.targets, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        cells = np.array([100.0, 120.0]), np.array([50.0, 40.0])
        beta, numerator, _ = solver(*cells)
        assert list(solver.buffers) == [0]
        reference = regression._CellSolver(system.rows, system.targets, 1)(*cells)
        assert (beta.tobytes(), numerator.tobytes()) == (reference[0].tobytes(), reference[1].tobytes())


def _exhaustive_fit(system, grid, use_integrated=False, threads=1):
    """grid_fit with every refinement cell evaluated: each pass is one
    _CellSolver call over all its cells, then grid_fit's lexsort and incumbent rule."""
    rows, targets = (system.c_rows, system.d_targets) if use_integrated else (system.rows, system.targets)
    load_sums = (float(rows[:, 0].sum()), float(rows[:, 1].sum()))
    c_p_axis, alpha_axis = grid.c_p_axis(), grid.alpha_axis()
    best = None
    for pass_index in range(grid.refinement_passes + 1):
        if pass_index > 0:
            c_p_axis = np.linspace(*regression._neighborhood(c_p_axis, best[1]), grid.cells)
            alpha_axis = np.linspace(*regression._neighborhood(alpha_axis, best[2]), grid.cells)
        c_p, alpha = (arr.ravel() for arr in np.meshgrid(c_p_axis, alpha_axis, indexing="ij"))
        beta, numerator, _ = regression._CellSolver(rows, targets, threads)(c_p, alpha)
        denominator = c_p * load_sums[0] + alpha * load_sums[1]
        feasible = (denominator > 0) & (denominator < np.inf)
        values = np.where(feasible, numerator / np.where(feasible, denominator, 1.0), np.inf)
        if pass_index == 0:
            surface = np.column_stack([c_p, alpha, beta, values])
            if not np.isfinite(values).any():
                raise NoFeasiblePoint()
        winner = int(np.lexsort((beta, alpha, c_p, values))[0])
        candidate = (float(values[winner]), float(c_p[winner]), float(alpha[winner]), float(beta[winner]))
        if np.isfinite(candidate[0]) and (best is None or candidate < best):
            best = candidate
    theta = Theta(c_p=best[1], alpha=best[2], beta_ac=best[3])
    outer_c, outer_a = grid.c_p_axis(), grid.alpha_axis()
    return FitResult(
        theta=theta,
        relative_error=objective(theta, system, use_integrated),
        grid=grid,
        mode_frames_used=len(system),
        used_integration=use_integrated,
        hit_bound=theta.c_p in (outer_c[0], outer_c[-1]) or theta.alpha in (outer_a[0], outer_a[-1]),
        surface=surface,
    )


def _assert_fit_is_exhaustive(system, grid, use_integrated=False, threads=1):
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            reference = _exhaustive_fit(system, grid, use_integrated, threads)
        except NoFeasiblePoint:
            with pytest.raises(NoFeasiblePoint):
                grid_fit(system, grid=grid, use_integrated=use_integrated, threads=threads)
            return None
        fit = grid_fit(system, grid=grid, use_integrated=use_integrated, threads=threads)
    assert fit == reference
    assert fit.surface.tobytes() == reference.surface.tobytes()
    return fit


@pytest.fixture(scope="module")
def criterion_3_systems(reference_scenario):
    """Criterion 3's ten noisy systems, with their prefix sums."""
    noise = NoiseModel(temp_std=0.05, temp_quantization=0.1)
    systems = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(10):
            scenario = replace(reference_scenario, seed=seed, noise=noise)
            series, _ = simulate(scenario)
            systems.append(integrate(assemble(series, scenario.constants)))
    return systems


class TestPrunedRefinement:
    """A refinement pass skips the cells that a certified lower bound puts
    above the incumbent; the fit must equal the exhaustive passes'."""

    CRITERION_3_GRID = GridSpec(cells=80, refinement_passes=2)

    @pytest.mark.parametrize("use_integrated", [False, True], ids=["raw", "integrated"])
    def test_criterion_3_seeds(self, criterion_3_systems, use_integrated):
        for system in criterion_3_systems:
            _assert_fit_is_exhaustive(system, self.CRITERION_3_GRID, use_integrated)

    def test_criterion_1_system(self, reference_frames, reference_scenario):
        # noiseless, so the best objective is about 6e-15: the margins decide
        system = integrate(assemble(reference_frames, reference_scenario.constants))
        fit = _assert_fit_is_exhaustive(system, GridSpec(spacing="linear"), use_integrated=True)
        assert fit.relative_error <= 1e-9

    def test_refinement_evaluates_few_cells(self, criterion_3_systems):
        # a silent return to exhaustive refinement passes fails here
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = grid_fit(criterion_3_systems[0], grid=self.CRITERION_3_GRID, use_integrated=True)
        initial, *refinements = fit.cells_evaluated
        assert initial == 80 * 80
        assert len(refinements) == 2
        assert all(0 < count < 0.1 * 80 * 80 for count in refinements)

    @pytest.mark.parametrize(
        "case", ["mixed-sign a3", "zero a3 rows", "negative a3", "duplicated rows", "all-zero a3"]
    )
    @pytest.mark.parametrize("cells_a_batch", [1, None], ids=["one cell a batch", "default batches"])
    def test_batching_cases(self, case, cells_a_batch, monkeypatch):
        system = TestBatching._case(case, np.random.default_rng(37))
        if cells_a_batch:
            # one cell a round: the most rounds a pass can take
            monkeypatch.setattr(regression, "_BATCH_ELEMENTS", len(system) * cells_a_batch)
        _assert_fit_is_exhaustive(system, TestBatching.GRID)

    def test_all_tie_system(self):
        # every feasible cell scores 1.0; nothing can be pruned strictly above it
        system = _system([[1.0, 1.0, 0.0]], [0.0])
        grid = GridSpec(c_p_max=10.0, alpha_max=10.0, cells=5, spacing="linear", refinement_passes=1)
        fit = _assert_fit_is_exhaustive(system, grid)
        assert fit.cells_evaluated == (25, 25)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_thread_counts(self, criterion_3_systems, threads, monkeypatch):
        # 3066 rows at 512 cells a batch budget: 6 cells a batch, so a round
        # spreads over every thread
        monkeypatch.setattr(regression, "_BATCH_ELEMENTS", 6 * 3066)
        _assert_fit_is_exhaustive(criterion_3_systems[1], GridSpec(cells=40, refinement_passes=2), True, threads)

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 60),
        zero_a3=st.sampled_from([0.0, 0.3, 1.0]),
        a3_low=st.sampled_from([-5.0, 0.0]),
        target_shift=st.sampled_from([0.0, 300.0]),
        cells=st.integers(2, 14),
        passes=st.integers(1, 2),
        spacing=st.sampled_from(["log", "linear"]),
        cells_a_batch=st.integers(1, 4),
        integrated=st.booleans(),
    )
    def test_random_systems(
        self, seed, n_rows, zero_a3, a3_low, target_shift, cells, passes, spacing, cells_a_batch, integrated
    ):
        # a2 of either sign leaves infeasible cells; targets shifted up give
        # negative ratios, whose beta clamps to zero
        rng = np.random.default_rng(seed)
        a3 = rng.uniform(a3_low, 5.0, n_rows) * (rng.random(n_rows) >= zero_a3)
        rows = np.column_stack([rng.uniform(0.0, 50.0, n_rows), rng.uniform(-20.0, 20.0, n_rows), a3])
        system = integrate(_system(rows, rng.normal(target_shift, 100.0, n_rows)))
        grid = GridSpec(c_p_max=100.0, alpha_max=100.0, cells=cells, spacing=spacing, refinement_passes=passes)
        with mock.patch.object(regression, "_BATCH_ELEMENTS", n_rows * cells_a_batch):
            _assert_fit_is_exhaustive(system, grid, integrated)


@contextmanager
def _bufsize(size):
    """numpy's ufunc buffer at size in this thread, then back."""
    previous = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(previous)


class TestUfuncBuffer:
    """The kernel's workers run on a ufunc buffer below a batch row, where
    numpy does not copy rows into it, and hand the caller's setting back."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_workers_run_below_a_batch_row(self, criterion_3_systems, threads, monkeypatch):
        system = criterion_3_systems[0]
        assert regression._BUFSIZE % 16 == 0 and regression._BUFSIZE < len(system)
        seen = []
        bracketed = regression._CellSolver._bracketed_median

        def spy(solver, *args):
            seen.append(np.getbufsize())
            return bracketed(solver, *args)

        monkeypatch.setattr(regression._CellSolver, "_bracketed_median", spy)
        solver = regression._CellSolver(system.c_rows, system.d_targets, threads)
        # 21 cells a batch at 3066 rows: four batches, so two threads both run
        solver(np.full(84, 100.0), np.full(84, 50.0))
        assert len(seen) == 4 and set(seen) == {regression._BUFSIZE}
        assert len(solver.buffers) == threads

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_callers_setting_survives_a_return_and_a_raise(self, criterion_3_systems, threads, monkeypatch):
        system, grid = criterion_3_systems[0], GridSpec(cells=20, refinement_passes=1)
        with _bufsize(65536):
            grid_fit(system, grid=grid, use_integrated=True, threads=threads)
            assert np.getbufsize() == 65536
            with pytest.raises(NoFeasiblePoint):
                grid_fit(_system([[-1.0, -1.0, 1.0]], [0.0]), grid=GridSpec(cells=8), threads=threads)
            assert np.getbufsize() == 65536
            # a raise inside the batch loop
            monkeypatch.setattr(regression._CellSolver, "_bracketed_median", mock.Mock(side_effect=ZeroDivisionError))
            with pytest.raises(ZeroDivisionError):
                grid_fit(system, grid=grid, use_integrated=True, threads=threads)
            assert np.getbufsize() == 65536

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_setting_changes_a_bit(self, criterion_3_systems, threads, monkeypatch):
        system, grid = criterion_3_systems[0], TestPrunedRefinement.CRITERION_3_GRID
        c_p, alpha, _ = regression._pass_cells(grid.c_p_axis(), grid.alpha_axis(), (1.0, 1.0))

        def outcome():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fit = grid_fit(system, grid=grid, use_integrated=True, threads=threads)
            beta, numerator, _ = regression._CellSolver(system.c_rows, system.d_targets, threads)(c_p, alpha)
            return fit, fit.surface.tobytes(), beta.tobytes(), numerator.tobytes()

        reference = outcome()
        for size in (16, 8192, 65536):
            with _bufsize(size):
                assert outcome() == reference
        # numpy's default buffer in the workers, the buffered path
        monkeypatch.setattr(regression, "_BUFSIZE", 8192)
        assert outcome() == reference


class TestStartRung:
    """Each solver measures which rung its ladder starts at; no start rung
    and no thread count may change a cell."""

    @pytest.fixture
    def ladders(self, monkeypatch):
        """(measured, start rung, rungs tried) of every batch, and a way to force the start."""
        seen, batch = [], threading.local()
        bracketed, pick = regression._CellSolver._bracketed_median, regression._CellSolver._bracket_pick

        def spy_median(solver, ratios, narrow, flags, measured=None):
            batch.entry = [measured is not None, solver.start, 0]
            seen.append(batch.entry)
            return bracketed(solver, ratios, narrow, flags, measured)

        def spy_pick(solver, *args):
            batch.entry[2] += 1
            return pick(solver, *args)

        monkeypatch.setattr(regression._CellSolver, "_bracketed_median", spy_median)
        monkeypatch.setattr(regression._CellSolver, "_bracket_pick", spy_pick)
        return SimpleNamespace(
            seen=seen, force=lambda start: monkeypatch.setattr(regression, "_start_rung", lambda distances: start)
        )

    @pytest.mark.parametrize("distances, start", [
        ([0] * 20, 0),
        ([4] * 19 + [30], 0),
        # a +-4 bracket that holds 80% of the picks adds a rung to the rest
        ([3] * 16 + [10] * 4, 1),
        ([12] * 20, 1),
        ([2] * 5 + [20] * 15, 2),
        ([30] * 10 + [60] * 10, 3),
        ([500] * 20, 3),
    ])
    def test_the_cheapest_start(self, distances, start):
        assert regression._start_rung(np.array(distances)) == start

    def test_prefix_sums_start_at_the_narrowest_rung(self, criterion_3_systems):
        # the picks of prefix-summed rows sit a rank or two from the sample's
        # middle; raw rows bracket too loosely for +-4 to pay
        grid = TestPrunedRefinement.CRITERION_3_GRID
        c_p, alpha, _ = regression._pass_cells(grid.c_p_axis(), grid.alpha_axis(), (1.0, 1.0))
        for system in criterion_3_systems:
            raw = regression._CellSolver(system.rows, system.targets, 1)
            integrated = regression._CellSolver(system.c_rows, system.d_targets, 1)
            for solver in (raw, integrated):
                solver(c_p, alpha)
                # whole batches, at least a hundredth of the pass
                assert len(solver.distances) >= len(c_p) // 100
            assert integrated.start == 0 and raw.start >= 1

    @pytest.mark.parametrize("threads", [2, 3])
    def test_the_measure_does_not_follow_the_thread_count(self, criterion_3_systems, threads):
        system, grid = criterion_3_systems[5], GridSpec(cells=40)
        c_p, alpha, _ = regression._pass_cells(grid.c_p_axis(), grid.alpha_axis(), (1.0, 1.0))
        one, many = (regression._CellSolver(system.rows, system.targets, count) for count in (1, threads))
        outcomes = [solver(c_p, alpha) for solver in (one, many)]
        assert many.start == one.start
        assert many.distances.tobytes() == one.distances.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*[outcome[:2] for outcome in outcomes]))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("use_integrated", [False, True], ids=["raw", "integrated"])
    def test_every_start_rung_fits_alike(self, criterion_3_systems, use_integrated, threads, ladders):
        grid = GridSpec(cells=20, refinement_passes=1)
        for system in criterion_3_systems:
            rows, targets = (system.c_rows, system.d_targets) if use_integrated else (system.rows, system.targets)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                measured = grid_fit(system, grid=grid, use_integrated=use_integrated)
                for c_p, alpha, beta, _ in measured.surface[::37]:
                    assert beta == max(_weighted_median_beta(c_p, alpha, rows, targets), 0.0)
                for start in range(len(regression._SPANS)):
                    ladders.force(start)
                    ladders.seen.clear()
                    fit = grid_fit(system, grid=grid, use_integrated=use_integrated, threads=threads)
                    assert fit == measured
                    assert fit.surface.tobytes() == measured.surface.tobytes()
                    # the measured batches start at +-12, every later one at the forced rung
                    calibrating = {first for was_measured, first, _ in ladders.seen if was_measured}
                    later = [(first, tried) for was_measured, first, tried in ladders.seen if not was_measured]
                    assert calibrating == {1} and {first for first, _ in later} == {start}
                    assert max(tried for _, tried in later) <= len(regression._SPANS) - start


class TestCertificates:
    """Each plane must lie below the computed numerator of every cell, up
    to the pruning margin, and meet its own cell's."""

    @pytest.mark.parametrize("case", ["mixed", "zero a3 rows", "clamped", "exact"])
    def test_planes_bound_the_numerator(self, case):
        rng = np.random.default_rng(67)
        for _ in range(20):
            n_rows = int(rng.integers(1, 700))
            system = _random_system(rng, n_rows)
            rows, targets = system.rows.copy(), system.targets.copy()
            rows[:, 1] -= 10.0
            if case == "zero a3 rows":
                rows[rng.random(n_rows) < 0.4, 2] = 0.0
            elif case == "clamped":
                rows[:, 2] = np.abs(rows[:, 2])
                targets += 3000.0
            elif case == "exact":
                targets = rows @ [3.0, 2.0, -1.5]
            solver = regression._CellSolver(rows, targets, 1)
            c_p, alpha = 10.0 ** rng.uniform(-1, 2, (2, 30))
            beta, numerator, planes = solver(c_p, alpha, certify=True)
            valid = ~np.isnan(planes).any(axis=1)
            assert valid.mean() >= 0.9
            planes, beta, numerator = planes[valid], beta[valid], numerator[valid]

            at_points = np.column_stack([*10.0 ** rng.uniform(-1, 2, (2, 50)), -np.ones(50)])
            _, point_numerator, _ = solver(at_points[:, 0], at_points[:, 1])
            margin = solver.prune_margin(at_points[:, 0], at_points[:, 1])
            assert (at_points @ planes.T - margin[:, None] <= point_numerator[:, None]).all()

            own = (planes * np.column_stack([c_p[valid], alpha[valid], -np.ones(valid.sum())])).sum(axis=1)
            # the median row's fractional sign leaves sum s a3 at about -4
            # slacks, which the plane pays beta times
            tolerance = solver.prune_margin(c_p[valid], alpha[valid]) + 5.0 * beta * solver.slacks[3]
            assert (np.abs(numerator - own) <= tolerance).all()


class TestGridSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GridSpec(spacing="cubic")
        with pytest.raises(ValueError):
            GridSpec(cells=0)
        with pytest.raises(ValueError):
            GridSpec(c_p_max=-1.0)
        with pytest.raises(ValueError):
            GridSpec(c_p_min=2000.0, c_p_max=1000.0)

    @pytest.mark.parametrize("key", ["c_p_max", "alpha_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_maxima(self, key, value):
        # NaN gave an all-NaN axis and a misleading NoFeasiblePoint, inf an axis ending [inf, nan]
        with pytest.raises(ValueError, match=f"{key} must be finite and positive"):
            GridSpec(**{key: value})

    @pytest.mark.parametrize("key", ["c_p_max", "alpha_max"])
    @pytest.mark.parametrize("spacing, value", [("log", 1e-320), ("linear", 4e-323)])
    def test_rejects_a_maximum_whose_default_minimum_underflows(self, key, spacing, value):
        # max * 1e-4 and max / 200 round to 0, which geomspace refuses and
        # linspace puts on the axis as an infeasible cell
        with pytest.raises(ValueError, match=f"{key} is too small"):
            GridSpec(**{key: value}, cells=200, spacing=spacing)
        # a stated minimum, or a single cell, leaves no default to underflow
        minimum = key.replace("_max", "_min")
        assert (GridSpec(**{key: value, minimum: value}, cells=200, spacing=spacing).c_p_axis() > 0).all()
        assert GridSpec(**{key: value}, cells=1, spacing=spacing).alpha_axis() > 0

    def test_linear_axis_spans_min_to_max(self):
        grid = GridSpec(c_p_max=200.0, c_p_min=10.0, cells=20, spacing="linear")
        axis = grid.c_p_axis()
        assert axis[0] == 10.0 and axis[-1] == 200.0 and len(axis) == 20

    def test_log_axis_default_floor(self):
        axis = GridSpec(c_p_max=1000.0, cells=10).c_p_axis()
        assert axis[0] == pytest.approx(0.1)

    def test_single_cell_axis_is_the_maximum(self):
        assert GridSpec(cells=1).c_p_axis().tolist() == [1000.0]


class TestGridFit:
    def _exact_system(self, rng, theta, n_rows=200, integrated=False):
        rows = np.column_stack([
            rng.uniform(1.0, 40.0, n_rows),
            rng.uniform(1.0, 15.0, n_rows),
            rng.uniform(0.0, 5.0, n_rows),
        ])
        targets = rows[:, 0] * theta.c_p + rows[:, 1] * theta.alpha - rows[:, 2] * theta.beta_ac
        system = _system(rows, targets)
        return integrate(system) if integrated else system

    GRID = GridSpec(
        c_p_max=200.0, c_p_min=10.0, alpha_max=100.0, alpha_min=5.0,
        cells=20, spacing="linear", refinement_passes=2,
    )

    def test_recovers_on_grid_truth_exactly(self):
        truth = Theta(c_p=100.0, alpha=50.0, beta_ac=7.0)
        system = self._exact_system(np.random.default_rng(17), truth)
        fit = grid_fit(system, grid=self.GRID)
        assert (fit.theta.c_p, fit.theta.alpha) == (100.0, 50.0)
        assert fit.theta.beta_ac == pytest.approx(7.0, rel=1e-9)
        assert fit.relative_error <= 1e-10
        assert not fit.hit_bound
        assert fit.mode_frames_used == 200

    def test_integrated_variant_recovers_too(self):
        truth = Theta(c_p=100.0, alpha=50.0, beta_ac=7.0)
        system = self._exact_system(np.random.default_rng(17), truth, integrated=True)
        fit = grid_fit(system, grid=self.GRID, use_integrated=True)
        assert (fit.theta.c_p, fit.theta.alpha) == (100.0, 50.0)
        assert fit.used_integration

    def test_exact_ties_resolve_to_the_smallest_cell(self):
        # a single zero-target row makes every feasible cell score 1.0,
        # so the tie-break has to pick the lexicographic minimum
        system = _system([[1.0, 1.0, 0.0]], [0.0])
        grid = GridSpec(c_p_max=10.0, alpha_max=10.0, cells=5, spacing="linear",
                        refinement_passes=1)
        with pytest.warns(RuntimeWarning, match="boundary"):
            fit = grid_fit(system, grid=grid)
        assert (fit.theta.c_p, fit.theta.alpha, fit.theta.beta_ac) == (2.0, 2.0, 0.0)
        assert fit.relative_error == 1.0
        assert fit.hit_bound

    def test_no_feasible_cell_raises(self):
        system = _system([[-1.0, -1.0, 1.0]], [0.0])
        with pytest.raises(NoFeasiblePoint):
            grid_fit(system, grid=GridSpec(cells=8))

    def test_overflowed_load_sums_are_infeasible(self):
        system = _system([[1e308, 1.0, 1.0], [1e308, 1.0, 1.0]], [0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NoFeasiblePoint):
            grid_fit(system, grid=GridSpec(cells=8))

    def test_single_cell_grid(self):
        system = _system([[2.0, 1.0, 1.0]], [10.0])
        grid = GridSpec(c_p_max=3.0, alpha_max=2.0, cells=1, refinement_passes=0)
        with pytest.warns(RuntimeWarning, match="boundary"):
            fit = grid_fit(system, grid=grid)
        assert (fit.theta.c_p, fit.theta.alpha) == (3.0, 2.0)
        # residual 2*3 + 1*2 - 10 = -2 wants beta = -2, which clamps to 0
        assert fit.theta.beta_ac == 0.0
        assert fit.relative_error == 2.0 / 8.0

    def test_refinement_never_hurts(self):
        rng = np.random.default_rng(23)
        system = _random_system(rng, 60)
        grid0 = GridSpec(cells=15, refinement_passes=0)
        grid2 = GridSpec(cells=15, refinement_passes=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            coarse = grid_fit(system, grid=grid0).relative_error
            refined = grid_fit(system, grid=grid2).relative_error
        assert refined <= coarse

    def test_thread_count_does_not_change_the_result(self):
        rng = np.random.default_rng(29)
        system = _random_system(rng, 400)
        # 400 rows give 163 cells a batch, so the 24^2 = 576 cells of a pass
        # make 4 batches: 3 threads share them unevenly, 8 threads get 4 workers
        grid = GridSpec(cells=24, refinement_passes=1)
        batches = -(-grid.cells**2 // (regression._BATCH_ELEMENTS // len(system)))
        assert batches >= 3
        results = [grid_fit(system, grid=grid, threads=t) for t in (1, 3, 8)]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_threads_below_one(self, threads):
        system = _random_system(np.random.default_rng(29), 40)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            grid_fit(system, grid=GridSpec(cells=4), threads=threads)

    def test_surface_collection(self):
        rng = np.random.default_rng(31)
        system = _random_system(rng, 40)
        grid = GridSpec(cells=10, refinement_passes=1)
        fit = grid_fit(system, grid=grid)
        assert fit.surface.shape == (100, 4)
        finite = fit.surface[np.isfinite(fit.surface[:, 3])]
        # refinement can only improve on the initial pass
        assert finite[:, 3].min() >= fit.relative_error - 1e-12
