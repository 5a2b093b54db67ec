"""Constrained fit of the load coefficients from frame data.

The model per frame is the step energy balance,
    a1 * c_p + a2 * alpha - a3 * beta_ac = b
whose rows are the terms of `models` at unit coefficients: a1 = n *
(t_p - t_in) and a2 = t_out - t_in from load_terms, a3 = (t_water_in -
t_water_out) * v_cool_w from refrigerator_supply, and b = c * m_z *
delta from balance_target.

The fit minimizes the relative L1 error
    sum |a1 c_p + a2 alpha - a3 beta_ac - b| / sum (a1 c_p + a2 alpha)
subject to c_p > 0, alpha > 0, beta_ac >= 0, by scanning a (c_p, alpha)
grid; for each cell the optimal beta_ac has a closed form, the weighted
median of the per-row ratios. Prefix-summed variants of the rows tame
sensor quantization zigzag in b: within a run of consecutive
refrigerator frames the integrated targets telescope to a temperature
difference, so step-level rounding does not build up inside the run.
The sums run over the whole system, so each run boundary adds its
quantization error to every later row, and the error grows with the
number of runs, that is with dataset length.

Grid cells are evaluated in batches whose size follows from the row
count, so a batch's working arrays fit in a core's L2 cache. Within a
batch the weighted median sorts only the rows that a weighted sample
brackets around the half-weight split, and falls back to the full sort
wherever rounding could tell the two apart, so every beta is the full
sort's.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import HvacMode, StationConstants, Theta, theta_is_feasible
from .errors import (
    DegenerateColumn,
    EmptySystem,
    NoFeasiblePoint,
    NonPositiveDenominator,
)
from .ingest import FrameSeries
from .models import balance_target, load_terms, refrigerator_supply

_BATCH_ELEMENTS = 1 << 16
# the bracketed weighted median: sample rows, bracket ranks around the
# sample's middle, and the rounding margin in units of n_kept * eps * half
_SAMPLE_ROWS = 512
_BRACKET_SPAN = 24
_MARGIN_ULPS = 8


@dataclass(frozen=True)
class RegressionSystem:
    """Assembled rows and targets, with the prefix sums integrate attaches.

    Arrays are frozen read-only so systems can be shared across worker
    threads without copies.
    """

    rows: np.ndarray
    targets: np.ndarray
    c_rows: Optional[np.ndarray] = None
    d_targets: Optional[np.ndarray] = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"rows must have shape (n, 3), got {rows.shape}")
        if rows.shape[0] < 1:
            raise ValueError("need at least one row")
        if targets.shape != (rows.shape[0],):
            raise ValueError("targets length must match the row count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "targets", targets)
        if self.c_rows is not None or self.d_targets is not None:
            c_rows = np.asarray(self.c_rows, dtype=float)
            d_targets = np.asarray(self.d_targets, dtype=float)
            if c_rows.shape != rows.shape or d_targets.shape != targets.shape:
                raise ValueError("integrated arrays must match the raw shapes")
            object.__setattr__(self, "c_rows", c_rows)
            object.__setattr__(self, "d_targets", d_targets)
        for array in (self.rows, self.targets, self.c_rows, self.d_targets):
            if array is not None:
                array.setflags(write=False)

    def __len__(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class GridSpec:
    """Search grid over (c_p, alpha).

    Axes hold `cells` points each, log spaced by default. Unset minima
    default to max/cells for linear spacing and max * 1e-4 for log.
    Each refinement pass re-grids the two-cell neighborhood of the
    incumbent at full resolution.
    """

    c_p_max: float = 1000.0
    alpha_max: float = 10000.0
    c_p_min: Optional[float] = None
    alpha_min: Optional[float] = None
    cells: int = 200
    spacing: str = "log"
    refinement_passes: int = 2

    def __post_init__(self):
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be 'log' or 'linear', got {self.spacing!r}")
        if self.cells < 1:
            raise ValueError("cells must be at least 1")
        if self.refinement_passes < 0:
            raise ValueError("refinement_passes must be nonnegative")
        for name in ("c_p_max", "alpha_max"):
            value = getattr(self, name)
            # a NaN or infinite maximum puts NaN into its axis
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for low, high in ((self.c_p_min, self.c_p_max), (self.alpha_min, self.alpha_max)):
            if low is not None and not (0 < low <= high):
                raise ValueError("axis minima must be positive and at most the maxima")

    def _axis(self, low: Optional[float], high: float) -> np.ndarray:
        if self.cells == 1:
            return np.array([high])
        if self.spacing == "linear":
            if low is None:
                low = high / self.cells
            return np.linspace(low, high, self.cells)
        if low is None:
            low = high * 1e-4
        return np.geomspace(low, high, self.cells)

    def c_p_axis(self) -> np.ndarray:
        return self._axis(self.c_p_min, self.c_p_max)

    def alpha_axis(self) -> np.ndarray:
        return self._axis(self.alpha_min, self.alpha_max)


@dataclass(frozen=True)
class FitResult:
    theta: Theta
    relative_error: float
    grid: GridSpec
    mode_frames_used: int
    used_integration: bool
    hit_bound: bool
    surface: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        if not theta_is_feasible(self.theta):
            raise ValueError(f"fit produced an infeasible theta: {self.theta}")
        if not (self.relative_error >= 0 and np.isfinite(self.relative_error)):
            raise ValueError(f"relative error must be finite and nonnegative: {self.relative_error}")


def assemble(
    series: FrameSeries,
    constants: StationConstants,
    mode_filter: frozenset[HvacMode] = frozenset({HvacMode.REFRIGERATOR}),
) -> RegressionSystem:
    """Build the regression system from the frames matching the filter.

    The rows are the balance's terms at unit coefficients, (l_passenger,
    l_environment, refrigerator supply) for c_p = alpha = beta_ac = 1,
    and the targets the balance target. Only frames that carry a delta
    participate. Raises EmptySystem when the filter leaves nothing.
    """
    keep = np.flatnonzero(np.isin(series.mode[:-1], tuple(mode_filter)))
    if not len(keep):
        raise EmptySystem()
    a1, a2 = load_terms(1.0, 1.0, series.n[keep], series.t_in[keep], series.t_out[keep], constants.t_p)
    a3 = refrigerator_supply(1.0, series.t_water_in[keep], series.t_water_out[keep], series.v_cool_w[keep])
    return RegressionSystem(rows=np.column_stack([a1, a2, a3]), targets=balance_target(series, constants)[keep])


def integrate(system: RegressionSystem) -> RegressionSystem:
    """Attach prefix-summed rows and targets, the one place they are computed."""
    return RegressionSystem(
        rows=system.rows,
        targets=system.targets,
        c_rows=np.cumsum(system.rows, axis=0),
        d_targets=np.cumsum(system.targets),
    )


def _active(system: RegressionSystem, use_integrated: bool) -> tuple[np.ndarray, np.ndarray]:
    if not use_integrated:
        return system.rows, system.targets
    if system.c_rows is None:
        raise ValueError("use_integrated needs the prefix sums of integrate(system)")
    return system.c_rows, system.d_targets


def objective(theta: Theta, system: RegressionSystem, use_integrated: bool = False) -> float:
    """Relative L1 misfit of theta on the system, exactly as defined.

    The denominator is the accumulated modeled load sum(a1 c_p + a2 alpha);
    it must be positive and finite, as in a feasible grid_fit cell: an
    overflowed load would report any misfit as zero. beta_ac enters the
    numerator with its explicit minus sign.
    """
    rows, targets = _active(system, use_integrated)
    modeled_load = rows[:, 0] * theta.c_p + rows[:, 1] * theta.alpha
    denominator = float(modeled_load.sum())
    if not 0 < denominator < math.inf:
        raise NonPositiveDenominator()
    numerator = float(np.abs(modeled_load - rows[:, 2] * theta.beta_ac - targets).sum())
    return numerator / denominator


def _sorted_median(ratios: np.ndarray, weights: np.ndarray, half_weight: float) -> np.ndarray:
    """Weighted median of each row of ratios by a full sort: the first
    sorted ratio whose sequential running weight reaches half_weight."""
    order = np.argsort(ratios, axis=1)
    pick = np.argmax(np.cumsum(weights[order], axis=1) >= half_weight, axis=1)
    cell = np.arange(len(ratios))
    return ratios[cell, order[cell, pick]]


def _evaluate_cells(
    c_p: np.ndarray,
    alpha: np.ndarray,
    rows: np.ndarray,
    targets: np.ndarray,
    threads: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form inner solve for every (c_p, alpha) cell.

    For fixed c_p and alpha the numerator is sum |r_i - a3_i * beta| with
    r_i = a1_i c_p + a2_i alpha - b_i, an L1 line fit through the origin.
    Its minimizer over beta is the weighted median of r_i / a3_i with
    weights |a3_i| (rows with a3_i = 0 contribute a constant). The rule,
    in floats: beta is the first ratio in sorted order whose sequential
    running weight reaches half the pairwise-summed total weight, clamped
    at zero. Near an exact weight split that running sum decides, so the
    pick can be the larger of two candidates that split the weight evenly
    in exact arithmetic.

    Most of the pick avoids the full sort. A sample of rows at evenly
    spaced weight quantiles brackets each cell's median between two of
    its order statistics; the weight below the bracket is summed, and
    only the rows inside it are sorted. A cell whose bracket misses the
    median, or whose running weight at the pick or just before it lies
    within a rounding margin of the half, is sorted in full instead.
    The margin bounds the error of both summation orders, so outside it
    they cross half at the same ratio: beta equals the full sort's on
    every input.

    Cells are evaluated in batches of about _BATCH_ELEMENTS cell-rows, so
    each float64 working array (512 KiB) fits in a core's L2 cache. Each
    worker takes every `threads`-th batch and reuses one set of working
    arrays for all of them. The batch size follows from the row count
    alone, and every cell is reduced along its own row, so the results are
    bit-identical for any batch size and any `threads`.

    Returns (beta, numerator) per cell.
    """
    a1, a2, a3 = (np.ascontiguousarray(rows[:, j]) for j in range(3))
    nonzero = a3 != 0.0
    # a basic slice keeps residual[:, kept] a view when every row has weight
    kept = slice(None) if nonzero.all() else np.flatnonzero(nonzero)
    a3_kept = a3[kept]
    weights = np.abs(a3_kept)
    half_weight = 0.5 * weights.sum()

    n_rows, n_kept, n_cells = len(a3), len(weights), len(c_p)
    beta = np.zeros(n_cells)
    numerator = np.empty(n_cells)
    batch = max(1, _BATCH_ELEMENTS // n_rows)
    if n_kept:
        cumulative = np.cumsum(weights)
        quantiles = (np.arange(_SAMPLE_ROWS) + 0.5) / _SAMPLE_ROWS * cumulative[-1]
        sample = np.minimum(np.searchsorted(cumulative, quantiles), n_kept - 1)
        ranks = (_SAMPLE_ROWS // 2 - _BRACKET_SPAN, _SAMPLE_ROWS // 2 + _BRACKET_SPAN)
        # a running sum of the weights, in any order, lies within about
        # n_kept * eps * half_weight of its exact value. Where the bracket's
        # sums at the pick and just before it clear the half by more than
        # two such errors, the full sort's sum crosses the half within the
        # same run of equal ratios, so both pick the same value; the margin
        # allows eight
        margin = _MARGIN_ULPS * n_kept * np.finfo(float).eps * half_weight

    def bracketed_median(ratios: np.ndarray, narrow: np.ndarray, flags: np.ndarray) -> np.ndarray:
        # the full sort's pick for every cell, from the rows near the half-weight split
        cells = len(ratios)
        # sorting 512 values is faster here than partitioning them at two ranks
        low, high = np.sort(ratios[:, sample], axis=1)[:, ranks].T[:, :, None]
        below, inside = (buf[: cells * n_kept].reshape(cells, n_kept) for buf in flags)
        np.less(ratios, low, out=below)
        # a masked row sum, not a matrix product: BLAS may reorder the sum per call
        masked = np.multiply(below, weights, out=narrow[0, : cells * n_kept].reshape(cells, n_kept))
        below_weight = masked.sum(axis=1)
        # low <= ratio <= high, written as (ratio <= high) and not below
        np.greater(np.less_equal(ratios, high, out=inside), below, out=inside)

        flat = np.flatnonzero(inside)
        if not len(flat):
            return _sorted_median(ratios, weights, half_weight)
        row, column = np.divmod(flat, n_kept)
        counts = np.bincount(row, minlength=cells)
        width = int(counts.max())
        # the rows inside each bracket, left-aligned and padded with +inf of no weight
        slot = row * width + np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts, counts)
        middle, running = (buf[: cells * width] for buf in narrow)
        middle.fill(np.inf)
        running.fill(0.0)
        middle[slot] = ratios.ravel()[flat]
        running[slot] = weights[column]
        middle, running = middle.reshape(cells, width), running.reshape(cells, width)
        order = np.argsort(middle, axis=1)
        running = np.take_along_axis(running, order, axis=1)
        np.cumsum(running, axis=1, out=running)
        running += below_weight[:, None]
        cell = np.arange(cells)
        pick = np.argmax(running >= half_weight, axis=1)
        at = running[cell, pick]
        before = np.where(pick > 0, running[cell, pick - 1], below_weight)
        median = middle[cell, order[cell, pick]]
        # a bracket that misses the median leaves `at` below the half or
        # `before` at or above it; NaN sums fail both tests too
        usable = (at - half_weight > margin) & (half_weight - before > margin)
        fallback = np.flatnonzero(~usable)
        if len(fallback):
            median[fallback] = _sorted_median(ratios[fallback], weights, half_weight)
        return median

    def run(starts: range) -> None:
        # Arrays freed after every batch went back to the OS, and faulting
        # them in again took a third of a pass, so a worker allocates once.
        wide = np.empty((2, batch * n_rows))
        narrow = np.empty((2, batch * n_kept))
        flags = np.empty((2, batch * n_kept), dtype=bool)
        for lo in starts:
            hi = min(lo + batch, n_cells)
            cells = hi - lo
            residual, scratch = (buf[: cells * n_rows].reshape(cells, n_rows) for buf in wide)
            np.multiply(c_p[lo:hi, None], a1, out=residual)
            residual += np.multiply(alpha[lo:hi, None], a2, out=scratch)
            residual -= targets
            if n_kept:
                ratios = wide[1, : cells * n_kept].reshape(cells, n_kept)
                np.divide(residual[:, kept], a3_kept, out=ratios)
                beta[lo:hi] = np.maximum(bracketed_median(ratios, narrow, flags), 0.0)
            residual -= np.multiply(beta[lo:hi, None], a3, out=scratch)
            numerator[lo:hi] = np.abs(residual, out=residual).sum(axis=1)

    workers = min(threads, -(-n_cells // batch))
    if workers > 1:
        stride = workers * batch
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, [range(lo, n_cells, stride) for lo in range(0, stride, batch)]))
    else:
        run(range(0, n_cells, batch))
    return beta, numerator


def best_beta(c_p: float, alpha: float, system: RegressionSystem) -> float:
    """Exact nonnegative minimizer of the L1 numerator over beta_ac."""
    if not (system.rows[:, 2] != 0.0).any():
        raise DegenerateColumn("a3")
    beta, _ = _evaluate_cells(np.array([c_p]), np.array([alpha]), system.rows, system.targets, threads=1)
    return float(beta[0])


def _neighborhood(axis: np.ndarray, value: float) -> tuple[float, float]:
    index = int(np.argmin(np.abs(axis - value)))
    return float(axis[max(index - 2, 0)]), float(axis[min(index + 2, len(axis) - 1)])


def grid_fit(
    system: RegressionSystem,
    grid: GridSpec = GridSpec(),
    use_integrated: bool = False,
    threads: int = 1,
) -> FitResult:
    """Grid search over (c_p, alpha) with the closed-form beta per cell.

    Cells where the objective denominator is not positive and finite are
    infeasible and skipped; if the whole initial grid is infeasible the
    search fails with NoFeasiblePoint. After the initial pass, each
    refinement pass re-grids the two-cell neighborhood of the incumbent
    linearly at full resolution. The incumbent is only ever replaced by a strictly
    better objective, or at an exact tie by a lexicographically smaller
    (c_p, alpha, beta_ac), so results are deterministic for any thread
    count and refinement never worsens the returned error.

    Args:
        system: assembled rows and targets.
        grid: axis bounds, resolution, spacing, and refinement depth.
        use_integrated: fit on the prefix sums that integrate attached.
        threads: worker threads for cell evaluation.

    Returns:
        FitResult with the winning theta, its relative error, and the initial
        pass as a (cells^2, 4) surface of (c_p, alpha, beta_ac, objective).
    """
    rows, targets = _active(system, use_integrated)
    load_sums = (float(rows[:, 0].sum()), float(rows[:, 1].sum()))

    c_p_axis = grid.c_p_axis()
    alpha_axis = grid.alpha_axis()
    best: Optional[tuple[float, float, float, float]] = None

    for pass_index in range(grid.refinement_passes + 1):
        if pass_index > 0:
            c_lo, c_hi = _neighborhood(c_p_axis, best[1])
            a_lo, a_hi = _neighborhood(alpha_axis, best[2])
            c_p_axis = np.linspace(c_lo, c_hi, grid.cells)
            alpha_axis = np.linspace(a_lo, a_hi, grid.cells)

        cell_c_p, cell_alpha = (arr.ravel() for arr in np.meshgrid(c_p_axis, alpha_axis, indexing="ij"))
        beta, numerator = _evaluate_cells(cell_c_p, cell_alpha, rows, targets, threads)
        denominator = cell_c_p * load_sums[0] + cell_alpha * load_sums[1]
        feasible = (denominator > 0) & (denominator < np.inf)
        objective_values = np.where(feasible, numerator / np.where(feasible, denominator, 1.0), np.inf)

        if pass_index == 0:
            surface = np.column_stack([cell_c_p, cell_alpha, beta, objective_values])
            if not np.isfinite(objective_values).any():
                raise NoFeasiblePoint()

        winner = int(np.lexsort((beta, cell_alpha, cell_c_p, objective_values))[0])
        candidate = (
            float(objective_values[winner]),
            float(cell_c_p[winner]),
            float(cell_alpha[winner]),
            float(beta[winner]),
        )
        if np.isfinite(candidate[0]) and (best is None or candidate < best):
            best = candidate

    theta = Theta(c_p=best[1], alpha=best[2], beta_ac=best[3])
    outer_c = grid.c_p_axis()
    outer_a = grid.alpha_axis()
    hit_bound = theta.c_p in (outer_c[0], outer_c[-1]) or theta.alpha in (outer_a[0], outer_a[-1])
    if hit_bound:
        warnings.warn(
            "grid fit landed on the search boundary; widen the grid bounds",
            RuntimeWarning,
            stacklevel=2,
        )
    return FitResult(
        theta=theta,
        relative_error=objective(theta, system, use_integrated),
        grid=grid,
        mode_frames_used=len(system),
        used_integration=use_integrated,
        hit_bound=hit_bound,
        surface=surface,
    )
