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

The initial pass evaluates every cell: it is the error surface. A
refinement pass only has to find its winner, so it runs best-first. Each
evaluated cell also yields a dual certificate: signs s in [-1, 1] with
sum s a3 <= 0, whose plane c_p sum s a1 + alpha sum s a2 - sum s b lies
below the numerator of every cell and meets it at its own (the dual LP
of Charnes-Cooper and Barrodale-Roberts). The pass evaluates a coarse
sub-grid, then in rounds the cells with the lowest certified bounds,
and skips every cell whose best plane, less a stated rounding margin,
puts its computed objective strictly above the lower of the incumbent
and the best cell of the pass (branch and bound after Land and Doig).
Such a cell can neither win nor tie, and every evaluated cell's beta and
numerator are bit-identical whatever it is evaluated with, so the fit is
the exhaustive pass's, byte for byte.
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
_BRACKET_RANKS = (_SAMPLE_ROWS // 2 - _BRACKET_SPAN, _SAMPLE_ROWS // 2 + _BRACKET_SPAN)
_MARGIN_ULPS = 8
# a refinement pass first evaluates every 16th cell per axis, and the last
_COARSE_STRIDE = 16


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
    # cells evaluated per pass: the initial pass in full, refinement pruned
    cells_evaluated: tuple[int, ...] = field(default=(), compare=False)

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


class _CellSolver:
    """Closed-form inner solve for every (c_p, alpha) cell of one system.

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
    arrays, allocated once per solver, for all of them. The batch size
    follows from the row count alone, and every cell is reduced along its
    own row, so the results are bit-identical for any batch size, any
    `threads` and any set of cells evaluated together.

    The weights, the sample and the rounding margins depend on the system
    alone and are built once, so a fit calls the solver once a round.
    """

    def __init__(self, rows: np.ndarray, targets: np.ndarray, threads: int):
        self.a1, self.a2, self.a3 = (np.ascontiguousarray(rows[:, j]) for j in range(3))
        self.targets = targets
        self.threads = threads
        nonzero = self.a3 != 0.0
        # a basic slice keeps residual[:, kept] a view when every row has weight
        self.kept = slice(None) if nonzero.all() else np.flatnonzero(nonzero)
        self.kept_rows = np.flatnonzero(nonzero)
        self.a3_kept = self.a3[self.kept]
        self.weights = np.abs(self.a3_kept)
        self.half_weight = 0.5 * self.weights.sum()
        self.n_rows, self.n_kept = len(self.a3), len(self.weights)
        self.batch = max(1, _BATCH_ELEMENTS // self.n_rows)
        self.buffers = [None] * threads
        if self.n_kept:
            cumulative = np.cumsum(self.weights)
            quantiles = (np.arange(_SAMPLE_ROWS) + 0.5) / _SAMPLE_ROWS * cumulative[-1]
            self.sample = np.minimum(np.searchsorted(cumulative, quantiles), self.n_kept - 1)
            # a running sum of the weights, in any order, lies within about
            # n_kept * eps * half_weight of its exact value. Where the bracket's
            # sums at the pick and just before it clear the half by more than
            # two such errors, the full sort's sum crosses the half within the
            # same run of equal ratios, so both pick the same value; the margin
            # allows eight
            self.split_margin = _MARGIN_ULPS * self.n_kept * np.finfo(float).eps * self.half_weight
        # a certificate's sums against these rows: (g1, g2, g3, sum s_i a3_i)
        self.columns = np.array([self.a1, self.a2, targets, self.a3])
        # (n + 16) eps per unit of sum |column|, the rounding slacks of prune_margin
        self.slacks = (self.n_rows + 16) * np.finfo(float).eps * np.abs(self.columns).sum(axis=1)

    def __call__(
        self, c_p: np.ndarray, alpha: np.ndarray, certify: bool = False
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(beta, numerator, planes) per cell; planes only when certify.

        A plane (g1, g2, g3) certifies that every cell (c, a) has a
        numerator of at least c g1 + a g2 - g3, up to the margin of
        prune_margin; a row of NaN is a certificate that was dropped.
        """
        n_cells = len(c_p)
        beta = np.zeros(n_cells)
        numerator = np.empty(n_cells)
        planes = np.empty((n_cells, 3)) if certify else None

        def run(slot: int, starts: range) -> None:
            # Arrays freed after every batch went back to the OS, and faulting
            # them in again took a third of a pass, so each worker slot
            # allocates once per solver.
            if self.buffers[slot] is None:
                self.buffers[slot] = (
                    np.empty((2, self.batch * self.n_rows)),
                    np.empty((2, self.batch * self.n_kept)),
                    np.empty((2, self.batch * self.n_kept), dtype=bool),
                )
            wide, narrow, flags = self.buffers[slot]
            for lo in starts:
                hi = min(lo + self.batch, n_cells)
                cells = hi - lo
                residual, scratch = (buf[: cells * self.n_rows].reshape(cells, self.n_rows) for buf in wide)
                np.multiply(c_p[lo:hi, None], self.a1, out=residual)
                residual += np.multiply(alpha[lo:hi, None], self.a2, out=scratch)
                residual -= self.targets
                if self.n_kept:
                    ratios = wide[1, : cells * self.n_kept].reshape(cells, self.n_kept)
                    np.divide(residual[:, self.kept], self.a3_kept, out=ratios)
                    beta[lo:hi] = np.maximum(self._bracketed_median(ratios, narrow, flags), 0.0)
                residual -= np.multiply(beta[lo:hi, None], self.a3, out=scratch)
                if certify:
                    np.sign(residual, out=scratch)
                numerator[lo:hi] = np.abs(residual, out=residual).sum(axis=1)
                if certify:
                    planes[lo:hi] = self._certificates(beta[lo:hi], scratch, residual, narrow[0])

        batches = range(0, n_cells, self.batch)
        workers = min(self.threads, len(batches))
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run, range(workers), [batches[k::workers] for k in range(workers)]))
        else:
            run(0, batches)
        return beta, numerator, planes

    def _bracketed_median(self, ratios: np.ndarray, narrow: np.ndarray, flags: np.ndarray) -> np.ndarray:
        # the full sort's pick for every cell, from the rows near the half-weight split
        cells, n_kept, weights, half_weight = len(ratios), self.n_kept, self.weights, self.half_weight
        # sorting 512 values is faster here than partitioning them at two ranks
        low, high = np.sort(ratios[:, self.sample], axis=1)[:, _BRACKET_RANKS].T[:, :, None]
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
        usable = (at - half_weight > self.split_margin) & (half_weight - before > self.split_margin)
        fallback = np.flatnonzero(~usable)
        if len(fallback):
            median[fallback] = _sorted_median(ratios[fallback], weights, half_weight)
        return median

    def _certificates(self, beta: np.ndarray, signs: np.ndarray, sizes: np.ndarray, spare: np.ndarray) -> np.ndarray:
        """Planes (g1, g2, g3) of a batch from the signs and sizes of its
        residuals e_i at each cell's beta; signs is changed in place, and
        spare is a free buffer of a batch's kept rows.

        For s in [-1, 1]^n with sum s_i a3_i <= 0 and any beta >= 0,
        sum |r_i - beta a3_i| >= sum s_i r_i - beta sum s_i a3_i >= sum s_i r_i,
        a plane in (c_p, alpha). With s = sign(e) it meets the cell's
        numerator N there up to beta * sum s_i a3_i. At the weighted median
        the rows above weigh at most the rows through it, so the median
        row, whose e_i is about zero, can take the fractional sign that
        puts the sum at 4 slacks below zero: the plane then stays valid
        and within about 5 beta slacks of N at the cell. A cell clamped
        at beta = 0 keeps its signs unless the sum is not below its
        slack. A certificate whose recomputed sum is still not below it
        is dropped (NaN).
        """
        sums = self._sums(signs)
        slack = self.slacks[3]
        moved = np.flatnonzero((beta > 0) | ~(sums[:, 3] <= -slack))
        if len(moved) and self.n_kept:
            # |e_i| / |a3_i| is the distance of row i's ratio from beta
            distance = spare[: len(sizes) * self.n_kept].reshape(len(sizes), self.n_kept)
            np.divide(sizes[:, self.kept], self.weights, out=distance)
            row = self.kept_rows[np.argmin(distance, axis=1)[moved]]
            step = (sums[moved, 3] + 4.0 * slack) / self.a3[row]
            signs[moved, row] = np.clip(signs[moved, row] - step, -1.0, 1.0)
            sums = self._sums(signs)
        sums[~((sums[:, 3] <= -slack) & np.isfinite(sums).all(axis=1))] = np.nan
        return sums[:, :3]

    def _sums(self, signs: np.ndarray) -> np.ndarray:
        # einsum without optimize runs its own loops; a BLAS matrix product
        # here added OpenBLAS's work buffer, about 0.35 MB, to a fit's peak RSS
        return np.einsum("ij,kj->ik", signs, self.columns)

    def prune_margin(self, c_p: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Rounding margin of the plane test at each cell.

        Let n be the row count, eps = 2**-52 and R(x) = c sum|a1| +
        alpha sum|a2| + sum|b| at a cell x = (c, alpha) with c, alpha > 0.
        A certificate's exact plane L(x) is at most the exact numerator
        of every cell at the kernel's beta (see _certificates), and
        |L(x)| <= R(x). In floats:
          - the sums g, in any order, and the plane's three
            terms put the computed plane within (n + 5) eps R(x) of L(x);
          - a computed residual is within 2 eps |e_i| + 4 eps (|c a1_i| +
            |alpha a2_i| + |b_i|) of the exact one, since |beta a3_i| <=
            |e_i| + |r_i|, and the row sum of the nonnegative |e_i| within
            (n - 1) eps of its terms' total, so the computed numerator is
            at least (1 - (n + 3) eps) N - 5 eps R(x);
          - the test `plane - margin > t' D` itself rounds by at most
            3 eps R(x) where it passes.
        So a plane that clears the margin by that test puts the computed
        numerator at or above t' D, for a margin of (2n + 17) eps R(x)
        plus the absolute error of subnormal results. This one allows
        4 (n + 16) eps R(x), about twice that for n below 1e8, and 8 (n + 1)
        subnormal units. It is absolute, not relative to the objective:
        a noiseless system whose best objective is about 6e-15 is pruned
        only where a plane clears the load by about n eps. The slack on
        sum s_i a3_i is (n + 16) eps sum|a3|, the error bound of that sum in
        any order.
        """
        g1, g2, g3, _ = self.slacks
        return 4.0 * (c_p * g1 + alpha * g2 + g3) + 8.0 * (self.n_rows + 1) * np.finfo(float).smallest_subnormal


def best_beta(c_p: float, alpha: float, system: RegressionSystem) -> float:
    """Exact nonnegative minimizer of the L1 numerator over beta_ac."""
    if not (system.rows[:, 2] != 0.0).any():
        raise DegenerateColumn("a3")
    beta, _, _ = _CellSolver(system.rows, system.targets, 1)(np.array([c_p]), np.array([alpha]))
    return float(beta[0])


def _neighborhood(axis: np.ndarray, value: float) -> tuple[float, float]:
    index = int(np.argmin(np.abs(axis - value)))
    return float(axis[max(index - 2, 0)]), float(axis[min(index + 2, len(axis) - 1)])


def _pass_cells(
    c_p_axis: np.ndarray, alpha_axis: np.ndarray, load_sums: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pass's cells, c_p-major, and the objective denominator at each."""
    c_p, alpha = (arr.ravel() for arr in np.meshgrid(c_p_axis, alpha_axis, indexing="ij"))
    return c_p, alpha, c_p * load_sums[0] + alpha * load_sums[1]


def _objective_values(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Each cell's objective, +inf where the denominator is not positive and finite."""
    feasible = (denominator > 0) & (denominator < np.inf)
    return np.where(feasible, numerator / np.where(feasible, denominator, 1.0), np.inf)


def _winner(values: np.ndarray, c_p: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> tuple[float, ...]:
    """(objective, c_p, alpha, beta_ac) at the lowest objective, ties to the smallest (c_p, alpha, beta_ac)."""
    cell = int(np.lexsort((beta, alpha, c_p, values))[0])
    return float(values[cell]), float(c_p[cell]), float(alpha[cell]), float(beta[cell])


def _pruned_pass(
    solver: _CellSolver,
    c_p: np.ndarray,
    alpha: np.ndarray,
    denominator: np.ndarray,
    incumbent: float,
    cells: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate a refinement pass best-first, skipping the cells that
    cannot win; returns the evaluated cells' indices, beta and numerator.

    The pass starts with every _COARSE_STRIDE-th cell per axis and the
    last, then evaluates in rounds the unevaluated cells with the lowest
    certified lower bounds on their objective, until none is left whose
    bound could reach t, the lower of the incumbent's objective and the
    best of the pass so far. Each evaluated cell certifies a plane below
    every cell's numerator (_CellSolver._certificates). A cell is skipped
    where such a plane, less prune_margin, exceeds t' D, t' being the
    float after t: its computed objective is then at least t' and so
    strictly above the winner's, and it can neither win the pass, tie
    its winner nor replace the incumbent. The fit is the exhaustive
    pass's, whatever the rounds; with no finite t or no certificate the
    rest of the pass is evaluated at once.
    """
    n_cells = len(c_p)
    beta, numerator = np.empty(n_cells), np.empty(n_cells)
    evaluated = np.zeros(n_cells, dtype=bool)
    # the highest certified plane at each cell, and the margin it must clear
    plane = np.full(n_cells, -np.inf)
    margin = solver.prune_margin(c_p, alpha)
    round_cells = solver.batch * solver.threads
    coarse = np.unique(np.r_[0:cells:_COARSE_STRIDE, cells - 1])
    batch = (coarse[:, None] * cells + coarse).ravel()
    best = incumbent
    while len(batch):
        beta[batch], numerator[batch], planes = solver(c_p[batch], alpha[batch], certify=True)
        evaluated[batch] = True
        objective = _objective_values(numerator[batch], denominator[batch])
        best = float(np.min(objective, initial=best, where=~np.isnan(objective)))
        # one plane at a time keeps the working set to a few grid-sized arrays
        for g1, g2, g3 in planes[~np.isnan(planes).any(axis=1)].tolist():
            np.maximum(plane, c_p * g1 + alpha * g2 - g3, out=plane)
        batch = np.flatnonzero(~evaluated)
        if not (math.isfinite(best) and (plane > -np.inf).any()):
            continue
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            bound = plane[batch] - margin[batch]
            open_ = ~(bound > np.nextafter(best, math.inf) * denominator[batch])
            batch, bound = batch[open_], bound[open_]
            lowest = np.argsort(bound / denominator[batch], kind="stable")
        batch = batch[lowest[:round_cells]]
    done = np.flatnonzero(evaluated)
    return done, beta[done], numerator[done]


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
    count and refinement never worsens the returned error. A refinement
    pass evaluates only the cells that a certified lower bound leaves in
    the running (_pruned_pass); the others cannot change the result.

    Args:
        system: assembled rows and targets.
        grid: axis bounds, resolution, spacing, and refinement depth.
        use_integrated: fit on the prefix sums that integrate attached.
        threads: worker threads for cell evaluation, at least 1.

    Returns:
        FitResult with the winning theta, its relative error, the initial
        pass as a (cells^2, 4) surface of (c_p, alpha, beta_ac, objective),
        and the number of cells evaluated in each pass.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    rows, targets = _active(system, use_integrated)
    load_sums = (float(rows[:, 0].sum()), float(rows[:, 1].sum()))
    solver = _CellSolver(rows, targets, threads)
    outer_c, outer_a = grid.c_p_axis(), grid.alpha_axis()

    c_p, alpha, denominator = _pass_cells(outer_c, outer_a, load_sums)
    beta, numerator, _ = solver(c_p, alpha)
    values = _objective_values(numerator, denominator)
    surface = np.column_stack([c_p, alpha, beta, values])
    if not np.isfinite(values).any():
        raise NoFeasiblePoint()
    best = _winner(values, c_p, alpha, beta)
    cells_evaluated = [len(values)]

    c_p_axis, alpha_axis = outer_c, outer_a
    for _ in range(grid.refinement_passes):
        c_p_axis = np.linspace(*_neighborhood(c_p_axis, best[1]), grid.cells)
        alpha_axis = np.linspace(*_neighborhood(alpha_axis, best[2]), grid.cells)
        c_p, alpha, denominator = _pass_cells(c_p_axis, alpha_axis, load_sums)
        done, beta, numerator = _pruned_pass(solver, c_p, alpha, denominator, best[0], grid.cells)
        cells_evaluated.append(len(done))
        candidate = _winner(_objective_values(numerator, denominator[done]), c_p[done], alpha[done], beta)
        # best is finite, so an infinite or NaN objective never replaces it
        best = min(best, candidate)

    theta = Theta(c_p=best[1], alpha=best[2], beta_ac=best[3])
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
        cells_evaluated=tuple(cells_evaluated),
    )
