"""Constrained fit of the load coefficients from frame data.

The model per frame is the step energy balance,
    a1 * c_p + a2 * alpha - a3 * beta_ac = b
whose rows are the terms of `models` at unit coefficients: a1 = n *
(t_p - t_in) and a2 = t_out - t_in from load_terms, a3 = (t_water_in -
t_water_out) * v_cool_w from refrigerator_supply, and b = c * m_z *
delta from balance_target. As in models.supply, a3 is 0 where a frame's
mode leaves the water loop off, and b adds new_air_supply where it runs
the fan.

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
brackets around the half-weight split (the sample select of Floyd and
Rivest): a narrow bracket first, wider ones for the cells it cannot
decide, and the full sort for the cells that no bracket decides or where
rounding could tell the two apart, so every beta is the full sort's. How
narrow the first bracket is, is measured on each call's own cells:
prefix-summed rows bracket their median far more tightly than raw ones,
except near the best cells, where refinement passes search.

A batch's element-wise steps broadcast one row of the system against
every cell. numpy runs such a step through its ufunc buffer, 8192
elements by default, and once that buffer holds two or more rows it
copies rows into it instead of running its vector loop along each row:
on 3066-row batches the bracket compares took about three times as
long (2-CPU Xeon, numpy 2.4.6).
So each worker caps the buffer at _BUFSIZE elements, which holds two
rows only of systems of at most _BUFSIZE / 2 rows (such short systems
took the copying path at the default too), and restores the caller's
setting when its batches are done. The buffer changes no result.

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

import contextlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import HvacMode, StationConstants, Theta, require, theta_is_feasible
from .errors import (
    DegenerateColumn,
    EmptySystem,
    NoFeasiblePoint,
    NonPositiveDenominator,
)
from .ingest import FrameSeries
from .models import VENT_MODES, WATER_MODES, balance_target, load_terms, new_air_supply, refrigerator_supply

_BATCH_ELEMENTS = 1 << 16
# numpy's ufunc buffer inside the kernel's workers, in elements: a multiple
# of 16, and under two batch rows of any system over 256 rows
_BUFSIZE = 512
# the bracketed weighted median: sample rows, the ladder of bracket spans
# in sample ranks either side of the sample's middle, tried narrowest first
# from a start rung that each solver call measures on its own cells, the
# rung those cells start at (+-12), the fewest cells a call measures, a
# rung's cost per cell beside its span (see _start_rung), and the rounding
# margin in units of n_kept * eps * half
_SAMPLE_ROWS = 512
_SPANS = (4, 12, 24, 64)
_MEASURED_START = 1
_CALIBRATION_CELLS = 16
_RUNG_COST = 40
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
    default to max/cells for linear spacing and max * 1e-4 for log; a
    maximum so small that its default minimum underflows to 0 is
    rejected. Each refinement pass re-grids the two-cell neighborhood of
    the incumbent at full resolution.
    """

    c_p_max: float = 1000.0
    alpha_max: float = 10000.0
    c_p_min: Optional[float] = None
    alpha_min: Optional[float] = None
    cells: int = 200
    spacing: str = "log"
    refinement_passes: int = 2

    def __post_init__(self):
        require(self.spacing in ("log", "linear"), "spacing", f"must be 'log' or 'linear', got {self.spacing!r}")
        require(self.cells >= 1, "cells", "must be at least 1")
        require(self.refinement_passes >= 0, "refinement_passes", "must be nonnegative")
        for name in ("c_p_max", "alpha_max"):
            value = getattr(self, name)
            # a NaN or infinite maximum puts NaN into its axis
            require(math.isfinite(value) and value > 0, name, f"must be finite and positive, got {value}")
        for name, low, high in (("c_p", self.c_p_min, self.c_p_max), ("alpha", self.alpha_min, self.alpha_max)):
            require(
                low is None or 0 < low <= high, f"{name}_min", f"must be positive and at most the maximum, got {low}"
            )
            # a minimum of 0 puts an infeasible 0 on a linear axis and stops geomspace
            require(
                self.cells == 1 or self._minimum(low, high) > 0,
                f"{name}_max",
                f"is too small: its default minimum underflows to 0, got {high}",
            )

    def _minimum(self, low: Optional[float], high: float) -> float:
        if low is not None:
            return low
        return high / self.cells if self.spacing == "linear" else high * 1e-4

    def _axis(self, low: Optional[float], high: float) -> np.ndarray:
        if self.cells == 1:
            return np.array([high])
        space = np.linspace if self.spacing == "linear" else np.geomspace
        return space(self._minimum(low, high), high, self.cells)

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
    and the targets the balance target, each frame's supply taken per
    its mode as models.supply takes it. Only frames that carry a delta
    participate. Raises EmptySystem when the filter leaves nothing.
    """
    keep = np.flatnonzero(np.isin(series.mode[:-1], tuple(mode_filter)))
    if not len(keep):
        raise EmptySystem()
    a1, a2 = load_terms(1.0, 1.0, series.n[keep], series.t_in[keep], series.t_out[keep], constants.t_p)
    a3 = refrigerator_supply(1.0, series.t_water_in[keep], series.t_water_out[keep], series.v_cool_w[keep])
    targets = balance_target(series, constants)[keep]
    # the default filter's refrigerator frames need neither step
    if not mode_filter <= WATER_MODES:
        a3 = np.where(np.isin(series.mode[keep], tuple(WATER_MODES)), a3, 0.0)
    if mode_filter & VENT_MODES:
        new_air = new_air_supply(series.e_v[keep], series.t_in[keep], series.t_out[keep], constants)
        targets = targets + np.where(np.isin(series.mode[keep], tuple(VENT_MODES)), new_air, 0.0)
    return RegressionSystem(rows=np.column_stack([a1, a2, a3]), targets=targets)


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


def _rank_distances(sample: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Per cell, the narrowest span d whose bracket, from sample rank m - d
    to m + d about the middle m of the sorted sample, holds the pick."""
    middle = _SAMPLE_ROWS // 2
    above = (sample < picks[:, None]).sum(axis=1) - middle
    below = middle + 1 - (sample <= picks[:, None]).sum(axis=1)
    return np.maximum(np.maximum(above, below), 0)


def _start_rung(distances: np.ndarray) -> int:
    """The rung of _SPANS to start at with the least expected ladder cost.

    A rung costs a cell about _RUNG_COST + its span: the masks and the
    weight below cost the same at every rung, the compaction, sort and
    pick grow with the bracket (fitted to grid fits at each forced start
    on 3-day systems). A cell tries each rung from the start one on until
    one holds its pick, so a start rung costs its own cost plus each
    later rung's times the share of picks the rung before it misses. The
    cells that no rung holds go to the full sort from any start.
    """
    spans = np.array(_SPANS)
    cost = _RUNG_COST + spans
    # the share of picks that each rung's bracket misses, passed to the next rung
    missed = (distances[:, None] > spans).mean(axis=0)
    expected = [cost[k] + (cost[k + 1 :] * missed[k:-1]).sum() for k in range(len(spans))]
    return int(np.argmin(expected))


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
    only the rows inside it are sorted. The brackets form a ladder,
    _SPANS, tried narrowest first: a cell whose bracket misses the
    median, or whose running weight at the pick or just before it lies
    within a rounding margin of the half, goes on to the next, wider
    bracket, and a cell that no bracket decides is sorted in full. The
    margin bounds the error of any summation order, so outside it the
    bracket's sums and the full sort's cross half at the same ratio:
    beta equals the full sort's on every input.

    Where the ladder starts is measured by each call on its own cells.
    It first evaluates at least _CALIBRATION_CELLS cells, and at least a
    hundredth of the call, spread evenly over it, from +-12, which holds
    most picks of either kind of system, and records how many sample
    ranks each pick lies from the sample's middle, a distance that does
    not depend on the rung that decided the pick. Every later cell of the
    call starts at the rung that _start_rung finds cheapest for those
    distances. On an initial pass the picks of prefix-summed systems sit
    a rank or two from the middle and the ladder starts at +-4; raw ones
    put them 5 to 25 ranks away and it starts at +-12 or wider. Refinement
    cells lie near the winner, where prefix-summed picks too sit 5 to 12
    ranks off, so no start carries from one call to the next, and the
    whole batches a short refinement round measures hold most of its
    cells. The start rung changes which rung decides a cell, never its
    beta, and the same cells are measured at any thread count, so the
    start is the same too.

    Cells are evaluated in batches of about _BATCH_ELEMENTS cell-rows, so
    each float64 working array (512 KiB) fits in a core's L2 cache. Up to
    `threads` workers, one a batch at most, each take every workers-th
    batch and reuse one set of working arrays, allocated on first use:
    the residual and ratio rows of a batch and two flag masks. The rows
    a wider rung still has to decide move to the front of the ratios in
    place, and a certificate's row distances overwrite the residual
    sizes once the numerator is summed.
    Each worker runs its batches with numpy's ufunc buffer at _BUFSIZE
    elements, so that a row-broadcast step loops along each row rather
    than copying rows into the buffer (see the module docstring), and
    restores its thread's previous setting on return or raise.
    The batch size follows from the row count alone, and every cell is
    reduced along its own row, so the results are bit-identical for any
    batch size, any `threads` and any set of cells evaluated together.

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
        self.buffers = {}  # worker slot -> its working arrays
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
        calibration = 0
        if self.n_kept:
            # the start rung is measured first, on whole batches of cells spread
            # evenly over this call, at least a hundredth of it: neighbouring
            # cells share their ratios' order, so a run of them is one sample
            wanted = max(_CALIBRATION_CELLS, n_cells // 100)
            calibration = min(-(-wanted // self.batch) * self.batch, n_cells)
            spread = np.arange(calibration) * (n_cells - 1) // max(calibration - 1, 1)
            order = np.r_[spread, np.delete(np.arange(n_cells), spread)]
            c_p, alpha = c_p[order], alpha[order]
        beta = np.zeros(n_cells)
        numerator = np.empty(n_cells)
        planes = np.empty((n_cells, 3)) if certify else None
        # sample ranks from each measured cell's pick to the sample's middle
        distances = np.empty(calibration, dtype=np.intp)

        def run(slot: int, starts: range, start: int) -> None:
            # Arrays freed after every batch went back to the OS, and faulting
            # them in again took a third of a pass, so each worker slot
            # allocates once per solver.
            if slot not in self.buffers:
                self.buffers[slot] = (
                    np.empty((2, self.batch * self.n_rows)),
                    np.empty((2, self.batch * self.n_kept), dtype=bool),
                )
            wide, flags = self.buffers[slot]
            # the setting is the calling thread's (a context variable in numpy 2)
            previous = np.setbufsize(_BUFSIZE)
            try:
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
                        measured = distances[lo:hi] if lo < calibration else None
                        beta[lo:hi] = np.maximum(self._bracketed_median(ratios, flags, start, measured), 0.0)
                    residual -= np.multiply(beta[lo:hi, None], self.a3, out=scratch)
                    if certify:
                        np.sign(residual, out=scratch)
                    numerator[lo:hi] = np.abs(residual, out=residual).sum(axis=1)
                    if certify:
                        planes[lo:hi] = self._certificates(beta[lo:hi], scratch, residual)
            finally:
                np.setbufsize(previous)

        def dispatch(pool: Optional[ThreadPoolExecutor], batches: range, start: int) -> None:
            if pool is None:
                run(0, batches, start)
            else:
                slots = min(workers, len(batches))
                list(pool.map(run, range(slots), [batches[k::slots] for k in range(slots)], [start] * slots))

        batches = range(0, n_cells, self.batch)
        first = -(-calibration // self.batch)
        workers = min(self.threads, len(batches))
        # one pool for both phases: the threads of a second pool left the
        # process holding more memory
        with ThreadPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
            start = _MEASURED_START
            if calibration:
                # the same cells are measured at any thread count, and so the
                # rung that the later batches start at is the same too
                dispatch(pool, batches[:first], start)
                start = _start_rung(distances)
            dispatch(pool, batches[first:], start)
        if calibration:
            inverse = np.argsort(order)
            beta, numerator = beta[inverse], numerator[inverse]
            planes = None if planes is None else planes[inverse]
        return beta, numerator, planes

    def _bracketed_median(
        self, ratios: np.ndarray, flags: np.ndarray, start: int, measured: Optional[np.ndarray] = None
    ) -> np.ndarray:
        # the full sort's pick for every cell: each rung of _SPANS from the
        # start rung on decides the cells its bracket can and passes the rest
        # to the next, wider one; the full sort takes the cells that no rung
        # decides. Sorting the 512 sample values once is faster here than
        # partitioning them at each rung. `measured`, when given, takes each
        # pick's distance from the sample's middle. ratios is overwritten
        sample = np.sort(ratios[:, self.sample], axis=1)
        median = np.empty(len(ratios))
        todo = np.arange(len(ratios))
        for span in _SPANS[start:]:
            ranks = [_SAMPLE_ROWS // 2 - span, _SAMPLE_ROWS // 2 + span]
            low, high = sample[todo[:, None], ranks].T[:, :, None]
            value, usable = self._bracket_pick(ratios[: len(todo)], low, high, flags)
            median[todo[usable]] = value[usable]
            left = np.flatnonzero(~usable)
            todo = todo[left]
            if not len(todo):
                break
            # the undecided rows move to the front, row left[i] to row i; in
            # ascending order no row is overwritten before it has moved
            for i, row in enumerate(left.tolist()):
                if row != i:
                    ratios[i] = ratios[row]
        else:
            median[todo] = _sorted_median(ratios[: len(todo)], self.weights, self.half_weight)
        if measured is not None:
            measured[:] = _rank_distances(sample, median)
        return median

    def _bracket_pick(
        self, ratios: np.ndarray, low: np.ndarray, high: np.ndarray, flags: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's pick from the rows with low <= ratio <= high, and
        whether it is certainly the full sort's."""
        cells, n_kept, weights, half_weight = len(ratios), self.n_kept, self.weights, self.half_weight
        below, inside = (buf[: cells * n_kept].reshape(cells, n_kept) for buf in flags)
        np.less(ratios, low, out=below)
        # einsum runs its own loops, with no BLAS and no threads; its order of
        # summation differs from a sequential sum's, which split_margin allows
        below_weight = np.einsum("ij,j->i", below, weights)
        # low <= ratio <= high, written as (ratio <= high) and not below
        np.greater(np.less_equal(ratios, high, out=inside), below, out=inside)

        flat = np.flatnonzero(inside)
        if not len(flat):
            # no cell has a row inside its bracket
            return np.empty(cells), np.zeros(cells, dtype=bool)
        row, column = np.divmod(flat, n_kept)
        counts = np.bincount(row, minlength=cells)
        width = int(counts.max())
        starts = np.cumsum(counts) - counts
        # the rows inside each bracket, left-aligned and padded with +inf of no weight
        slot = row * width + np.arange(len(flat)) - starts[row]
        middle, running = np.full(cells * width, np.inf), np.zeros(cells * width)
        middle[slot] = ratios.ravel()[flat]
        running[slot] = weights[column]
        order = np.argsort(middle.reshape(cells, width), axis=1)
        cell = np.arange(cells)
        order += (cell * width)[:, None]
        running = running[order]
        np.cumsum(running, axis=1, out=running)
        running += below_weight[:, None]
        pick = np.argmax(running >= half_weight, axis=1)
        at = running[cell, pick]
        before = np.where(pick > 0, running[cell, pick - 1], below_weight)
        # a bracket that misses the median leaves `at` below the half or
        # `before` at or above it; NaN sums fail both tests too
        usable = (at - half_weight > self.split_margin) & (half_weight - before > self.split_margin)
        return middle[order[cell, pick]], usable

    def _certificates(self, beta: np.ndarray, signs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Planes (g1, g2, g3) of a batch from the signs and sizes of its
        residuals e_i at each cell's beta; both are overwritten.

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
            # |e_i| / |a3_i| is the distance of row i's ratio from beta, written
            # over the front of sizes (where every row has weight, over sizes itself)
            distance = sizes.reshape(-1)[: len(sizes) * self.n_kept].reshape(len(sizes), self.n_kept)
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
