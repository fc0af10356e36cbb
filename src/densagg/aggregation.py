"""Progressive-mixture aggregation and minimum-distance selection.

Weight rows are running products of likelihood ratios where a count bound
proves that none underflows, else log-domain softmaxes, so long samples and
vanishing likelihoods are handled without under/overflow: a candidate that
assigns zero likelihood to any observed prefix point has weight exactly 0
from that row onward.  The batched forms, which take R samples as cells of
shape (R, n), act on each sample exactly as on it alone, so batched and
one-sample results are equal bit for bit.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .densities import (
    MASS_TOL,
    FunctionClass,
    PiecewiseDensity,
    ValidationError,
    _arrays_equal,
    _arrays_hash,
    _cell_dtype,
    _cell_indices,
    _check_breakpoints,
    _check_density_rows,
    _union_grid,
    _values_on,
    validate_class,
)

__all__ = [
    "CandidateSet",
    "WeightTrajectory",
    "empirical_kl",
    "progressive_weights",
    "mixture",
    "aggregate",
    "yatracos_class",
    "yatracos_select",
]

#: Entries per block of weight rows: 2^17 doubles (1 MiB).  The kernel's
#: workers take turns at the interpreter lock between numpy calls; blocks
#: this large keep those hand-offs rare.
_BLOCK_ELEMENTS = 2**17

#: Sample points per segment of the weight kernel: each starts from the
#: exact cell counts before it, so no row's log-likelihood is a running sum
#: of more than 2^14 terms, and segments run on any worker.
_SEGMENT_ROWS = 2**14

#: Entries per chunk of each of the selector's work arrays, by rows or by
#: (row, candidate) pairs: 2^15 doubles (256 KiB) stay in cache.
_SELECT_ELEMENTS = 2**15

#: Probe sets per sample whose deviations bound each selector score from
#: below; they decide only how many candidates are scored in full.
_PROBES = 16

#: Blocks whose running product or sum has at least this many columns
#: (lanes·M, or lanes·M/2 complex ones for an even log-domain sum) take it as
#: one ``np.multiply`` or ``np.add`` per row, the faster from about here on
#: (README gives the timings); narrower ones take ``np.cumprod`` or
#: ``np.cumsum``.  Both perform the same operations in the same order.
_ROW_LOOP_WIDTH = 512

#: A product lane keeps some candidate above ``2^-_PRODUCT_BITS`` (:func:`_lane_starts`).
_PRODUCT_BITS = 900


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """A finite family of densities re-expressed on one shared grid.

    ``values[j]`` are candidate ``j``'s cell values on ``grid``.  Building
    the shared refinement once up front makes every downstream operation
    (likelihood evaluation, mixing, comparison sets) a plain array op.
    ``log_table[c, j]`` is ``log values[j, c]`` (``-inf`` where a candidate
    vanishes) and ``ratio_table[c, j]`` is ``values[j, c] / max_i values[i,
    c]`` (0 where every candidate vanishes), laid out cells × M so that one
    sample point's terms are one contiguous row.  Two sets are equal when
    their grids and values are.
    """

    grid: np.ndarray
    values: np.ndarray
    log_table: np.ndarray = field(init=False, repr=False)
    ratio_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).copy()
        vals = np.asarray(self.values, dtype=float).copy()
        if grid.ndim != 1 or vals.ndim != 2 or vals.shape[1] != grid.size - 1:
            raise ValidationError("candidate values must be (M, len(grid) - 1)")
        if vals.shape[0] < 1:
            raise ValidationError("need at least one candidate")
        _check_breakpoints(grid)
        finite = np.all(np.isfinite(vals), axis=1)
        if not finite.all():
            raise ValidationError(f"candidate {np.argmin(finite)}: cell values must be finite")
        _check_density_rows(vals, np.diff(grid), "candidate")
        with np.errstate(divide="ignore"):
            log_table = np.ascontiguousarray(np.log(vals).T)
        top = vals.max(axis=0)[:, None]
        ratio_table = np.divide(vals.T, top, out=np.zeros_like(log_table), where=top > 0)
        for name, arr in [("grid", grid), ("values", vals), ("log_table", log_table),
                          ("ratio_table", ratio_table)]:
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        return _arrays_equal(self, other, ("grid", "values"))

    def __hash__(self):
        return _arrays_hash(self, ("grid", "values"))

    @classmethod
    def from_densities(cls, densities, bound: float | None = None) -> "CandidateSet":
        """Refine a sequence of densities onto their common grid.

        When ``bound`` is given, every candidate must additionally lie in
        the KL candidate class for that bound (densities with sup at most
        ``bound``); membership is not checked otherwise.
        """
        densities = list(densities)
        if not densities:
            raise ValidationError("need at least one candidate")
        if bound is not None:
            for j, f in enumerate(densities):
                if not validate_class(f, FunctionClass.KL_CANDIDATE, bound):
                    raise ValidationError(
                        f"candidate {j} is outside the bounded density class "
                        f"(bound {bound!r})"
                    )
        grid = _union_grid([f.breakpoints for f in densities])
        vals = np.stack([_values_on(f, grid) for f in densities])
        return cls(grid, vals)

    @cached_property
    def _log_ratios(self) -> np.ndarray:
        """``log ratio_table`` by ``math.log``, whose bits, unlike ``np.log``'s,
        do not move with numpy's SIMD target: the lane form rule reads it."""
        return np.reshape([math.log(v) if v else -math.inf for v in self.ratio_table.flat],
                          self.ratio_table.shape)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def cell_lengths(self) -> np.ndarray:
        return np.diff(self.grid)

    def candidate(self, j: int) -> PiecewiseDensity:
        return PiecewiseDensity(self.grid, self.values[j])

    def cell_indices(self, x) -> np.ndarray:
        """Shared-grid cell of each sample point; rejects non-finite points
        and points outside ``[0, 1]``."""
        return _cell_indices(self.grid, x, "sample points")

    def log_likelihood_terms(self, x) -> np.ndarray:
        """``log f_j(X_i)`` as an (n, M) matrix, ``-inf`` where a candidate vanishes."""
        return self.log_table[self.cell_indices(x)]


@dataclass(frozen=True, eq=False)
class WeightTrajectory:
    """Simplex weight vectors after each sample prefix.

    ``weights[k]`` is the weight vector computed from the first ``k``
    points (row 0 is the all-equal prior); ``averaged`` is the column mean
    over all ``n + 1`` rows, i.e. the mixing vector the aggregate uses.

    A trajectory stores its candidates and the sample's shared-grid cells,
    copied unless no writable array can reach them (they and each array
    they view are read-only, the last owning its memory), and computes
    ``averaged`` from them on construction, in O(block) memory.
    :func:`progressive_weights` stores ``cells`` in the narrowest unsigned
    dtype that holds the grid's cells (``uint8`` up to 256 cells), so never
    subtract from them; any integer dtype is accepted and checked, since the
    kernel's gather does not check its indices.  The (n+1)×M ``weights``
    matrix is computed on first access, by the same kernel at one worker,
    one lane at a time in row order; :meth:`to_csv` streams its blocks
    without keeping the matrix.  Trajectories are equal when their
    candidates and cell values are, whatever the cells' dtype.
    """

    candidates: CandidateSet
    cells: np.ndarray
    averaged: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cells, width = np.asarray(self.cells), self.candidates.values.shape[1]
        if not (cells.ndim == 1 and cells.dtype.kind in "iu"
                and (cells.size == 0 or (cells.min() >= 0 and cells.max() < width))):
            raise ValidationError(
                f"trajectory cells must be a 1-D integer array of grid cells in [0, {width})")
        owner = cells
        while not owner.flags.writeable and isinstance(owner.base, np.ndarray):
            owner = owner.base
        if owner.flags.writeable or owner.base is not None:  # a copy no caller can change
            cells = cells.copy()
            cells.setflags(write=False)
        averaged = _averaged_weights(self.candidates, cells[None])[0]
        averaged.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "averaged", averaged)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.candidates == other.candidates and np.array_equal(self.cells, other.cells)

    def __hash__(self):
        return hash(self.candidates)

    @property
    def n_steps(self) -> int:
        return self.cells.size

    @property
    def n_candidates(self) -> int:
        return self.candidates.size

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.empty((self.n_steps + 1, self.n_candidates))

        def visit(r, k, rows):
            w[k:k + rows.shape[0]] = rows

        _averaged_weights(self.candidates, self.cells[None], 1, visit)
        w.setflags(write=False)
        return w

    def to_csv(self, path) -> None:
        """Write rows ``k, w_1, ..., w_M`` with full-precision floats."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k"] + [f"w_{j + 1}" for j in range(self.n_candidates)])

            def visit(r, k, rows):
                for i, row in enumerate(rows, k):
                    writer.writerow([i] + [repr(float(v)) for v in row])

            _averaged_weights(self.candidates, self.cells[None], 1, visit)


def empirical_kl(f: PiecewiseDensity, x) -> float:
    """Empirical Kullback loss ``-(1/n) Σ log f(X_i)``.

    ``+inf`` when ``f`` vanishes at any sample point; rejects an empty
    sample, for which the loss is undefined.
    """
    pts = np.asarray(x, dtype=float)
    if pts.size == 0:
        raise ValidationError("empirical_kl needs at least one sample point")
    vals = np.asarray(f(pts), dtype=float)
    if np.any(vals == 0.0):
        return math.inf
    return float(-np.mean(np.log(vals)))


def _exp_log_rows(log_w: np.ndarray, first_row: int = 0) -> np.ndarray:
    """``exp`` of each row less its max over the last axis, in place: weight
    rows up to their sums, exact about zeros.

    ``log_w`` is (rows, M) or (rows, R, M); it is overwritten and returned.
    ``-inf`` entries come out as exactly 0 and each row's largest as 1.  The
    max is seeded with its identity, ``-inf``, which spares the reduction a
    copy of each row's first entry and changes no weight.  A row whose max is
    ``-inf`` (every candidate at zero likelihood) has no normalizer and is an
    error; ``first_row`` is the trajectory row index of ``log_w[0]``, for the
    message.
    """
    row_max = log_w.max(axis=-1, initial=-np.inf)
    dead = ~np.isfinite(row_max)
    if np.any(dead):
        k = first_row + int(np.nonzero(dead)[0][0])
        raise ValidationError(
            f"every candidate has zero likelihood on the first {k} sample points; "
            "weights are undefined"
        )
    np.subtract(log_w, row_max[..., None], out=log_w)
    return np.exp(log_w, out=log_w)


def _block_rows(table: np.ndarray, idx: np.ndarray, out: np.ndarray, carry: np.ndarray,
                product: bool) -> np.ndarray:
    """One block of running rows, (rows, lanes, M), in ``out[:rows]``.

    ``idx`` holds the block's cells, (rows, lanes).  Their terms are gathered
    from ``table`` into ``out``; then ``carry``, the running row before the
    block (lanes, M), is multiplied into the first term and a running product
    runs down the block (``product``: ratios), or it is added and a running
    sum runs (logs): per lane, one ``cumprod`` or ``cumsum``'s operations.
    """
    # The cells come from ``_cell_lookup`` or a checked trajectory, so
    # every index is in range; "clip" gathers straight into ``out``,
    # "raise" through a copy.
    terms = np.take(table, idx, axis=0, out=out[:idx.shape[0]], mode="clip")
    chains = terms.reshape(terms.shape[0], -1)
    if product:
        terms[0] *= carry
        step, running = np.multiply, np.cumprod
    else:
        terms[0] += carry
        # A complex addition is one float addition per component, so paired
        # columns get the same additions in the same order in half the chains.
        if chains.shape[1] % 2 == 0:
            chains = chains.view(np.complex128)
        step, running = np.add, np.cumsum
    if chains.shape[1] >= _ROW_LOOP_WIDTH:
        for prev, row in zip(chains, chains[1:]):
            step(prev, row, out=row)
    else:
        running(chains, axis=0, out=chains)
    return terms


def _counted_log_likelihoods(table: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``Σ_c counts[c] · table[c]`` (M,) in cell order over the cells seen, so no
    ``-inf`` meets a zero count: with ``log_table``, a prefix's log-likelihood."""
    seen = np.flatnonzero(counts)
    return (counts[seen, None] * table[seen]).sum(axis=0)


def _lane_starts(candidates: CandidateSet, cells: np.ndarray):
    """Each lane's form and start row, for cells (R, n): ``(product,
    start)``, (segments, R) and (segments, R, M).

    Lane ``(s, r)`` is segment ``s`` of replication ``r``.  A product lane
    starts from ones (``s = 0``) or from :func:`_exp_log_rows` of the exact
    log-likelihood of the points before it (:func:`_counted_log_likelihoods`),
    a log lane from zeros or from that log-likelihood.  A lane is a product
    lane when some candidate ``j`` has ``a_j + Σ_c N_c · log ratio_table[c,
    j] >= -_PRODUCT_BITS · ln 2``: ``N`` are the lane's cell counts and
    ``a_j``, a lower bound on the log of its start row, is 0 at ``s = 0``,
    else ``L_j - max_i L_i - log M`` for ``L`` the same sum over the counts
    before the lane.  No ratio exceeds 1, so that candidate's product, and
    with it every row sum, stays above ``2^-_PRODUCT_BITS``: no row dies, and
    an entry that underflows to 0 had a weight below 2^-174.  A lane
    passing with ``len · min_c log ratio_table[c, j]`` for the sum is not
    counted, which spares the rate study ~20%.  The rule reads the lane's
    cells only, sums in a fixed order without BLAS and takes ``math.log``'s
    logs: no form depends on the batch, the workers or the SIMD target.
    """
    (r_count, n), m = cells.shape, candidates.size
    logs, floor = candidates._log_ratios, -_PRODUCT_BITS * math.log(2)
    segments = max(1, -(-n // _SEGMENT_ROWS))
    product, start = np.zeros((segments, r_count), dtype=bool), np.zeros((segments, r_count, m))
    before = np.zeros((r_count, logs.shape[0]), dtype=np.intp)
    for s in range(segments):
        lanes = cells[:, s * _SEGMENT_ROWS:(s + 1) * _SEGMENT_ROWS]
        ll = lift = np.zeros((r_count, m))
        with np.errstate(invalid="ignore"):  # NaN where every candidate is dead
            if s:
                ll = np.stack([_counted_log_likelihoods(candidates.log_table, b) for b in before])
                lift = np.stack([_counted_log_likelihoods(logs, b) for b in before])
                lift -= lift.max(axis=1, keepdims=True) + math.log(m)
            safe = (lift + lanes.shape[1] * logs.min(axis=0)).max(axis=1) >= floor
            if s < segments - 1 or not safe.all():  # intp, whatever dtype the cells have
                own = np.stack([np.bincount(row.astype(np.intp), minlength=logs.shape[0])
                                for row in lanes])
                for r in np.flatnonzero(~safe):
                    safe[r] = (lift[r] + _counted_log_likelihoods(logs, own[r])).max() >= floor
                before += own
        product[s], start[s] = safe, ll
        start[s, safe] = _exp_log_rows(ll[None, safe])[0] if s else 1.0
    return product, start


#: ``busy`` is true on each thread of a :func:`_deal` call with several
#: workers: the thread holds its CPU, so its own calls take one worker.
_dealt = threading.local()


def _workers() -> int:
    """The CPUs this process may run on (``taskset -c 0`` makes it one), or
    1 on a thread that :func:`_deal` runs among others."""
    if getattr(_dealt, "busy", False):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _deal(count: int, run, workers: int | None = None) -> None:
    """``run(i)`` for each task ``i < count``, dealt in order to ``workers``
    workers (by default ``_workers()``, never more than tasks), each taking
    the next task when done with its last: the calling thread, and a helper
    thread started here for each other.  Once a task fails or a helper cannot
    start the workers take no more; the error raised is the start's, else the
    least failing ``i``'s, as in a loop, once every started helper has ended.
    A lone task runs on the calling thread with every worker.
    """
    tasks, errors = iter(range(count)), {}
    workers = max(1, min(_workers() if workers is None else workers, count))

    def work():
        busy = getattr(_dealt, "busy", False)
        _dealt.busy = busy or workers > 1
        try:
            # checked before a task is taken, so every task taken is run
            while not errors and (i := next(tasks, None)) is not None:
                run(i)
        except BaseException as exc:  # raised again by the calling thread
            errors[i] = exc
        finally:
            _dealt.busy = busy

    threads = [threading.Thread(target=work) for _ in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        work()
    except BaseException as exc:  # a helper could not start
        errors[-1] = exc
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[min(errors)]


def _averaged_weights(candidates: CandidateSet, cells: np.ndarray,
                      workers: int | None = None, visit=None) -> np.ndarray:
    """Column means of the weight rows, (R, M), for cell indices ``cells`` (R, n).

    The rows are cut into lanes, each one replication's segment of
    ``_SEGMENT_ROWS`` points at fixed absolute rows, started from the exact
    cell counts before it in the form :func:`_lane_starts` gives it, so lanes
    share no state.  Lanes of one form walk side by side in blocks laid out
    (rows, lanes, M), of at most ``_BLOCK_ELEMENTS // (lanes·M)`` rows
    (:func:`_block_rows`; the log form then takes :func:`_exp_log_rows`), each
    row weighted by the reciprocal of its sum.  Product lanes of one length are
    cut into one chunk per worker, log lanes into one per segment;
    :func:`_deal` deals the chunks in order of their first segment to
    ``workers`` workers (by default ``_workers()``, at most one per full
    segment), and each chunk allocates one block buffer.  Within a lane each
    block's first row gets the running row before its running product or sum.
    Its row sums are ``einsum``'s, and one ``einsum`` adds each row times the
    reciprocal of its sum to the running sum of weight rows, which the buffer
    holds as a leading row of weight 1, so every column is added in row order
    whatever the blocks; the lanes' sums are added in segment order.  So the
    result is the same bit for bit at any worker count, chunking and group
    layout, in O(block) memory per worker.

    ``visit(r, k, rows)`` sees replication ``r``'s prior row (``k = 0``) and
    then each block of its weight rows, ``rows[0]`` being row ``k``, which only
    ``visit`` has built; with ``visit`` each product lane is a chunk of its
    own, so at one worker every replication's rows come in row order on the
    calling thread.  Product lanes have no dead row and rows die for good, so
    the least failing chunk's error, which :func:`_deal` raises, is the
    earliest dead row's.
    """
    (r_count, n), m = cells.shape, candidates.size
    product, start = _lane_starts(candidates, cells)
    segments, flat = product.shape[0], cells.ravel()
    workers = max(1, min(_workers() if workers is None else workers, n // _SEGMENT_ROWS))
    sums = np.zeros((segments, r_count, m))
    sums[0] = 1.0 / m  # the prior row
    for r in range(r_count if visit else 0):
        visit(r, 0, sums[0, r:r + 1])
    chunks, lanes, logs = [], np.argwhere(product), np.argwhere(~product)  # (s, r) rows
    for group in np.split(lanes, [np.searchsorted(lanes[:, 0], segments - 1)]):
        size = 1 if visit else max(1, -(-len(group) // workers))  # full segments, then the last
        chunks += [(True, *group[i:i + size].T) for i in range(0, len(group), size)]
    chunks += [(False, *group.T) for group in
               np.split(logs, np.flatnonzero(np.diff(logs[:, 0])) + 1) if group.size]
    chunks.sort(key=lambda chunk: chunk[1][0])

    def run(i):
        is_product, ss, rs = chunks[i]
        first, length = ss[0] * _SEGMENT_ROWS, min(_SEGMENT_ROWS, n - ss[0] * _SEGMENT_ROWS)
        starts, step = rs * n + ss * _SEGMENT_ROWS, max(1, _BLOCK_ELEMENTS // (rs.size * m))
        table = candidates.ratio_table if is_product else candidates.log_table
        carry, size = start[ss, rs], min(step, length) + 1
        buffer, scale = np.empty((size, rs.size, m)), np.ones((size, rs.size))
        buffer[0] = sums[ss, rs]
        for k in range(0, length, step):
            idx = flat[np.add.outer(np.arange(k, min(k + step, length)), starts)]
            block = _block_rows(table, idx, buffer[1:], carry, is_product)
            carry, rows = block[-1].copy(), block.shape[0] + 1
            if not is_product:
                _exp_log_rows(block, first + k + 1)
            # einsum without ``optimize`` calls no BLAS: its loops are numpy's
            # baseline SIMD code, in a fixed order on every CPU
            np.divide(1.0, np.einsum("klm->kl", block), out=scale[1:rows])
            if visit:
                weights = block * scale[1:rows, :, None]
                for lane in range(rs.size):
                    visit(rs[lane], ss[lane] * _SEGMENT_ROWS + k + 1, weights[:, lane])
            buffer[0] = np.einsum("kl,klm->lm", scale[:rows], buffer[:rows])
        sums[ss, rs] = buffer[0]

    _deal(len(chunks), run, workers)
    return sums.sum(axis=0) / (n + 1)


def _sample_cells(candidates: CandidateSet, x) -> np.ndarray:
    """Shared-grid cells of a one-dimensional sample, in the grid's
    :func:`_cell_dtype`: one byte per point on grids of up to 256 cells."""
    cells = _cell_indices(candidates.grid, x, "sample points",
                          _cell_dtype(candidates.values.shape[1]))
    if cells.ndim != 1:
        raise ValidationError(f"the sample must be one-dimensional, got shape {cells.shape}")
    return cells


def progressive_weights(candidates: CandidateSet, x) -> WeightTrajectory:
    """Likelihood-proportional weight vectors after every sample prefix.

    Row ``k`` is proportional to ``Π_{i<=k} f_j(X_i)`` (row 0 equals
    ``1/M``), computed as a running product of likelihood ratios or, where
    that could underflow, a cumulative sum of log likelihoods followed by a
    max-shifted softmax.  Equivalently, row ``k`` is proportional to
    ``exp(-k * empirical_kl(f_j, x[:k]))``.

    Only ``averaged`` is computed here, by :class:`WeightTrajectory`.
    """
    cells = _sample_cells(candidates, x)
    cells.setflags(write=False)
    return WeightTrajectory(candidates, cells)


def _mixture_values(candidates: CandidateSet, weights: np.ndarray) -> np.ndarray:
    """Cell values of the mixture under each row of ``weights`` (R, M).

    A stack of R (1, M) @ (M, cells) products: numpy runs each as the same
    vector-matrix call as ``w @ values`` for one row ``w``, where one 2-D
    (R, M) @ (M, cells) product would round differently.
    """
    return np.matmul(weights[:, None, :], candidates.values)[:, 0]


def mixture(candidates: CandidateSet, weights) -> PiecewiseDensity:
    """Mix the candidates under one probability vector: nonnegative weights
    summing to one within ``MASS_TOL``.  NaN weights fail that test."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (candidates.size,):
        raise ValidationError(
            f"expected {candidates.size} weights, got shape {w.shape}"
        )
    if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= MASS_TOL):
        raise ValidationError("mixing weights must be a probability vector")
    return PiecewiseDensity(candidates.grid, _mixture_values(candidates, w[None])[0])


def _check_aggregable(candidates: CandidateSet) -> None:
    # Aggregation of one thing is a no-op that almost surely hides a
    # configuration mistake.
    if candidates.size < 2:
        raise ValidationError("aggregation needs at least two candidates")


def aggregate(candidates: CandidateSet, x) -> PiecewiseDensity:
    """The progressive-mixture density for a sample, whose expected
    Kullback-Leibler risk is within ``log(M)/(n+1)`` of the best candidate's.

    The mixing vector is the average of the :func:`progressive_weights`
    rows; with an empty sample this is the plain equal-weight mixture.
    Requires at least two candidates.
    """
    _check_aggregable(candidates)
    return mixture(candidates, progressive_weights(candidates, x).averaged)


def _aggregate_rows(candidates: CandidateSet, cells: np.ndarray) -> np.ndarray:
    """:func:`aggregate` for each row of ``cells`` (R, n), the shared-grid
    cells of R samples, as (R, cells) values on the grid.

    The same operations as R calls of :func:`aggregate`, on (rows, R, M)
    blocks and ``_workers()`` kernel workers (see :func:`_averaged_weights`);
    every row is checked as :func:`aggregate` checks its result.
    """
    _check_aggregable(candidates)
    values = _mixture_values(candidates, _averaged_weights(candidates, cells))
    _check_density_rows(values, candidates.cell_lengths)
    return values


# ---------------------------------------------------------------------------
# Minimum-distance selection
# ---------------------------------------------------------------------------


def yatracos_class(candidates: CandidateSet) -> np.ndarray:
    """The comparison sets ``{x : f_i(x) > f_j(x)}`` over all ordered pairs.

    Each set is exactly a union of shared-grid cells and is returned as one
    row of a read-only (sets × cells) bool mask.  Duplicates are removed,
    and the rows are ordered by size, then by descending mask bits: among
    sets of one size, the one whose sorted cells compare first
    lexicographically comes first.  The pairs ``i = j`` give the empty set,
    which the class always holds; with a single candidate it is the only
    set.
    """
    vals = candidates.values
    above = (vals[:, None, :] > vals[None, :, :]).reshape(-1, vals.shape[1])
    # Packed big-endian, the rows compare bytewise as their bits do.
    packed = np.packbits(above, axis=1)
    order = np.lexsort((*(~packed).T[::-1], above.sum(axis=1)))
    packed = packed[order]
    distinct = np.ones(packed.shape[0], dtype=bool)
    distinct[1:] = np.any(packed[1:] != packed[:-1], axis=1)
    masks = np.unpackbits(packed[distinct], axis=1, count=vals.shape[1]).astype(bool)
    masks.setflags(write=False)
    return masks


def _selector_tables(candidates: CandidateSet):
    """What :func:`_select_cells` needs of a family, whatever the sample:
    the set integrals ``∫_A f_i`` (M, sets), the class as a float mask
    (cells, sets) and the candidates' mean integral of each set (sets)."""
    masks = yatracos_class(candidates)
    set_integrals = (candidates.values * candidates.cell_lengths) @ masks.T
    return set_integrals, masks.T.astype(float), set_integrals.mean(axis=0)


def _select_cells(candidates: CandidateSet, cells: np.ndarray, tables=None) -> np.ndarray:
    """:func:`yatracos_select` for each row of ``cells`` (R, n), as R indices.

    ``tables`` are the family's :func:`_selector_tables`, built here when not
    given: once for all rows, which are taken in chunks whose
    (row, point) offset cells, (row, cell) counts, (row, set) masses and
    (candidate, row, probe) deviations each hold about ``_SELECT_ELEMENTS``
    entries (at least one row), so what the rows add to memory does not
    grow with R.  A chunk's empirical set masses are one product of its
    cell counts with the mask: sums of integers, exact in floating point at
    any n that fits in memory, so every row gets the masses a product of its
    own would give.

    The score of candidate ``i`` is ``max_A |∫_A f_i - P_n(A)|``, and only
    the argmin is wanted, so each row is scored by bound and prune.  The
    maximum over ``_PROBES`` probe sets, those where ``P_n`` is farthest
    from the candidates' mean integral, is a lower bound ``lb_i`` on each
    score.  The candidate with the smallest ``lb`` is scored over every set,
    which gives an upper bound ``U`` on the least score.  A candidate with
    ``lb_i > U`` scores above the least score and cannot win; every other
    candidate is scored over every set, in chunks of about
    ``_SELECT_ELEMENTS`` deviations (at least one candidate's), and the
    first minimum among them wins.  Every candidate attaining the least
    score has ``lb_i <= U`` and survives, and every compared score is the
    maximum of the same floats ``set_integrals[i, A] - empirical[A]``, so the
    selection is the first minimum of the whole (M, sets) score per row.
    """
    if tables is None:
        tables = _selector_tables(candidates)
    set_integrals, members, mean_integrals = tables
    rows, n = cells.shape
    m, (width, sets) = candidates.size, members.shape
    probes = min(sets, _PROBES)
    chunk = max(1, _SELECT_ELEMENTS // max(sets, width, n, m * probes))
    pairs = max(1, _SELECT_ELEMENTS // sets)
    chosen = np.empty(rows, dtype=np.intp)
    for start in range(0, rows, chunk):
        block = cells[start:start + chunk]
        r = np.arange(block.shape[0])
        counts = np.bincount((block + width * r[:, None]).ravel(), minlength=r.size * width)
        empirical = (counts.reshape(r.size, width) @ members) / n  # (rows, sets)
        far = empirical - mean_integrals
        np.abs(far, out=far)
        probe = np.argpartition(far, sets - probes, axis=1)[:, sets - probes:]
        gaps = set_integrals[:, probe] - empirical[r[:, None], probe]  # (M, rows, probes)
        lower = np.abs(gaps, out=gaps).max(axis=2).T  # (rows, M)
        first = np.argmin(lower, axis=1)
        gaps = set_integrals[first] - empirical
        upper = np.abs(gaps, out=gaps).max(axis=1)
        scores = np.full((r.size, m), np.inf)
        scores[r, first] = upper
        live = lower <= upper[:, None]  # strict prune: ties with U stay
        live[r, first] = False
        rows_live, cands_live = np.nonzero(live)
        for p in range(0, rows_live.size, pairs):
            i, j = rows_live[p:p + pairs], cands_live[p:p + pairs]
            gaps = set_integrals[j] - empirical[i]
            scores[i, j] = np.abs(gaps, out=gaps).max(axis=1)
        chosen[start:start + chunk] = np.argmin(scores, axis=1)  # the first minimum
    return chosen


def yatracos_select(candidates: CandidateSet, x) -> int:
    """Index of the candidate closest to the data in the comparison-set metric.

    Score of candidate ``i`` is ``sup_A |∫_A f_i - P_n(A)|`` over the
    comparison sets ``A`` of :func:`yatracos_class`, with ``P_n`` the
    empirical measure; the smallest index attaining the minimal score wins.
    This controls total-variation-type risk.
    The sample must be one-dimensional and nonempty.
    """
    cells = _sample_cells(candidates, x)
    if cells.size == 0:
        raise ValidationError("yatracos_select needs at least one sample point")
    return int(_select_cells(candidates, cells[None])[0])
