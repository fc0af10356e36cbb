"""Progressive-mixture aggregation and minimum-distance selection.

Given a finite family of candidate densities and an i.i.d. sample, two
procedures are provided:

* :func:`aggregate` — the progressive mixture.  After each prefix of the
  sample the candidates are reweighted by their likelihood so far (equal
  weights before any data); the estimator is the candidate mixture under
  the time-average of those weight vectors.  Its expected Kullback-Leibler
  risk is within ``log(M)/(n+1)`` of the best candidate's risk.
* :func:`yatracos_select` — picks the candidate whose cell-set integrals
  best match empirical frequencies over all comparison sets
  ``{f_i > f_j}``, which controls total-variation-type risk.

Weight arithmetic is carried out in the log domain throughout, so long
samples and vanishing likelihoods are handled without under/overflow: a
candidate that assigns zero likelihood to any observed prefix point has
weight exactly 0 from that row onward.

The (n+1)×M matrix of weight rows is never held whole.  Each sample point
is reduced once to its shared-grid cell; ``CandidateSet.log_table`` holds
``log f_j`` per cell, so a block of log-likelihood terms is a row gather
with no ``log`` per point.  The block kernel walks the rows in blocks of
about ``_BLOCK_ELEMENTS`` entries, carrying the cumulative log-likelihood
into each block's first row before its cumulative sum and the running sum
of weight rows into its first normalised row before the column sum.  Those
carries repeat the additions of one ``cumsum`` and one column sum over the
full matrix in the same order, so the averaged vector is bit-identical to
the full-matrix computation while memory stays O(block) for any n.
:class:`WeightTrajectory` rebuilds the full matrix with the same block
kernel, and only when ``weights`` is read.

The kernel takes R samples of one size at once, as cells of shape (R, n),
and lays its blocks out (rows, R, M): row ``k`` of every replication is one
contiguous run, and each block has ``_BLOCK_ELEMENTS // (R·M)`` rows.  The
gather, carry, cumulative sum, softmax and column sum act on each
replication's entries exactly as they would for that sample alone, so
batched and one-sample results are equal bit for bit; :func:`progressive_weights`
and :func:`aggregate` are the R = 1 case.  The cumulative sum is
``np.cumsum(axis=0)``, a strided serial chain per column, for rows narrower
than ``_ROW_LOOP_WIDTH`` entries, and one vector ``np.add`` per row from
there on; the additions are the same either way.  The experiment harnesses
batch the replications of a cell through :func:`_aggregate_rows`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from pathlib import Path

import numpy as np

from .densities import (
    FunctionClass,
    PiecewiseDensity,
    ValidationError,
    _arrays_equal,
    _arrays_hash,
    _cell_indices,
    _check_density_rows,
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

_ROW_SUM_TOL = 1e-12

#: Entries per block of weight rows: 2^15 doubles (256 KiB) stay in cache.
_BLOCK_ELEMENTS = 2**15

#: Blocks whose rows hold at least this many entries (replications × M)
#: take the cumulative sum as one vector ``np.add`` per row; narrower ones
#: take ``np.cumsum(axis=0)``.  Both perform the same additions.  Measured
#: per entry: 1.2 vs 6.2 ns at width 2560, 2.9 vs 5.1 ns at 640, and 30 vs
#: 4.2 ns at 64, where the per-row call overhead dominates.
_ROW_LOOP_WIDTH = 512


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """A finite family of densities re-expressed on one shared grid.

    ``values[j]`` are candidate ``j``'s cell values on ``grid``.  Building
    the shared refinement once up front makes every downstream operation
    (likelihood evaluation, mixing, comparison sets) a plain array op.
    ``log_table[c, j]`` is ``log values[j, c]`` (``-inf`` where a candidate
    vanishes), laid out cells × M so that one sample point's
    log-likelihoods are one contiguous row.  Two sets are equal when their
    grids and values are.
    """

    grid: np.ndarray
    values: np.ndarray
    log_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).copy()
        vals = np.asarray(self.values, dtype=float).copy()
        if grid.ndim != 1 or vals.ndim != 2 or vals.shape[1] != grid.size - 1:
            raise ValidationError("candidate values must be (M, len(grid) - 1)")
        if vals.shape[0] < 1:
            raise ValidationError("need at least one candidate")
        # Constructing each row as a density enforces nonnegativity and mass.
        for j in range(vals.shape[0]):
            try:
                PiecewiseDensity(grid, vals[j])
            except ValidationError as exc:
                raise ValidationError(f"candidate {j}: {exc}") from None
        with np.errstate(divide="ignore"):
            log_table = np.ascontiguousarray(np.log(vals).T)
        for arr in (grid, vals, log_table):
            arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "log_table", log_table)

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
        grid = reduce(np.union1d, (f.breakpoints for f in densities))
        vals = np.stack([_values_on(f, grid) for f in densities])
        return cls(grid, vals)

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


@dataclass(frozen=True)
class WeightTrajectory:
    """Simplex weight vectors after each sample prefix.

    ``weights[k]`` is the weight vector computed from the first ``k``
    points (row 0 is the all-equal prior); ``averaged`` is the column mean
    over all ``n + 1`` rows, i.e. the mixing vector the aggregate uses.

    Built by :func:`progressive_weights`, which stores only ``averaged``
    and the sample's cell indices.  The (n+1)×M ``weights`` matrix is
    computed on first access, by the same block kernel; :meth:`to_csv`
    streams the blocks without keeping the matrix.
    """

    candidates: CandidateSet
    cells: np.ndarray
    averaged: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.cells.size

    @property
    def n_candidates(self) -> int:
        return self.candidates.size

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.empty((self.n_steps + 1, self.n_candidates))
        for k, block in _weight_blocks(self.candidates, self.cells[None]):
            w[k:k + block.shape[0]] = block[:, 0]
        w.setflags(write=False)
        return w

    def to_csv(self, path) -> None:
        """Write rows ``k, w_1, ..., w_M`` with full-precision floats."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k"] + [f"w_{j + 1}" for j in range(self.n_candidates)])
            for k, block in _weight_blocks(self.candidates, self.cells[None]):
                for i, row in enumerate(block[:, 0], k):
                    writer.writerow([i] + [repr(float(v)) for v in row])


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


def _normalize_log_rows(log_w: np.ndarray, first_row: int = 0) -> np.ndarray:
    """Softmax over the last axis that is exact about zeros.

    ``log_w`` is (rows, M) or (rows, R, M).  Each row is shifted by its max
    before exponentiation; ``-inf`` entries come out as exactly 0.  A row
    whose max is ``-inf`` (every candidate at zero likelihood) has no
    normalizer and is an error; ``first_row`` is the trajectory row index of
    ``log_w[0]``, for the message.  Every output row is checked to be a
    probability vector.
    """
    row_max = log_w.max(axis=-1)
    dead = ~np.isfinite(row_max)
    if np.any(dead):
        k = first_row + int(np.nonzero(dead)[0][0])
        raise ValidationError(
            f"every candidate has zero likelihood on the first {k} sample points; "
            "weights are undefined"
        )
    # Out of place on purpose: an in-place exp may take a different
    # (scalar) numpy kernel and change the last bit.
    with np.errstate(invalid="ignore"):
        w = np.exp(log_w - row_max[..., None])
    w /= w.sum(axis=-1, keepdims=True)
    if np.any(w < 0) or np.any(np.abs(w.sum(axis=-1) - 1.0) > _ROW_SUM_TOL):
        raise ValidationError(
            f"every weight row must be a probability vector (tolerance {_ROW_SUM_TOL:g})"
        )
    return w


def _weight_blocks(candidates: CandidateSet, cells: np.ndarray):
    """Yield ``(k, rows)``: consecutive blocks of weight rows, ``rows[0]`` being row ``k``.

    ``cells`` is (R, n): the cell indices of R samples of one size.  Blocks
    are laid out (rows, R, M), so that row ``k`` of every replication's
    trajectory is one contiguous run.  Row 0, the prior, comes alone; then
    blocks of ``_BLOCK_ELEMENTS // (R * M)`` rows.  A block's log weights
    are its gathered log-likelihood terms with the previous row's
    cumulative log-likelihood added into the first term, then a cumulative
    sum down the block: per replication, the additions of one ``cumsum``
    over the whole sample, in the same order.
    """
    width = cells.shape[0] * candidates.size
    step = max(1, _BLOCK_ELEMENTS // width)
    log_w = np.zeros((1, cells.shape[0], candidates.size))
    yield 0, _normalize_log_rows(log_w)
    for start in range(0, cells.shape[1], step):
        terms = candidates.log_table[cells[:, start:start + step].T]
        terms[0] += log_w[-1]
        if width >= _ROW_LOOP_WIDTH:
            for i in range(1, terms.shape[0]):
                np.add(terms[i - 1], terms[i], out=terms[i])
            log_w = terms
        else:
            log_w = np.cumsum(terms, axis=0, out=terms)
        yield start + 1, _normalize_log_rows(log_w, start + 1)


def _averaged_weights(candidates: CandidateSet, cells: np.ndarray) -> np.ndarray:
    """Column means of the weight rows, (R, M), for cell indices ``cells`` (R, n).

    The running sum of weight rows is added into each block's first row
    before the column sum: the additions of one column sum down the whole
    trajectory, in order.
    """
    total = None
    for _, block in _weight_blocks(candidates, cells):
        if total is not None:
            block[0] += total
        total = block.sum(axis=0)
    return total / (cells.shape[1] + 1)


def progressive_weights(candidates: CandidateSet, x) -> WeightTrajectory:
    """Likelihood-proportional weight vectors after every sample prefix.

    Row ``k`` is proportional to ``Π_{i<=k} f_j(X_i)`` (row 0 equals
    ``1/M``), computed as a cumulative sum of log likelihoods followed by a
    max-shifted softmax.  Equivalently, row ``k`` is proportional to
    ``exp(-k * empirical_kl(f_j, x[:k]))``.

    Only ``averaged`` is computed here, streamed in O(block) memory as the
    module docstring describes.
    """
    cells = candidates.cell_indices(x)
    if cells.ndim != 1:
        raise ValidationError(f"the sample must be one-dimensional, got shape {cells.shape}")
    averaged = _averaged_weights(candidates, cells[None])[0]
    for arr in (cells, averaged):
        arr.setflags(write=False)
    return WeightTrajectory(candidates, cells, averaged)


def _mixture_values(candidates: CandidateSet, weights: np.ndarray) -> np.ndarray:
    """Cell values of the mixture under each row of ``weights`` (R, M).

    Every row must be a probability vector.  The product is taken row by
    row: one (R, M) @ (M, cells) product would round differently.
    """
    if np.any(weights < 0) or np.any(np.abs(weights.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
        raise ValidationError("mixing weights must be a probability vector")
    values = np.empty((weights.shape[0], candidates.values.shape[1]))
    for out, w in zip(values, weights):
        out[:] = w @ candidates.values
    return values


def mixture(candidates: CandidateSet, weights) -> PiecewiseDensity:
    """Mix the candidates under one probability vector."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (candidates.size,):
        raise ValidationError(
            f"expected {candidates.size} weights, got shape {w.shape}"
        )
    return PiecewiseDensity(candidates.grid, _mixture_values(candidates, w[None])[0])


def _check_aggregable(candidates: CandidateSet) -> None:
    # Aggregation of one thing is a no-op that almost surely hides a
    # configuration mistake.
    if candidates.size < 2:
        raise ValidationError("aggregation needs at least two candidates")


def aggregate(candidates: CandidateSet, x) -> PiecewiseDensity:
    """The progressive-mixture density for a sample.

    The mixing vector is the average of the :func:`progressive_weights`
    rows; with an empty sample this is the plain equal-weight mixture.
    Requires at least two candidates.
    """
    _check_aggregable(candidates)
    return mixture(candidates, progressive_weights(candidates, x).averaged)


def _aggregate_rows(candidates: CandidateSet, x: np.ndarray) -> np.ndarray:
    """:func:`aggregate` for each row of ``x`` (R, n), as (R, cells) values on the grid.

    The same operations as R calls of :func:`aggregate`, on (rows, R, M)
    blocks; every row is checked as :func:`aggregate` checks its result.
    """
    _check_aggregable(candidates)
    averaged = _averaged_weights(candidates, candidates.cell_indices(x))
    values = _mixture_values(candidates, averaged)
    _check_density_rows(values, candidates.cell_lengths)
    return values


# ---------------------------------------------------------------------------
# Minimum-distance selection
# ---------------------------------------------------------------------------


def yatracos_class(candidates: CandidateSet) -> list[frozenset[int]]:
    """The comparison sets ``{x : f_i(x) > f_j(x)}`` over all ordered pairs.

    Each set is exactly a union of shared-grid cells and is returned as a
    frozenset of cell indices; duplicates are removed and the list is
    sorted (by size, then lexicographically) so the output is deterministic.
    With a single candidate the only set is the empty one.
    """
    vals = candidates.values
    sets = {frozenset()}
    for i in range(vals.shape[0]):
        gt = vals[i] > vals
        for j in range(vals.shape[0]):
            if i != j:
                sets.add(frozenset(np.flatnonzero(gt[j]).tolist()))
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def yatracos_select(candidates: CandidateSet, x) -> int:
    """Index of the candidate closest to the data in the comparison-set metric.

    Score of candidate ``i`` is ``sup_A |∫_A f_i - P_n(A)|`` over the
    comparison sets ``A`` of :func:`yatracos_class`, with ``P_n`` the
    empirical measure; the smallest index attaining the minimal score wins.
    """
    pts = np.asarray(x, dtype=float)
    if pts.size == 0:
        raise ValidationError("yatracos_select needs at least one sample point")
    counts = np.bincount(candidates.cell_indices(pts), minlength=candidates.values.shape[1])
    sets = yatracos_class(candidates)
    masks = np.zeros((len(sets), candidates.values.shape[1]), dtype=bool)
    for s, cells in enumerate(sets):
        masks[s, list(cells)] = True

    cell_masses = candidates.values * candidates.cell_lengths  # (M, cells)
    set_integrals = cell_masses @ masks.T  # (M, sets)

    empirical = (counts @ masks.T) / pts.size  # (sets,)

    scores = np.max(np.abs(set_integrals - empirical), axis=1)
    return int(np.argmin(scores))  # argmin takes the first minimum: smallest index
