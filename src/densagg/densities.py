"""Piecewise-constant functions and densities on the unit interval.

Everything downstream (mixture weights, selector statistics, worst-case
family constructions) works with step functions, where integrals reduce to
finite sums over cells.  The losses here are therefore exact up to float
rounding: no quadrature, no discretisation error.

Conventions
-----------
* Cells are right-open: ``values[i]`` holds on ``[breakpoints[i],
  breakpoints[i+1])``; the final cell is closed at 1 so the whole of
  ``[0, 1]`` is covered.
* The reference measure is Lebesgue measure on ``[0, 1]``.
* ``0 * log 0 = 0`` in every entropy-like sum.
* A density must integrate to one within ``MASS_TOL``; nothing is ever
  renormalised silently — use :func:`renormalize` when you mean it.

All public objects are immutable after construction and every function is
pure, so instances can be shared freely across threads or processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "MASS_TOL",
    "ValidationError",
    "PiecewiseFunction",
    "PiecewiseDensity",
    "FunctionClass",
    "common_refinement",
    "renormalize",
    "kl_divergence",
    "hellinger_distance",
    "l1_distance",
    "sample",
    "validate_class",
    "load_density",
    "save_density",
    "load_densities",
    "save_densities",
    "load_sample",
    "save_sample",
]

#: Absolute tolerance on ``|integral - 1|`` for anything claiming to be a density.
MASS_TOL = 1e-12


class ValidationError(ValueError):
    """An input violates a documented precondition or type invariant."""


def _as_readonly_float_array(x, name: str) -> np.ndarray:
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a list of numbers ({exc})") from None
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PiecewiseFunction:
    """A real step function on ``[0, 1]``.

    Two instances are equal when they have the same type and equal
    breakpoint and value arrays; equal instances hash alike.

    Parameters
    ----------
    breakpoints:
        Strictly increasing grid starting at 0.0 and ending at 1.0,
        length ``m + 1`` for ``m`` cells.
    values:
        Cell values, length ``m``.  ``values[i]`` holds on the right-open
        cell ``[breakpoints[i], breakpoints[i+1])`` (last cell closed at 1).
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = _as_readonly_float_array(self.breakpoints, "breakpoints")
        vals = _as_readonly_float_array(self.values, "values")
        _check_breakpoints(bp)
        if bp.size != vals.size + 1:
            raise ValidationError(
                f"breakpoints/values length mismatch: {bp.size} breakpoints "
                f"requires {bp.size - 1} values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("cell values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        return _arrays_equal(self, other, ("breakpoints", "values"))

    def __hash__(self):
        return _arrays_hash(self, ("breakpoints", "values"))

    @property
    def n_cells(self) -> int:
        return self.values.size

    @property
    def cell_lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def __call__(self, x) -> np.ndarray | float:
        """Evaluate at points of ``[0, 1]`` (scalar or array)."""
        out = self.values[self.cell_index(x)]
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def cell_index(self, x) -> np.ndarray:
        """Index of the cell containing each point (``x = 1`` maps to the last cell)."""
        return _cell_indices(self.breakpoints, x, "evaluation points")

    def integral(self) -> float:
        """Exact integral over ``[0, 1]``."""
        return float(np.dot(self.values, self.cell_lengths))


@dataclass(frozen=True, eq=False)
class PiecewiseDensity(PiecewiseFunction):
    """A nonnegative step function integrating to one within ``MASS_TOL``."""

    def __post_init__(self):
        super().__post_init__()
        _check_density_rows(self.values[None], self.cell_lengths)

    @classmethod
    def uniform(cls) -> "PiecewiseDensity":
        return cls(np.array([0.0, 1.0]), np.array([1.0]))


def _arrays_equal(a, b, fields):
    """Equality for immutable array holders: same type, equal named arrays."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


def _arrays_hash(a, fields) -> int:
    """Hash matching :func:`_arrays_equal`.  Adding 0.0 maps -0.0 to 0.0,
    which compare equal but differ in their bytes."""
    return hash((type(a),) + tuple(
        (getattr(a, f).shape, (getattr(a, f) + 0.0).tobytes()) for f in fields
    ))


def _check_breakpoints(bp: np.ndarray) -> None:
    """``bp`` is a grid of at least two points rising strictly from 0 to 1."""
    if bp.size < 2:
        raise ValidationError("need at least two breakpoints")
    if bp[0] != 0.0 or bp[-1] != 1.0:
        raise ValidationError("breakpoints must start at 0.0 and end at 1.0")
    if not np.all(np.diff(bp) > 0):
        raise ValidationError("breakpoints must be strictly increasing")


def _check_density_rows(values: np.ndarray, lens: np.ndarray, label: str | None = None) -> None:
    """Each row of ``values`` (cell values on cells of lengths ``lens``) is
    nonnegative and integrates to one within ``MASS_TOL``.

    The error describes the first failing row; with ``label`` it starts
    ``"{label} {j}: "``, naming that row.
    """
    negative = np.any(values < 0, axis=1).tolist()
    for j, row in enumerate(values):
        mass = float(np.dot(row, lens))
        if negative[j] or not abs(mass - 1.0) <= MASS_TOL:
            msg = ("density values must be nonnegative" if negative[j] else
                   f"density must integrate to 1 within {MASS_TOL:g}; got {mass!r}")
            raise ValidationError(msg if label is None else f"{label} {j}: {msg}")


def _cell_indices(breakpoints: np.ndarray, x, what: str, dtype=np.intp) -> np.ndarray:
    """Cell of each point on the grid ``breakpoints``, as ``dtype``; ``x = 1``
    is in the last cell.

    Rejects any point that is not a finite number in ``[0, 1]``: ``min`` and
    ``max`` propagate NaN, and NaN fails both comparisons.
    """
    pts = np.asarray(x, dtype=float)
    if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):
        raise ValidationError(f"{what} must be finite and lie in [0, 1]")
    return _cell_lookup(breakpoints, pts, dtype)


def _cell_dtype(cells: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every cell index of a grid of
    ``cells`` cells: ``uint8`` up to 256 cells, ``uint16`` up to 65,536, then
    ``uint32`` up to 2^32.  Its indices are unsigned, so never subtract from
    them."""
    return np.min_scalar_type(cells - 1)


def _cell_lookup(edges: np.ndarray, x, dtype=np.intp) -> np.ndarray:
    """Cell of each point on the nondecreasing ``edges``: for finite points,
    equal to ``np.searchsorted(edges[:-1], x, side="right") - 1``, so points
    at or past the last edge are in the last cell.

    Counted by :func:`_chunk_cells` and written out as ``dtype``.  An
    unsigned ``dtype`` (see :func:`_cell_dtype`) holds the cells of points at
    or above the first edge only.
    """
    pts = np.asarray(x, dtype=float)
    out = np.empty(pts.shape, dtype=dtype)
    flat = out.reshape(-1)
    for i, count in _chunk_cells(edges, pts.reshape(-1)):
        flat[i:i + count.size] = count
    return out[()]  # a scalar for a scalar point, as from np.searchsorted


def _chunk_cells(edges: np.ndarray, flat: np.ndarray):
    """``(start, cells)`` per chunk of ``_SAMPLE_CHUNK`` points of ``flat``:
    their :func:`_cell_lookup` cells in one ``intp`` buffer, which the next
    chunk overwrites, found in a guide table (:func:`_guide_table`) built
    once for all chunks when there is one, else by ``np.searchsorted``."""
    left = edges[:-1]
    table = _guide_table(left)
    next_left = np.append(left, np.nan)  # no step past the last edge
    buffer = np.empty(min(flat.size, _SAMPLE_CHUNK), dtype=np.intp)
    for i in range(0, flat.size, _SAMPLE_CHUNK):
        v = flat[i:i + _SAMPLE_CHUNK]
        count = buffer[:v.size]
        if table is None:
            count[...] = np.searchsorted(left, v, side="right")
        else:
            k, start, steps = table
            bucket = np.clip(v, -1.0 / k, 1.0)
            bucket *= k
            np.floor(bucket, out=bucket)
            bucket += 1  # start[0] is for points below 0
            # every bucket is in range; "clip" writes into ``count`` unbuffered
            np.take(start, bucket.astype(np.intp), out=count, mode="clip")
            for _ in range(steps):
                count += next_left[count] <= v
        count -= 1  # in intp: points below the first edge count -1
        yield i, count


def _guide_table(left: np.ndarray):
    """``(K, start, steps)``, a guide table (Chen & Asau 1974; Devroye 1986,
    §III.2.4) for counting the sorted ``left`` edges at or below a point;
    ``None`` where a binary search takes fewer steps.

    ``[0, 1)`` is cut into K buckets, K the smallest power of two at least
    twice the edges, so ``floor(x * K)`` is exact; points below 0 and at or
    past 1 have a bucket each.  ``start[b + 1]`` counts the edges at or
    below the lower end of bucket ``b`` (``start[0] = 0`` for points below
    0).  A point steps up from there past each edge it reaches: ``steps``,
    the most edges strictly inside one bucket, suffice.  Repeated edges,
    the zero-mass cells of a CDF, each count.  When ``steps`` exceeds
    ``ceil(log2(len(left)))``, as on clustered grids, there is no table.
    """
    k = 1 << (2 * left.size - 1).bit_length()
    lows = np.arange(k + 1) / k
    start = np.concatenate(([0], np.searchsorted(left, lows, side="right")))
    inside = np.append(np.searchsorted(left, lows, side="left"), left.size) - start
    steps = int(inside.max())
    return (k, start, steps) if steps <= (left.size - 1).bit_length() else None


def _values_on(f: PiecewiseFunction, grid: np.ndarray) -> np.ndarray:
    # Re-express f on a grid that refines f.breakpoints: the value on each
    # refined cell is f at the cell's left edge.
    return f.values[_cell_lookup(f.breakpoints, grid[:-1])]


def _union_grid(grids) -> np.ndarray:
    """The sorted distinct points of a sequence of grids, as the fold
    ``reduce(np.union1d, grids)`` gives them.

    One stable sort of all the points, then the first of each run of equal
    ones: so where the grids start at ``-0.0`` and ``0.0`` the first grid's
    zero is kept, as the fold keeps it with numpy 2.4.  ``np.union1d`` would
    import ``numpy.ma``, which nothing here uses, on its first call.
    """
    points = np.concatenate(grids)
    points.sort(kind="stable")
    first = np.empty(points.size, dtype=bool)
    first[:1] = True
    np.not_equal(points[1:], points[:-1], out=first[1:])
    return points[first]


def common_refinement(
    f: PiecewiseFunction, g: PiecewiseFunction
) -> tuple[PiecewiseFunction, PiecewiseFunction]:
    """Re-express two step functions on their common (union) grid.

    Both outputs are pointwise equal to their inputs; they merely share
    breakpoints, which is what makes the cell-wise loss formulas exact.
    Input types are preserved (a density refines to a density).
    """
    grid = _union_grid((f.breakpoints, g.breakpoints))
    return type(f)(grid, _values_on(f, grid)), type(g)(grid, _values_on(g, grid))


def renormalize(f: PiecewiseFunction) -> PiecewiseDensity:
    """Scale a nonnegative step function of positive mass into a density.

    This is the only sanctioned way to turn a near-density into a density;
    constructors never adjust mass on their own.
    """
    if np.any(f.values < 0):
        raise ValidationError("cannot renormalize a function with negative values")
    mass = f.integral()
    if not mass > 0:
        raise ValidationError(f"cannot renormalize: total mass {mass!r} is not positive")
    return PiecewiseDensity(f.breakpoints, f.values / mass)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _loss_cells(f: PiecewiseFunction, grid: np.ndarray, rows: np.ndarray):
    """Cell lengths of the union of ``f``'s grid and ``grid``, with ``f``'s
    values and each row's values (cell values on ``grid``) on it."""
    fine = _union_grid((f.breakpoints, grid))
    idx = _cell_lookup(grid, fine[:-1])
    # take, not rows[:, idx]: the latter is column-major, and a strided
    # row changes the summation order of the per-row dot products.
    return np.diff(fine), _values_on(f, fine), np.take(rows, idx, axis=1)


def _check_nonnegative(f: PiecewiseFunction, rows: np.ndarray, op: str) -> None:
    if np.any(f.values < 0) or np.any(rows < 0):
        raise ValidationError(f"{op} requires nonnegative cell values")


def _kl_rows(f: PiecewiseFunction, grid: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`kl_divergence` from ``f`` to each row of cell values on ``grid``."""
    _check_nonnegative(f, rows, "kl_divergence")
    lens, fv, gv = _loss_cells(f, grid, rows)
    pos = fv > 0
    escapes = np.any(pos & (gv == 0.0), axis=1)
    terms = np.zeros_like(gv)
    with np.errstate(divide="ignore"):
        terms[:, pos] = fv[pos] * np.log(fv[pos] / gv[:, pos])
    out = np.vecdot(terms, lens)
    out[escapes] = math.inf
    return out


def _hellinger_rows(f: PiecewiseFunction, grid: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`hellinger_distance` from ``f`` to each row of cell values on ``grid``."""
    _check_nonnegative(f, rows, "hellinger_distance")
    lens, fv, gv = _loss_cells(f, grid, rows)
    diff = np.sqrt(fv) - np.sqrt(gv)
    return np.sqrt(np.vecdot(diff * diff, lens))


def _l1_rows(f: PiecewiseFunction, grid: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`l1_distance` from ``f`` to each row of cell values on ``grid``."""
    lens, fv, gv = _loss_cells(f, grid, rows)
    return np.vecdot(np.abs(fv - gv), lens)


def kl_divergence(f: PiecewiseFunction, g: PiecewiseFunction) -> float:
    """Kullback-Leibler divergence ``∫ f log(f/g)`` between step densities.

    Returns ``+inf`` when ``f`` puts mass on a cell where ``g`` vanishes
    (failure of absolute continuity).  Cells where ``f = 0`` contribute 0,
    including against ``g = 0``.
    """
    return float(_kl_rows(f, g.breakpoints, g.values[None])[0])


def hellinger_distance(f: PiecewiseFunction, g: PiecewiseFunction) -> float:
    """Hellinger distance ``(∫ (√f − √g)²)^{1/2}`` between step densities."""
    return float(_hellinger_rows(f, g.breakpoints, g.values[None])[0])


def l1_distance(f: PiecewiseFunction, g: PiecewiseFunction) -> float:
    """Total ``∫ |f − g|`` distance between step functions."""
    return float(_l1_rows(f, g.breakpoints, g.values[None])[0])


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

#: Points per chunk of the CDF inversion and of the cell lookup: each of
#: their temporaries is 128 KiB, about 1 MiB in all.
_SAMPLE_CHUNK = 2**14


def _sample_rows(density: PiecewiseDensity, n: int, seeds) -> np.ndarray:
    """One row of :func:`sample` per seed, as an (R, n) array.

    Each row is its own seed's stream; the inversion runs over all rows
    together, in chunks, and writes the points over the uniform variates.
    """
    if n < 0:
        raise ValidationError(f"sample size must be nonnegative, got {n}")
    if len(seeds) * n * 8 > np.iinfo(np.intp).max:  # bytes of float64 points
        raise ValidationError(
            f"sample too large: {len(seeds)} x {n} points exceed the largest numpy array")
    u = np.empty((len(seeds), n))
    for row, seed in zip(u, seeds):
        np.random.default_rng(seed).random(n, out=row)
    masses = density.values * density.cell_lengths
    cdf = np.concatenate(([0.0], np.cumsum(masses)))
    # The lookup can only land on a zero-mass cell in the float corner
    # v >= cdf[-1]; there v - cdf[idx] >= 0, and dividing it by inf puts the
    # point at the cell's left edge.
    divisors = np.where(masses > 0, masses, np.inf)
    flat = u.reshape(-1)
    for i, idx in _chunk_cells(cdf, flat):
        v = flat[i:i + idx.size]
        frac = (v - cdf[idx]) / divisors[idx]
        x = density.breakpoints[idx] + frac * density.cell_lengths[idx]
        np.clip(x, 0.0, 1.0, out=v)
    return u


def sample(density: PiecewiseDensity, n: int, seed) -> np.ndarray:
    """Draw ``n`` i.i.d. points from a step density by CDF inversion.

    One uniform variate is consumed per draw: the cell is located in a
    guide table of the cumulative cell masses (see :func:`_cell_lookup`)
    and the remainder of the variate places the point uniformly inside
    the cell.  Identical seeds give identical output arrays.

    ``seed`` is anything :func:`numpy.random.default_rng` accepts (ints and
    tuples of ints included).  The inversion runs in chunks of
    ``_SAMPLE_CHUNK`` points written over the variates, so memory is the
    output plus about 1 MiB of temporaries.
    """
    return _sample_rows(density, n, [seed])[0]


# ---------------------------------------------------------------------------
# Bounded function classes
# ---------------------------------------------------------------------------


class FunctionClass(Enum):
    """Membership predicates for the sup-norm-bounded classes the risk
    bounds are stated over.

    * ``DENSITY`` / ``KL_CANDIDATE``: densities bounded by ``A``.
    * ``HELLINGER_CANDIDATE``: nonnegative functions bounded by ``A``.
    * ``L1_CANDIDATE``: functions with ``sup |f| <= A`` (sign-free).
    """

    DENSITY = "density"
    KL_CANDIDATE = "kl_candidate"
    HELLINGER_CANDIDATE = "hellinger_candidate"
    L1_CANDIDATE = "l1_candidate"


def _check_sup_bound(bound: float) -> None:
    """The one test of a sup bound ``A``, for the bounded classes and the
    worst-case family alike."""
    if not 1.0 < bound < math.inf:
        raise ValidationError(f"sup bound must exceed 1 and be finite, got {bound!r}")


def validate_class(f: PiecewiseFunction, cls: FunctionClass, bound: float) -> bool:
    """True iff ``f`` belongs to the class: the bound check plus the class's
    shape constraint (density / nonnegative / none).

    ``bound`` must be finite, and it must exceed 1 — otherwise no density
    can satisfy the sup bound and the classes are empty.
    """
    _check_sup_bound(bound)
    if float(np.max(np.abs(f.values), initial=0.0)) > bound:
        return False
    if cls in (FunctionClass.DENSITY, FunctionClass.KL_CANDIDATE):
        return bool(
            np.all(f.values >= 0) and abs(f.integral() - 1.0) <= MASS_TOL
        )
    if cls is FunctionClass.HELLINGER_CANDIDATE:
        return bool(np.all(f.values >= 0))
    return True


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
# A density is stored as a JSON object {"breakpoints": [...], "values": [...]};
# a candidate list as a JSON array of such objects; a sample as a text file
# with one float per line.


def _density_to_obj(f: PiecewiseFunction) -> dict:
    return {"breakpoints": f.breakpoints.tolist(), "values": f.values.tolist()}


def _density_from_obj(obj, where: str) -> PiecewiseDensity:
    if not isinstance(obj, dict) or set(obj) != {"breakpoints", "values"}:
        raise ValidationError(
            f"{where}: expected an object with keys 'breakpoints' and 'values'"
        )
    return PiecewiseDensity(obj["breakpoints"], obj["values"])


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a text file ({exc})") from None


def _load_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def load_density(path) -> PiecewiseDensity:
    """Read one density from a JSON file."""
    return _density_from_obj(_load_json(path), str(path))


def save_density(f: PiecewiseFunction, path) -> None:
    Path(path).write_text(json.dumps(_density_to_obj(f)) + "\n")


def load_densities(path) -> list[PiecewiseDensity]:
    """Read a JSON array of densities (a candidate file)."""
    arr = _load_json(path)
    if not isinstance(arr, list) or not arr:
        raise ValidationError(f"{path}: expected a nonempty JSON array of densities")
    return [_density_from_obj(o, f"{path}[{i}]") for i, o in enumerate(arr)]


def save_densities(densities, path) -> None:
    Path(path).write_text(
        json.dumps([_density_to_obj(f) for f in densities]) + "\n"
    )


def load_sample(path) -> np.ndarray:
    """Read a sample file: one float per line (blank lines ignored)."""
    lines = [ln.strip() for ln in _read_text(path).splitlines()]
    try:
        return np.array([float(ln) for ln in lines if ln], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed sample file ({exc})") from None


def save_sample(x, path) -> None:
    arr = np.asarray(x, dtype=float)
    Path(path).write_text("".join(repr(float(v)) + "\n" for v in arr))
