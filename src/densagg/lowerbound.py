"""Worst-case perturbation families with certified information bounds.

A *family* is the uniform density on [0, 1] carrying ``D`` paired up/down
bumps of height ``a``; a binary word of length ``D`` selects which bumps are
active, and so one member.  Switching bumps moves a member in Hellinger or
L1 distance while the product KL against the uniform stays small, the
trade-off that forces the ``log(M)/n`` aggregation price.  One range rule
admits a family, checked only by :class:`PerturbationFamily`: ``0 < a <= 1``
and ``1 + a <= A``, so the member values ``1 ± a`` lie in ``[0, A]``.

A *separated set* is an ``(m, D)`` 0/1 matrix of words, the first all zeros,
at pairwise Hamming distance at least ``D/8``; :class:`SeparatedSet`
certifies it on construction, so any instance in hand is one.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .densities import (
    PiecewiseDensity,
    PiecewiseFunction,
    ValidationError,
    _arrays_equal,
    _arrays_hash,
    _check_sup_bound,
    _read_text,
)

__all__ = [
    "HELLINGER_CURVATURE",
    "PerturbationFamily",
    "SeparatedSet",
    "min_bump_count",
    "choose_parameters",
    "bump",
    "perturbed_density",
    "hamming_distance",
    "build_separated_set",
    "save_separated_set",
    "load_separated_set",
    "analytic_hellinger_sq",
    "analytic_l1",
    "analytic_kl_product",
    "AuditCheck",
    "AuditReport",
    "audit_hypotheses",
]

#: The constant c in ``2 - sqrt(1+a) - sqrt(1-a) >= 2 c a²`` for a in [0, 1],
#: i.e. the quadratic minorant of the per-bump Hellinger cost.  Equals 8^(-3/2).
HELLINGER_CURVATURE = 8.0 ** -1.5


def min_bump_count(family_size: int) -> int:
    """Smallest ``D`` with ``2^(D/8) >= family_size``.

    Computed in exact integer arithmetic as the smallest ``D`` with
    ``2^D >= family_size^8`` — no float logarithms, so the "smallest"
    claim is airtight.
    """
    if family_size < 2:
        raise ValidationError(f"family size must be at least 2, got {family_size}")
    return (int(family_size) ** 8 - 1).bit_length()


@dataclass(frozen=True)
class PerturbationFamily:
    """Tuned parameters of one bump-perturbation family.

    ``n_bumps`` paired up/down bumps of height ``amplitude / n_bumps`` sit
    on the uniform density; a binary word of length ``n_bumps`` selects
    which bumps are active.

    ``n_bumps`` is derived from ``family_size``, and no sample size is held:
    the amplitude encodes the one it was tuned to.  Construction checks the
    range rule on the values :func:`perturbed_density` writes, ``1 ± a`` with
    ``a = bump_height``: ``0 < a <= 1`` and ``1 + a <= bound``.
    """

    amplitude: float
    bound: float
    family_size: int

    def __post_init__(self):
        _check_sup_bound(self.bound)
        a = self.bump_height
        if not (0.0 < a <= 1.0 and 1.0 + a <= self.bound):
            raise ValidationError(
                f"amplitude {self.amplitude!r} gives bump height a = {a!r}, but members "
                f"stay in [0, A] only if 0 < a <= 1 and 1 + a <= A = {self.bound!r}; "
                "a tuned family needs log(M) <= 16 * min(1, A-1)^2 * n"
            )

    @property
    def n_bumps(self) -> int:
        return min_bump_count(self.family_size)

    @property
    def bump_height(self) -> float:
        """Height ``a`` of each active bump; lies in (0, 1]."""
        return self.amplitude / self.n_bumps


def _check_sample_size(n: int, n_bumps: int) -> None:
    """``n`` is positive, and small enough that ``n * D``, the largest
    product-KL numerator, converts to a finite float."""
    if n < 1:
        raise ValidationError(f"sample size must be positive, got {n}")
    if n * n_bumps > sys.float_info.max:
        raise ValidationError(
            f"sample size too large: n * D must be at most {sys.float_info.max!r} "
            f"for D = {n_bumps}"
        )


def choose_parameters(family_size: int, sample_size: int, bound: float) -> PerturbationFamily:
    """Tune a perturbation family to ``(M, n, A)``.

    The tuned values are ``D = min_bump_count(M)`` and amplitude
    ``(D/4) * sqrt(log(M)/n)``, which saturates the KL budget the
    lower-bound argument allows.  The family fails loudly unless its bump
    height ``a = sqrt(log(M)/n) / 4`` keeps members in ``[0, A]``:
    ``0 < a <= 1`` and ``1 + a <= A``, or ``log(M) <= 16 * min(1, A-1)² * n``
    in exact arithmetic.
    """
    n_bumps = min_bump_count(family_size)
    _check_sample_size(sample_size, n_bumps)
    amplitude = (n_bumps / 4.0) * math.sqrt(math.log(family_size) / sample_size)
    return PerturbationFamily(amplitude=amplitude, bound=bound, family_size=family_size)


def bump(family: PerturbationFamily, index: int) -> PiecewiseFunction:
    """The ``index``-th (1-based) paired bump as a step function on [0, 1].

    Up by the bump height on the left half of cell ``index``, down by the
    same amount on the right half, zero elsewhere; integrates to zero.
    """
    D = family.n_bumps
    if not 1 <= index <= D:
        raise ValidationError(f"bump index must be in 1..{D}, got {index}")
    h = family.bump_height
    denom = 2.0 * D
    edges = np.array(
        [0.0, (2 * index - 2) / denom, (2 * index - 1) / denom, (2 * index) / denom, 1.0]
    )
    vals = np.array([0.0, h, -h, 0.0])
    keep = np.diff(edges) > 0
    return PiecewiseFunction(np.concatenate(([0.0], edges[1:][keep])), vals[keep])


def _check_bits(w: np.ndarray) -> np.ndarray:
    """The 0/1 word rule, for one word or a matrix of them; returns uint8."""
    if not np.all((w == 0) | (w == 1)):
        raise ValidationError("word entries must be 0 or 1")
    return w.astype(np.uint8)


def _check_word(word, n_bumps: int) -> np.ndarray:
    w = np.asarray(word)
    if w.ndim != 1 or w.size != n_bumps:
        raise ValidationError(
            f"word must be a vector of length {n_bumps}, got shape {w.shape}"
        )
    return _check_bits(w)


def _member_values(family: PerturbationFamily, words: np.ndarray):
    """``(grid, values)``: the family's grid ``arange(2D + 1) / (2D)`` and the
    (m, 2D) cell values of the members selected by the rows of ``words``, a
    0/1 matrix checked by :func:`_check_bits`, in one array op.

    Cell ``j`` (1-based) of the uniform grid carries the paired bump iff
    ``word[j-1] == 1``; active cells take values ``(1 + a, 1 - a)`` on
    their two halves, inactive cells stay at 1.  Each row is an exact
    density in ``[0, A]``, by the range rule of :class:`PerturbationFamily`.
    """
    D = family.n_bumps
    a = family.bump_height
    vals = np.ones((words.shape[0], D, 2))
    vals[words == 1] = (1.0 + a, 1.0 - a)
    return np.arange(2 * D + 1) / (2.0 * D), vals.reshape(-1, 2 * D)


def perturbed_density(family: PerturbationFamily, word) -> PiecewiseDensity:
    """The family member selected by a binary word: the one-word case of
    :func:`_member_values`, an exact density bounded by the family's sup
    bound."""
    grid, vals = _member_values(family, _check_word(word, family.n_bumps)[None])
    return PiecewiseDensity(grid, vals[0])


def hamming_distance(word1, word2) -> int:
    """Number of coordinates where two equal-length binary words differ."""
    w1 = _check_word(word1, np.size(word1))
    return _distance(w1, _check_word(word2, w1.size))


def _distance(w1: np.ndarray, w2: np.ndarray) -> int:
    """Hamming distance of two words already checked by :func:`_check_word`."""
    return int(np.count_nonzero(w1 != w2))


def _separation_floor(n_bits: int) -> int:
    """``ceil(n_bits/8)``: an integer distance ``d`` meets the real threshold
    ``n_bits/8`` exactly when ``d >= _separation_floor(n_bits)``."""
    return (n_bits + 7) // 8


def _span_weights(words: np.ndarray) -> np.ndarray | None:
    """Weights of the span of the rows at ``2^b < m``, word ``i`` the XOR of
    those rows over the set bits of ``i``, if every row ``i`` is word ``i``;
    else ``None``.  Built from packed rows by doubling: under ``2m`` words."""
    packed = np.packbits(words, axis=1)
    span = np.zeros_like(packed[:1])
    while span.shape[0] < packed.shape[0]:
        span = np.concatenate((span, span ^ packed[span.shape[0]]))
    if not np.array_equal(span[:packed.shape[0]], packed):
        return None
    return np.bitwise_count(span).sum(axis=1, dtype=np.int64)


def _pair_distances(words: np.ndarray, weights: np.ndarray | None = None):
    """Hamming distances of the 0/1 rows ``i < j``, in row-major order.

    Yields, for each row ``i``, the distances to rows ``i+1..m-1`` (empty for
    the last row).  Given the :func:`_span_weights` of ``words``, they are
    read off it: rows ``i`` and ``j`` differ by span word ``i ^ j``.  Without
    it they come from packed rows and popcounts.
    """
    m = words.shape[0]
    if weights is not None:
        for i in range(m):
            yield weights[np.arange(i + 1, m) ^ i]
        return
    packed = np.packbits(words, axis=1)
    for i in range(m):
        yield np.bitwise_count(packed[i + 1:] ^ packed[i]).sum(axis=1, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class SeparatedSet:
    """Binary words with pairwise Hamming distance at least ``D/8``.

    ``words`` is an ``(m, D)`` 0/1 matrix whose first row is the all-zeros
    word.  The separation property is re-verified on construction, so any
    instance in hand is certified.  A prefix of a linear span (see
    :func:`_span_weights`; every built set is one) is certified in
    ``O(m·D)`` by the span's least nonzero weight: each pair differs by a
    nonzero span word ``i ^ j``, and each nonzero span word ``k`` is a pair's
    difference, rows ``0`` and ``k``, or ``k ^ 2^b`` and ``2^b`` for the
    highest basis row ``2^b``.  Any other set is certified pair by pair.  Two
    sets are equal when their words are.
    """

    words: np.ndarray
    #: the span weights of a span prefix, else ``None``
    _weights: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        w = np.asarray(self.words)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValidationError("words must be a nonempty 2-D 0/1 matrix")
        w = _check_bits(w)
        if np.any(w[0] != 0):
            raise ValidationError("the first word must be all zeros")
        floor = _separation_floor(w.shape[1])
        weights = _span_weights(w)
        if weights is not None:
            separated = weights[1:].min(initial=floor) >= floor
        else:
            separated = all(np.all(d >= floor) for d in _pair_distances(w))
        if not separated:
            raise ValidationError(
                f"words are not pairwise {w.shape[1]}/8-separated"
            )
        w.setflags(write=False)
        object.__setattr__(self, "words", w)
        object.__setattr__(self, "_weights", weights)

    def __eq__(self, other):
        return _arrays_equal(self, other, ("words",))

    def __hash__(self):
        return _arrays_hash(self, ("words",))

    @property
    def size(self) -> int:
        return self.words.shape[0]

    @property
    def word_length(self) -> int:
        return self.words.shape[1]

    @property
    def threshold(self) -> float:
        """The certified pairwise Hamming separation, ``word_length / 8``."""
        return self.words.shape[1] / 8.0


#: The widest coset table :func:`build_separated_set` builds, in index bits:
#: ``2^24`` one-byte entries.
_COSET_BITS = 24


def _coset_weights(span: np.ndarray, pivots: list[int], free: list[int]) -> np.ndarray:
    """Minimum weight of every coset of the span, indexed by the coset's
    representative with zeros at the pivot bits, read at the ``free`` bits.

    A span word ``s`` puts ``popcount(s)`` on its pivot bits into the entry
    of its free bits; then one pass per free bit (one axis of the table)
    turns that into ``min_s wt(s ^ rep)``, since weight adds over bits.
    """
    table = np.full(1 << len(free), 2 * 64, dtype=np.uint8)  # above any weight, far from 255
    index = np.zeros(span.size, dtype=np.uint64)
    for t, j in enumerate(free):
        index |= ((span >> np.uint64(j)) & np.uint64(1)) << np.uint64(t)
    pivot_bits = np.uint64(sum(1 << p for p in pivots))
    np.minimum.at(table, index.astype(np.intp), np.bitwise_count(span & pivot_bits))
    step = np.empty(table.size // 2, dtype=np.uint8)
    for t in range(len(free)):
        halves = table.reshape(-1, 2, 1 << t)
        low, high, step_t = halves[:, 0], halves[:, 1], step.reshape(-1, 1 << t)
        np.minimum(low, np.add(high, 1, out=step_t), out=low)
        np.minimum(high, np.add(low, 1, out=step_t), out=high)
    return table


def build_separated_set(n_bits: int, n_words: int) -> SeparatedSet:
    """The first ``n_words`` words of the binary lexicode of length ``n_bits``
    with pairwise Hamming distance at least ``n_bits/8``.

    The lexicode is the greedy packing that starts from the all-zeros word
    and accepts, in integer order (most significant bit first), each word at
    distance ``ceil(n_bits/8)`` or more from every word accepted before it
    (Conway & Sloane 1986, "Lexicographic codes").  It is linear: word ``i``
    is the XOR of the basis words ``g_b`` (the words at positions ``2^b``)
    over the set bits of ``i``.  The output is deterministic, bit for bit.

    Raises ``ValidationError`` unless ``n_bits >= 1``, ``n_words >= 1`` and
    ``2^(n_bits/8) >= n_words`` (checked exactly, as ``2^n_bits >=
    n_words^8``; the greedy packing always reaches ``2^(n_bits/8)`` words),
    and when the set needs a basis word wider than 64 bits or a coset table
    of more than ``2^24`` entries to find one.
    """
    if n_bits < 1:
        raise ValidationError(f"word length must be positive, got {n_bits}")
    if n_words < 1:
        raise ValidationError(f"requested set size must be positive, got {n_words}")
    if n_words > 1 and int(n_words) ** 8 > (1 << n_bits):
        raise ValidationError(
            f"infeasible request: need 2^({n_bits}/8) >= {n_words} "
            f"(exactly: 2^{n_bits} >= {n_words}^8) to pack the set"
        )
    thr = _separation_floor(n_bits)
    span = np.zeros(1, dtype=np.uint64)
    pivots, length = [], 0  # leading bits of the basis words; bit length of the last
    while span.size < n_words:
        # Every integer below 2^length is within thr - 1 of the span, so the
        # next word is h * 2^length + x, at distance popcount(h) + d(x) from
        # the span.  The least one takes x of the largest coset weight r, and
        # h = 2^(thr - r) - 1.  Each coset's least element has zeros at the
        # pivot bits (the basis is reduced: no word holds another's pivot), so
        # x is the first entry of weight r in the table.
        free = [j for j in range(length) if j not in pivots]
        if len(free) > _COSET_BITS:
            raise ValidationError(
                f"a separated set of {n_words} words of length {n_bits} needs a "
                f"coset table of 2^{len(free)} entries for lexicode basis word "
                f"{len(pivots)}; at most 2^{_COSET_BITS} are built"
            )
        table = _coset_weights(span, pivots, free)
        x = int(np.argmax(table))
        k = thr - int(table[x])
        word = ((1 << k) - 1) << length | sum(((x >> t) & 1) << j for t, j in enumerate(free))
        length += k
        if length > 64:
            raise ValidationError(
                f"a separated set of {n_words} words of length {n_bits} needs a "
                f"lexicode basis word wider than 64 bits"
            )
        if length > n_bits:
            raise RuntimeError(f"lexicode basis word {word} does not fit in {n_bits} bits")
        pivots.append(length - 1)
        span = np.concatenate((span, span ^ np.uint64(word)))
    # right-aligned, most significant bit first; bits above 64 are zero
    bits = np.unpackbits(span[:n_words].astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
    return SeparatedSet(np.pad(bits, ((0, 0), (max(0, n_bits - 64), 0)))[:, -n_bits:])


def save_separated_set(words: SeparatedSet, path) -> None:
    """Write one word per line as a 0/1 string."""
    rows = np.pad(words.words + ord("0"), ((0, 0), (0, 1)), constant_values=ord("\n"))
    Path(path).write_text(rows.tobytes().decode("ascii"))


def load_separated_set(path) -> SeparatedSet:
    lines = [ln.strip() for ln in _read_text(path).splitlines() if ln.strip()]
    # one byte per character ("?" for non-ASCII); characters below "0" wrap past 1
    text = "".join(lines).encode("ascii", "replace")
    bits = np.frombuffer(text, dtype=np.uint8) - np.uint8(ord("0"))
    if not lines or np.any(bits > 1) or any(len(ln) != len(lines[0]) for ln in lines):
        raise ValidationError(f"{path}: expected lines of 0/1 strings of one length")
    return SeparatedSet(bits.reshape(len(lines), -1))


# ---------------------------------------------------------------------------
# Closed forms and the hypothesis audit
# ---------------------------------------------------------------------------


def _hellinger_sq(family: PerturbationFamily, rho):
    """Squared Hellinger distance at Hamming distance ``rho`` (scalar or array),
    ``(rho / D) * (2 - u - v)`` with ``u, v = sqrt(1 ± a)``, ``a`` the bump
    height.  That form sums terms of size 1 to about ``a²``, which cancels as
    ``n`` grows; it is computed as ``(rho / D) * 2a² / ((u + v)(1 + u)(1 +
    v))``, which stays near machine precision."""
    a = family.bump_height
    up, down = math.sqrt(1.0 + a), math.sqrt(1.0 - a)
    return (rho / family.n_bumps) * (2.0 * a * a / ((up + down) * (1.0 + up) * (1.0 + down)))


def _kl_product(family: PerturbationFamily, active, n: int):
    """Product KL of a member with ``active`` bumps (scalar or array) vs. uniform,
    ``n * active * ((1+a) log(1+a) + (1-a) log(1-a)) / (2 D)``.  That bracket
    sums terms of size ``a`` to about ``a²``, which cancels as ``n`` grows; it
    is computed as ``log1p(-a²) + a (log1p(a) - log1p(-a))``, with ``log1p(a) +
    log1p(-a)`` for ``log1p(-a²)`` once ``a >= 0.5``, and as ``2 log 2`` at
    ``a = 1``, which stays near machine precision."""
    a = family.bump_height
    if a < 1.0:
        both = math.log1p(-a * a) if a < 0.5 else math.log1p(a) + math.log1p(-a)
        per_bump = both + a * (math.log1p(a) - math.log1p(-a))
    else:
        per_bump = 2.0 * math.log(2.0)
    return n * active * per_bump / (2.0 * family.n_bumps)


def analytic_hellinger_sq(family: PerturbationFamily, word1, word2) -> float:
    """Exact squared Hellinger distance between two family members."""
    D = family.n_bumps
    return _hellinger_sq(family, _distance(_check_word(word1, D), _check_word(word2, D)))


def analytic_l1(family: PerturbationFamily, word1, word2) -> float:
    """Exact L1 distance between two family members."""
    D = family.n_bumps
    return family.amplitude * _distance(_check_word(word1, D), _check_word(word2, D)) / D**2


def analytic_kl_product(family: PerturbationFamily, word, n: int) -> float:
    """KL divergence of the ``n``-fold product of a member vs. uniform.

    KL is additive over independent coordinates, so this is ``n`` times the
    single-draw divergence; each active bump contributes
    ``((1+a)log(1+a) + (1-a)log(1-a)) / (2D)``.  At the extreme ``a = 1``
    the vanishing half-cell contributes ``0 log 0 = 0``.
    """
    if n < 0:
        raise ValidationError(f"sample size must be nonnegative, got {n}")
    active = int(np.count_nonzero(_check_word(word, family.n_bumps)))
    return _kl_product(family, active, n)


@dataclass(frozen=True)
class AuditCheck:
    """One audited inequality: ``achieved`` vs. ``bound``."""

    name: str
    bound: float
    achieved: float
    passed: bool


@dataclass(frozen=True)
class AuditReport:
    """Every hypothesis the lower-bound argument rests on, with margins.

    A check's value, verdict and JSON record depend only on its class: the
    number of active bumps of a word (KL checks) or the Hamming distance of
    a pair (separation checks), each in ``0..D``.  So the report stores only
    the family, the sample size and the words, and derives one ``(bound,
    achieved, passed)`` entry per class and kind from the first two, in
    :attr:`kl_classes` and :attr:`sep_classes`.  :attr:`checks` names every
    check on first read, and :attr:`n_failed` counts failures without
    naming any; :meth:`save` streams the JSON that :meth:`to_dict` parses,
    in memory linear in ``M``.  Two reports are equal when their family,
    sample size and words are, which fix the class tables; ``SeparatedSet``
    compares its words by value, so the generated ``==`` and ``hash`` hold.
    Construction checks the sample size and that the words have one bit per
    bump.
    """

    family: PerturbationFamily
    sample_size: int
    words: SeparatedSet

    def __post_init__(self):
        _check_sample_size(self.sample_size, self.family.n_bumps)
        if self.words.word_length != self.family.n_bumps:
            raise ValidationError(
                f"word length {self.words.word_length} does not match the family's "
                f"{self.family.n_bumps} bumps"
            )

    @cached_property
    def kl_classes(self) -> tuple[tuple[float, float, bool], ...]:
        """KL check entries by active bumps ``0..D``, against ``log(M)/16``."""
        budget = math.log(self.family.family_size) / 16.0
        # object dtype keeps n * active an exact Python int, as in analytic_kl_product
        active = np.arange(self.family.n_bumps + 1).astype(object)
        kl = _kl_product(self.family, active, self.sample_size).tolist()
        return tuple((budget, v, v <= budget) for v in kl)

    @cached_property
    def sep_classes(self) -> tuple[tuple[float, float, bool], ...]:
        """Separation check entries by Hamming distance ``0..D``."""
        floor = (HELLINGER_CURVATURE / 64.0) * math.log(self.family.family_size) / self.sample_size
        sep = _hellinger_sq(self.family, np.arange(self.family.n_bumps + 1)).tolist()
        return tuple((floor, v, v >= floor) for v in sep)

    def _rows(self):
        """Yield the checks in report order, one row at a time, as
        ``(prefix, suffixes, kind, classes)``: check ``k`` of a row is named
        ``prefix + suffixes[k]`` and falls in class ``classes[k]`` of the
        kind's table, ``kind`` 0 for :attr:`kl_classes` (indexed by active
        bumps), 1 for :attr:`sep_classes` (indexed by Hamming distance).  The
        first row holds every word's KL check; then each word's row holds its
        separation checks against the later words.
        """
        w = self.words.words
        m = w.shape[0]
        yield "kl_budget[word=", [f"{j}]" for j in range(m)], 0, np.count_nonzero(w, axis=1)
        later = [f"{j})]" for j in range(m)]
        for i, dist in enumerate(_pair_distances(w, self.words._weights)):
            yield f"hellinger_separation[pair=({i},", later[i + 1:], 1, dist

    @cached_property
    def checks(self) -> tuple[AuditCheck, ...]:
        # object arrays, so that one gather per row picks the entries
        tables = [np.fromiter(t, dtype=object, count=len(t))
                  for t in (self.kl_classes, self.sep_classes)]
        return tuple(
            AuditCheck(prefix + suffix, *entry)
            for prefix, suffixes, kind, classes in self._rows()
            for suffix, entry in zip(suffixes, tables[kind][classes].tolist())
        )

    @cached_property
    def n_failed(self) -> int:
        """How many checks fail, counted from the class verdicts in one walk
        of the pairs, or 0 without one when no check can fail: no KL class
        fails, and no separation class at distance ``ceil(D/8)`` or more,
        where every pair of a separated set lies."""
        kl, sep = (np.array([not e[2] for e in t]) for t in (self.kl_classes, self.sep_classes))
        if not kl.any() and not sep[_separation_floor(self.family.n_bumps):].any():
            return 0
        return sum(int(np.count_nonzero((kl, sep)[kind][classes]))
                   for _, _, kind, classes in self._rows())

    @property
    def all_pass(self) -> bool:
        """Whether every check passes."""
        return self.n_failed == 0

    def _text(self):
        """Yield the report's JSON text, ``json.dumps(report, indent=2) + "\\n"``
        byte for byte, in chunks (the header, one per row of words, the footer),
        never built whole; ``report`` holds the header keys, ``"checks"`` (a
        record per check, in :attr:`checks` order) and ``"all_pass"``."""
        header = {
            "M": self.family.family_size,
            "n": self.sample_size,
            "A": self.family.bound,
            "D": self.family.n_bumps,
            "L": self.family.amplitude,
            "curvature_const": HELLINGER_CURVATURE,
        }
        tails = []
        for table in (self.kl_classes, self.sep_classes):
            # one bound per table, and two verdicts
            bound = f'",\n      "bound": {json.dumps(table[0][0])},\n      "achieved": '
            verdict = [f',\n      "pass": {json.dumps(v)}\n    }}' for v in (False, True)]
            tails.append(np.array([bound + json.dumps(achieved) + verdict[passed]
                                   for _, achieved, passed in table], dtype=object))
        head = ',\n    {\n      "name": "'
        # the header's closing "\n}" gives way to the checks; the first
        # record (a KL check: there is always one word) drops its comma
        yield json.dumps(header, indent=2)[:-2] + ',\n  "checks": ['
        for k, (prefix, suffixes, kind, classes) in enumerate(self._rows()):
            entries = tails[kind][classes].tolist()
            # head + prefix, suffix, entry, once per check, in one join
            parts = [head + prefix] * (3 * len(entries))
            parts[1::3] = suffixes
            parts[2::3] = entries
            text = "".join(parts)
            yield text[1:] if k == 0 else text
        yield f'\n  ],\n  "all_pass": {json.dumps(self.all_pass)}\n}}\n'

    def to_dict(self) -> dict:
        """The report as :meth:`save` writes it, parsed."""
        return json.loads("".join(self._text()))

    def save(self, path) -> None:
        """Write the report's JSON, ``json.dumps(self.to_dict(), indent=2) +
        "\\n"``, one row of words at a time."""
        with open(path, "w") as fh:
            fh.writelines(self._text())


def audit_hypotheses(
    family: PerturbationFamily, words: SeparatedSet, n: int
) -> AuditReport:
    """Check the two quantitative hypotheses behind the lower bound.

    For every word in the set, the ``n``-sample product KL against the
    uniform center must stay within the budget ``log(M)/16``; for every
    pair, the squared Hellinger separation must reach
    ``(c/64) * log(M)/n`` with ``c = HELLINGER_CURVATURE``.  Each check is
    reported individually, so a violation points at the exact word or pair.
    The report evaluates the closed forms once per class (active bumps,
    Hamming distance), elementwise, so each value is the one a per-check
    evaluation gives.
    """
    return AuditReport(family=family, sample_size=n, words=words)
