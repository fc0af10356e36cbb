"""The separated set as a linear lexicode, and the audit by distance class.

``build_separated_set`` searches only the basis words of the lexicode and
XORs the rest; ``SeparatedSet`` certifies a prefix of a linear span by the
span's weights and any other set pair by pair; ``audit_hypotheses``
evaluates the closed forms once per class (active bumps, Hamming distance),
and ``AuditReport.save`` streams the JSON row by row.  They are checked here
against brute force and against frozen copies of the code they replaced:
the chunked first-fit scanner (``_old_greedy_scan``), the basis search that
restarted above the span's maximum (``_old_basis_search``), the per-word,
per-pair audit loop (``_old_audit``), the whole-report ``json.dumps`` writer
(``_old_save``) and the per-character word-file writer and reader
(``_old_save_words``, ``_old_load_words``).  Past the sizes those copies
reach in seconds, the basis words of the M = 1024 family are pinned
(``_BASIS_80_1024``).
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import densagg
from densagg import (
    HELLINGER_CURVATURE,
    AuditCheck,
    SeparatedSet,
    ValidationError,
    audit_hypotheses,
    build_separated_set,
    choose_parameters,
    load_separated_set,
    min_bump_count,
    save_separated_set,
)
from densagg.densities import _read_text
from densagg.lowerbound import _hellinger_sq, _pair_distances, _span_weights

# ---------------------------------------------------------------------------
# Frozen copies of the replaced code
# ---------------------------------------------------------------------------

#: The ten basis words of ``build_separated_set(80, 1024)``, as the chunked
#: scan that the coset search replaced found them, in about a minute.
_BASIS_80_1024 = (1023, 31775, 232551, 824491, 1386837, 6330581, 25206065, 42278310,
                  77607100, 402698573)



def _old_greedy_scan(n_bits, n_words):
    thr = (n_bits + 7) // 8
    accepted = [0]
    total = 1 << n_bits
    start = 1
    chunk = 1 << 14
    while len(accepted) < n_words and start < total:
        stop = min(start + chunk, total)
        cand = np.arange(start, stop, dtype=np.uint64)
        for a in np.array(accepted, dtype=np.uint64):
            if cand.size == 0:
                break
            cand = cand[np.bitwise_count(cand ^ a) >= thr]
        new = []
        for w in cand.tolist():
            if all((w ^ v).bit_count() >= thr for v in new):
                new.append(w)
                if len(accepted) + len(new) == n_words:
                    break
        accepted.extend(new)
        start = stop
    return accepted


def _old_int_scan(n_bits, n_words):
    thr = (n_bits + 7) // 8
    accepted = [0]
    w = 1
    while len(accepted) < n_words and w < 1 << n_bits:
        if all((w ^ v).bit_count() >= thr for v in accepted):
            accepted.append(w)
        w += 1
    return accepted


def _old_basis_search(n_bits, n_words):
    thr = (n_bits + 7) // 8
    limit = min(1 << n_bits, 1 << 64)
    chunk = 1 << 14
    span = np.zeros(1, dtype=np.uint64)
    start = (1 << thr) - 1
    while span.size < n_words and start < limit:
        cand = np.arange(start, min(start + chunk, limit), dtype=np.uint64)
        for v in span:
            cand = cand[np.bitwise_count(cand ^ v) >= thr]
            if cand.size == 0:
                break
        if cand.size:
            span = np.concatenate((span, span ^ cand[0]))
            start = int(span.max()) + 1
        else:
            start += chunk
    return span[:n_words].tolist()


def _old_save_words(words, path):
    Path(path).write_text(
        "".join("".join(str(int(b)) for b in row) + "\n" for row in words.words)
    )


def _old_load_words(path):
    lines = [ln.strip() for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines or any(set(ln) - {"0", "1"} or len(ln) != len(lines[0]) for ln in lines):
        raise ValidationError(f"{path}: expected lines of 0/1 strings of one length")
    return SeparatedSet(np.array([[int(c) for c in ln] for ln in lines], dtype=np.uint8))


def _old_bits(values, n_bits):
    return np.array(
        [[(v >> (n_bits - 1 - c)) & 1 for c in range(n_bits)] for v in values], dtype=np.uint8
    )


def _old_audit(family, words, n):
    D, a = family.n_bumps, family.bump_height
    log_m = math.log(family.family_size)
    kl_budget = log_m / 16.0
    sep_floor = (HELLINGER_CURVATURE / 64.0) * log_m / n
    if a < 1.0:
        both = math.log1p(-a * a) if a < 0.5 else math.log1p(a) + math.log1p(-a)
        per_bump = both + a * (math.log1p(a) - math.log1p(-a))
    else:
        per_bump = 2.0 * math.log(2.0)
    checks = []
    for i in range(words.size):
        achieved = n * int(np.count_nonzero(words.words[i])) * per_bump / (2.0 * D)
        checks.append(AuditCheck(f"kl_budget[word={i}]", kl_budget, achieved, achieved <= kl_budget))
    for i in range(words.size):
        for j in range(i + 1, words.size):
            rho = int(np.count_nonzero(words.words[i] != words.words[j]))
            achieved = (rho / D) * (2.0 * a * a / (
                (math.sqrt(1.0 + a) + math.sqrt(1.0 - a))
                * (1.0 + math.sqrt(1.0 + a)) * (1.0 + math.sqrt(1.0 - a))))
            checks.append(
                AuditCheck(
                    f"hellinger_separation[pair=({i},{j})]", sep_floor, achieved,
                    achieved >= sep_floor,
                )
            )
    header = {
        "M": family.family_size,
        "n": n,
        "A": family.bound,
        "D": family.n_bumps,
        "L": family.amplitude,
        "curvature_const": HELLINGER_CURVATURE,
    }
    return header, tuple(checks)


def _old_save(header, checks):
    """The bytes the whole-report writer produced for ``_old_audit``'s output."""
    return json.dumps(
        {
            **header,
            "checks": [
                {"name": c.name, "bound": c.bound, "achieved": c.achieved, "pass": c.passed}
                for c in checks
            ],
            "all_pass": all(c.passed for c in checks),
        },
        indent=2,
    ) + "\n"


def _assert_matches_old_audit(report, family, words, n, path):
    header, checks = _old_audit(family, words, n)
    assert report.checks == checks
    assert report.all_pass == all(c.passed for c in checks)
    assert report.n_failed == sum(not c.passed for c in checks)
    assert report.to_dict() == json.loads(_old_save(header, checks))
    assert [report.family.family_size, report.sample_size, report.family.bound,
            report.family.n_bumps, report.family.amplitude] == [
                header[k] for k in ("M", "n", "A", "D", "L")]
    report.save(path)
    expected = _old_save(header, checks).encode()
    assert path.read_bytes() == expected
    assert _dump(report).encode() == expected


def _random_separated_set(n_bits, m, seed):
    """A separated set that is not a lexicode: the zero word, then random
    words kept first-fit."""
    rng = np.random.default_rng(seed)
    kept = [np.zeros(n_bits, dtype=np.uint8)]
    while len(kept) < m:
        w = rng.integers(0, 2, n_bits, dtype=np.uint8)
        if all(8 * np.count_nonzero(w != v) >= n_bits for v in kept):
            kept.append(w)
    return SeparatedSet(np.array(kept))


@st.composite
def _audit_cases(draw):
    """``(family, words, n)``: tuned families, six-fold amplitudes (failing
    KL checks) and too few samples (failing separations), on the lexicode
    or on a random separated set."""
    m = draw(st.integers(2, 80))
    case = draw(st.sampled_from(["tuned", "loud", "undersampled"]))
    if case == "undersampled":
        family, n = choose_parameters(m, 1000, 2.0), draw(st.sampled_from([1, 3]))
    else:
        n = draw(st.sampled_from([1, 3, 1000, 10**19] if case == "tuned" else [1000, 10**19]))
        family = choose_parameters(m, n, 2.0)
        if case == "loud":
            family = replace(family, amplitude=6 * family.amplitude)
    if draw(st.booleans()):
        words = build_separated_set(family.n_bumps, m)
    else:
        words = _random_separated_set(family.n_bumps, m, draw(st.integers(0, 2**32 - 1)))
    return family, words, n


def _span_rows(basis, m):
    """Rows ``0..m-1`` of the span of ``basis`` (0/1 rows), row ``i`` the XOR
    of the basis rows over the set bits of ``i``."""
    rows = np.zeros((m, basis.shape[1]), dtype=np.uint8)
    for i in range(m):
        for b in range(basis.shape[0]):
            if i >> b & 1:
                rows[i] ^= basis[b]
    return rows


@st.composite
def _span_prefixes(draw):
    """Span prefixes of ``k`` random basis rows, sparse enough that some are
    not separated, with every ``m`` that holds all ``k`` basis rows."""
    n_bits, k = draw(st.integers(1, 40)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = (rng.random((k, n_bits)) < draw(st.floats(0.02, 0.6))).astype(np.uint8)
    return _span_rows(basis, draw(st.integers(2 ** (k - 1) + 1 if k else 1, 2**k)))


def _brute_distances(words):
    return [int(np.count_nonzero(words[i] != words[j]))
            for i in range(len(words)) for j in range(i + 1, len(words))]


def _max_words(n_bits):
    """Largest ``m`` with ``m^8 <= 2^n_bits``."""
    m = 1
    while (m + 1) ** 8 <= 1 << n_bits:
        m += 1
    return m


def _dump(report):
    return json.dumps(report.to_dict(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class TestLexicode:
    def test_family_words_match_the_old_scan_for_every_m_to_256(self):
        by_bits = {}
        for m in range(2, 257):
            by_bits.setdefault(min_bump_count(m), []).append(m)
        for n_bits, sizes in by_bits.items():
            oracle = _old_bits(_old_greedy_scan(n_bits, max(sizes)), n_bits)
            for m in sizes:
                assert np.array_equal(build_separated_set(n_bits, m).words, oracle[:m]), m

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.data())
    def test_words_match_the_old_scan_off_the_family_curve(self, n_bits, data):
        n_words = data.draw(st.integers(1, _max_words(n_bits)))
        assume(n_words == 1 or n_bits != min_bump_count(n_words))
        sep = build_separated_set(n_bits, n_words)
        assert np.array_equal(sep.words, _old_bits(_old_greedy_scan(n_bits, n_words), n_bits))

    @pytest.mark.parametrize("n_bits,n_words", [(65, 2), (65, 16), (72, 8), (80, 4)])
    def test_wide_words_match_the_plain_integer_scan(self, n_bits, n_words):
        sep = build_separated_set(n_bits, n_words)
        assert np.array_equal(sep.words, _old_bits(_old_int_scan(n_bits, n_words), n_bits))

    @pytest.mark.parametrize("m", [257, 300, 384, 512])
    def test_family_words_past_256_match_the_old_basis_search(self, m):
        n_bits = min_bump_count(m)
        oracle = _old_bits(_old_basis_search(n_bits, m), n_bits)
        assert np.array_equal(build_separated_set(n_bits, m).words, oracle)

    def test_family_words_at_1024_are_the_pinned_basis_spans(self):
        span = [0]
        for g in _BASIS_80_1024:
            span += [v ^ g for v in span]
        assert np.array_equal(build_separated_set(80, 1024).words, _old_bits(span, 80))

    def test_family_at_2048_builds_in_bounded_memory(self):
        tracemalloc.start()
        try:
            words = build_separated_set(min_bump_count(2048), 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert words.size == 2048 and words.word_length == 88
        assert peak < 128 * 2**20

    def test_set_of_one_is_the_zero_word(self):
        assert np.array_equal(build_separated_set(5, 1).words, [[0] * 5])


# ---------------------------------------------------------------------------
# Pair distances and the certificate of loaded sets
# ---------------------------------------------------------------------------


class TestPairDistances:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_match_brute_force_in_row_major_order(self, m, n_bits, seed):
        words = np.random.default_rng(seed).integers(0, 2, size=(m, n_bits), dtype=np.uint8)
        expected = [
            int(np.count_nonzero(words[i] != words[j]))
            for i in range(m)
            for j in range(i + 1, m)
        ]
        got = np.concatenate(list(_pair_distances(words)))
        assert got.tolist() == expected

    def test_accepts_a_separated_nonlinear_set(self):
        # 0, 3, 12, 48 in 16 bits: 3 ^ 12 = 15 is not in the set
        words = [[0] * 16, [0] * 14 + [1] * 2, [0] * 12 + [1] * 2 + [0] * 2,
                 [0] * 10 + [1] * 2 + [0] * 4]
        assert SeparatedSet(np.array(words)).size == 4

    def test_rejects_a_nonlinear_set_that_fails_only_between_nonzero_words(self, tmp_path):
        # every word has weight >= 2, but the last two are at distance 1
        p = tmp_path / "words.txt"
        p.write_text("0" * 16 + "\n" + "0" * 14 + "11\n" + "0" * 12 + "1100\n"
                     + "0" * 12 + "1110\n")
        with pytest.raises(ValidationError, match="separated"):
            load_separated_set(p)

    def test_loaded_set_certifies_in_bounded_memory(self, tmp_path):
        rng = np.random.default_rng(11)
        words = rng.integers(0, 2, size=(1024, 80), dtype=np.uint8)
        words[0] = 0
        p = tmp_path / "words.txt"
        save_separated_set(SeparatedSet(words), p)
        tracemalloc.start()
        try:
            loaded = load_separated_set(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.words, words)
        # one (m, m, D) bool tensor of all pairs would take 84 MB
        assert 1024 * 1024 * 80 > 64 * 2**20
        assert peak < 16 * 2**20


class TestSpanCertificate:
    @settings(max_examples=200, deadline=None)
    @given(_span_prefixes())
    def test_span_prefixes_are_certified_as_brute_force_certifies_them(self, words):
        distances = _brute_distances(words)
        weights = _span_weights(words)
        assert weights is not None and weights.size < 2 * len(words)
        # every pair differs by a nonzero span word, and every nonzero span
        # word is the difference of a pair: the span's least nonzero weight
        # is the least pair distance
        assert set(distances) == set(weights[1:].tolist())
        assert np.concatenate(list(_pair_distances(words, weights))).tolist() == distances
        if all(8 * d >= words.shape[1] for d in distances):
            assert np.array_equal(SeparatedSet(words)._weights, weights)
        else:
            with pytest.raises(ValidationError, match="separated"):
                SeparatedSet(words)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 24), st.integers(0, 2**32 - 1),
           st.floats(0.05, 0.6))
    def test_any_set_is_accepted_exactly_when_every_pair_is_separated(self, m, n_bits, seed, p):
        words = (np.random.default_rng(seed).random((m, n_bits)) < p).astype(np.uint8)
        words[0] = 0
        basis = words[[2**b for b in range(m.bit_length()) if 2**b < m]]
        prefix = np.array_equal(words, _span_rows(basis, m))
        assert (_span_weights(words) is not None) == prefix
        if all(8 * d >= n_bits for d in _brute_distances(words)):
            assert (SeparatedSet(words)._weights is not None) == prefix
        else:
            with pytest.raises(ValidationError, match="separated"):
                SeparatedSet(words)

    @pytest.mark.parametrize("basis, light", [
        (["11", "111"], [3]),
        (["11", "1100", "1110"], [6, 7]),
    ])
    def test_a_light_span_word_past_the_last_row_is_a_pair_distance(self, basis, light):
        # 16-bit words, threshold 2; every row weighs 2 or more, but span
        # words past the last row (m - 1 = 2, or 4) weigh 1: 11 ^ 111, and
        # 1100 ^ 1110 and 11 ^ 1100 ^ 1110.  Rows 1 and 2, or rows 2 and 4
        # and rows 3 and 4, are that far apart.
        basis = np.array([[int(c) for c in f"{int(g, 2):016b}"] for g in basis], dtype=np.uint8)
        words = _span_rows(basis, 2 ** (len(basis) - 1) + 1)
        weights = _span_weights(words)
        assert np.count_nonzero(words, axis=1)[1:].min() >= 2
        assert [i for i, v in enumerate(weights) if v < 2] == [0, *light]
        assert min(_brute_distances(words)) == 1
        with pytest.raises(ValidationError, match="separated"):
            SeparatedSet(words)

    def test_built_sets_certify_without_the_pairwise_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the pairwise walk ran")

        monkeypatch.setattr(densagg.lowerbound, "_pair_distances", walk)
        words = build_separated_set(80, 1024)
        assert words._weights.size == 1024 and words._weights[1:].min() == 10
        with pytest.raises(AssertionError, match="pairwise walk"):
            _random_separated_set(16, 4, 0)


class TestWordFiles:
    @pytest.mark.parametrize("words", [
        build_separated_set(80, 1024), build_separated_set(5, 1), _random_separated_set(40, 30, 3),
    ], ids=["lexicode-1024", "one-word", "nonlinear"])
    def test_writer_matches_the_old_writer_and_reads_back(self, words, tmp_path):
        save_separated_set(words, tmp_path / "new.txt")
        _old_save_words(words, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
        loaded = load_separated_set(tmp_path / "new.txt")
        assert loaded == words
        assert (loaded._weights is None) == (words._weights is None)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reader_matches_the_old_reader_on_any_text(self, tmp_path_factory, data):
        width = data.draw(st.integers(1, 8))
        word = st.integers(0, 2**width - 1).map(lambda v: format(v, f"0{width}b"))
        space = st.sampled_from(["", " ", "\t", "\u3000", " \x0c "])
        other = st.sampled_from(list("2a/\x00é\u3000\U0001f600"))
        line = st.one_of(
            word,
            st.tuples(space, word, space).map("".join),
            space,
            # a word of the right width with one character that is not 0/1
            st.tuples(word, st.integers(0, width - 1), other).map(
                lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:]),
            st.integers(1, 9).flatmap(lambda k: st.integers(0, 2**k - 1).map(
                lambda v: format(v, f"0{k}b"))),
            st.text(st.sampled_from(list("01 \t\r\x0b\x1c\x85\u2028\u3000é2a/\x00")),
                    max_size=10),
        )
        lines = data.draw(st.lists(line, max_size=12))
        if data.draw(st.booleans()):
            lines.insert(0, "0" * width)
        text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines)
        path = tmp_path_factory.getbasetemp() / "hypothesis-words.txt"
        path.write_bytes((text + data.draw(st.sampled_from(["", "\n"]))).encode())

        def outcome(load):
            try:
                return load(path).words.tolist()
            except ValidationError as exc:
                return str(exc)

        assert outcome(load_separated_set) == outcome(_old_load_words)


# ---------------------------------------------------------------------------
# The audit
# ---------------------------------------------------------------------------


class TestFailureCount:
    def test_all_pass_counts_zero_without_walking_the_pairs(self, monkeypatch):
        family = choose_parameters(64, 1000, 2.0)
        words = build_separated_set(family.n_bumps, 64)
        _, checks = _old_audit(family, words, 1000)
        assert all(c.passed for c in checks)
        # class 0 (distance 0) always fails, but no pair of a separated set is in it
        assert not audit_hypotheses(family, words, 1000).sep_classes[0][2]
        monkeypatch.setattr(densagg.lowerbound, "_pair_distances", None)
        assert audit_hypotheses(family, words, 1000).n_failed == 0

    @pytest.mark.parametrize("case", ["loud", "undersampled", "both", "threshold"])
    def test_failures_are_counted_exactly(self, case):
        family = choose_parameters(64, 1000, 2.0)
        words = build_separated_set(family.n_bumps, 64)
        thr = (family.n_bumps + 7) // 8
        # the least n at which distance thr + 1 separates and thr does not
        least = math.ceil(HELLINGER_CURVATURE / 64 * math.log(64) / _hellinger_sq(family, thr + 1))
        n = {"loud": 1000, "undersampled": 3, "both": 3, "threshold": least}[case]
        if case in ("loud", "both"):
            family = replace(family, amplitude=3 * family.amplitude)
        _, checks = _old_audit(family, words, n)
        failed = sum(not c.passed for c in checks)
        assert 0 < failed < len(checks)
        report = audit_hypotheses(family, words, n)
        if case == "threshold":
            assert [e[2] for e in report.sep_classes[thr:thr + 2]] == [False, True]
        assert report.n_failed == failed

    @pytest.mark.parametrize("case", ["passing", "loud", "undersampled"])
    def test_save_walks_the_pairs_once_and_a_failing_count_once_more(self, case, tmp_path,
                                                                     monkeypatch):
        family = choose_parameters(64, 1000, 2.0)
        words = build_separated_set(family.n_bumps, 64)
        n = 3 if case == "undersampled" else 1000
        if case == "loud":
            family = replace(family, amplitude=6 * family.amplitude)
        header, checks = _old_audit(family, words, n)
        failed = sum(not c.passed for c in checks)
        assert (failed > 0) == (case != "passing")
        walks = []

        def counted(*args):
            walks.append(args)
            return _pair_distances(*args)

        monkeypatch.setattr(densagg.lowerbound, "_pair_distances", counted)
        # rendering walks the pairs once; the footer's verdict reads the
        # count, which walks them again unless no check can fail
        report = audit_hypotheses(family, words, n)
        report.save(tmp_path / "audit.json")
        assert len(walks) == (1 if case == "passing" else 2)
        assert (report.n_failed, report.all_pass) == (failed, failed == 0)
        assert len(walks) == (1 if case == "passing" else 2)
        assert (tmp_path / "audit.json").read_bytes() == _old_save(header, checks).encode()
        # a fresh report counts the same, in a walk of its own unless none can fail
        assert audit_hypotheses(family, words, n).n_failed == failed
        assert len(walks) == (1 if case == "passing" else 3)


class TestVectorisedAudit:
    @pytest.mark.parametrize("m", [16, 64, 256, 300])
    def test_report_json_is_byte_identical_to_the_old_audit(self, m, tmp_path):
        family = choose_parameters(m, 1000, 2.0)
        words = build_separated_set(family.n_bumps, m)
        report = audit_hypotheses(family, words, 1000)
        _assert_matches_old_audit(report, family, words, 1000, tmp_path / "audit.json")

    def test_failing_checks_match_the_old_audit(self, tmp_path):
        family = choose_parameters(16, 1000, 2.0)
        words = build_separated_set(family.n_bumps, 16)
        for fam, n in ((replace(family, amplitude=6 * family.amplitude), 1000), (family, 3)):
            report = audit_hypotheses(fam, words, n)
            assert not report.all_pass
            _assert_matches_old_audit(report, fam, words, n, tmp_path / "audit.json")

    def test_nonlinear_set_matches_the_old_audit(self, tmp_path):
        family = choose_parameters(16, 1000, 2.0)
        kept = [np.zeros(family.n_bumps, dtype=np.uint8)]
        for w in np.random.default_rng(5).integers(0, 2, size=(60, family.n_bumps), dtype=np.uint8):
            if all(8 * np.count_nonzero(w != v) >= family.n_bumps for v in kept):
                kept.append(w)
        words = SeparatedSet(np.array(kept))
        assert words.size > 16
        report = audit_hypotheses(family, words, 1000)
        _assert_matches_old_audit(report, family, words, 1000, tmp_path / "audit.json")

    def test_large_sample_size_stays_exact(self, tmp_path):
        family = choose_parameters(16, 10**19, 2.0)
        words = build_separated_set(family.n_bumps, 16)
        report = audit_hypotheses(family, words, 10**19)
        _assert_matches_old_audit(report, family, words, 10**19, tmp_path / "audit.json")

    @settings(max_examples=60, deadline=None)
    @given(_audit_cases())
    def test_reports_match_the_old_audit_and_writer(self, tmp_path_factory, case):
        family, words, n = case
        report = audit_hypotheses(family, words, n)
        path = tmp_path_factory.getbasetemp() / "hypothesis-audit.json"
        _assert_matches_old_audit(report, family, words, n, path)

    def test_check_fields_are_python_scalars(self):
        family = choose_parameters(8, 100, 2.0)
        report = audit_hypotheses(family, build_separated_set(family.n_bumps, 8), 100)
        for check in report.checks:
            assert type(check.bound) is float and type(check.achieved) is float
            assert type(check.passed) is bool

    def test_checks_are_built_once_on_first_read(self):
        family = choose_parameters(256, 1000, 2.0)
        report = audit_hypotheses(family, build_separated_set(family.n_bumps, 256), 1000)
        checks = report.checks
        assert len(checks) == 256 + 256 * 255 // 2 == 32_896
        assert report.checks is checks

    def test_audit_and_save_stream_in_bounded_memory(self, tmp_path):
        family = choose_parameters(512, 1000, 2.0)
        words = build_separated_set(family.n_bumps, 512)
        path = tmp_path / "audit.json"
        tracemalloc.start()
        try:
            audit_hypotheses(family, words, 1000).save(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole-report writer peaked at 171 MiB here
        assert peak < 16 * 2**20
        assert path.read_text().count('"name": ') == 512 + 512 * 511 // 2

    def test_reports_and_sets_compare_by_value(self):
        family = choose_parameters(16, 1000, 2.0)
        words = build_separated_set(family.n_bumps, 16)
        again = build_separated_set(family.n_bumps, 16)
        assert words == again and hash(words) == hash(again)
        assert words != build_separated_set(family.n_bumps, 15)
        first = audit_hypotheses(family, words, 1000)
        second = audit_hypotheses(family, again, 1000)
        assert first == second and hash(first) == hash(second)
        assert first != audit_hypotheses(family, words, 999)
        assert len({first, second}) == 1


def test_audit_past_256_words_finishes(tmp_path):
    src = str(Path(densagg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "audit.json"
    proc = subprocess.run(
        [sys.executable, "-m", "densagg.cli", "lowerbound-audit", "--M", "257", "--n", "1000",
         "--A", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["D"] == 65 and report["all_pass"] is True
    assert len(report["checks"]) == 257 + 257 * 256 // 2


@pytest.mark.parametrize("n_bits", [256, 320])
def test_three_wide_words_end_with_the_words_or_a_refusal(n_bits):
    # the second basis word lies far above the first, 2^32 - 1 or 2^40 - 1
    src = str(Path(densagg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from densagg import ValidationError, build_separated_set\n"
            "try:\n    words = build_separated_set(int(sys.argv[1]), 3)\n"
            "except ValidationError as exc:\n    print(exc)\n"
            "else:\n    print(words.size, words.word_length)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(n_bits)], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"3 {n_bits}" or "coset table" in proc.stdout


@pytest.mark.parametrize("args", [
    ["-c", "from densagg import build_separated_set; build_separated_set(600, 2)"],
    ["-m", "densagg.cli", "lowerbound-audit", "--M", str(2**64 + 1), "--n", str(10**30),
     "--A", "2", "--out", "audit.json"],
], ids=["library", "cli"])
def test_basis_wider_than_64_bits_fails_at_once(tmp_path, args):
    # ceil(D/8) > 64, so no 64-bit word is far enough from the zero word; the
    # scan starts at the least integer that could be, past every 64-bit one
    src = str(Path(densagg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert "needs a lexicode basis word wider than 64 bits" in proc.stderr
    assert not (tmp_path / "audit.json").exists()
