"""Continual-learning statistics against brute-force oracles, plus matrix IO."""

from __future__ import annotations

import random

import pytest

from _support import (
    oracle_aulc,
    oracle_average_accuracy,
    oracle_bwt,
    oracle_forgetting,
    oracle_fwt,
    random_matrix,
)
from toolstream.clmetrics import (
    baseline_vector,
    eval_matrix,
    MetricsError,
    aulc,
    average_accuracy,
    avg_forgetting,
    bwt,
    fwt,
    matrix_from_rows,
    read_matrix_csv,
    summarize,
    write_matrix_csv,
)
from toolstream.report import format_pct


def _matrix(rows):
    return eval_matrix(rows)


class TestAverageAccuracy:
    def test_reference_final_row(self):
        m = _matrix(
            [
                [0.9, 0.1, 0.1, 0.1],
                [0.6, 0.9, 0.1, 0.1],
                [0.6, 0.6, 0.9, 0.1],
                [0.579, 0.615, 0.447, 0.636],
            ]
        )
        aa = average_accuracy(m)
        assert aa == pytest.approx(0.56925)
        assert format_pct(aa) == "56.9"

    def test_perfect_final_row(self):
        m = _matrix([[1.0, 0.0], [1.0, 1.0]])
        assert average_accuracy(m) == 1.0

    def test_zero_final_row(self):
        m = _matrix([[1.0, 1.0], [0.0, 0.0]])
        assert average_accuracy(m) == 0.0


class TestBwt:
    def test_two_by_two(self):
        m = _matrix([[0.8, 0.0], [0.6, 0.7]])
        assert bwt(m) == pytest.approx(-0.2)

    def test_no_forgetting_means_zero(self):
        m = _matrix([[0.5, 0.2, 0.1], [0.5, 0.6, 0.2], [0.5, 0.6, 0.9]])
        assert bwt(m) == 0.0

    def test_single_stage_rejected(self):
        with pytest.raises(MetricsError):
            bwt(_matrix([[0.5]]))


class TestFwt:
    def test_superdiagonal_with_zero_baseline(self):
        m = _matrix(
            [
                [0.9, 0.2, 0.0, 0.0],
                [0.0, 0.9, 0.3, 0.0],
                [0.0, 0.0, 0.9, 0.4],
                [0.0, 0.0, 0.0, 0.9],
            ]
        )
        assert fwt(m, baseline_vector((0.0, 0.0, 0.0, 0.0))) == pytest.approx(0.3)

    def test_matching_baseline_is_zero(self):
        m = _matrix([[0.5, 0.3], [0.1, 0.8]])
        assert fwt(m, baseline_vector((0.9, 0.3))) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricsError):
            fwt(_matrix([[0.5, 0.3], [0.1, 0.8]]), baseline_vector((0.1,)))


class TestForgetting:
    def test_diagonal_max_equals_negated_bwt(self):
        m = _matrix(
            [
                [0.8, 0.1, 0.0, 0.0],
                [0.5, 0.8, 0.1, 0.0],
                [0.5, 0.5, 0.8, 0.1],
                [0.4, 0.5, 0.6, 0.8],
            ]
        )
        assert avg_forgetting(m) == -bwt(m)

    def test_no_drop_when_final_row_holds_the_peak(self):
        m = _matrix([[0.2, 0.0, 0.0], [0.4, 0.3, 0.0], [0.4, 0.3, 0.9]])
        assert avg_forgetting(m) == 0.0

    def test_always_at_least_negated_bwt(self):
        rng = random.Random(17)
        for _ in range(50):
            m = _matrix(random_matrix(rng))
            assert avg_forgetting(m) >= -bwt(m) - 1e-12

    def test_reference_magnitude_pairs(self):
        # diagonal-max shapes chosen so the drop means print as 10.4 / 13.5
        for drop in (0.104, 0.135):
            final = [0.8 - drop] * 3 + [0.8]
            m = _matrix(
                [
                    [0.8, 0.0, 0.0, 0.0],
                    [0.5, 0.8, 0.0, 0.0],
                    [0.5, 0.5, 0.8, 0.0],
                    final,
                ]
            )
            assert avg_forgetting(m) == -bwt(m)
            assert format_pct(avg_forgetting(m)) == format_pct(drop)


class TestAulc:
    def test_constant_matrix(self):
        m = _matrix([[0.4] * 3] * 3)
        assert aulc(m) == pytest.approx(0.4)

    def test_two_by_two(self):
        m = _matrix([[1.0, 0.0], [0.5, 1.0]])
        assert aulc(m) == pytest.approx(0.875)

    def test_exceeds_final_aa_on_decayed_runs(self):
        # high diagonal, decayed final row: early stages dominate
        m = _matrix(
            [
                [0.9, 0.0, 0.0, 0.0],
                [0.5, 0.9, 0.0, 0.0],
                [0.4, 0.5, 0.9, 0.0],
                [0.3, 0.3, 0.4, 0.9],
            ]
        )
        assert aulc(m) > average_accuracy(m)


class TestSummarize:
    def test_single_stage_rejected(self):
        with pytest.raises(MetricsError):
            summarize(_matrix([[0.5]]), baseline_vector((0.0,)))

    def test_zero_matrix(self):
        m = _matrix([[0.0] * 3] * 3)
        summary = summarize(m, baseline_vector((0.0, 0.0, 0.0)))
        assert summary == {
            "final_aa": 0.0,
            "bwt": 0.0,
            "fwt": 0.0,
            "avg_forgetting": 0.0,
            "aulc": 0.0,
        }

    def test_composition_matches_parts(self):
        rng = random.Random(31)
        R = random_matrix(rng)
        b = [rng.random() for _ in range(4)]
        m = _matrix(R)
        baseline = baseline_vector(b)
        summary = summarize(m, baseline)
        assert list(summary.items()) == [
            ("final_aa", average_accuracy(m)),
            ("bwt", bwt(m)),
            ("fwt", fwt(m, baseline)),
            ("avg_forgetting", avg_forgetting(m)),
            ("aulc", aulc(m)),
        ]


def test_oracle_equivalence_random_matrices():
    # Bit-exact: the library sums in the oracles' order at every T.
    rng = random.Random(7)
    for T in (2, 4, 8, 12):
        for _ in range(25):
            R = random_matrix(rng, T)
            b = [rng.random() for _ in range(T)]
            m = _matrix(R)
            baseline = baseline_vector(b)
            assert average_accuracy(m) == oracle_average_accuracy(R)
            assert bwt(m) == oracle_bwt(R)
            assert fwt(m, baseline) == oracle_fwt(R, b)
            assert avg_forgetting(m) == oracle_forgetting(R)
            assert aulc(m) == oracle_aulc(R)


class TestMatrixValidation:
    def test_rejects_non_square(self):
        with pytest.raises(MetricsError):
            _matrix([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])

    def test_rejects_out_of_range(self):
        with pytest.raises(MetricsError):
            _matrix([[0.1, 1.2], [0.3, 0.4]])


class TestMatrixCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = random.Random(13)
        rows = {0: [rng.random() for _ in range(4)]}
        for stage in range(1, 5):
            rows[stage] = [rng.random() for _ in range(4)]
        path = tmp_path / "matrix.csv"
        write_matrix_csv(path, rows, [1, 2, 3, 4])
        blocks, loaded = read_matrix_csv(path)
        assert blocks == [1, 2, 3, 4]
        assert loaded == {s: list(v) for s, v in rows.items()}  # bit-exact floats

    def test_matrix_from_rows_requires_all_stages(self):
        rows = {1: [0.1, 0.2], 2: [0.3, 0.4]}
        matrix, baseline = matrix_from_rows(rows, 2)
        assert baseline is None
        assert matrix == ((0.1, 0.2), (0.3, 0.4))
        with pytest.raises(MetricsError):
            matrix_from_rows({1: [0.1, 0.2]}, 2)

    def test_stage_zero_becomes_baseline(self):
        rows = {0: [0.05, 0.02], 1: [0.5, 0.1], 2: [0.4, 0.6]}
        matrix, baseline = matrix_from_rows(rows, 2)
        assert baseline == (0.05, 0.02)
        assert len(matrix) == 2
