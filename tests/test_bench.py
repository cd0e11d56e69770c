import statistics

import pytest

from svdsep import bench
from svdsep.errors import InvalidInputError


class TestCutoffBench:
    def test_row_count(self):
        records = bench.run_cutoff_bench([64], reps=3, seed=0)
        assert len(records) == 6  # 2 suites x 3 reps
        assert {r.suite for r in records} == {bench.SUITE_CUTOFF_SVD, bench.SUITE_CUTOFF_GSVD}

    def test_records_complete(self):
        records = bench.run_cutoff_bench([32, 64], reps=3, seed=1)
        assert len(records) == 12
        # gsvd: a QR each of A and B (one block each at these sizes) and two SVDs
        expected = {bench.SUITE_CUTOFF_SVD: 1, bench.SUITE_CUTOFF_GSVD: 4}
        for rec in records:
            assert rec.wall_time_ms >= 0.0
            assert rec.decompositions == expected[rec.suite]

    def test_gsvd_slower_at_largest_size(self):
        records = bench.run_cutoff_bench([32, 128], reps=5, seed=2)
        largest = 128
        svd_median = statistics.median(r.wall_time_ms for r in records
                                       if r.suite == bench.SUITE_CUTOFF_SVD
                                       and r.problem_size == largest)
        gsvd_median = statistics.median(r.wall_time_ms for r in records
                                        if r.suite == bench.SUITE_CUTOFF_GSVD
                                        and r.problem_size == largest)
        assert gsvd_median >= svd_median

    def test_medians_grow_from_smallest_to_largest(self):
        records = bench.run_cutoff_bench([32, 1024], reps=5, seed=6)
        for suite in (bench.SUITE_CUTOFF_SVD, bench.SUITE_CUTOFF_GSVD):
            med = {size: statistics.median(r.wall_time_ms for r in records
                                           if r.suite == suite and r.problem_size == size)
                   for size in (32, 1024)}
            assert med[1024] >= med[32]

    def test_small_sizes_rejected(self):
        with pytest.raises(InvalidInputError):
            bench.run_cutoff_bench([4], reps=3)

    def test_too_few_reps_rejected(self):
        with pytest.raises(InvalidInputError):
            bench.run_cutoff_bench([64], reps=2)


class TestScanBench:
    def test_decomposition_counts_match_formula(self):
        side = 32
        records = bench.run_scan_bench([4, 8, 16], image_side=side, reps=1, seed=0)
        for rec in records:
            w = rec.problem_size
            expected = ((side - w) // w + 1) ** 2
            assert rec.decompositions == expected

    def test_larger_windows_fewer_decompositions(self):
        records = bench.run_scan_bench([4, 8, 16], image_side=64, reps=1, seed=1)
        counts = [r.decompositions for r in records]
        assert counts == sorted(counts, reverse=True)
        assert len(set(counts)) == len(counts)

    def test_row_count(self):
        records = bench.run_scan_bench([4, 8, 16], image_side=32, reps=3, seed=2)
        assert len(records) == 9

    def test_window_exceeding_side_rejected(self):
        with pytest.raises(InvalidInputError):
            bench.run_scan_bench([64], image_side=32, reps=1)

    def test_same_seed_same_instances(self):
        a = bench.run_scan_bench([8], image_side=32, reps=1, seed=9)
        b = bench.run_scan_bench([8], image_side=32, reps=1, seed=9)
        assert a[0].decompositions == b[0].decompositions
