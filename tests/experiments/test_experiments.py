"""Integration tests for the experiment drivers — the paper's qualitative
claims (Section 5.1 bullets and Section 5.3.4) must hold at test scale."""

import pytest

from repro.experiments.fig57 import (
    TEST_CONFIGS,
    run_compression_test,
    run_figure_57,
)
from repro.experiments.fig58 import build_fig58_relation, run_figure_58
from repro.experiments.fig59 import (
    measure_local_codec,
    measured_response_table,
    paper_response_table,
)
from repro.experiments.reporting import (
    format_fig57,
    format_fig58,
    format_fig59,
    format_table,
)


@pytest.fixture(scope="module")
def fig57_results():
    return run_figure_57(sizes=(4_000,), block_size=2048)


@pytest.fixture(scope="module")
def fig58_result():
    return run_figure_58(num_tuples=4_000, block_size=2048)


class TestFigure57Claims:
    def test_high_compression(self, fig57_results):
        """Section 5.1 bullet 1: data size is greatly reduced."""
        for r in fig57_results:
            assert r.reduction_pct > 40.0

    def test_homogeneity_helps(self, fig57_results):
        """Section 5.1 bullet 2: small domain variance compresses better."""
        by_test = {r.test.number: r for r in fig57_results}
        assert by_test[1].reduction_pct > by_test[2].reduction_pct
        assert by_test[3].reduction_pct > by_test[4].reduction_pct

    def test_skew_has_small_effect(self, fig57_results):
        """Section 5.1 bullet 3: skew does not (much) affect compression."""
        by_test = {r.test.number: r for r in fig57_results}
        assert abs(
            by_test[1].reduction_pct - by_test[3].reduction_pct
        ) < 15.0
        assert abs(
            by_test[2].reduction_pct - by_test[4].reduction_pct
        ) < 15.0

    def test_avq_beats_raw_rle(self, fig57_results):
        """Differencing, not RLE alone, is the source of the win."""
        for r in fig57_results:
            assert r.reduction_pct > r.raw_rle_reduction_pct

    def test_all_cells_present(self, fig57_results):
        assert len(fig57_results) == len(TEST_CONFIGS)

    def test_block_counts_positive_and_ordered(self, fig57_results):
        for r in fig57_results:
            assert 0 < r.coded_blocks < r.uncoded_blocks


class TestFigure58Claims:
    def test_key_query_touches_one_block(self, fig58_result):
        key_row = fig58_result.rows[-1]
        assert key_row.is_key
        assert key_row.blocks_uncoded == 1
        assert key_row.blocks_coded == 1

    def test_clustering_attribute_touches_fewer_blocks(self, fig58_result):
        lead = fig58_result.rows[0]
        mid = fig58_result.rows[5]
        assert lead.blocks_uncoded < mid.blocks_uncoded

    def test_coded_always_at_most_uncoded(self, fig58_result):
        for row in fig58_result.rows:
            assert row.blocks_coded <= row.blocks_uncoded

    def test_average_reduction_is_substantial(self, fig58_result):
        """The paper reports 64.2%; at test scale we demand > 35%."""
        assert fig58_result.reduction_pct > 35.0

    def test_non_clustered_queries_touch_most_blocks(self, fig58_result):
        """At 50% selectivity a non-clustered range hits nearly every block."""
        mid = fig58_result.rows[5]
        assert mid.blocks_uncoded >= 0.9 * fig58_result.total_blocks_uncoded

    def test_relation_has_unique_key(self):
        rel = build_fig58_relation(500, seed=1)
        keys = [t[-1] for t in rel]
        assert len(set(keys)) == 500


class TestFigure59:
    def test_paper_table_regenerates_hp_column(self):
        hp = paper_response_table()[0]
        assert hp.total_uncoded_s == pytest.approx(5.093, abs=0.01)
        assert hp.total_coded_s == pytest.approx(2.506, abs=0.01)
        assert hp.improvement_pct == pytest.approx(50.8, abs=0.3)

    def test_improvement_decreases_with_slower_cpu(self):
        rows = paper_response_table()
        assert (
            rows[0].improvement_pct
            > rows[1].improvement_pct
            > rows[2].improvement_pct
        )

    def test_local_codec_measurement(self):
        timings = measure_local_codec(num_tuples=2_000, repeats=5)
        p = timings.profile
        assert p.coding_ms > 0
        assert p.decoding_ms > 0
        assert p.extract_ms > 0
        # decoding a coded block costs more than extracting a plain one
        assert p.decoding_ms > p.extract_ms
        assert timings.tuples_per_block > 1
        assert timings.block_bytes <= 8192

    def test_measured_table_includes_local_machine(self, fig58_result):
        timings = measure_local_codec(num_tuples=2_000, repeats=3)
        rows = measured_response_table(fig58_result, local=timings.profile)
        assert rows[-1].machine == "local-python"
        assert len(rows) == 4


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # all same width

    def test_format_fig57_mentions_paper_values(self, fig57_results):
        text = format_fig57(fig57_results)
        assert "73.0%" in text and "65.6%" in text

    def test_format_fig58_contains_summary(self, fig58_result):
        text = format_fig58(fig58_result)
        assert "average N" in text
        assert "(key)" in text

    def test_format_fig59_row_labels(self):
        text = format_fig59(paper_response_table())
        assert "t2" in text and "C1" in text and "Improvement" in text
