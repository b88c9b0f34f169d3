"""Figure 5.7: compression efficiency across relation characteristics.

The paper's four tests cross two factors — attribute-value skew and
domain-size variance — at multiple relation sizes, and report the
percentage reduction ``100 (1 - coded/uncoded)`` in disk blocks:

    Test 1 (skew, small variance):     73.0%  (10^4 and 10^5 tuples)
    Test 2 (skew, large variance):     65.6%
    Test 3 (uniform, small variance):  73.0%
    Test 4 (uniform, large variance):  65.6%

plus three qualitative claims: compression is high; homogeneous domain
sizes compress better; skew has no visible effect.  This driver
regenerates the table (block counts come from the real packer, not a
formula) and also reports the non-AVQ baselines for context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.baselines.avq import AVQBaseline
from repro.baselines.nocoding import NaturalWidthBaseline, NoCodingBaseline
from repro.baselines.rawrle import RawRLEBaseline
from repro.relational.relation import Relation
from repro.storage.block import DEFAULT_BLOCK_SIZE
from repro.workload.generator import RelationSpec, generate_relation

__all__ = [
    "PAPER_REDUCTIONS",
    "TEST_CONFIGS",
    "CompressionResult",
    "TestConfig",
    "measure_relation",
    "run_compression_test",
    "run_figure_57",
]


@dataclass(frozen=True)
class TestConfig:
    """One column of Figure 5.7 Table (a)."""

    number: int
    skew: bool
    variance: str  # "small" or "large"

    @property
    def label(self) -> str:
        """Human-readable cell label."""
        skew = "skew" if self.skew else "uniform"
        return f"Test {self.number} ({skew}, {self.variance} variance)"


#: Figure 5.7 Table (a): the four relation-characteristic combinations.
TEST_CONFIGS: Tuple[TestConfig, ...] = (
    TestConfig(1, skew=True, variance="small"),
    TestConfig(2, skew=True, variance="large"),
    TestConfig(3, skew=False, variance="small"),
    TestConfig(4, skew=False, variance="large"),
)

#: Figure 5.7 Table (b): the paper's reported reductions, by test number.
PAPER_REDUCTIONS: Dict[int, float] = {1: 73.0, 2: 65.6, 3: 73.0, 4: 65.6}  # repro: shared-state[paper constants; written once here, read-only lookup table]

#: Mean (active) domain size for the Figure 5.7 relations.  The paper never
#: states it; census-style categorical data (the authors' CIESIN context)
#: has a handful of values per attribute, and this value lands the
#: uniform/small-variance cell in the paper's ~73% regime (see
#: EXPERIMENTS.md for the calibration).
DEFAULT_MEAN_DOMAIN_SIZE = 4


@dataclass(frozen=True)
class CompressionResult:
    """One cell of Figure 5.7 Table (b), with extra baseline context.

    ``uncoded_blocks`` sizes the relation at natural int16-style field
    widths — the paper's "before" layout (DESIGN.md substitution table);
    ``packed_blocks`` is the tighter minimal-byte-width layout, reported
    so the packing contribution is visible separately.
    """

    test: TestConfig
    num_tuples: int
    uncoded_blocks: int
    packed_blocks: int
    coded_blocks: int
    raw_rle_blocks: int
    block_size: int

    @property
    def reduction_pct(self) -> float:
        """Figure 5.7's ``100 (1 - after/before)`` in blocks."""
        if self.uncoded_blocks == 0:
            return 0.0
        return 100.0 * (1.0 - self.coded_blocks / self.uncoded_blocks)

    @property
    def packed_reduction_pct(self) -> float:
        """AVQ versus the minimal packed layout (the stricter comparison)."""
        if self.packed_blocks == 0:
            return 0.0
        return 100.0 * (1.0 - self.coded_blocks / self.packed_blocks)

    @property
    def raw_rle_reduction_pct(self) -> float:
        """Same metric for the no-differencing RLE baseline."""
        if self.uncoded_blocks == 0:
            return 0.0
        return 100.0 * (1.0 - self.raw_rle_blocks / self.uncoded_blocks)

    @property
    def paper_reduction_pct(self) -> float:
        """The paper's value for this test (both sizes report the same)."""
        return PAPER_REDUCTIONS[self.test.number]


def _spec_for(test: TestConfig, num_tuples: int, seed: int) -> RelationSpec:
    return RelationSpec(
        num_tuples=num_tuples,
        num_attributes=15,
        mean_domain_size=DEFAULT_MEAN_DOMAIN_SIZE,
        domain_variance=test.variance,
        skew="skewed" if test.skew else "uniform",
        seed=seed,
    )


def run_compression_test(
    test: TestConfig,
    num_tuples: int,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    seed: int = 0,
) -> CompressionResult:
    """Generate one relation and measure its block footprint under each coder."""
    relation = generate_relation(_spec_for(test, num_tuples, seed))
    return measure_relation(relation, test, block_size=block_size)


def measure_relation(
    relation: Relation,
    test: TestConfig,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> CompressionResult:
    """Block footprints of one already-generated relation."""
    sizes = relation.schema.domain_sizes
    uncoded = NaturalWidthBaseline(sizes).blocks_needed(relation, block_size)
    packed = NoCodingBaseline(sizes).blocks_needed(relation, block_size)
    coded = AVQBaseline(sizes).blocks_needed(relation, block_size)
    raw_rle = RawRLEBaseline(sizes).blocks_needed(relation, block_size)
    return CompressionResult(
        test=test,
        num_tuples=len(relation),
        uncoded_blocks=uncoded,
        packed_blocks=packed,
        coded_blocks=coded,
        raw_rle_blocks=raw_rle,
        block_size=block_size,
    )


def run_figure_57(
    sizes: Sequence[int] = (10_000, 100_000),
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    seed: int = 0,
) -> List[CompressionResult]:
    """The full Figure 5.7 sweep: every test at every relation size."""
    out: List[CompressionResult] = []
    for test in TEST_CONFIGS:
        for n in sizes:
            out.append(
                run_compression_test(
                    test, n,
                    block_size=block_size,
                    seed=seed + test.number,
                )
            )
    return out
