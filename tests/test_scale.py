"""Mid-scale end-to-end checks (about 10^5 tuples, fast paths engaged).

These are the same invariants the unit tests pin at toy scale, exercised
at a scale where the vectorised paths (phi array, fast packer, fast
encoder) actually run, so a fast/scalar divergence cannot hide behind
small inputs.
"""

import random

import pytest

from repro.db.table import Table
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk
from repro.workload.generator import RelationSpec, generate_relation

SCALE = 100_000


@pytest.fixture(scope="module")
def big_relation():
    return generate_relation(
        RelationSpec(
            num_tuples=SCALE,
            num_attributes=15,
            mean_domain_size=4,
            domain_variance="small",
            skew="uniform",
            seed=99,
        )
    )


class TestScale:
    def test_build_scan_round_trip(self, big_relation):
        disk = SimulatedDisk(block_size=8192)
        f = AVQFile.build(big_relation, disk)
        assert f.num_tuples == SCALE
        # spot-check: ordinals of a block sample match a scalar re-decode
        mapper = big_relation.schema.mapper
        expected = big_relation.phi_ordinals()
        sampled = []
        for pos in range(0, f.num_blocks, max(1, f.num_blocks // 7)):
            sampled.extend(mapper.phi(t) for t in f.read_block(pos))
        assert sampled == sorted(sampled)
        assert set(sampled) <= set(expected)

    def test_full_content_equality(self, big_relation):
        disk = SimulatedDisk(block_size=8192)
        f = AVQFile.build(big_relation, disk)
        assert list(f.scan()) == big_relation.sorted_by_phi()

    def test_compression_at_scale(self, big_relation):
        from repro.baselines.avq import AVQBaseline
        from repro.baselines.nocoding import NaturalWidthBaseline

        sizes = big_relation.schema.domain_sizes
        coded = AVQBaseline(sizes).blocks_needed(big_relation, 8192)
        uncoded = NaturalWidthBaseline(sizes).blocks_needed(
            big_relation, 8192
        )
        reduction = 100 * (1 - coded / uncoded)
        # the paper's regime: small-variance uniform compresses > 65%
        assert reduction > 65.0

    def test_point_probes_at_scale(self, big_relation):
        disk = SimulatedDisk(block_size=8192)
        f = AVQFile.build(big_relation, disk)
        table = Table("big", big_relation.schema, f)
        mapper = big_relation.schema.mapper
        members = list(big_relation)[:20]
        for t in members:
            assert table.contains(t)
        rng = random.Random(1)
        present = set(big_relation.phi_ordinals())
        misses = 0
        for _ in range(50):
            o = rng.randrange(mapper.space_size)
            if o not in present:
                assert not table.contains(mapper.phi_inverse(o))
                misses += 1
        assert misses > 0
