"""End-to-end parity: the vectorised codec is invisible above the codec.

Figure 5.7 relations built with the default (vectorised) codec must be
indistinguishable from a forced-scalar build everywhere the rest of the
system can observe them: container bytes, query answers and
``QueryProfile.blocks_read``, and scrub/fsck cleanliness.
"""

import pytest

from repro.core.codec import BlockCodec
from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.experiments.fig57 import TEST_CONFIGS, _spec_for
from repro.io.format import AVQFileReader, read_avq_file, write_avq_file
from repro.io.scrub import fsck_container, scrub_container
from repro.obs import runtime
from repro.storage.disk import SimulatedDisk
from repro.workload.generator import generate_relation


@pytest.fixture(autouse=True)
def obs_disabled():
    runtime.disable()
    yield
    runtime.disable()


def fig57_relation(test_index=0, n=1500, seed=3):
    """A Figure 5.7 cell small enough for CI; 15 attributes, mean
    domain 4, so the ordinal space (~2**30) takes the vectorised path."""
    return generate_relation(_spec_for(TEST_CONFIGS[test_index], n, seed))


def scalar_codec_for(relation):
    return BlockCodec(relation.schema.domain_sizes, vectorized=False)


class TestContainerParity:
    @pytest.mark.parametrize("test_index", [0, 3], ids=["test1", "test4"])
    def test_container_bytes_identical(self, tmp_path, test_index):
        relation = fig57_relation(test_index)
        fast = str(tmp_path / "fast.avq")
        slow = str(tmp_path / "slow.avq")
        write_avq_file(fast, relation, block_size=512)
        write_avq_file(
            slow,
            relation,
            block_size=512,
            codec=scalar_codec_for(relation),
        )
        with open(fast, "rb") as f:
            fast_bytes = f.read()
        with open(slow, "rb") as f:
            slow_bytes = f.read()
        assert fast_bytes == slow_bytes
        with AVQFileReader(fast) as reader:
            assert reader.codec.vectorized is True

    def test_round_trip_tuple_identity(self, tmp_path):
        relation = fig57_relation()
        path = str(tmp_path / "rel.avq")
        write_avq_file(path, relation, block_size=512)
        assert sorted(read_avq_file(path)) == sorted(relation)

    def test_scrub_and_fsck_clean(self, tmp_path):
        relation = fig57_relation()
        path = str(tmp_path / "rel.avq")
        write_avq_file(path, relation, block_size=512)
        report = scrub_container(path)
        assert report.clean
        report = fsck_container(path, repair=True)
        assert report.clean
        # fsck must not have rewritten anything scrub then objects to.
        assert scrub_container(path).clean


class TestQueryParity:
    def _tables(self, relation):
        fast = Table.from_relation(
            "fast", relation, SimulatedDisk(block_size=512)
        )
        slow = Table.from_relation(
            "slow",
            relation,
            SimulatedDisk(block_size=512),
            codec=scalar_codec_for(relation),
        )
        assert fast._codec_path() == "vector"
        assert slow._codec_path() == "scalar"
        return fast, slow

    @pytest.mark.parametrize(
        "query",
        [
            RangeQuery.between("A1", 0, 1),   # primary index range
            RangeQuery.between("A7", 1, 2),   # non-prefix: full scan
        ],
        ids=["primary", "scan"],
    )
    def test_blocks_read_and_answers_match(self, query):
        relation = fig57_relation()
        fast, slow = self._tables(relation)
        fast_result = fast.select(query)
        slow_result = slow.select(query)
        assert sorted(fast_result.tuples) == sorted(slow_result.tuples)
        assert fast_result.blocks_read == slow_result.blocks_read
        assert fast_result.access_path == slow_result.access_path
        assert fast_result.profile is not None
        assert slow_result.profile is not None
        assert (
            fast_result.profile.blocks_read
            == slow_result.profile.blocks_read
        )
        assert (
            fast_result.profile.tuples_examined
            == slow_result.profile.tuples_examined
        )

    def test_select_span_records_codec_path(self):
        relation = fig57_relation(n=400)
        _, tracer = runtime.enable()
        fast, slow = self._tables(relation)
        fast.select(RangeQuery.between("A1", 0, 1))
        slow.select(RangeQuery.between("A1", 0, 1))
        paths = [
            s.attributes.get("codec_path")
            for s in tracer.finished_spans()
            if s.name == "query.select"
        ]
        assert "vector" in paths
        assert "scalar" in paths


def _relation_over(maxima, n=600, seed=5):
    """``n`` uniform rows over domains ``[0, max]``, attribute ``A1`` first."""
    import random

    from repro.relational.domain import IntegerRangeDomain
    from repro.relational.relation import Relation
    from repro.relational.schema import Attribute, Schema

    schema = Schema(
        [
            Attribute(f"A{i + 1}", IntegerRangeDomain(0, hi))
            for i, hi in enumerate(maxima)
        ]
    )
    rng = random.Random(seed)
    rows = [tuple(rng.randint(0, hi) for hi in maxima) for _ in range(n)]
    return Relation(schema, rows)


class TestDecodePathSpans:
    """Spans name the decoder reads really run through: 61 binary
    attributes encode in numpy but decode scalar (a corrupt payload
    could overflow int64 reassembly); point-hot's table decodes vector."""

    @pytest.mark.parametrize(
        "maxima, path",
        [((1,) * 61, "scalar"), ((8191,) + (255,) * 5, "vector")],
        ids=["binary-61", "point-hot"],
    )
    def test_select_spans_name_the_decoder(self, maxima, path):
        relation = _relation_over(maxima)
        table = Table.from_relation(
            "t", relation, SimulatedDisk(block_size=512)
        )
        assert table.storage.codec.vectorized
        registry, tracer = runtime.enable()
        query = RangeQuery.between("A1", 0, maxima[0] // 2)
        assert table.select(query).blocks_read > 0
        decodes = {
            p: registry.value(f"codec.{p}_decodes")
            for p in ("vector", "scalar")
        }
        assert decodes[path] > 0 and sum(decodes.values()) == decodes[path]
        table.enable_mvcc()
        with table.read_snapshot() as snapshot:
            snapshot.select(query)
        spans = {
            s.name: s.attributes.get("codec_path")
            for s in tracer.finished_spans()
            if s.name in ("query.select", "snapshot.select")
        }
        assert spans == {"query.select": path, "snapshot.select": path}
