"""Property-based tests for the on-disk container: any relation over any
schema must survive the write/read round trip exactly."""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codec import BlockCodec
from repro.io.format import AVQFileReader, read_avq_file, write_avq_file
from repro.relational.domain import CategoricalDomain, IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema


@st.composite
def relations(draw):
    arity = draw(st.integers(1, 5))
    domains = []
    for i in range(arity):
        kind = draw(st.sampled_from(["int", "cat"]))
        if kind == "int":
            lo = draw(st.integers(-50, 50))
            hi = lo + draw(st.integers(0, 300))
            domains.append(Attribute(f"a{i}", IntegerRangeDomain(lo, hi)))
        else:
            count = draw(st.integers(1, 12))
            domains.append(
                Attribute(
                    f"a{i}",
                    CategoricalDomain([f"v{i}_{j}" for j in range(count)]),
                )
            )
    schema = Schema(domains)
    n = draw(st.integers(1, 60))
    rows = draw(
        st.lists(
            st.tuples(
                *[st.integers(0, a.domain.size - 1) for a in domains]
            ),
            min_size=n,
            max_size=n,
        )
    )
    return Relation(schema, rows)


@given(relations(), st.integers(24, 512))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_container_round_trip(tmp_path_factory, relation, block_size):
    base = tmp_path_factory.mktemp("avq")
    path = str(base / "prop.avq")
    try:
        m = relation.uncompressed_bytes() // max(1, len(relation))
        if block_size < m + 8:
            block_size = m + 8  # ensure one tuple fits
        sizes = relation.schema.domain_sizes
        # The default (vector) codec, read back column-wise by
        # read_avq_file, and the scalar codec, read tuple by tuple.
        for codec in (BlockCodec(sizes), BlockCodec(sizes, vectorized=False)):
            write_avq_file(path, relation, block_size=block_size, codec=codec)
            with AVQFileReader(path) as reader:
                assert list(reader.scan()) == relation.sorted_by_phi()
                assert reader.num_tuples == len(relation)
                assert reader.schema.domain_sizes == sizes
            back = read_avq_file(path)
            assert list(back) == relation.sorted_by_phi()
            assert back.schema.domain_sizes == sizes
    finally:
        if os.path.exists(path):
            os.unlink(path)
