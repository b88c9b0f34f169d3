"""Benchmark: the full vectorised block codec versus the scalar codec.

Both paths produce bit-identical payloads (see
``tests/core/test_vectorized_differential.py``); this bench records the
single-core speedup the vectorised path buys on a Figure 5.7 style
relation and *gates* on it — ``test_speedup_gate`` fails if the
combined encode+decode speedup drops below 5x, and writes the measured
numbers to ``BENCH_codec.json`` for the CI artifact.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core.codec import BlockCodec
from repro.core.vectorized import VectorizedBlockCodec

BLOCK_SIZE = 4096
MIN_SPEEDUP = 5.0
JSON_PATH = os.environ.get("BENCH_CODEC_JSON", "BENCH_codec.json")


@pytest.fixture(scope="module")
def runs(small_variance_relation):
    """The relation's sorted ordinals split into block-sized runs."""
    sizes = small_variance_relation.schema.domain_sizes
    ordinals = np.asarray(
        sorted(small_variance_relation.phi_ordinals()), dtype=np.int64
    )
    vec = VectorizedBlockCodec(sizes)
    boundaries = vec.pack_boundaries(ordinals, BLOCK_SIZE)
    return sizes, [ordinals[s:e] for s, e in boundaries]


def encode_all(codec, runs):
    return [codec.encode_ordinals(run) for run in runs]


def decode_all(codec, payloads):
    for p in payloads:
        codec.decode_block(p)


def test_encode_decode_vectorised(benchmark, runs):
    sizes, block_runs = runs
    codec = BlockCodec(sizes)
    assert codec.vectorized

    def round_trip():
        decode_all(codec, encode_all(codec, block_runs))

    benchmark(round_trip)
    benchmark.extra_info["blocks"] = len(block_runs)


def test_encode_decode_scalar(benchmark, runs):
    sizes, block_runs = runs
    codec = BlockCodec(sizes, vectorized=False)
    scalar_runs = [[int(o) for o in run] for run in block_runs]

    def round_trip():
        decode_all(codec, encode_all(codec, scalar_runs))

    benchmark(round_trip)
    benchmark.extra_info["blocks"] = len(block_runs)


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_speedup_gate(runs):
    """The PR's performance claim, enforced: >= 5x encode+decode."""
    sizes, block_runs = runs
    fast = BlockCodec(sizes)
    slow = BlockCodec(sizes, vectorized=False)
    assert fast.vectorized and not slow.vectorized
    scalar_runs = [[int(o) for o in run] for run in block_runs]

    fast_payloads = encode_all(fast, block_runs)
    slow_payloads = encode_all(slow, scalar_runs)
    assert fast_payloads == slow_payloads  # identical bytes, always

    fast_encode = _best_of(lambda: encode_all(fast, block_runs))
    slow_encode = _best_of(lambda: encode_all(slow, scalar_runs))
    fast_decode = _best_of(lambda: decode_all(fast, fast_payloads))
    slow_decode = _best_of(lambda: decode_all(slow, slow_payloads))

    speedup_encode = slow_encode / fast_encode
    speedup_decode = slow_decode / fast_decode
    speedup_total = (slow_encode + slow_decode) / (
        fast_encode + fast_decode
    )
    record = {
        "relation_tuples": int(sum(len(r) for r in block_runs)),
        "blocks": len(block_runs),
        "block_size": BLOCK_SIZE,
        "scalar_encode_s": slow_encode,
        "scalar_decode_s": slow_decode,
        "vector_encode_s": fast_encode,
        "vector_decode_s": fast_decode,
        "speedup_encode": speedup_encode,
        "speedup_decode": speedup_decode,
        "speedup_encode_decode": speedup_total,
        "min_required_speedup": MIN_SPEEDUP,
    }
    with open(JSON_PATH, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    assert speedup_total >= MIN_SPEEDUP, record
