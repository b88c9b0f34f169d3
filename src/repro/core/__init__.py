"""Core AVQ machinery: phi mapping, differencing, and the block codec.

This package implements the paper's primary contribution:

* :mod:`repro.core.phi` — the mixed-radix ordinal bijection (Eq. 2.2–2.5)
* :mod:`repro.core.difference` — the tuple difference measure (Eq. 2.6)
* :mod:`repro.core.runlength` — leading-zero run-length coding (Sec. 3.4)
* :mod:`repro.core.representative` — representative selection strategies
* :mod:`repro.core.codec` — the full block coding pipeline (Sec. 3.4)
* :mod:`repro.core.vectorized` — the numpy packer and block codec fast path
* :mod:`repro.core.quantizer` — the definitional quantizer ``Q_L`` (Def. 2.1)
"""

from repro.core.codec import BlockCodec
from repro.core.difference import (
    apply_difference,
    difference_tuple,
    ordinal_difference,
    tuple_difference,
)
from repro.core.golomb import GolombBlockCodec, choose_rice_parameter
from repro.core.phi import OrdinalMapper, phi_array, phi_inverse_array
from repro.core.quantizer import AVQCode, AVQQuantizer, build_codebook
from repro.core.representative import STRATEGIES, get_strategy
from repro.core.runlength import TupleLayout, rle_decode, rle_encode
from repro.core.vectorized import (
    VectorizedBlockCodec,
    vectorized_codec_for,
)

__all__ = [
    "BlockCodec",
    "OrdinalMapper",
    "phi_array",
    "phi_inverse_array",
    "TupleLayout",
    "rle_encode",
    "rle_decode",
    "AVQCode",
    "AVQQuantizer",
    "build_codebook",
    "STRATEGIES",
    "get_strategy",
    "tuple_difference",
    "ordinal_difference",
    "difference_tuple",
    "apply_difference",
    "GolombBlockCodec",
    "choose_rice_parameter",
    "VectorizedBlockCodec",
    "vectorized_codec_for",
]
