"""``spec_trace`` against the frozen reference generator, byte for byte.

The generator builds each window in one buffer of four-byte lines and
weaves it in bounded blocks; ``_spec_reference`` keeps the original
trace-sized ``uint64`` implementation.  Every workload, two seeds and five (scale, cores,
line-address bits) shapes must produce identical ``lines`` and
``instructions``, and the matrix must reach the weave's no-scan and
short-burst branches.  The 34-bit shape is the one whose lines need
eight bytes.
"""

import numpy as np
import pytest
from _spec_reference import reference_spec_trace

from repro.utils.bitops import fitting_uint
from repro.workloads import spec
from repro.workloads.mixes import mix_trace
from repro.workloads.spec import SCAN_BLOCK, spec_names, spec_trace

SEEDS = (2024, 7)
SHAPES = [(0.05, 4, 28), (0.02, 4, 28), (0.1, 8, 29), (0.01, 1, 28), (0.01, 1, 34)]


def _assert_same(got, want):
    # The narrowing rule: four-byte lines whenever the largest address
    # fits.  The values still equal the reference's bit for bit.
    assert got.lines.dtype == fitting_uint(int(want.lines.max()))
    assert np.array_equal(got.lines, want.lines.astype(np.uint64))
    assert got.instructions == want.instructions


@pytest.mark.parametrize(
    "scale, cores, bits", SHAPES, ids=[f"s{s}-c{c}-b{b}" for s, c, b in SHAPES]
)
def test_matches_reference(scale, cores, bits, monkeypatch):
    weaves = []
    weave = spec._weave

    def recording_weave(rng, singles, block_starts, block_len):
        weaves.append((block_starts.size, block_len))
        return weave(rng, singles, block_starts, block_len)

    monkeypatch.setattr(spec, "_weave", recording_weave)
    for name in spec_names():
        for seed in SEEDS:
            kwargs = dict(scale=scale, cores=cores, line_addr_bits=bits, seed=seed)
            _assert_same(spec_trace(name, **kwargs), reference_spec_trace(name, **kwargs))
    assert len(weaves) == len(spec_names()) * len(SEEDS)
    # Each shape reaches the no-scan branch (no bursts at all) and the
    # short-burst branch (too few scan visits for SCAN_BLOCK-line bursts).
    assert any(n_blocks == 0 for n_blocks, _ in weaves)
    assert any(n_blocks and block_len < SCAN_BLOCK for n_blocks, block_len in weaves)


def test_mix_matches_reference(monkeypatch):
    # mix_trace draws its members through spec.spec_trace; routing them
    # through the reference must not change the mix.
    got = mix_trace("mix3", scale=0.05)
    monkeypatch.setattr("repro.workloads.mixes.spec_trace", reference_spec_trace)
    _assert_same(got, mix_trace("mix3", scale=0.05))
