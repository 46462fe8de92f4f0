"""The pre-optimization kernels, kept verbatim as oracles.

* :func:`analyze_trace_sorted` -- the argsort/``np.unique`` analysis on
  ``(flat_bank, row)`` that :func:`repro.dram.fast_model.analyze_trace`
  replaced; its per-activation detail is what
  :func:`repro.dram.fast_model.activated_lines` replaced;
* :func:`translate_trace_reference` -- the per-bit ``uint64`` field
  gather that :meth:`FieldDecodeMapping.translate_trace` replaced;
* :func:`translate_trace_loop` -- Rubix-D's one masked pass per remap
  engine, which :meth:`RubixDMapping.translate_trace`'s register gather
  replaced;
* :func:`remap_steps_loop` -- the per-episode walk that
  :meth:`XorRemapEngine.remap_steps`'s closed form replaced;
* :func:`permute_unfused` -- the per-round-allocating Feistel array
  kernel that the fused :meth:`FeistelNetwork.encrypt` replaced;
* :func:`hot_component` -- the per-access ``searchsorted`` hot tier
  that ``repro.workloads.spec._hot_component``'s per-block
  ``np.repeat`` replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.remap_engine import XorRemapEngine
from repro.core.rubix_d import RubixDMapping
from repro.crypto.feistel import _MIX1, _MIX2, FeistelNetwork
from repro.dram.fast_model import TraceStats
from repro.mapping.base import FieldDecodeMapping, MappedTrace
from repro.utils.bitops import mask
from repro.workloads.spec import _BLOCK, LINES_PER_ROW


@dataclass
class DetailedStats(TraceStats):
    """Window statistics plus the oracle's per-activation detail.

    Attributes:
        act_rows: If detail was kept, the global row id of every ACT
            (``int64``), bank-grouped in program order.
        act_cols: If detail was kept and columns were given, the column
            of every ACT, in the same order.
    """

    act_rows: Optional[np.ndarray] = None
    act_cols: Optional[np.ndarray] = None


def analyze_trace_sorted(
    flat_bank: np.ndarray,
    row: np.ndarray,
    *,
    rows_per_bank: int,
    max_hits: Optional[int],
    col: Optional[np.ndarray],
    keep_detail: bool,
) -> DetailedStats:
    """The original argsort/np.unique kernel (reference implementation).

    Inputs must be validated, non-empty 1-D arrays.
    """
    n = flat_bank.size
    global_row = flat_bank.astype(np.int64) * np.int64(rows_per_bank) + row.astype(np.int64)

    order = np.argsort(flat_bank, kind="stable")
    g = global_row[order]

    same = np.empty(n, dtype=bool)
    same[0] = False
    same[1:] = g[1:] == g[:-1]

    run_starts = np.flatnonzero(~same)
    run_id = np.cumsum(~same) - 1
    pos_in_run = np.arange(n, dtype=np.int64) - run_starts[run_id]

    if max_hits is None:
        act_mask = ~same
    else:
        act_mask = (pos_in_run % max_hits) == 0

    n_act = int(np.count_nonzero(act_mask))
    act_rows = g[act_mask]
    row_ids, acts_per_row = np.unique(act_rows, return_counts=True)
    unique_rows = int(np.unique(g).size)

    detail_rows = act_rows if keep_detail else None
    detail_cols = None
    if keep_detail and col is not None:
        detail_cols = np.asarray(col)[order][act_mask]

    return DetailedStats(
        n_accesses=n,
        n_activations=n_act,
        n_hits=n - n_act,
        row_ids=row_ids,
        acts_per_row=acts_per_row.astype(np.int64),
        unique_rows_touched=unique_rows,
        act_rows=detail_rows,
        act_cols=detail_cols,
    )


def gather_field(lines: np.ndarray, bits: Sequence[int]) -> np.ndarray:
    out = np.zeros(lines.shape, dtype=np.uint64)
    for i, src in enumerate(bits):
        out |= ((lines >> np.uint64(src)) & np.uint64(1)) << np.uint64(i)
    return out


def translate_trace_reference(mapping: FieldDecodeMapping, lines: np.ndarray) -> MappedTrace:
    """The per-bit uint64 kernel :meth:`FieldDecodeMapping.translate_trace`
    replaced; no validation."""
    lines = np.asarray(lines, dtype=np.uint64)
    channel = gather_field(lines, mapping.field_bits["channel"])
    rank = gather_field(lines, mapping.field_bits["rank"])
    bank = gather_field(lines, mapping.field_bits["bank"])
    row = gather_field(lines, mapping.field_bits["row"])
    col = gather_field(lines, mapping.field_bits["col"])
    for bit_index, row_bits in enumerate(mapping.bank_hash_row_bits or []):
        fold = np.zeros(row.shape, dtype=np.uint64)
        for rb in row_bits:
            fold ^= (row >> np.uint64(rb)) & np.uint64(1)
        bank = bank ^ (fold << np.uint64(bit_index))
    flat = (channel * np.uint64(mapping.config.ranks) + rank) * np.uint64(
        mapping.config.banks
    ) + bank
    return MappedTrace(flat_bank=flat, row=row, col=col, rows_per_bank=mapping.config.rows_per_bank)


def translate_trace_loop(
    mapping: RubixDMapping, lines: np.ndarray, *, validate: bool = True
) -> MappedTrace:
    """Pre-vectorization Rubix-D translation: one masked pass per remap engine."""
    lines = np.asarray(lines, dtype=np.uint64)
    k, p = mapping.k_bits, mapping.p_bits
    row_addr = lines >> np.uint64(k + p)
    vgroup = (lines >> np.uint64(k)) & np.uint64(mask(p))
    line_in_gang = lines & np.uint64(mask(k))
    remapped = np.empty_like(row_addr)
    seg_mask = np.uint64(mask(mapping.segment_bits))
    seg_shift = np.uint64(mapping.segment_bits)
    segment = row_addr & seg_mask
    upper = row_addr >> seg_shift
    for vg in range(mapping.vgroups):
        vg_sel = vgroup == np.uint64(vg)
        if not vg_sel.any():
            continue
        for seg in range(mapping.segments):
            sel = vg_sel & (segment == np.uint64(seg)) if mapping.segments > 1 else vg_sel
            if not sel.any():
                continue
            engine = mapping.engines[mapping._engine_index(vg, seg)]
            remapped[sel] = (
                engine.translate(upper[sel], validate=validate) << seg_shift
            ) | np.uint64(seg)
    return decode_trace(mapping, remapped, vgroup, line_in_gang)


def decode_trace(
    mapping: RubixDMapping,
    remapped_row: np.ndarray,
    vgroup: np.ndarray,
    line_in_gang: np.ndarray,
) -> MappedTrace:
    flat = np.empty_like(remapped_row)
    row = np.empty_like(remapped_row)
    mapping._decode_rows(remapped_row, flat, row)
    col = (vgroup << remapped_row.dtype.type(mapping.k_bits)) | line_in_gang
    return MappedTrace(
        flat_bank=flat, row=row, col=col, rows_per_bank=mapping.config.rows_per_bank
    )


def remap_steps_loop(engine: XorRemapEngine, count: int) -> int:
    """Stepwise reference for :meth:`XorRemapEngine.remap_steps`.

    Walks ``count`` episodes through :meth:`XorRemapEngine.remap_step`
    exactly as the pre-closed-form implementation did; counters,
    pointer, and the key schedule end in the same state as
    :meth:`XorRemapEngine.remap_steps`.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return sum(1 for _ in range(count) if engine.remap_step())


def _mix64_array(value: np.ndarray) -> np.ndarray:
    value = value.astype(np.uint64)
    with np.errstate(over="ignore"):
        value = (value ^ (value >> np.uint64(30))) * np.uint64(_MIX1)
        value = (value ^ (value >> np.uint64(27))) * np.uint64(_MIX2)
    return value ^ (value >> np.uint64(31))


def permute_unfused(
    net: FeistelNetwork, value: np.ndarray, *, inverse: bool = False
) -> np.ndarray:
    """The per-round-allocating array kernel the fused path replaced.

    No validation, and widths >= 2 only.
    """
    a, b = net._left_bits, net._right_bits
    v = value.astype(np.uint64)
    left, right = (v >> np.uint64(b)) & np.uint64(mask(a)), v & np.uint64(mask(b))
    if not inverse:
        for round_key in net.round_keys:
            f = _mix64_array(right ^ np.uint64(round_key)) & np.uint64(mask(a))
            left, right = right, left ^ f
            a, b = b, a
    else:
        for round_key in reversed(net.round_keys):
            a, b = b, a
            f = _mix64_array(left ^ np.uint64(round_key)) & np.uint64(mask(a))
            left, right = right ^ f, left
    return (np.uint64(0) + left << np.uint64(b)) | right


def hot_component(
    rng: np.random.Generator,
    row_bases: np.ndarray,
    acts_per_row: np.ndarray,
    active_lines: int,
    perm: np.ndarray,
    out: np.ndarray,
) -> None:
    """The hot tier with one binary search per access."""
    if out.size == 0:
        return
    salts = rng.integers(0, LINES_PER_ROW, size=row_bases.size, dtype=np.int64)
    j = rng.integers(0, active_lines, size=out.size, dtype=np.int64)
    ends = np.cumsum(acts_per_row)
    for start in range(0, out.size, _BLOCK):
        stop = min(start + _BLOCK, out.size)
        pick = np.searchsorted(ends, np.arange(start, stop), side="right")
        cols = j[start:stop]
        cols += salts[pick]
        cols &= LINES_PER_ROW - 1
        block = out[start:stop]
        np.take(perm, cols, out=block)
        block += row_bases[pick]
