"""Address-mapping interface and the bit-field decode engine.

A mapping translates a line address (e.g. 28 bits for the 16 GB baseline)
into a DRAM coordinate ``(channel, rank, bank, row, col)``.  Most real
controller mappings -- including every baseline in the paper -- are pure
bit-selection plus an xor hash on the bank bits, so the common machinery
here is :class:`FieldDecodeMapping`: each coordinate field names the
source address bits it is assembled from, and the bank field may be
xor-hashed with row bits.  Translation is vectorized over numpy arrays
for the fast analysis tier.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dram.config import Coordinate, DRAMConfig
from repro.utils.bitops import mask

FIELD_ORDER = ("channel", "rank", "bank", "row", "col")

#: Lines per block of :meth:`AddressMapping.global_rows` (its translation
#: temporaries stay cache-sized).
_BLOCK = 1 << 16

_INT32_MAX = int(np.iinfo(np.int32).max)


def _row_id_dtype(largest: int):
    """Dtype of global row ids up to ``largest`` (see :attr:`MappedTrace.global_row`)."""
    return np.uint32 if largest <= _INT32_MAX else np.int64


@dataclass
class MappedTrace:
    """A trace translated to physical coordinates (vectorized form)."""

    flat_bank: np.ndarray
    row: np.ndarray
    col: np.ndarray
    rows_per_bank: int

    @property
    def global_row(self) -> np.ndarray:
        """Global physical row id per access.

        ``uint32`` while the ids fit in 31 bits (every modelled geometry,
        and then every id also fits the ``int32`` histogram row ids),
        else ``int64``.
        """
        largest = 0
        if self.flat_bank.size:
            largest = int(self.flat_bank.max()) * self.rows_per_bank + int(self.row.max())
        out = np.empty(self.flat_bank.shape, dtype=_row_id_dtype(largest))
        self.global_row_into(out)
        return out

    def global_row_into(self, out: np.ndarray) -> None:
        """Write ``flat_bank * rows_per_bank + row`` into ``out`` (ids must fit)."""
        dtype = out.dtype
        np.multiply(
            self.flat_bank, dtype.type(self.rows_per_bank), out=out, dtype=dtype, casting="unsafe"
        )
        np.add(out, self.row, out=out, dtype=dtype, casting="unsafe")

    def __len__(self) -> int:
        return int(self.flat_bank.size)

    def split_flat_bank(
        self, config: DRAMConfig
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Decompose flat bank ids into (channel, rank, bank) arrays.

        Inverts ``flat = (channel * ranks + rank) * banks + bank`` for
        the given geometry.
        """
        flat = self.flat_bank.astype(np.int64)
        bank = flat % config.banks
        rest = flat // config.banks
        rank = rest % config.ranks
        channel = rest // config.ranks
        return channel, rank, bank

    def iter_coordinates(self, config: DRAMConfig):
        """Yield one :class:`Coordinate` per access, in program order.

        Lets per-request consumers (the command-level protocol engine)
        ride a single vectorized ``translate_trace`` pass instead of
        calling ``mapping.translate`` once per line.
        """
        channel, rank, bank = self.split_flat_bank(config)
        rows = self.row.astype(np.int64)
        cols = self.col.astype(np.int64)
        for coord in zip(
            channel.tolist(), rank.tolist(), bank.tolist(), rows.tolist(), cols.tolist()
        ):
            yield Coordinate(*coord)


class AddressMapping(abc.ABC):
    """Translates line addresses to DRAM coordinates."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config

    @property
    def name(self) -> str:
        """Human-readable mapping name (used in experiment output)."""
        return type(self).__name__.replace("Mapping", "")

    @property
    def cache_key(self) -> str:
        """Key identifying this mapping's *behaviour* for result caches.

        Mappings whose translation depends on more than the class (keys,
        rates, seeds) must extend this so differently-configured
        instances never share cached statistics.
        """
        return self.name

    @abc.abstractmethod
    def translate(self, line_addr: int) -> Coordinate:
        """Translate one line address."""

    @abc.abstractmethod
    def translate_trace(self, lines: np.ndarray, *, validate: bool = True) -> MappedTrace:
        """Translate a whole trace (vectorized).

        ``validate`` bounds-checks the chunk once (a single max scan);
        callers that already validated the window -- e.g. the simulator,
        which checks once and then feeds chunks -- pass ``False`` so the
        hot path does no per-chunk scans at all.
        """

    def global_rows(self, lines: np.ndarray, *, validate: bool = True) -> np.ndarray:
        """The global physical row id of every line (dtype as :attr:`MappedTrace.global_row`).

        Equal to ``translate_trace(lines).global_row``, but the window is
        translated in :data:`_BLOCK`-line blocks written straight into
        one preallocated output: the per-access bank, row and column
        arrays (and a cipher's or decode's temporaries) only ever exist
        at block size.  ``validate`` is passed to every block's
        :meth:`translate_trace`.
        """
        lines = np.asarray(lines)
        out = np.empty(lines.size, dtype=_row_id_dtype(self.config.total_rows - 1))
        for start in range(0, lines.size, _BLOCK):
            stop = start + _BLOCK
            mapped = self.translate_trace(lines[start:stop], validate=validate)
            mapped.global_row_into(out[start:stop])
        return out

    def inverse(self, coord: Coordinate) -> int:
        """Translate a coordinate back to its line address.

        Optional; mappings that support it override.  Used by tests to
        verify bijectivity and by migration bookkeeping.
        """
        raise NotImplementedError(f"{self.name} does not implement inverse()")

    def _check_line(self, line_addr: int) -> None:
        if not 0 <= line_addr < self.config.total_lines:
            raise ValueError(
                f"line address {line_addr:#x} out of range for "
                f"{self.config.capacity_bytes} byte memory"
            )


class FieldDecodeMapping(AddressMapping):
    """Mapping defined by per-field source-bit lists plus a bank xor-hash.

    Args:
        config: DRAM geometry.
        field_bits: For each coordinate field, the address bit positions
            (LSB first) that assemble the field.  Every address bit must
            be used exactly once across all fields.
        bank_hash_row_bits: Row-relative bit positions xored into the bank
            field (per bank bit, a list of row bits folded by parity), or
            None for no hashing.
    """

    def __init__(
        self,
        config: DRAMConfig,
        field_bits: Dict[str, Sequence[int]],
        *,
        bank_hash_row_bits: Optional[List[List[int]]] = None,
    ) -> None:
        super().__init__(config)
        self._validate_spec(field_bits)
        self.field_bits = {k: list(v) for k, v in field_bits.items()}
        if bank_hash_row_bits is not None and len(bank_hash_row_bits) != config.bank_bits:
            raise ValueError(
                f"bank_hash_row_bits must have {config.bank_bits} entries, "
                f"got {len(bank_hash_row_bits)}"
            )
        self.bank_hash_row_bits = bank_hash_row_bits
        #: Per field, its source bits as contiguous ``(src, dst, width)`` runs.
        self._runs = {
            field: _bit_runs(self.field_bits.get(field, [])) for field in FIELD_ORDER
        }
        #: Per bank bit, the mask of the row bits its hash folds in.
        self._bank_masks = [sum(1 << rb for rb in bits) for bits in bank_hash_row_bits or []]

    # ------------------------------------------------------------------
    def _expected_widths(self) -> Dict[str, int]:
        c = self.config
        return {
            "channel": c.channel_bits,
            "rank": c.rank_bits,
            "bank": c.bank_bits,
            "row": c.row_bits,
            "col": c.col_bits,
        }

    def _validate_spec(self, field_bits: Dict[str, Sequence[int]]) -> None:
        widths = {
            "channel": self.config.channel_bits,
            "rank": self.config.rank_bits,
            "bank": self.config.bank_bits,
            "row": self.config.row_bits,
            "col": self.config.col_bits,
        }
        used: List[int] = []
        for field in FIELD_ORDER:
            bits = list(field_bits.get(field, []))
            if len(bits) != widths[field]:
                raise ValueError(
                    f"field '{field}' needs {widths[field]} source bits, got {len(bits)}"
                )
            used.extend(bits)
        total = self.config.line_addr_bits
        if sorted(used) != list(range(total)):
            raise ValueError(
                f"field spec must use each of the {total} address bits exactly once"
            )

    # ------------------------------------------------------------------
    def _extract(self, lines: np.ndarray, field: str, dtype) -> np.ndarray:
        """One field of every line: one shift and one mask per bit run.

        A one-run field (most of them) is shifted straight into the output.
        """
        out = np.zeros(lines.shape, dtype=dtype)
        part = np.empty_like(out) if len(self._runs[field]) > 1 else out
        for src, dst, width in self._runs[field]:
            np.right_shift(lines, np.uint64(src), out=part)
            part &= dtype(mask(width))
            if part is not out:
                part <<= dtype(dst)
                out |= part
        return out

    def _gather_field(self, lines: np.ndarray, bits: Sequence[int]) -> np.ndarray:
        out = np.zeros(lines.shape, dtype=np.uint64)
        for i, src in enumerate(bits):
            out |= ((lines >> np.uint64(src)) & np.uint64(1)) << np.uint64(i)
        return out

    def _hash_bank(self, bank: int, row: int) -> int:
        for bit_index, row_mask in enumerate(self._bank_masks):
            bank ^= (bin(row & row_mask).count("1") & 1) << bit_index
        return bank

    # ------------------------------------------------------------------
    def translate(self, line_addr: int) -> Coordinate:
        self._check_line(line_addr)
        values = {}
        for field in FIELD_ORDER:
            bits = self.field_bits[field]
            value = 0
            for i, src in enumerate(bits):
                value |= ((line_addr >> src) & 1) << i
            values[field] = value
        values["bank"] = self._hash_bank(values["bank"], values["row"])
        return Coordinate(**values)

    def translate_trace(self, lines: np.ndarray, *, validate: bool = True) -> MappedTrace:
        """Vectorized :meth:`translate`, in uint32 whenever the address fits.

        Every pass writes into the fresh output arrays, never into
        ``lines``; bit-identical to :meth:`_translate_trace_reference`.
        """
        lines = np.asarray(lines, dtype=np.uint64)
        if validate and lines.size and int(lines.max()) >= self.config.total_lines:
            raise ValueError(
                f"line addresses exceed the {self.config.capacity_bytes} byte memory"
            )
        c = self.config
        dtype = np.uint32 if c.line_addr_bits <= 32 else np.uint64
        row = self._extract(lines, "row", dtype)
        bank = self._extract(lines, "bank", dtype)
        if self._bank_masks:
            parity = np.empty_like(row)
            for bit_index, row_mask in enumerate(self._bank_masks):
                np.bitwise_and(row, dtype(row_mask), out=parity)
                np.bitwise_count(parity, out=parity)
                parity &= dtype(1)
                parity <<= dtype(bit_index)
                bank ^= parity
            del parity
        col = self._extract(lines, "col", dtype)
        if c.channels == 1 and c.ranks == 1:
            flat = bank
        else:
            flat = self._extract(lines, "channel", dtype)
            flat *= dtype(c.ranks)
            flat += self._extract(lines, "rank", dtype)
            flat *= dtype(c.banks)
            flat += bank
        return MappedTrace(flat_bank=flat, row=row, col=col, rows_per_bank=c.rows_per_bank)

    def _translate_trace_reference(self, lines: np.ndarray) -> MappedTrace:
        """The per-bit uint64 kernel :meth:`translate_trace` replaced.

        Kept as the oracle the equivalence tests and the hot-path
        benchmark compare against; no validation.
        """
        lines = np.asarray(lines, dtype=np.uint64)
        channel = self._gather_field(lines, self.field_bits["channel"])
        rank = self._gather_field(lines, self.field_bits["rank"])
        bank = self._gather_field(lines, self.field_bits["bank"])
        row = self._gather_field(lines, self.field_bits["row"])
        col = self._gather_field(lines, self.field_bits["col"])
        for bit_index, row_bits in enumerate(self.bank_hash_row_bits or []):
            fold = np.zeros(row.shape, dtype=np.uint64)
            for rb in row_bits:
                fold ^= (row >> np.uint64(rb)) & np.uint64(1)
            bank = bank ^ (fold << np.uint64(bit_index))
        flat = (channel * np.uint64(self.config.ranks) + rank) * np.uint64(
            self.config.banks
        ) + bank
        return MappedTrace(flat_bank=flat, row=row, col=col, rows_per_bank=self.config.rows_per_bank)

    def inverse(self, coord: Coordinate) -> int:
        self.config.validate_coordinate(coord)
        # Undo the bank hash first (xor is self-inverse given the row).
        bank_field = self._hash_bank(coord.bank, coord.row)
        values = {
            "channel": coord.channel,
            "rank": coord.rank,
            "bank": bank_field,
            "row": coord.row,
            "col": coord.col,
        }
        line = 0
        for field in FIELD_ORDER:
            value = values[field]
            for i, src in enumerate(self.field_bits[field]):
                line |= ((value >> i) & 1) << src
        return line


def _bit_runs(bits: Sequence[int]) -> List["tuple[int, int, int]"]:
    """``(src, dst, width)`` runs: field bits ``dst..dst+width`` are address bits ``src..``."""
    runs: List[List[int]] = []
    for dst, src in enumerate(bits):
        if runs and runs[-1][0] + runs[-1][2] == src:
            runs[-1][2] += 1
        else:
            runs.append([src, dst, 1])
    return [(src, dst, width) for src, dst, width in runs]


def fields_from_segments(
    config: DRAMConfig, segments: Sequence["tuple[str, int]"]
) -> Dict[str, List[int]]:
    """Build a field-bit spec from LSB-to-MSB (field, width) segments.

    Real mappings interleave fields (e.g. Skylake's bank bit sits between
    column bits); describing the layout as consecutive segments keeps each
    mapping definition readable.  Zero-width segments are allowed so one
    description covers single- and multi-channel geometries.

    >>> cfg = DRAMConfig()
    >>> spec = fields_from_segments(cfg, [("col", 7), ("bank", 4),
    ...                                   ("rank", 0), ("channel", 0), ("row", 17)])
    >>> spec["col"]
    [0, 1, 2, 3, 4, 5, 6]
    """
    fields: Dict[str, List[int]] = {name: [] for name in FIELD_ORDER}
    cursor = 0
    for name, width in segments:
        if name not in fields:
            raise ValueError(f"unknown field '{name}'")
        if width < 0:
            raise ValueError(f"segment width must be non-negative, got {width}")
        fields[name].extend(range(cursor, cursor + width))
        cursor += width
    if cursor != config.line_addr_bits:
        raise ValueError(
            f"segments cover {cursor} bits, address has {config.line_addr_bits}"
        )
    return fields


def default_bank_hash(config: DRAMConfig) -> List[List[int]]:
    """The xor-based bank hash used by the Intel-style mappings.

    Each bank bit is xored with the parity of a strided subset of row
    bits, decorrelating bank conflicts from row strides (the 'xor-based
    hashed mapping for bank selection' of Section 2.3).
    """
    return [
        [rb for rb in range(bit, config.row_bits, config.bank_bits)]
        for bit in range(config.bank_bits)
    ]


__all__ = [
    "AddressMapping",
    "FieldDecodeMapping",
    "MappedTrace",
    "FIELD_ORDER",
    "fields_from_segments",
    "default_bank_hash",
]
