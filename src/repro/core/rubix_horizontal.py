"""Horizontal xor remapping: the Section 5.2 pitfall, made concrete.

A single xor key over the whole line address *does* randomize where each
row's content lives -- but xor is linear, so the 128 lines that shared a
row under the baseline mapping still share a row afterwards (their high
address bits are identical, so one key moves them together).  Hot rows
survive untouched.

This mapping exists to demonstrate that pitfall in tests, experiments,
and the ablation study; Rubix-D fixes it by remapping *vertically* with
an independent key per gang-in-row position.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dram.config import Coordinate, DRAMConfig
from repro.mapping.base import AddressMapping, MappedTrace, line_array
from repro.mapping.intel import CoffeeLakeMapping
from repro.utils.bitops import fitting_uint, mask
from repro.utils.prng import derive_key


class HorizontalXorMapping(AddressMapping):
    """Whole-address xor with one key, decoded like Coffee Lake.

    Args:
        config: DRAM geometry.
        seed: Key seed (a fresh key per boot, like Rubix-D's epochs).
        base_decode: Decode applied to the xored address (Coffee Lake by
            default, so the co-residency structure is the baseline's).
    """

    def __init__(
        self,
        config: DRAMConfig,
        *,
        seed: int = 0x0123,
        base_decode: Optional[AddressMapping] = None,
    ) -> None:
        super().__init__(config)
        self.key = derive_key(seed, "horizontal-xor", config.line_addr_bits)
        self.decode = base_decode or CoffeeLakeMapping(config)

    @property
    def name(self) -> str:
        return "Horizontal-Xor"

    @property
    def cache_key(self) -> str:
        return f"{self.name}/key={self.key:x}"

    def translate(self, line_addr: int) -> Coordinate:
        self._check_line(line_addr)
        return self.decode.translate(line_addr ^ self.key)

    def translate_trace(self, lines: np.ndarray, *, validate: bool = True) -> MappedTrace:
        lines = line_array(lines)
        # The xored address stays in range iff the input does, so the
        # decode stage's own scan is redundant either way.
        if validate and lines.size and int(lines.max()) >= self.config.total_lines:
            raise ValueError(
                f"line addresses exceed the {self.config.capacity_bytes} byte memory"
            )
        key = fitting_uint(self.config.total_lines - 1)(self.key)
        return self.decode.translate_trace(lines ^ key, validate=False)

    def inverse(self, coord: Coordinate) -> int:
        return self.decode.inverse(coord) ^ self.key

    def lines_stay_together(self) -> bool:
        """The linearity property: row-mates remain row-mates.

        True by construction -- kept as an executable statement of the
        pitfall for documentation and tests.
        """
        row_mask = ~mask(self.config.col_bits) & mask(self.config.line_addr_bits)
        base = 0x137 << self.config.col_bits
        rows = {
            self.config.global_row(self.translate((base | c) & mask(self.config.line_addr_bits)))
            for c in range(self.config.lines_per_row)
        }
        return len(rows) == 1 and bool(row_mask)


__all__ = ["HorizontalXorMapping"]
