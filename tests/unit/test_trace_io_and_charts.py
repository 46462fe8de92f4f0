"""Unit tests for trace persistence, charts, and JSON export."""

import json
import struct

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.experiments.charts import render_bars
from repro.experiments.common import ExperimentResult
from repro.workloads.trace import Trace
from repro.workloads.trace_io import (
    RAW_HEADER_BYTES,
    load_trace,
    save_trace_raw,
)


class TestTraceIO:
    """``save_trace_raw`` / ``load_trace`` at the API level; the ``.rtr``
    layout itself is pinned in ``test_trace_io_raw.py``."""

    def _trace(self):
        return Trace(
            name="demo",
            lines=np.arange(1000, dtype=np.uint64) * 7,
            instructions=123_456,
            window_s=0.032,
            scale=0.5,
        )

    def test_roundtrip(self, tmp_path):
        trace = self._trace()
        path = save_trace_raw(trace, tmp_path / "demo")
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.instructions == trace.instructions
        assert loaded.window_s == pytest.approx(trace.window_s)
        assert loaded.scale == pytest.approx(trace.scale)
        assert np.array_equal(loaded.lines, trace.lines)

    def test_suffix_appended(self, tmp_path):
        path = save_trace_raw(self._trace(), tmp_path / "demo.trace")
        assert path.name == "demo.trace.rtr"
        assert load_trace(path).name == "demo"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nothing.rtr"):
            load_trace(tmp_path / "nothing.rtr")

    def test_wrong_format(self, tmp_path):
        # A leftover .npz bundle is refused by its magic, not parsed.
        path = tmp_path / "junk.npz"
        np.savez(path, lines=np.arange(3, dtype=np.uint64))
        with pytest.raises(TraceFormatError, match="junk.npz: not a raw trace"):
            load_trace(path)

    def test_creates_directories(self, tmp_path):
        path = save_trace_raw(self._trace(), tmp_path / "deep" / "dir" / "demo")
        assert path.exists()

    def test_save_leaves_no_temp_files(self, tmp_path):
        save_trace_raw(self._trace(), tmp_path / "demo")
        assert [p.name for p in tmp_path.iterdir()] == ["demo.rtr"]

    def _save_with_meta(self, tmp_path, drop=(), **changes):
        """A valid file whose metadata tail has ``changes`` applied and
        the keys in ``drop`` removed."""
        good = save_trace_raw(self._trace(), tmp_path / "good").read_bytes()
        (meta_len,) = struct.unpack("<Q", good[32:40])
        data_end = len(good) - meta_len
        meta = json.loads(good[data_end:].decode())
        meta.update(changes)
        for key in drop:
            del meta[key]
        new_meta = json.dumps(meta).encode()
        header = bytearray(good[:RAW_HEADER_BYTES])
        header[32:40] = struct.pack("<Q", len(new_meta))
        path = tmp_path / "bad.rtr"
        path.write_bytes(bytes(header) + good[RAW_HEADER_BYTES:data_end] + new_meta)
        return path

    def test_not_an_archive_names_the_path(self, tmp_path):
        path = tmp_path / "garbage.rtr"
        path.write_bytes(b"this is not a raw trace file, just some bytes" * 4)
        with pytest.raises(TraceFormatError, match="garbage.rtr"):
            load_trace(path)

    def test_missing_meta_keys_listed(self, tmp_path):
        path = self._save_with_meta(tmp_path, drop=("instructions", "scale"))
        with pytest.raises(TraceFormatError, match=r"\['instructions', 'scale'\]"):
            load_trace(path)

    def test_unsupported_version(self, tmp_path):
        data = bytearray(save_trace_raw(self._trace(), tmp_path / "demo").read_bytes())
        data[8:12] = struct.pack("<I", 99)
        path = tmp_path / "future.rtr"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="future.rtr: unsupported raw trace version"):
            load_trace(path)

    def test_malformed_lines_array(self, tmp_path):
        # A 2-D line array is refused before anything is published.
        trace_2d = Trace("x", np.ones((2, 5), dtype=np.uint64), instructions=10)
        with pytest.raises(ValueError, match="1-D"):
            save_trace_raw(trace_2d, tmp_path / "bad")
        assert list(tmp_path.iterdir()) == []

    def test_invalid_meta_values(self, tmp_path):
        # Trace rejects non-positive instruction counts.
        path = self._save_with_meta(tmp_path, instructions=-5)
        with pytest.raises(TraceFormatError, match="bad.rtr: metadata values are invalid"):
            load_trace(path)

    def test_trace_format_error_is_value_error(self, tmp_path):
        # Back-compat: pre-taxonomy callers caught ValueError.
        with pytest.raises(ValueError):
            load_trace(self._save_with_meta(tmp_path, window_s="soon"))


@pytest.fixture()
def result():
    return ExperimentResult(
        experiment_id="demo",
        title="Demo",
        headers=["config", "hot_rows", "note"],
        rows=[["baseline", 7600, "x"], ["rubix", 33, "y"]],
        notes=["a note"],
    )


class TestCharts:
    def test_bars_scale_with_values(self, result):
        chart = render_bars(result)
        lines = chart.splitlines()
        baseline_bar = lines[1].count("#")
        rubix_bar = lines[2].count("#")
        assert baseline_bar > rubix_bar
        assert "7600" in chart

    def test_log_scale(self, result):
        chart = render_bars(result, log_scale=True)
        lines = chart.splitlines()
        assert lines[1].count("#") > lines[2].count("#") > 0

    def test_column_selection(self, result):
        chart = render_bars(result, column="hot_rows")
        assert "hot_rows" in chart

    def test_non_numeric_column_rejected(self, result):
        with pytest.raises(ValueError):
            render_bars(result, column="note")

    def test_no_numeric_columns(self):
        r = ExperimentResult("x", "t", ["a"], [["only-text"]])
        with pytest.raises(ValueError):
            render_bars(r)


class TestJsonExport:
    def test_round_trips_through_json(self, result):
        data = json.loads(result.to_json())
        assert data["experiment_id"] == "demo"
        assert data["rows"][0][1] == 7600
        assert data["notes"] == ["a note"]

    def test_cli_json_and_chart(self, tmp_path, capsys):
        from repro.experiments.runner import main

        out = tmp_path / "fig1a.json"
        assert main(["run", "fig1a", "--chart", "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "#" in printed
        data = json.loads(out.read_text())
        assert data["experiment_id"] == "fig1a"
