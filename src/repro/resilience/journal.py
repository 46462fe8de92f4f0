"""JSONL checkpoint journal for resumable campaigns.

One line per completed cell: ``{"key": <canonical cell key>,
"record": <tidy record>}`` plus optional telemetry fields --
``duration_s`` (monotonic cell wall time) and ``worker_id`` (the
process that ran the cell) -- so a resumed campaign can report where
the time of its earlier segments went (:meth:`CheckpointJournal.timings`).
Journals written before those fields existed load unchanged, and so do
entries with extra fields (older journals also stamped ``attempt``,
``epoch`` and ``lease_id``): readers pick out only the fields they use.

An append writes and fsyncs one line, so it costs the same on the
thousandth cell as on the first.  A crash mid-write can at worst leave
the in-flight cell as a torn final line, never touch earlier ones: the
next append starts on a fresh line so the two cannot merge, and load
skips the torn line with a warning and a
``resilience.journal.truncated`` metric rather than poisoning the
resume.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import JournalError
from repro.obs.runtime import METRICS, get_logger

log = get_logger("journal")


class CheckpointJournal:
    """Append-only journal of completed campaign cells.

    Args:
        path: The ``.jsonl`` file backing this journal (created on the
            first append; parent directories are created as needed).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._records: Optional[List[dict]] = None
        self.skipped_lines = 0

    # ------------------------------------------------------------------
    def load(self) -> List[dict]:
        """Read all journal entries (cached; [] when the file is absent).

        Malformed lines -- typically one truncated trailing line from a
        crash mid-append -- are skipped with a warning, counted in
        :attr:`skipped_lines`, and recorded in the
        ``resilience.journal.truncated`` metric; the cells they named
        simply re-run on resume.  A journal entry that parses but lacks
        the ``key`` field raises :class:`JournalError` (that is
        corruption, not an interrupted write).
        """
        if self._records is not None:
            return self._records
        records: List[dict] = []
        self.skipped_lines = 0
        if self.path.exists():
            for lineno, line in enumerate(self.path.read_text().splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    self.skipped_lines += 1
                    METRICS.inc("resilience.journal.truncated")
                    log.warning(
                        "journal.truncated_line",
                        message=f"[journal {self.path}:{lineno}: skipping torn"
                        " record (crash mid-write?); its cell will re-run]",
                        path=str(self.path),
                        lineno=lineno,
                    )
                    continue
                if not isinstance(entry, dict) or "key" not in entry:
                    raise JournalError(
                        "journal entry has no 'key' field", path=str(self.path)
                    )
                records.append(entry)
        self._records = records
        return records

    def completed(self) -> Dict[str, dict]:
        """Completed cells as ``{key: record}`` (last write wins)."""
        return {entry["key"]: entry.get("record", {}) for entry in self.load()}

    def completed_keys(self) -> "set[str]":
        """The set of cell keys already journaled."""
        return set(self.completed())

    def __len__(self) -> int:
        return len(self.load())

    def timings(self) -> Dict[str, dict]:
        """Per-cell timing metadata: ``{key: {duration_s, worker_id}}``.

        Entries from journals written before these fields existed are
        skipped (not errors) -- old journals stay fully resumable, they
        just cannot report where their time went.
        """
        out: Dict[str, dict] = {}
        for entry in self.load():
            if "duration_s" not in entry:
                continue
            out[entry["key"]] = {
                "duration_s": entry["duration_s"],
                "worker_id": entry.get("worker_id"),
            }
        return out

    # ------------------------------------------------------------------
    def append(
        self,
        key: str,
        record: dict,
        *,
        duration_s: Optional[float] = None,
        worker_id: Optional[str] = None,
    ) -> None:
        """Durably append one completed cell: one line, then fsync.

        Args:
            key: Canonical cell key.
            record: The cell's tidy record (must be JSON-serializable).
            duration_s: Optional monotonic wall time the cell took.
            worker_id: Optional identifier of the executing process.
        """
        entries = self.load()
        payload: dict = {"key": key, "record": record}
        if duration_s is not None:
            payload["duration_s"] = round(float(duration_s), 6)
        if worker_id is not None:
            payload["worker_id"] = worker_id
        try:
            line = json.dumps(payload, default=str)
        except (TypeError, ValueError) as error:
            raise JournalError(
                f"record for '{key}' is not JSON-serializable", key=key
            ) from error
        self._write_line(line)
        entries.append(json.loads(line))

    def reset(self) -> None:
        """Start the journal over (used when not resuming)."""
        self._records = []
        if self.path.exists():
            self.path.unlink()

    def _write_line(self, line: str) -> None:
        """Append ``line`` durably, after a newline if the file ends torn."""
        data = line.encode() + b"\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as handle:
                end = handle.seek(0, os.SEEK_END)
                if end:
                    handle.seek(end - 1)
                    if handle.read(1) != b"\n":
                        data = b"\n" + data
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as error:
            raise JournalError(
                f"cannot write journal: {error}", path=str(self.path)
            ) from error


__all__ = ["CheckpointJournal"]
