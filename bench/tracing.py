"""In-memory span recorder for the traced benchmark run.

A span wraps one call from the benchmark into a public function of the
package: it records a name, a start and an end (``time.perf_counter``
seconds), the span it was opened in, and the root span of its chain, which
identifies the verdict or layer step it belongs to.  Spans stay in memory and
are written out once, when the run ends, so the recording itself does no I/O
while work is being timed.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


def no_span(name: str):
    """The span function of an untraced run: records nothing."""
    return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else len(self.spans),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total_s(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` opened at index ``since`` or later."""
        return sum(s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name)

    def write(self, path: Path, **meta) -> None:
        # Self time: a span's duration minus the part its direct children cover.
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        spans = [dict(s, self_s=s["end"] - s["start"] - covered[s["id"]]) for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "counts": self.counts, "spans": spans}) + "\n")
