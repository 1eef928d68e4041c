"""In-memory span aggregation for the traced pass.

A span is one call into a layer: its name, its start and end, and the
span that was open when it started (its parent).  A real protocol run
makes millions of such calls, so spans are not kept one by one: each is
folded into a row keyed by ``(name, parent name)`` holding the call
count, the total time and the self time (the total minus the part its
child spans cover).  Only the first ``window`` raw spans are kept, for
inspection.

Spans are opened by wrappers that :func:`wrap` installs over methods at
class level.  A wrapper records nothing while no span is open, so calls
made before the root span starts (set-up) or after it ends (post-run
checks) are neither timed nor counted.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple, Union

#: Row layout of :attr:`SpanTable.rows`: ``[calls, total_ns, self_ns]``.
CALLS, TOTAL_NS, SELF_NS = 0, 1, 2


class SpanTable:
    """Per-``(name, parent)`` call counts, total and self time.

    Args:
        clock: integer nanosecond clock (``time.perf_counter_ns``; tests pass
            a fake one).
        window: number of raw spans kept, in completion order.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 window: int = 2000) -> None:
        self.clock = clock
        self.window = window
        #: Open spans, innermost last: ``[name, start_ns, child_ns]``.
        self.stack: List[list] = []
        self.rows: Dict[Tuple[str, Optional[str]], List[int]] = {}
        #: ``(name, parent, start_ns, end_ns)`` of the first spans closed.
        self.raw: List[Tuple[str, Optional[str], int, int]] = []
        #: Named event counts recorded at span boundaries (outcomes).
        self.counts: Dict[str, int] = {}

    def open(self, name: str) -> list:
        """Open a span; returns the frame to pass to :meth:`close`."""
        frame = [name, self.clock(), 0]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        """Close the innermost span, which must be ``frame``."""
        end = self.clock()
        stack = self.stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, start, child = frame
        duration = end - start
        if stack:
            parent_frame = stack[-1]
            parent_frame[2] += duration
            parent = parent_frame[0]
        else:
            parent = None
        row = self.rows.get((name, parent))
        if row is None:
            row = self.rows[(name, parent)] = [0, 0, 0]
        row[CALLS] += 1
        row[TOTAL_NS] += duration
        row[SELF_NS] += duration - child
        if len(self.raw) < self.window:
            self.raw.append((name, parent, start, end))

    def count(self, name: str) -> None:
        """Add one to the named outcome count."""
        self.counts[name] = self.counts.get(name, 0) + 1

    def layer(self, prefix: str) -> Tuple[int, float]:
        """``(calls, self seconds)`` of every span named ``prefix`` or
        ``prefix.*``, summed over parents."""
        calls = 0
        self_ns = 0
        dotted = prefix + "."
        for (name, _parent), row in self.rows.items():
            if name == prefix or name.startswith(dotted):
                calls += row[CALLS]
                self_ns += row[SELF_NS]
        return calls, self_ns / 1e9

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rows, outcome counts and the raw window."""
        return {
            "rows": [
                {"name": name, "parent": parent, "calls": row[CALLS],
                 "total_s": row[TOTAL_NS] / 1e9, "self_s": row[SELF_NS] / 1e9}
                for (name, parent), row in sorted(
                    self.rows.items(), key=lambda item: -item[1][SELF_NS])
            ],
            "counts": dict(sorted(self.counts.items())),
            "raw_window": [list(span) for span in self.raw],
        }


def wrap(table: SpanTable, fn: Callable, name: Union[str, Callable[..., str]],
         root: bool = False, false_count: Optional[str] = None) -> Callable:
    """Return ``fn`` wrapped in a span.

    Args:
        name: the span name, or a function of the call's arguments that
            returns it (e.g. a handler span named after the message kind).
        root: open the span even when no span is open (the measured run).
        false_count: when set, count calls that returned ``False`` under
            this name (e.g. a merge that added no vote).
    """
    stack = table.stack
    open_, close = table.open, table.close
    classify = name if callable(name) else None

    def spanned(*args, **kwargs):
        if not stack and not root:
            return fn(*args, **kwargs)
        frame = open_(classify(*args) if classify else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(frame)
        if false_count is not None and result is False:
            table.count(false_count)
        return result

    spanned.__wrapped__ = fn
    return spanned
