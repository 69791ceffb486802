"""In-memory span tracer that wraps agentchart's layer functions from outside.

Each wrapped call records one span: its id, the layer name, the id of the
span that caused it on the same thread (-1 for a root), a per-thread index,
and its start and end on ``time.perf_counter``.  Every thread keeps its own
span stack and its own record buffer, so episodes running on a thread pool
never share mutable state with the calling thread.  A pool thread's spans
are roots of their own thread; the time the calling thread spends waiting
for them therefore shows as self time of the span it waits in.

Self time of a span is its duration minus the durations of its direct
children, which lie inside it on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from types import ModuleType

_FIELDS = 6  # span id, name code, parent id, thread index, start, end


class Tracer:
    def __init__(self, names: list[str]):
        self.names = list(names)
        self._codes = {name: i for i, name in enumerate(self.names)}
        self._ids = itertools.count()
        self._threads = itertools.count()
        self._local = threading.local()
        self._buffers: list[array] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        code = self._codes[name]
        local = self._local
        next_id = self._ids.__next__
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.buffer = array("d")
                local.index = next(self._threads)
                self._buffers.append(local.buffer)
            sid = next_id()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.buffer.extend((sid, code, parent, local.index, start, end))

        return span

    def install(self, sites: dict[str, list[tuple[ModuleType | type, str]]]) -> None:
        """Replace each ``owner.attr`` by a span wrapper named after its layer.

        Sites that name the same function share one wrapper, so a call
        reached through either name is one span.  A site whose attribute
        does not exist is listed in ``missing`` and left alone.
        """
        for name, owners in sites.items():
            wrappers: dict[int, object] = {}
            for owner, attr in owners:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                wrapper = wrappers.setdefault(id(original), self._wrap(name, original))
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def records(self):
        """All spans as a numpy array of shape (n, 6), ordered by span id."""
        import numpy as np

        flat = np.concatenate([np.frombuffer(b, dtype=np.float64) for b in self._buffers])
        rows = flat.reshape(-1, _FIELDS)
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer name: number of calls and summed self time in seconds."""
        import numpy as np

        rows = self.records() if self._buffers else np.zeros((0, _FIELDS))
        n = len(rows)
        dur = rows[:, 5] - rows[:, 4]
        parent = rows[:, 2].astype(np.int64)
        child = parent >= 0
        # span ids are 0..n-1 once every span has ended, so an id is a row
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        self_s = dur - covered
        code = rows[:, 1].astype(np.int64)
        k = len(self.names)
        calls = np.bincount(code, minlength=k)
        totals = np.bincount(code, weights=self_s, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(totals[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span and the layer names as one ``.npz`` file."""
        import numpy as np

        np.savez(path, spans=self.records(), names=np.array(self.names))
