"""In-memory spans around calls into mipcert, recorded from outside the package.

A :class:`Tracer` replaces chosen module or class attributes with wrappers
that open a span on entry and close it on return. Each span keeps its name,
start, end, parent span and operation id in flat arrays, so a run of a few
hundred thousand calls stays small; :meth:`Tracer.write` dumps them when the
run ends. A span's self time is its duration minus the durations of its
direct children, which never overlap because everything runs on one thread.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str) -> Iterator[int]:
        """A top-level span that starts a new operation id."""
        self._op += 1
        index = self.begin(name)
        try:
            yield index
        finally:
            self.finish(index)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.finish(index)

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str | Callable[..., str],
        observe: Callable[..., None] | None = None,
    ) -> None:
        """Trace every call of ``owner.attribute`` until :meth:`restore`.

        ``name`` is the span name, or a function of the call's arguments that
        returns it; ``observe``, when given, also sees every call's arguments.
        """
        original = vars(owner)[attribute]
        namer = name if callable(name) else (lambda *args, **kwargs: name)

        def traced(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            index = self.begin(namer(*args, **kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                self.finish(index)

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def summary(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: total time, self time and number of spans."""
        child_time = [0.0] * len(self.start)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[index] - self.start[index]
        totals: dict[str, list] = {}
        for index, name_id in enumerate(self.name_id):
            entry = totals.setdefault(self.names[name_id], [0.0, 0.0, 0])
            duration = self.end[index] - self.start[index]
            entry[0] += duration
            entry[1] += duration - child_time[index]
            entry[2] += 1
        return {name: tuple(entry) for name, entry in totals.items()}

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line (gzip-compressed)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as sink:
            sink.write("span\tname\tstart_s\tend_s\tparent\top\n")
            origin = self.start[0] if self.start else 0.0
            for index in range(len(self.start)):
                sink.write(
                    f"{index}\t{self.names[self.name_id[index]]}\t"
                    f"{self.start[index] - origin:.9f}\t{self.end[index] - origin:.9f}\t"
                    f"{self.parent[index]}\t{self.op[index]}\n"
                )
