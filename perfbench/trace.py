"""Span tracing installed from outside the program.

:class:`Tracer` replaces chosen functions and methods of ``repro`` with
wrappers that record one span per call: (name, start, end, parent).  A
generator function's span is recorded per resume, so its busy time is the
sum over resumes and the time it sits suspended in the simulator is not
counted; its call count is the number of generators created.  The
simulation itself is untouched: wrappers forward every argument, value,
exception and return value, so a traced run yields the same metrics
digest as an untraced one.

Spans live in flat arrays while the run is traced and are written out by
:meth:`Tracer.dump` once the benchmark is done.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module:qualname`` -> span group ``group``.

    ``group`` is ``<layer>.<label>``; the layer is what the self-time table
    sums by, and the label what per-layer metrics read counts and busy time
    from.  ``on_return`` sees the call's arguments and result (after a
    generator finishes, its return value).
    """

    path: str
    group: str
    on_return: Callable[..., None] | None = None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._child_time: list[float] = []
        self._depth: dict[str, int] = {}
        #: Per group: calls, busy seconds (outermost spans of the group only,
        #: so a group calling itself is not counted twice), self seconds.
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.tallies: dict[str, float] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def tally(self, key: str, amount: float = 1) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def _name_id(self, group: str) -> int:
        index = self._name_ids.get(group)
        if index is None:
            index = self._name_ids[group] = len(self.names)
            self.names.append(group)
        return index

    def _enter(self, group: str) -> int:
        index = len(self.span_start)
        self.span_name.append(self._name_id(group))
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(index)
        self._child_time.append(0.0)
        self._depth[group] = self._depth.get(group, 0) + 1
        self.span_start.append(perf_counter())
        return index

    def _exit(self, index: int, group: str) -> None:
        end = perf_counter()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self._open.pop()
        children = self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += duration
        self.self_time[group] = self.self_time.get(group, 0.0) + duration - children
        depth = self._depth[group] - 1
        self._depth[group] = depth
        if depth == 0:
            self.busy[group] = self.busy.get(group, 0.0) + duration

    def _traced_generator(self, gen, group: str, on_return, args):
        send_value = None
        error: BaseException | None = None
        while True:
            index = self._enter(group)
            try:
                if error is None:
                    yielded = gen.send(send_value)
                else:
                    yielded = gen.throw(error)
            except StopIteration as stop:
                self._exit(index, group)
                if on_return is not None:
                    on_return(args, stop.value)
                return stop.value
            except BaseException:
                self._exit(index, group)
                raise
            self._exit(index, group)
            try:
                send_value = yield yielded
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                error = exc

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        group = target.group
        on_return = target.on_return
        calls = self.calls
        enter, leave = self._enter, self._exit
        is_generator = fn.__code__.co_flags & 0x20  # CO_GENERATOR

        if is_generator:
            traced = self._traced_generator

            def wrapper(*args, **kwargs):
                calls[group] = calls.get(group, 0) + 1
                inner = fn(*args, **kwargs)
                outer = traced(inner, group, on_return, args)
                # Processes are named after their generator.
                outer.__name__ = inner.__name__
                outer.__qualname__ = inner.__qualname__
                return outer
        else:
            def wrapper(*args, **kwargs):
                calls[group] = calls.get(group, 0) + 1
                index = enter(group)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(index, group)
                if on_return is not None:
                    on_return(args, result)
                return result

        return functools.update_wrapper(wrapper, fn)

    # -- installation --------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target, then re-point each module that imported one of
        them by name (``from x import f``) at the wrapper."""
        _import_all("repro")
        replaced: dict[int, Callable] = {}
        for target in targets:
            module_name, qualname = target.path.split(":")
            owner = importlib.import_module(module_name)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(raw.__func__, target))
            else:
                wrapper = self._wrap(raw, target)
                replaced[id(raw)] = wrapper
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapper)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output --------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for group, seconds in self.self_time.items():
            layer = group.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def root_seconds(self) -> float:
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] == -1
        )

    def dump(self, path: Path) -> None:
        """Write every span as ``name,start_s,end_s,parent`` (gzip CSV),
        times relative to the first span."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_s,end_s,parent\n")
            names = self.names
            for i in range(len(self.span_start)):
                out.write(
                    f"{names[self.span_name[i]]},{self.span_start[i] - origin:.7f},"
                    f"{self.span_end[i] - origin:.7f},{self.span_parent[i]}\n"
                )


def _import_all(package: str) -> None:
    """Import every submodule, so by-name imports exist before patching."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        importlib.import_module(info.name)
