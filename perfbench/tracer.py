"""Layer spans recorded from outside the package.

``Tracer`` wraps every public function defined in a ``loracanvas`` module
and rebinds each name that refers to it, in every ``loracanvas`` module, so
calls made through ``from .x import f`` bindings are seen too. Each call
becomes a span ``[name, start_ns, end_ns, parent, child_ns, info]`` kept in
memory; ``child_ns`` accumulates the time of the spans nested directly in
it, so a span's self time is its duration minus ``child_ns``. Leaving the
``with`` block restores every rebound name to the original object.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable

NAME, START, END, PARENT, CHILD, INFO = range(6)

# before(args, kwargs) -> (args, kwargs, info); after(result, args, info) -> info
Before = Callable[[tuple, dict], tuple]
After = Callable[[object, tuple, object], object]


def package_modules(package: str = "loracanvas") -> list:
    return [sys.modules[n] for n in sorted(sys.modules)
            if n == package or n.startswith(package + ".")]


def public_functions(module) -> dict[str, Callable]:
    """Public functions defined in the module itself, by name."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    def __init__(self, hooks: dict[str, tuple[Before | None, After | None]] | None = None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._hooks = hooks or {}
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = package_modules()
        wrappers: dict[int, Callable] = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._unpatch()

    def _unpatch(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        before, after = self._hooks.get(name, (None, None))
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = None
            if before is not None:
                args, kwargs, info = before(args, kwargs)
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0, parent, 0, info]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += span[END] - span[START]
            if after is not None:
                span[INFO] = after(result, args, span[INFO])
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Span name -> (calls, total ns, self ns)."""
        out: dict[str, list[int]] = {}
        for span in self.spans:
            dur = span[END] - span[START]
            entry = out.setdefault(span[NAME], [0, 0, 0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - span[CHILD]
        return {name: tuple(v) for name, v in out.items()}
