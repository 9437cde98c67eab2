"""Span recording around the calls into each ``triwalk`` module.

The tracer replaces every public function of the package's modules (the
names in each ``__all__``), the output methods of their result classes and
``Coin.from_json`` with wrappers that record a span: name, start, end, parent
span and thread.  Spans stay in memory and are written out when the run ends.
Nothing inside the package is edited; the wrappers sit at the module
boundaries, so a call from one module into another is seen as long as it
goes through the module's global name.

Span names are ``<layer>.<function>``; the output methods are all named
``cli.write:<Class.method>`` because writing files is the CLI's job.  Worker
threads (the sweep's thread pool) have no open span of their own, so their
outermost spans take the innermost span open on the main thread as parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType

LAYERS = ("coins", "walk", "spectral", "localization", "cli")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``enabled``; wrappers cost one flag test when off."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, info: object = None):
        """Record a span around the body of the ``with`` block."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), info))

    def wrap(self, name: str, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name, info(args, kwargs) if info else None):
                return fn(*args, **kwargs)

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, modules: dict[str, ModuleType], package: ModuleType) -> None:
        """Wrap the public functions of ``modules`` (layer name -> module).

        Every module that imported a wrapped function by name gets the wrapper
        too, so cross-module calls are recorded.
        """
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self.wrap(f"{layer}.{name}", obj, _INFO.get(name))
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        write_text = getattr(modules["cli"], "_write_text", None)
        if inspect.isfunction(write_text):
            self._patch(modules["cli"], "_write_text",
                        self.wrap("cli.write:_write_text", write_text))

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if isinstance(value, classmethod) and attr == "from_json" and layer == "coins":
                wrapped = self.wrap(f"coins.{cls.__name__}.from_json", value.__func__)
                self._patch(cls, attr, classmethod(wrapped))
            elif inspect.isfunction(value) and (attr.startswith("to_")
                                                or attr.endswith("_to_csv")):
                self._patch(cls, attr, self.wrap(
                    f"cli.write:{cls.__name__}.{attr}", value))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _dispersion_info(args, kwargs):
    """(coin, n_samples, with eigenvectors) of a dispersion_numeric call."""
    coin = args[0] if args else kwargs["coin"]
    n = args[1] if len(args) > 1 else kwargs.get("n_samples", 4096)
    return coin, int(n), bool(kwargs.get("include_eigenvectors", False))


def _step_info(args, kwargs):
    """Sites in the window a step reads (2t + 1 at time t)."""
    state = args[0] if args else kwargs["state"]
    return 2 * state.time + 1


def _coin_info(args, kwargs):
    """The coin spec of a peak_velocities_numeric call, as the CLI spells it."""
    coin = args[0] if args else kwargs["coin"]
    if coin.parameter is None:
        return coin.family.value
    return f"{coin.family.value}:{coin.parameter!r}"


_INFO = {"dispersion_numeric": _dispersion_info, "step": _step_info,
         "peak_velocities_numeric": _coin_info}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children running in parallel threads cover their interval once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.duration - covered
    return out


def dump(spans: list[Span], path) -> None:
    """Write spans as JSON lines: id, name, start, end, parent, thread."""
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.id, "name": s.name,
                                 "start": s.start - t0, "end": s.end - t0,
                                 "parent": s.parent, "thread": s.thread}) + "\n")
