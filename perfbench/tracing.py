"""Span tracer for the benchmark's traced runs.

The tracer wraps, from outside the program, every public function and every
public method of the ``avmatch`` modules that the benchmark treats as layers.
Each call becomes one span: name, start, end, the span that caused it, the
benchmark region it ran under, and for methods the ``name`` and ``mode`` of
the object and call (so ``layers.Conv3D.forward`` spans carry ``conv1`` and
``train``). Backward rules recorded on a tape while a layer's ``forward`` runs
are wrapped too, so the backward pass is timed rule by rule and charged to
the layer that recorded the rule.

Spans stay in memory until the run ends. Wrapping is installed and removed
around each traced region, so untraced rounds of the same run execute the
program exactly as an untraced run does.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

LAYER_MODULES = ("io", "speech", "visual", "pairs", "layers", "tensor", "model",
                 "training", "metrics", "cli")
STACK_FORWARD = "layers.LayerStack.forward"
BACKWARD_RULE = "tensor.backward_rule"


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    region: str           # outermost span on the thread: the benchmark region
    name: str
    label: str | None     # ``name`` attribute of the object a method ran on
    mode: str | None      # ``mode`` argument, where the callee takes one
    t0: float
    t1: float

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


def _mode_slot(fn):
    """(position, default) of a ``mode`` parameter, or None."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for pos, p in enumerate(params):
        if p.name == "mode":
            return pos, p.default
    return None


class Tracer:
    """Records one span per call into the wrapped ``avmatch`` functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.region_info: dict[int, dict] = {}
        self._ids = itertools.count()
        self._tls = threading.local()
        self._depth = 0
        self._patches = self._plan_patches()

    # ------------------------------------------------------------ wrapping

    def _plan_patches(self):
        modules = {name: importlib.import_module(f"avmatch.{name}") for name in LAYER_MODULES}
        loaded = [m for name, m in sys.modules.items()
                  if m is not None and (name == "avmatch" or name.startswith("avmatch."))]
        patches = []   # (owner, attribute, original, wrapper)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{short}.{attr}", method=False)
                    # rebind every module that imported the function by name
                    for owner in loaded:
                        if vars(owner).get(attr) is obj:
                            patches.append((owner, attr, obj, wrapper))
                elif inspect.isclass(obj):
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(member):
                            continue
                        fn = member
                        if obj.__name__ == "Tape" and mname == "record":
                            fn = self._attribute_rules(member)
                        wrapper = self._wrap(fn, f"{short}.{obj.__name__}.{mname}", method=True)
                        patches.append((obj, mname, member, wrapper))
        return patches

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _wrap(self, fn, name: str, method: bool):
        tracer = self
        slot = _mode_slot(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = getattr(args[0], "name", None) if method and args else None
            mode = None
            if slot is not None:
                pos, default = slot
                mode = kwargs.get("mode", args[pos] if len(args) > pos else default)
            with tracer._span(name, label if isinstance(label, str) else None, mode):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def _span(self, name, label=None, mode=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        region = parent[4] if parent else name
        stack.append((sid, name, label, mode, region))
        t0 = perf_counter()
        try:
            yield sid
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent[0] if parent else None, region,
                                   name, label, mode, t0, t1))

    def _owner_of_rule(self) -> str:
        """'<stream>.<layer>' of the innermost layer forward, else the innermost
        non-tensor span (the loss terms and input reshapes of ``model``)."""
        stack = self._stack()
        layer = None
        for _, name, label, _, _ in reversed(stack):
            if name == STACK_FORWARD:
                if layer is not None:
                    return f"{label}.{layer}"
            elif layer is None and name.startswith("layers.") and name.endswith(".forward"):
                layer = label
        for _, name, _, _, _ in reversed(stack):
            if not name.startswith("tensor."):
                return name
        return "unattributed"

    def _attribute_rules(self, record):
        tracer = self

        @functools.wraps(record)
        def record_timed(tape, output, inputs, backward_fn):
            owner = tracer._owner_of_rule()

            def timed_rule(g):
                with tracer._span(BACKWARD_RULE, owner):
                    return backward_fn(g)

            return record(tape, output, inputs, timed_rule)

        return record_timed

    @contextlib.contextmanager
    def tracing(self):
        """Install the wrappers for the duration of the block (blocks may nest)."""
        self._depth += 1
        if self._depth == 1:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            self._depth -= 1
            if self._depth == 0:
                for owner, attr, original, _ in self._patches:
                    setattr(owner, attr, original)

    @contextlib.contextmanager
    def region(self, name: str, **info):
        """A benchmark-level span; program spans inside it carry its name."""
        with self._span(name) as sid:
            self.region_info[sid] = info
            yield

    # ------------------------------------------------------------ queries

    def select(self, name=None, region=None, label=None, modes=None):
        for s in self.spans:
            if name is not None and s.name != name:
                continue
            if region is not None and s.region != region:
                continue
            if label is not None and s.label != label:
                continue
            if modes is not None and s.mode not in modes:
                continue
            yield s

    def regions(self, name: str):
        return [(s, self.region_info.get(s.sid, {})) for s in self.spans
                if s.name == name and s.parent is None]

    def summary(self) -> dict:
        """Per span name: calls, total ms and self ms (children subtracted)."""
        child_ms: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
        out: dict[str, dict] = {}
        for s in self.spans:
            key = s.name if s.label is None else f"{s.name}[{s.label}]"
            row = out.setdefault(key, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += s.ms
            row["self_ms"] += s.ms - child_ms.get(s.sid, 0.0)
        return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_ms"]))

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": len(self.spans), "by_name": self.summary()},
                                   indent=1))
