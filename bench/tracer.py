"""Outside-in tracer for gcdlab.

Functions are wrapped from the benchmark's side by replacing module and
class attributes; gcdlab itself is not edited.  A function imported by name
(``from .gengcd import _finite_core``) keeps its own binding in the
importing module, so every attribute of every loaded gcdlab module that
holds the original object is replaced.  Spans are not stored one by one:
each (function, caller) edge accumulates its call count, total time and
self time in memory, which keeps the cost bounded for functions called
millions of times.

Self time is a span's duration minus the time of the traced spans it
caused.  ``total_s`` counts only outermost entries, so recursion is not
counted twice."""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "gcdlab"
_END = object()


class Tracer:
    def __init__(self):
        self.enabled = False
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []      # [name, child_seconds]
        self._depth: dict[str, int] = {}
        self.edges: dict[tuple[str, str | None], list] = {}  # calls, total, self
        self.outer_total: dict[str, float] = {}
        self.max_probe: dict[str, int] = {}
        self.raised: dict[str, int] = {}

    # -- patching ------------------------------------------------------
    def resolve(self, target: str):
        """'logreal.LogReal.cmp' -> (owner class or None, attribute, original)."""
        parts = target.split(".")
        module = importlib.import_module(f"{PACKAGE}.{parts[0]}")
        if len(parts) == 2:
            return None, parts[1], getattr(module, parts[1])
        if len(parts) == 3:
            cls = getattr(module, parts[1])
            return cls, parts[2], cls.__dict__[parts[2]]
        raise ValueError(f"bad trace target {target!r}")

    def patch(self, target: str, replacement) -> None:
        """Replace a function at every binding site (or a method on its
        class); undone by restore()."""
        owner, attr, original = self.resolve(target)
        if owner is not None:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, replacement)

    def trace(self, target: str, probe=None) -> None:
        """Wrap a function so each call records a span.  ``probe`` maps the
        first argument to an int whose maximum is kept (e.g. bit length)."""
        _, _, original = self.resolve(target)
        if inspect.isgeneratorfunction(original):
            self.patch(target, self._wrap_generator(target, original))
        else:
            self.patch(target, self._wrap(target, original, probe))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans ---------------------------------------------------------
    def reset_stack(self) -> None:
        """Drop open spans; needed after an asynchronous exception (a
        deadline) may have interrupted a wrapper's bookkeeping."""
        self._stack.clear()
        self._depth.clear()

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        depth = self._depth
        depth[name] = depth.get(name, 0) + 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self._note_raise(exc)
            raise
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            rec = self.edges.get((name, parent))
            if rec is None:
                rec = self.edges[(name, parent)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]
            depth[name] -= 1
            if not depth[name]:
                self.outer_total[name] = self.outer_total.get(name, 0.0) + dt

    def _note_raise(self, exc: BaseException) -> None:
        # count each exception once, at the innermost traced frame it leaves
        if getattr(exc, "_bench_counted", False):
            return
        try:
            exc._bench_counted = True
        except AttributeError:
            pass
        key = type(exc).__name__
        self.raised[key] = self.raised.get(key, 0) + 1

    def _wrap(self, name, fn, probe):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if probe is not None and args:
                value = probe(args[0])
                if value > tracer.max_probe.get(name, -1):
                    tracer.max_probe[name] = value
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    def _wrap_generator(self, name, fn):
        """Time each next() of the generator, not only its creation; time
        spent by the consumer between items is not counted here."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.enabled:
                yield from it
                return
            while True:
                item = tracer._call(name, next, (it, _END), {})
                if item is _END:
                    return
                yield item

        return wrapper

    # -- results -------------------------------------------------------
    def functions(self) -> dict[str, dict]:
        """Per function: calls and self time summed over callers, and
        outermost total time."""
        out: dict[str, dict] = {}
        for (name, _), (calls, _, self_s) in self.edges.items():
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            rec["calls"] += calls
            rec["self_s"] += self_s
        for name, total in self.outer_total.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            out[name]["total_s"] = total
        return out

    def edge_table(self) -> list[dict]:
        rows = [
            {"function": name, "caller": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in self.edges.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
