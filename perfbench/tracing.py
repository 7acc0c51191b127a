"""Outside-in tracing of splitmerge's layers.

The benchmark wraps public functions at module boundaries (for example
``steinfarley.apply_move``, ``trees.validate_forest``, ``Diagram.__init__``,
``homology.smith_normal_form`` and every ``verify.RUNNERS`` entry) and times
the calls from its own files; nothing in ``src/`` is changed.

Each wrapped call has a layer name such as ``diagrams.move``. Several
functions may share one name (``apply_move``, ``split_foot`` and
``merge_feet`` are all ``diagrams.move``); a call made while a call of the
same name is already running is not counted again, so recursion and
delegation between aliases count once, at the outermost call.

Coarse calls are kept as spans (name, start, end, parent span, item id) in
memory and written out at the end of the run. Hot calls (tens of thousands
per pass) are only aggregated into call counts and inclusive and self times.
Self time is a call's duration minus the time of the wrapped calls directly
inside it. Work done by the tracer's own counting hooks is excluded from
every duration.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Per-process collector of layer spans, call counts and counters."""

    def __init__(self):
        self.enabled = False
        self.item = None
        self.spans = []
        self._stack = []
        self._active = defaultdict(int)
        self._paused = 0.0
        self._undo = []
        self._warned = set()
        self.reset()

    def reset(self):
        """Start a new accumulation window (one pass); spans are kept."""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def warn(self, message: str):
        """Report a wrapper that no longer fits the program, once; the run
        goes on with that counter short."""
        if message not in self._warned:
            self._warned.add(message)
            print(f"perfbench: {message}", file=sys.stderr)

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def count(self, name: str, n=1):
        self.counts[name] += n

    def wrap(self, name: str, fn, span: bool = True, after=None,
             before=None):
        """Return a timing wrapper for fn under the layer name.

        before(args) runs first and its value is passed as the third
        argument of after(result, args, state), which runs on success; both
        are excluded from the measured durations.
        """
        tracer = self
        stack = self._stack
        active = self._active

        def wrapper(*args, **kwargs):
            if not tracer.enabled or active[name]:
                return fn(*args, **kwargs)
            state = None
            if before is not None:
                h0 = _clock()
                try:
                    state = before(args)
                except (AttributeError, KeyError, TypeError) as exc:
                    tracer.warn(f"counter of {name} failed: {exc!r}")
                tracer._paused += _clock() - h0
            parent = stack[-1] if stack else None
            span_id = None
            if span:
                span_id = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0,
                                     parent[1] if parent else None,
                                     tracer.item])
            elif parent is not None:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            paused0 = tracer._paused
            start = _clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = _clock()
                active[name] -= 1
                stack.pop()
                dur = end - start - (tracer._paused - paused0)
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if span:
                    rec = tracer.spans[span_id]
                    rec[1] = start
                    rec[2] = end
            if ok and after is not None:
                h0 = _clock()
                try:
                    after(result, args, state)
                except (AttributeError, KeyError, TypeError) as exc:
                    tracer.warn(f"counter of {name} failed: {exc!r}")
                tracer._paused += _clock() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing wrappers ------------------------------------------------

    def patch_function(self, package, module_name: str, attr: str,
                       name: str, **options):
        """Wrap a module-level function everywhere the package imported it.

        Modules bind imported names at import time, so the wrapper replaces
        the original object in every loaded module of the package.
        """
        module = sys.modules.get(f"{package.__name__}.{module_name}")
        original = getattr(module, attr, None) if module else None
        if original is None:
            self.warn(f"cannot trace {module_name}.{attr}: not found")
            return
        wrapped = self.wrap(name, original, **options)
        prefix = package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix
                                   or mod_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((setattr, mod, key, original))

    def patch_method(self, cls, attr: str, name: str, **options):
        original = cls.__dict__.get(attr)
        if original is None:
            self.warn(f"cannot trace {cls.__name__}.{attr}: not found")
            return
        if isinstance(original, property):
            wrapped = property(self.wrap(name, original.fget, **options))
        else:
            wrapped = self.wrap(name, original, **options)
        setattr(cls, attr, wrapped)
        self._undo.append((setattr, cls, attr, original))

    def patch_dict(self, mapping: dict, key, name: str, **options):
        original = mapping[key]
        mapping[key] = self.wrap(name, original, **options)
        self._undo.append((mapping.__setitem__, key, original))

    def uninstall(self):
        for action in reversed(self._undo):
            action[0](*action[1:])
        self._undo = []
        self.enabled = False

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        return {name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)}

    def write(self, path, summaries: list):
        """Write the spans as JSON lines, preceded by one line holding the
        per-pass summaries (calls, inclusive and self time per name)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"passes": summaries}) + "\n")
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item}) + "\n")
