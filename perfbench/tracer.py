"""In-memory span tracer that wraps the program's functions from outside.

Each wrapped function records one span per call: its layer name (the
defining module's short name plus the function name, for example
``estimator.fit``), start, end, parent span and a few attributes that
hooks fill in.  Nothing in the program is edited: the wrapper replaces the
attribute a caller looks the function up through, for example
``evidem.simulation.fit`` or ``evidem.cli.read_dataset_csv``, and
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import time


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.attrs: dict = {}

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part of it that child spans cover."""
        return self.end - self.start - self.child_s


class Tracer:
    """Wraps functions in caller namespaces and keeps every span in memory.

    ``on_call[layer](span, args, kwargs)`` runs before the call and
    ``on_return[layer](span, args, kwargs, result, exc)`` after it, outside
    the span's own interval.
    """

    def __init__(self, on_call=None, on_return=None):
        self.spans: list[Span] = []
        self.on_call = dict(on_call or {})
        self.on_return = dict(on_return or {})
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str) -> None:
        orig = getattr(module, attr)
        layer = f"{orig.__module__.rsplit('.', 1)[-1]}.{orig.__name__}"
        before = self.on_call.get(layer)
        after = self.on_return.get(layer)
        stack, spans = self._stack, self.spans

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else None)
            if before is not None:
                before(span, args, kwargs)
            stack.append(span)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                spans.append(span)
                if after is not None:
                    after(span, args, kwargs, result, exc)

        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def wrap_public(self, module, package: str, extra: tuple[str, ...] = ()) -> None:
        """Wrap every public function ``module`` looks up that ``package`` defines, plus ``extra``."""
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__.split(".")[0] == package:
                self.wrap(module, attr)
        for attr in extra:
            self.wrap(module, attr)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per layer name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_s
        return out

    def dump(self) -> list[dict]:
        """JSON-ready spans with integer ids and parent ids, in end order."""
        ids = {id(s): k for k, s in enumerate(self.spans)}
        return [
            {
                "id": ids[id(s)],
                "name": s.name,
                "parent": None if s.parent is None else ids.get(id(s.parent)),
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                **{k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str, bool))},
            }
            for s in self.spans
        ]
