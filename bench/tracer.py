"""Spans recorded from outside the program, by replacing module attributes.

``dmasim`` modules bind the functions they call at import time
(``from .tensor_ops import pinv``), so a wrapper must replace the name in
the module that calls it (``receiver.pinv``), not where it is defined.
Each thread keeps its own span stack and counters, so spans of trials that
run in the campaign's thread pool nest correctly; counters are merged when
the run ends.  A span's self time is its duration minus the durations of
the wrapped spans it called directly.
"""

import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    durations_s: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # filled by observers

    def merge(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.inclusive_s += other.inclusive_s
        self.self_s += other.self_s
        self.durations_s.extend(other.durations_s)
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Installs span wrappers with ``patch`` and removes them with ``restore``.

    An observer ``observe(counts, args, kwargs, result)`` may add to the
    span's per-thread ``counts`` after each call that returns.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[dict] = []
        self._patched: list[tuple] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._thread_stats.append(state[1])
        return state

    def patch(self, module, attr: str, span: str, observe=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack, stats = self._state()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                st = stats.get(span)
                if st is None:
                    st = stats[span] = SpanStats()
                st.calls += 1
                st.inclusive_s += elapsed
                st.self_s += elapsed - children
                st.durations_s.append(elapsed)
            if observe is not None:
                observe(st.counts, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))
        self.installed.add(span)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, SpanStats]:
        """Counters of every span, merged over threads."""
        merged: dict[str, SpanStats] = {}
        with self._lock:
            for stats in self._thread_stats:
                for span, st in stats.items():
                    merged.setdefault(span, SpanStats()).merge(st)
        return merged
