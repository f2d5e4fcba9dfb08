"""In-memory spans and counters around the calls a sweep makes into each layer.

A `Tracer` patches module attributes with timing wrappers, records one span
(name, start, end, parent, run id) per wrapped call, and puts every original
attribute back on `restore()`.  Wrappers only time and count: they call the
original with the same arguments and return its result unchanged, so a
traced sweep computes exactly what an untraced one does.

Nothing here imports microhom; `run.py` says which names to wrap.
"""

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1, run id]
        self.counts = Counter()
        self.run_id = 0
        self._stack = []
        self._patched = []     # (owner, attribute, original)

    # -- spans ------------------------------------------------------------
    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def timed(self, fn, name):
        """`fn` wrapped in a span called `name`."""
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return wrapper

    # -- patching ---------------------------------------------------------
    def patch(self, owner, attr, make_wrapper):
        """Replace owner.attr by make_wrapper(original); False when absent."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export -----------------------------------------------------------
    def records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r in self.spans]


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def has_ancestor(spans, index, prefix):
    """True when some enclosing span of spans[index] has a name starting with prefix."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def summarize(spans, run_id, inside=None):
    """Self-time totals and span counts by name for one run.

    `inside` maps a name to a prefix: spans with that name count only when
    an enclosing span's name starts with the prefix.
    """
    inside = inside or {}
    own = self_times(spans)
    total = defaultdict(float)
    calls = Counter()
    for i, (name, _, _, _, run) in enumerate(spans):
        if run != run_id:
            continue
        if name in inside and not has_ancestor(spans, i, inside[name]):
            continue
        total[name] += own[i]
        calls[name] += 1
    return total, calls


def uncovered(spans, root):
    """Time of span `root` that none of its direct children covers."""
    _, start, end, _, _ = spans[root]
    return (end - start) - sum(e - s for _, s, e, p, _ in spans if p == root)
