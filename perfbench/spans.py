"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, run id).  Spans are kept in a list
while a run executes and written out once, when the run ends.  The
recorder installs timing wrappers on names of the pcddg package from the
benchmark's side only: each name is patched where its caller resolves it
(module globals, class attributes), and every patch is undone afterwards,
so the untraced runs execute the program's own objects.
"""

import functools
import json
import time

NAME, START, END, PARENT, RUN = range(5)


class SpanRecorder:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, run id]
        self.counters = {}
        self.run_id = ""
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    # -- recording -------------------------------------------------------
    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def timed(self, name, fn, before=None, after=None):
        """fn wrapped in a span; before(args, kwargs) may return replaced
        (args, kwargs), after(args, result_or_exception) sees the outcome."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(args, exc)
                raise
            finally:
                self.close()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr (a module global, or a method defined on the
        class owner) by a timed wrapper around it."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, before, after))

    def restore(self):
        """Put every patched name back to the object it held before."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME],
                                     "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "run": s[RUN]})
                         + "\n")


# ---------------------------------------------------------------------------
# arithmetic on a finished span list

def children_of(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for a, b in sorted(intervals):
        if reach is None or a > reach:
            total += b - a
            reach = b
        elif b > reach:
            total += b - reach
            reach = b
    return total


def self_time(spans, kids, i):
    """Span duration minus the part of it that its child spans cover."""
    s = spans[i]
    return (s[END] - s[START]) - covered(
        [(spans[c][START], spans[c][END]) for c in kids[i]])


def coverage(spans, kids, i):
    """Share of span i's duration covered by its child spans."""
    s = spans[i]
    return covered([(spans[c][START], spans[c][END])
                    for c in kids[i]]) / (s[END] - s[START])


def has_ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def outermost(spans, names):
    """Indices of spans named in `names` with no ancestor named in `names`."""
    out = []
    for i, s in enumerate(spans):
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            out.append(i)
    return out
