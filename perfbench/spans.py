"""Outside-in tracing of hypermat: wrap public functions, record spans.

The program itself is not instrumented.  ``Tracer`` replaces each target
function with a wrapper, both where it is defined and under every name
another ``hypermat`` module imported it as, and puts every original back
on exit.  Each call becomes one span: name, start, end and the span that
was open when it began.  Spans are kept in flat arrays so that millions of
scalar-operation calls fit in memory, and are written out only at the end.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array


class Tracer:
    """Context manager that traces calls of ``targets`` while it is open.

    ``targets`` is a list of ``(name, owner, attribute, size)``: the
    function is ``getattr(owner, attribute)`` and ``size``, when not None,
    maps ``(args, result)`` to a number stored with the span (a candidate
    count, a vector count, ...).  ``owner`` may be a list, in which case
    ``attribute`` is an index.
    """

    def __init__(self, targets):
        self.targets = targets
        self.names = [t[0] for t in targets]
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sizes: dict[int, float] = {}
        self._stack = [-1]
        self._saved = []

    def __enter__(self):
        try:
            for idx, (_, owner, attr, size) in enumerate(self.targets):
                original = _get(owner, attr)
                wrapper = self._wrap(idx, original, size)
                self._saved.append((owner, attr, original))
                _set(owner, attr, wrapper)
                if not isinstance(owner, (type, list)):
                    for mod, name in _importers(original):
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            _set(owner, attr, original)
        return False

    def reset(self):
        """Drop the spans recorded so far."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.sizes.clear()

    def _wrap(self, idx, fn, size):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, sizes = self._stack, self.sizes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if size is not None:
                sizes[i] = size(args, result)
            return result

        return wrapper

    def summary(self):
        """{name: (calls, self seconds, total seconds, summed size)}.

        A span's self time is its duration minus the durations of its
        direct children.  Spans nest properly in one thread, so the children
        of a span cover disjoint parts of its interval.
        """
        start, end = self.start, self.end
        own = array("d", end)
        for i, p in enumerate(self.parent):
            d = end[i] - start[i]
            own[i] -= start[i]
            if p >= 0:
                own[p] -= d
        k = len(self.names)
        calls, self_s, total_s, sizes = [0] * k, [0.0] * k, [0.0] * k, [0.0] * k
        for i, n in enumerate(self.name_id):
            calls[n] += 1
            self_s[n] += own[i]
            total_s[n] += end[i] - start[i]
        for i, v in self.sizes.items():
            sizes[self.name_id[i]] += v
        return {
            name: (calls[j], self_s[j], total_s[j], sizes[j]) for j, name in enumerate(self.names)
        }

    def spans_under(self, name, ancestors) -> list[int]:
        """Indices of ``name`` spans that have a span named in ``ancestors`` above them."""
        want = self.names.index(name)
        anc = {self.names.index(a) for a in ancestors}
        inside = bytearray(len(self.name_id))
        out = []
        for i, (n, p) in enumerate(zip(self.name_id, self.parent)):
            above = p >= 0 and inside[p]
            inside[i] = n in anc or above
            if n == want and above:
                out.append(i)
        return out

    def count_under(self, name, ancestors) -> int:
        return len(self.spans_under(name, ancestors))

    def size_under(self, name, ancestors) -> float:
        return sum(self.sizes.get(i, 0) for i in self.spans_under(name, ancestors))

    def write(self, path):
        """Write the spans as gzipped tab-separated lines: name, start, end, parent.

        Times are seconds since the first span; parent is a line index
        (0 for the first span line), or -1 for none.
        """
        t0 = self.start[0] if self.start else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            fh.writelines(
                f"{names[n]}\t{s - t0:.7f}\t{e - t0:.7f}\t{p}\n"
                for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
            )


def _get(owner, attr):
    return owner[attr] if isinstance(owner, list) else owner.__dict__[attr]


def _set(owner, attr, value):
    if isinstance(owner, list):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _importers(fn):
    """(module, name) pairs of hypermat modules that hold ``fn`` by name."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname != "hypermat" and not modname.startswith("hypermat."):
            continue
        for name, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, name))
    return out
