"""Spans around calls into dop's layers, recorded from outside the package.

`Tracer.wrap` replaces a function or method attribute with a wrapper that
records a span (name, layer, start, end, parent span, sentence id) around
each call, then restores the original on `restore`. Counts are taken by
`after` hooks at the same boundaries; their own time is recorded as a span
of the `trace` layer so that it is not charged to the caller's self time.

Functions called once per tree node (depth-1 extraction) are wrapped as
"hot": each call adds to one (calls, seconds) tally per parent span rather
than a span of its own, which keeps the tracer's cost and memory bounded.
Spans stay in memory until `write` puts them out as JSON lines.
"""

import json
import time
from collections import defaultdict

_now = time.perf_counter

# span record fields
NAME, LAYER, START, END, PARENT, SENTENCE = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.hot = defaultdict(lambda: [0, 0.0])   # (name, layer, parent)
        self.sentence = None
        self._sentences = 0
        self._open = []
        self._patches = []

    def open(self, name, layer):
        parent = self._open[-1] if self._open else None
        record = [name, layer, _now(), None, parent, self.sentence]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record):
        record[END] = _now()
        self._open.pop()

    def wrap(self, owner, attr, layer, name=None, after=None, hot=False,
             new_sentence=False):
        """Trace calls to owner.attr. `after(record, result, args)` records
        counts; `new_sentence` gives the call and its children a fresh
        sentence id."""
        original = getattr(owner, attr)
        name = name or attr
        tracer = self

        if hot:
            def wrapper(*args, **kwargs):
                started = _now()
                try:
                    return original(*args, **kwargs)
                finally:
                    parent = tracer._open[-1] if tracer._open else None
                    tally = tracer.hot[(name, layer, parent)]
                    tally[0] += 1
                    tally[1] += _now() - started
        else:
            def wrapper(*args, **kwargs):
                if new_sentence:
                    tracer.sentence = tracer._sentences
                    tracer._sentences += 1
                record = tracer.open(name, layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(record)
                    if new_sentence:
                        tracer.sentence = None
                if after is not None:
                    counting = tracer.open("count:" + name, "trace")
                    try:
                        after(record, result, args)
                    finally:
                        tracer.close(counting)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name):
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def hot_seconds(self, name):
        return sum(t[1] for (n, _, _), t in self.hot.items() if n == name)

    def self_times(self):
        """Seconds per layer not covered by that layer's child spans."""
        covered = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        for (_, _, parent), (_, seconds) in self.hot.items():
            if parent is not None:
                covered[parent] += seconds
        per_layer = defaultdict(float)
        for index, span in enumerate(self.spans):
            per_layer[span[LAYER]] += (span[END] - span[START]
                                       - covered[index])
        for (_, layer, _), (_, seconds) in self.hot.items():
            per_layer[layer] += seconds
        return dict(per_layer)

    def write(self, path):
        with open(path, "w", encoding="utf8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span[NAME], "layer": span[LAYER],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT], "sentence": span[SENTENCE]})
                    + "\n")
            for (name, layer, parent), (calls, seconds) in self.hot.items():
                handle.write(json.dumps({
                    "name": name, "layer": layer, "parent": parent,
                    "calls": calls, "seconds": seconds}) + "\n")
