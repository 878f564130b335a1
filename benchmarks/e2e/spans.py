"""The benchmark's own span recorder.

Spans are recorded from outside the program, around the calls into each
layer; the serving tracer's flush trees are imported into the same list.
Everything stays in memory until :meth:`Spans.dump`.
"""

import json
from collections import defaultdict


class Spans:
    """A flat list of ``(name, start, end, parent index, request id)``."""

    def __init__(self):
        self.rows = []

    def add(self, name, start, end, parent=None, req=None):
        self.rows.append((name, start, end, parent, req))
        return len(self.rows) - 1

    def import_tracer(self, tracer):
        """Copy a `repro.obs.Tracer`'s finished spans, keeping the tree.

        A child is named ``<parent>.<name>`` (``flush.execute`` versus
        ``request.execute``): the tracer reuses names across its trees.
        """
        spans = tracer.finished_spans()
        by_id = {s.span_id: (len(self.rows) + i, s.name)
                 for i, s in enumerate(spans)}
        for s in spans:
            index, parent_name = by_id.get(s.parent_id, (None, None))
            name = s.name if index is None else f"{parent_name}.{s.name}"
            self.add(name, s.start_t, s.end_t, index,
                     s.attributes.get("request_id"))

    def self_times(self, first=0):
        """name -> (count, total duration, total self time), in seconds,
        over the spans recorded from index ``first`` on.

        Self time is the span's duration minus the part of it that its
        child spans cover (children of one parent do not overlap here).
        """
        rows = self.rows
        covered = defaultdict(float)
        for _, start, end, parent, _ in rows[first:]:
            if parent is not None:
                p = rows[parent]
                covered[parent] += max(0.0, min(end, p[2]) - max(start, p[1]))
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(first, len(rows)):
            name, start, end = rows[i][:3]
            acc = out[name]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += (end - start) - covered[i]
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path, **header):
        with open(path, "w") as f:
            json.dump(dict(header, columns=["name", "start_s", "end_s",
                                            "parent", "request_id"],
                           spans=self.rows), f)
