"""The benchmark's own span recorder (no instrumentation inside repro).

A span is ``[name, start_ns, end_ns, parent, op_id]``; *parent* is the
index of the span that was open when this one began (-1 for a root) and
*op_id* numbers the benchmark op that caused it.  Every traced pass is a
closed loop with one op in flight, so the caller blocked in ``recv`` and
the server thread doing the work are strictly nested in time and one
shared stack of open spans is enough to parent spans across threads.

A layer's time within an op is the *self time* of its spans: duration
minus the part covered by child spans.  Spans live in memory and are
written out by the caller when the run ends.
"""

from time import perf_counter_ns

#: Generated codec entry prefix -> the layer it is reported under.
CODEC_LAYERS = (
    ("_m_req_", "stubs.req_encode"),
    ("_u_req_", "stubs.req_decode"),
    ("_m_rep_ok_", "stubs.rep_encode"),
    ("_u_rep_", "stubs.rep_decode"),
)

#: The root span of one benchmark op; its self time is what no layer
#: claims (client proxy glue, the loop itself).
OP = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._open = []
        self._saved = []

    # -- recording ------------------------------------------------------

    def begin(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, 0, 0, parent, self.op_id]
        self.spans.append(span)
        self._open.append(index)
        span[1] = perf_counter_ns()
        return span

    def end(self, span):
        span[2] = perf_counter_ns()
        self._open.pop()

    def add(self, name, start_ns, duration_ns):
        """A span whose duration was measured elsewhere."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start_ns, start_ns + duration_ns, parent,
                           self.op_id])

    def wrap(self, name, function):
        """*function* timed as one span named *name* per call."""
        begin, end = self.begin, self.end

        def traced(*args):
            span = begin(name)
            try:
                return function(*args)
            finally:
                end(span)

        return traced

    def wrap_async(self, name, function):
        begin, end = self.begin, self.end

        async def traced(*args):
            span = begin(name)
            try:
                return await function(*args)
            finally:
                end(span)

        return traced

    def timed(self, name, function, *args):
        """Call ``function(*args)`` inside a span; returns its result."""
        span = self.begin(name)
        try:
            return function(*args)
        finally:
            self.end(span)

    # -- codec wrappers ---------------------------------------------------

    def install_codecs(self, result):
        """Put timing wrappers over the entries ``codec_table`` names.

        Generated clients and dispatch handlers look codecs up in the
        stub module's globals at call time, so a store into the module
        is all it takes; :meth:`restore` undoes it.
        """
        module = result.module
        for entries in result.codec_table.values():
            for name, function in entries.items():
                for prefix, layer in CODEC_LAYERS:
                    if name.startswith(prefix):
                        self._saved.append((module, name, function))
                        setattr(module, name, self.wrap(layer, function))

    def restore(self):
        while self._saved:
            module, name, function = self._saved.pop()
            setattr(module, name, function)

    def servant(self, servant, methods):
        """A stand-in for *servant* whose *methods* record spans."""
        return _TracedServant(self, servant, methods)

    # -- aggregation ----------------------------------------------------

    def per_op(self):
        """``{op_id: {span name: self-time ns}}`` plus each op's total.

        The op's total (the root :data:`OP` span's duration) is stored
        under the key ``"total"``; time no child claims stays under
        :data:`OP`.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        ops = {}
        for index, (name, start, end, _parent, op_id) in enumerate(spans):
            layers = ops.setdefault(op_id, {})
            layers[name] = (layers.get(name, 0) + end - start
                            - child_ns[index])
            if name == OP:
                layers["total"] = end - start
        return ops

    def rows(self):
        """Spans as JSON-ready rows."""
        return [
            {"name": name, "start_ns": start, "end_ns": end,
             "parent": parent, "op_id": op_id}
            for name, start, end, parent, op_id in self.spans
        ]


class _TracedServant:
    def __init__(self, tracer, servant, methods):
        for method in methods:
            setattr(self, method,
                    tracer.wrap("servant", getattr(servant, method)))
