"""One per-datum walker for the rival code styles (rpcgen, ORBeline).

Sun's rpcgen and Visigenic's ORBeline print the same kind of stub: the
PRES tree walked datum by datum, every atom marshaled by one call into
the rival's runtime library (:mod:`repro.compilers.xdr_rt`,
:mod:`repro.compilers.cdr_rt`), every named type behind its own pair of
put/get functions.  They differ in how a library call is spelled and in
whether an aggregate is one library routine (rpcgen) or a loop printed
into the stub (ORBeline) — one walk with one spelling per target, as
GOOL prints several languages from one abstract program.

:class:`PerDatumBackEnd` holds the walk and the four per-operation
wrappers (``_m_req_*``, ``_u_req_*``, ``_m_rep_ok_*``/``_m_rep_x*_*``,
``_u_rep_*``).  A comparator mixes it in front of the protocol back end
whose headers it reuses and supplies its spellings and its header
writers (:meth:`declare_header`, :meth:`open_message`,
:meth:`close_message`, :meth:`open_input`).
"""

from __future__ import annotations

from repro.errors import BackEndError
from repro.backend.base import mangle
from repro.core.options import OptFlags
from repro.pres import nodes as p

_AGGREGATES = (p.PresFixedArray, p.PresCountedArray, p.PresOptPtr)


class PerDatumBackEnd:
    """Codec text printed one library call per datum, no marshal IR."""

    #: The rivals have no optimizations to toggle; this is their fixed
    #: behaviour, whatever flags the caller passes.
    baseline_flags = OptFlags.all_off().but(reuse_buffers=True)
    sectioned = False  # the module is one piece and loads whole

    # -- spellings ---------------------------------------------------------
    #: The import line of the rival's runtime library.
    runtime_import = None
    #: A library routine, from direction (``put``/``get``) and name.
    library = None
    #: What a library call passes before its own arguments, by direction.
    lead = None
    #: What a type function takes before its value, by direction.
    stream = None
    #: The left side of a get (``%s`` is the variable it binds).
    got = None
    #: Where an unmarshal function's input ends.
    offset = None
    #: Names of the per-type functions start with this.
    prefix = None
    #: The routines for a status word or count, and for opaque bytes.
    word = None
    opaque = None
    #: Whether an array or optional datum is one library routine (else a
    #: loop printed into the stub).
    aggregate_routines = True
    #: The refusal of the length-carrying string presentation.
    string_refusal = None
    #: ``metadata["operations"][op]["style"]``.
    style = None

    def routine(self, codec):
        """The library routine name for an atom of *codec*."""
        raise NotImplementedError

    # -- header writers ----------------------------------------------------

    def declare_header(self, w, stub, kind, spec):
        """Print what precedes the ``kind`` (``req``/``rep``) marshal
        functions of *stub*."""

    def open_message(self, w, stub, kind, spec):
        """Print the header at the top of a marshal function."""
        raise NotImplementedError

    def close_message(self, w, spec):
        """Print what follows the body of a marshal function."""

    def open_input(self, w):
        """Print the top of an unmarshal function."""

    # -- module assembly ---------------------------------------------------

    def generate(self, presc, flags=None):
        stubs = super().generate(presc, self.baseline_flags)
        # The compiler a comparator stands for printed its codecs at
        # compile: a presentation it cannot express is refused here.
        _ = stubs.py_source
        return stubs

    def _emit_preamble(self, w, presc):
        super()._emit_preamble(w, presc)
        w.line(self.runtime_import)
        w.blank()

    def _emit_codec_functions(self, w, presc, flags, metadata):
        """Every operation's codecs, then the type functions they call;
        no program, and no function compiles on its own."""
        self._w, self._presc = w, presc
        self._pending, self._queued, self._anon = [], set(), 0
        for stub in presc.stubs:
            metadata["operations"][stub.operation_name]["style"] = self.style
            self._emit_request(w, presc, stub)
            if not stub.oneway:
                self._emit_reply(w, presc, stub)
        while self._pending:
            kind, pres, function = self._pending.pop(0)
            if kind == "put":
                with w.block("def %s(%s, v):" % (function, self.stream[kind])):
                    self.emit_put(pres, "v")
            else:
                with w.block("def %s(%s):" % (function, self.stream[kind])):
                    w.line("return " + self.got % self.emit_get(pres))
            w.blank()
        return None

    def _emit_request(self, w, presc, stub):
        name = stub.operation_name
        spec = self.request_header(presc, stub)
        parameters = stub.in_parameters()
        args = ["_a%d" % index for index in range(len(parameters))]
        self.declare_header(w, stub, "req", spec)
        with w.block("def _m_req_%s(b, _ctx%s):"
                     % (name, "".join(", " + arg for arg in args))):
            self.open_message(w, stub, "req", spec)
            for parameter, arg in zip(parameters, args):
                self.emit_put(parameter.pres, arg)
            self.close_message(w, spec)
        w.blank()
        with w.block("def _u_req_%s(d, o):" % name):
            self.open_input(w)
            values = [self.emit_get(parameter.pres)
                      for parameter in parameters]
            w.line("return (%s), %s"
                   % (", ".join(values) + "," if values else "", self.offset))
        w.blank()

    def _emit_reply(self, w, presc, stub):
        name = stub.operation_name
        spec = self.reply_header(presc, stub)
        success, *raised = stub.reply_pres.arms
        fields = success.pres.fields
        results = ["_r_%s" % field.name.lstrip("_") for field in fields]
        self.declare_header(w, stub, "rep", spec)
        with w.block("def _m_rep_ok_%s(b, _ctx%s):"
                     % (name, "".join(", " + result for result in results))):
            self.open_message(w, stub, "rep", spec)
            w.line(self._call("put", self.word, "0"))
            for field, result in zip(fields, results):
                self.emit_put(field.pres, result)
            self.close_message(w, spec)
        w.blank()
        for arm in raised:
            label = arm.labels[0]
            with w.block("def _m_rep_x%d_%s(b, _ctx, _exc):" % (label, name)):
                self.open_message(w, stub, "rep", spec)
                w.line(self._call("put", self.word, "%d" % label))
                self.emit_put(arm.pres, "_exc")
                self.close_message(w, spec)
            w.blank()
        with w.block("def _u_rep_%s(d, o):" % name):
            self.open_input(w)
            w.line("%s = %s" % (self.got % "_d", self._call("get", self.word)))
            with w.block("if _d == 0:"):
                values = [self.emit_get(field.pres) for field in fields]
                w.line("return " + (
                    "None" if not values else values[0] if len(values) == 1
                    else "(%s)" % ", ".join(values)))
            for arm in raised:
                with w.block("elif _d == %d:" % arm.labels[0]):
                    w.line("raise %s" % self.emit_get(arm.pres))
            w.line("raise UnmarshalError('bad reply status %r' % (_d,))")
        w.blank()

    # -- the walk ----------------------------------------------------------

    def _call(self, kind, routine, *args):
        return "%s(%s)" % (self.library % (kind, routine),
                           ", ".join(filter(None, (self.lead[kind],) + args)))

    def _atom(self, mint):
        mint = self._presc.mint_registry.resolve(mint)
        return self.routine(self.wire_format.atom_codec(mint))

    def _function(self, pres, kind):
        """The type function moving one *pres*, queued for printing."""
        if isinstance(pres, p.PresRef):
            function = "%s_%s_%s" % (self.prefix, kind, mangle(pres.name))
            if function in self._queued:
                return function
            self._queued.add(function)
            registry = self._presc.pres_registry
            pres = registry[pres.name]
            if isinstance(pres, p.PresRef):
                pres = registry[pres.name]
        else:
            self._anon += 1
            function = "%s_%s_anon%d" % (self.prefix, kind, self._anon)
        self._pending.append((kind, pres, function))
        return function

    def _aggregate(self, pres, kind):
        """The library routine moving an array or optional datum, and its
        arguments after the value."""
        element = pres.element
        ref = self.library % (kind, self._atom(element.mint)) \
            if isinstance(element, (p.PresDirect, p.PresEnum)) \
            else self._function(element, kind)
        if isinstance(pres, p.PresFixedArray):
            return "vector", ("%d" % pres.length, ref)
        if isinstance(pres, p.PresCountedArray):
            return "array", (ref, repr(pres.bound))
        return "pointer", (ref,)

    def _bytes(self, pres):
        if pres.fixed_length is not None:
            return self.opaque + "_fixed", "%d" % pres.fixed_length
        return self.opaque, repr(pres.bound)

    def emit_put(self, pres, expr):
        """Print the statements marshaling *expr*, presented as *pres*."""
        w = self._w
        if isinstance(pres, p.PresVoid):
            w.line("pass")
        elif isinstance(pres, (p.PresDirect, p.PresEnum)):
            w.line(self._call("put", self._atom(pres.mint), expr))
        elif isinstance(pres, p.PresRef):
            w.line("%s(%s, %s)" % (self._function(pres, "put"),
                                   self.stream["put"], expr))
        elif isinstance(pres, p.PresString):
            if pres.carries_length:
                raise BackEndError(self.string_refusal)
            w.line(self._call("put", "string", expr, repr(pres.bound)))
        elif isinstance(pres, p.PresBytes):
            routine, size = self._bytes(pres)
            w.line(self._call("put", routine, expr, size))
        elif isinstance(pres, _AGGREGATES):
            if self.aggregate_routines:
                routine, args = self._aggregate(pres, "put")
                w.line(self._call("put", routine, expr, *args))
            else:
                self._put_loop(pres, expr)
        elif isinstance(pres, (p.PresStruct, p.PresException)):
            for field in pres.fields:
                self.emit_put(field.pres, "%s.%s" % (expr, field.name))
            if not pres.fields:
                w.line("pass")
        elif isinstance(pres, p.PresUnion):
            disc, payload = w.temp("_d"), w.temp("_u")
            w.line("%s, %s = %s" % (disc, payload, expr))
            w.line(self._call("put", self._atom(pres.mint.discriminator),
                              disc))
            self._arms(pres, disc, "MarshalError",
                       lambda arm: self.emit_put(arm.pres, payload))
        else:
            raise BackEndError("%s cannot marshal %r"
                               % (self.name, type(pres).__name__))

    def emit_get(self, pres):
        """Print decode statements; returns the value expression."""
        w = self._w
        if isinstance(pres, p.PresVoid):
            return "None"
        if isinstance(pres, (p.PresStruct, p.PresException)):
            values = [self.emit_get(field.pres) for field in pres.fields]
            var = w.temp("_v")
            w.line("%s = %s(%s)" % (var, mangle(
                pres.record_name if isinstance(pres, p.PresStruct)
                else pres.class_name), ", ".join(values)))
            return var
        if isinstance(pres, p.PresUnion):
            disc = w.temp("_d")
            w.line("%s = %s" % (self.got % disc, self._call(
                "get", self._atom(pres.mint.discriminator))))
            var = w.temp("_v")
            self._arms(pres, disc, "UnmarshalError", lambda arm: w.line(
                "%s = (%s, %s)" % (var, disc, self.emit_get(arm.pres))))
            return var
        if isinstance(pres, _AGGREGATES) and not self.aggregate_routines:
            return self._get_loop(pres)
        var = w.temp("_v")
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            call = self._call("get", self._atom(pres.mint))
        elif isinstance(pres, p.PresRef):
            call = "%s(%s)" % (self._function(pres, "get"),
                               self.stream["get"])
        elif isinstance(pres, p.PresString):
            call = self._call("get", "string", repr(pres.bound))
        elif isinstance(pres, p.PresBytes):
            call = self._call("get", *self._bytes(pres))
        elif isinstance(pres, _AGGREGATES):
            routine, args = self._aggregate(pres, "get")
            call = self._call("get", routine, *args)
        else:
            raise BackEndError("%s cannot unmarshal %r"
                               % (self.name, type(pres).__name__))
        w.line("%s = %s" % (self.got % var, call))
        return var

    def _arms(self, pres, disc, error, emit_arm):
        """An if-chain over the union's labels, *emit_arm* in each."""
        w = self._w
        keyword, default = "if", None
        for arm in pres.arms:
            if arm.is_default:
                default = arm
                continue
            with w.block("%s %s:" % (keyword, (
                    "%s == %r" % (disc, arm.labels[0])
                    if len(arm.labels) == 1
                    else "%s in %r" % (disc, tuple(arm.labels))))):
                emit_arm(arm)
            keyword = "elif"
        with w.block("else:" if keyword == "elif" else "if True:"):
            if default is not None:
                emit_arm(default)
            else:
                w.line("raise %s('no union arm for ' + repr(%s))"
                       % (error, disc))

    # -- aggregates as loops in the stub -----------------------------------

    def _put_loop(self, pres, expr):
        w = self._w
        if isinstance(pres, p.PresOptPtr):
            with w.block("if %s is None:" % expr):
                w.line(self._call("put", self.word, "0"))
            with w.block("else:"):
                w.line(self._call("put", self.word, "1"))
                self.emit_put(pres.element, expr)
            return
        if isinstance(pres, p.PresFixedArray):
            with w.block("if len(%s) != %d:" % (expr, pres.length)):
                w.line("raise MarshalError('fixed array needs %d elements')"
                       % pres.length)
        else:
            if pres.bound is not None:
                with w.block("if len(%s) > %d:" % (expr, pres.bound)):
                    w.line("raise MarshalError('array exceeds bound %d')"
                           % pres.bound)
            w.line(self._call("put", self.word, "len(%s)" % expr))
        element = w.temp("_e")
        with w.block("for %s in %s:" % (element, expr)):
            self.emit_put(pres.element, element)

    def _get_loop(self, pres):
        w = self._w
        if isinstance(pres, p.PresOptPtr):
            flag, var = w.temp("_n"), w.temp("_v")
            w.line("%s = %s" % (self.got % flag, self._call("get", self.word)))
            with w.block("if %s == 0:" % flag):
                w.line("%s = None" % var)
            with w.block("else:"):
                w.line("%s = %s" % (var, self.emit_get(pres.element)))
            return var
        if isinstance(pres, p.PresFixedArray):
            count = "%d" % pres.length
        else:
            count = w.temp("_n")
            w.line("%s = %s"
                   % (self.got % count, self._call("get", self.word)))
            if pres.bound is not None:
                with w.block("if %s > %d:" % (count, pres.bound)):
                    w.line("raise UnmarshalError('array exceeds bound %d')"
                           % pres.bound)
        var = w.temp("_v")
        w.line("%s = []" % var)
        with w.block("for _ in range(%s):" % count):
            w.line("%s.append(%s)" % (var, self.emit_get(pres.element)))
        return var
