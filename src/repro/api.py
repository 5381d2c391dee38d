"""The compiler's one entry point.

Figure 1 of the paper, one call for every IDL language Flick
understands: a front end parses the input and lowers it to AOI, a
presentation generator maps each AOI interface to PRES_C, and a back end
turns PRES_C into stubs.  Any front end composes with any presentation
generator and any back end::

    from repro import api

    result = api.compile(open("mail.idl").read())          # auto-detect
    result = api.compile(text, "oncrpc", backend="oncrpc-xdr")
    result = api.compile(SomeDataclass)                    # pyschema
    module = result.module

Language selection is explicit (``lang=``), by file extension (pass the
file name via ``name=``), or by content heuristics; all three are
answered by the self-registering front-end registry
(:mod:`repro.frontends`), so the facade itself enumerates no languages.
Non-text schema inputs — a dataclass, an ``@interface`` class, or a
module object — route to whichever front end claims them (the pyschema
front end, today).  To run the front end alone:
``frontends.get(lang).compile_frontend(text, name)``.

MIG is the paper's conjoined front end: its ``lower`` phase produces
PRES_C directly, so MIG results carry ``aoi=None`` — everything
downstream of the presentation (``presc``, ``stubs``, ``module``,
timings) behaves identically across languages.
"""

from __future__ import annotations

from time import perf_counter

from repro import frontends
from repro.core.compiler import DEFAULT_BACKEND, CompileResult
from repro.core.options import OptFlags
from repro.errors import BackEndError, FlickError
from repro.obs import trace


def detect_lang(text, name=None):
    """Detect the IDL language of *text*: extension first, then content.

    Non-text schema objects (dataclasses, modules) are attributed to the
    front end that accepts them.  Raises :class:`FlickError` when nothing
    matches — the message names, per language, the trigger patterns that
    were tried (and the filename, when one was given).
    """
    return _front_end(text, None, name).name


def _front_end(source, lang, name):
    """The :class:`repro.frontends.FrontEnd` for *source*."""
    if lang is not None:
        return frontends.get(lang)
    if not isinstance(source, str):
        return frontends.for_object(source)
    return frontends.detect(source, name)


def compile(text, lang=None, *, interface=None, flags=None, name="<idl>",
            presentation=None, backend=None, renderer="py",
            **backend_options):
    """Compile IDL *text* end to end; returns a CompileResult.

    ``text`` may be IDL source, ``.py`` pyschema source, a dataclass, an
    ``@interface`` class, or a module object.  ``lang`` may be omitted
    (auto-detected from ``name``'s extension, the text itself, or the
    object's type).  ``interface`` selects one interface when the input
    defines several.  ``presentation``/``backend``/``flags`` override
    the language defaults (the back end follows the presentation,
    :data:`repro.core.compiler.DEFAULT_BACKEND`).  ``renderer`` is
    ``"py"`` (the default) or ``"closures"``.  The name is recorded
    (``result.stubs.renderer``) and selects nothing at load: under both,
    the module loads without its codec section and each codec function
    compiles at its first call.

    The returned :class:`repro.core.compiler.CompileResult` carries the
    IRs (``aoi``, ``presc``, ``mir``), the generated ``stubs``, the
    ``timings`` (``parse_s``, ``aoi_s``, ``present_s``, ``emit_s``,
    ``total_s``; ``flick compile --timing`` prints them) and the loaded
    ``module`` with its live ``codec_table``.
    """
    (result,) = _compile(text, lang, name, interface, False, presentation,
                         backend, flags, renderer, backend_options).values()
    return result


def compile_all(text, lang=None, *, flags=None, name="<idl>",
                presentation=None, backend=None, renderer="py",
                **backend_options):
    """Compile every interface in *text*; returns ``{name: result}``.

    The front end runs once: every result carries the same ``parse_s``
    and ``aoi_s``.
    """
    return _compile(text, lang, name, None, True, presentation, backend,
                    flags, renderer, backend_options)


def _compile(text, lang, name, interface, every, presentation, backend,
             flags, renderer, backend_options):
    """Parse and lower *text* once, then present and emit each interface
    asked for: *interface*, else every one (*every*), else the only one
    the input defines; returns ``{interface name: CompileResult}``."""
    from repro.backend import make_backend
    from repro.pgen import make_presentation

    if renderer not in ("py", "closures"):
        raise BackEndError("unknown renderer %r; available renderers: py,"
                           " closures" % (renderer,))
    fe = _front_end(text, lang, name)
    front = {}
    started = perf_counter()
    with trace.span("compile.parse"):
        specification = fe.parse(text, name)
    front["parse_s"] = perf_counter() - started
    # A conjoined front end (MIG) lowers straight to PRES_C: its lowering
    # is the presentation phase, and it names its own back end.
    phase = "aoi" if fe.has_aoi else "present"
    phase_started = perf_counter()
    with trace.span("compile." + phase):
        lowered = fe.lower(specification, name)
    front[phase + "_s"] = perf_counter() - phase_started
    if fe.has_aoi:
        presentation = presentation or fe.presentation
        backend = backend or DEFAULT_BACKEND[presentation]
        interfaces = lowered.interfaces
        names = [each.name for each in interfaces]
    else:
        interfaces, names = [None], [lowered.interface_name]
        backend = backend or fe.backend
    if interface is not None:
        if interface not in names:
            raise FlickError("%s defines no interface %r (have: %s)"
                             % (name, interface, ", ".join(names) or "none"))
        interfaces = [interfaces[names.index(interface)]]
        names = [interface]
    elif not every and len(names) != 1:
        raise FlickError(
            "%s defines no interfaces" % name if not names else
            "%s defines %d interfaces (%s); pick one with interface="
            " (--interface)" % (name, len(names), ", ".join(names)))
    front_s = perf_counter() - started
    results = {}
    for key, each in zip(names, interfaces):
        timings = dict(front)
        own_started = phase_started = perf_counter()
        presc = lowered
        if fe.has_aoi:
            with trace.span("compile.present"):
                presc = make_presentation(presentation).generate(
                    lowered, each, side="client")
            timings["present_s"] = perf_counter() - phase_started
            phase_started = perf_counter()
        with trace.span("compile.emit"):
            stubs = make_backend(backend, **backend_options).generate(
                presc, flags or OptFlags())
        stubs.renderer = renderer
        timings["emit_s"] = perf_counter() - phase_started
        timings["total_s"] = front_s + perf_counter() - own_started
        results[key] = CompileResult(
            aoi=lowered if fe.has_aoi else None, interface=each,
            presc=presc, stubs=stubs, timings=timings, frontend=fe.name)
    return results
