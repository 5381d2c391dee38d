"""The unified compile facade.

One entry point for every IDL language Flick understands::

    from repro import api

    result = api.compile(open("mail.idl").read())          # auto-detect
    result = api.compile(text, "oncrpc", backend="oncrpc-xdr")
    result = api.compile(SomeDataclass)                    # pyschema
    module = result.load_module()

Language selection is explicit (``lang=``), by file extension (pass the
file name via ``name=``), or by content heuristics; all three are
answered by the self-registering front-end registry
(:mod:`repro.frontends`), so the facade itself enumerates no languages.
Non-text schema inputs — a dataclass, an ``@interface`` class, or a
module object — route to whichever front end claims them (the pyschema
front end, today).

MIG is the paper's conjoined front end: it produces PRES_C directly, so
MIG results carry ``aoi=None`` — everything downstream of the
presentation (``presc``, ``stubs``, ``load_module()``, timings) behaves
identically across languages.
"""

from __future__ import annotations

from repro import frontends
from repro.errors import FlickError


def langs():
    """Registered language names, in content-detection order."""
    return frontends.names()


def detect_lang(text, name=None):
    """Detect the IDL language of *text*: extension first, then content.

    Non-text schema objects (dataclasses, modules) are attributed to the
    front end that accepts them.  Raises :class:`FlickError` when nothing
    matches — the message names, per language, the trigger patterns that
    were tried (and the filename, when one was given).
    """
    if not isinstance(text, str):
        return frontends.for_object(text).name
    return frontends.detect(text, name).name


def _resolve(source, lang, name):
    """The :class:`repro.frontends.FrontEnd` for *source*."""
    if lang is not None:
        return frontends.get(lang)
    if not isinstance(source, str):
        return frontends.for_object(source)
    return frontends.detect(source, name)


def parse(text, lang=None, name="<idl>"):
    """Front end only: return the validated AoiRoot for *text*.

    Conjoined front ends (MIG) have no AOI; parsing them through this
    function raises :class:`FlickError`.
    """
    fe = _resolve(text, lang, name)
    if not fe.has_aoi:
        raise FlickError(
            "%s bypasses AOI (conjoined front end); use "
            "api.compile(text, %r) for the full pipeline"
            % (fe.name.upper(), fe.name)
        )
    return fe.compile_frontend(text, name)


def compile(text, lang=None, *, interface=None, flags=None, name="<idl>",
            presentation=None, backend=None, renderer="py",
            **backend_options):
    """Compile IDL *text* end to end; returns a CompiledInterface.

    ``text`` may be IDL source, ``.py`` pyschema source, a dataclass, an
    ``@interface`` class, or a module object.  ``lang`` may be omitted
    (auto-detected from ``name``'s extension, the text itself, or the
    object's type).  ``interface`` selects one interface when the input
    defines several.  ``presentation``/``backend``/``flags`` override
    the language defaults, exactly as :class:`repro.core.Flick` does.
    ``renderer`` selects when the rendered codec text is compiled:
    ``"py"`` (with the module, the default) or ``"closures"`` (the
    module loads without its codec section and each codec function is
    compiled by its first call; same text, same code) — or a
    :class:`repro.core.options.RendererPolicy` carrying the renderer,
    disabled passes, and backend options in one value.

    The returned :class:`repro.core.handle.CompiledInterface` is a
    :class:`repro.core.compiler.CompileResult` subclass: everything the
    old facade returned is still there, plus the handle surface
    (``.module``, ``.codec_table``, ``.codecs``).
    """
    from repro.core.compiler import Flick

    fe = _resolve(text, lang, name)
    flick = Flick(
        frontend=fe.name, presentation=presentation, backend=backend,
        flags=flags, renderer=renderer, **backend_options
    )
    return flick.compile(text, interface=interface, name=name)


def compile_all(text, lang=None, *, flags=None, name="<idl>",
                presentation=None, backend=None, renderer="py",
                **backend_options):
    """Compile every interface in *text*; returns ``{name: result}``."""
    from repro.core.compiler import Flick

    fe = _resolve(text, lang, name)
    flick = Flick(
        frontend=fe.name, presentation=presentation, backend=backend,
        flags=flags, renderer=renderer, **backend_options
    )
    return flick.compile_all(text, name=name)
