"""The pluggable front-end registry.

Flick's flexibility claim starts at the front end: any language that can
lower itself to AOI (or, for conjoined front ends like MIG, directly to
PRES_C) composes with every presentation generator and optimizing back
end.  Historically the three languages were hardwired into
``repro.api`` (suffix and content-sniff tables) and
``repro.core.compiler`` (the ``FRONTENDS`` dict); this module replaces
all of those enumerations with one self-registering registry.

A front end describes itself with a :class:`FrontEnd` record — name,
file suffixes, content-sniff patterns, the parse→lower phase pair, and
capabilities (``has_aoi``, ``servable``, object acceptance) — and calls
:func:`register` at import time.  Every dispatch site (``api.compile``,
``detect_lang``, the CLI's ``--lang`` choices,
``flick diff``'s protocol defaults, the supervisor's SIGHUP reload)
asks the registry instead of enumerating languages, so adding a fourth
front end (``repro.pyschema``) touches no dispatch site at all.
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro.errors import FlickError

#: Packages whose import registers the built-in front ends.  Anything
#: else can register itself by importing :mod:`repro.frontends` and
#: calling :func:`register` before compiling.
_BUILTIN_MODULES = (
    "repro.mig",
    "repro.oncrpc",
    "repro.corba",
    "repro.pyschema",
)

_REGISTRY = {}


@dataclass(frozen=True)
class FrontEnd:
    """One registered IDL front end.

    ``parse`` turns source text into a language-specific specification;
    ``lower`` turns that specification into the validated
    :class:`repro.aoi.AoiRoot` — or, when ``has_aoi`` is false (the MIG
    special case: a front end conjoined with its own presentation),
    directly into PRES_C.  The split lets the pipeline driver time and
    trace the two phases separately.

    ``patterns`` are ``(description, compiled_regex)`` pairs tried
    against comment-stripped source during content detection; the
    descriptions are reused verbatim in ``detect_lang``'s error message
    so a failed detection names exactly what was looked for.
    """

    name: str
    description: str
    suffixes: Tuple[str, ...]
    patterns: Tuple[Tuple[str, "re.Pattern"], ...]
    parse: Callable
    lower: Callable
    #: False for conjoined front ends whose ``lower`` yields PRES_C.
    has_aoi: bool = True
    #: Content-detection order; lower sniffs first (MIG's ``subsystem``
    #: must win over ONC's ``program`` which must win over CORBA's
    #: permissive ``interface``).
    priority: int = 50
    #: Default presentation style (None: conjoined, carries its own).
    presentation: Optional[str] = None
    #: Default back end for conjoined front ends (e.g. MIG -> mach3).
    backend: Optional[str] = None
    #: Whether ``flick serve`` can carry this language's interfaces
    #: over TCP (False for kernel-IPC-only front ends).
    servable: bool = True
    #: Default ``flick diff`` protocols (None: the compat default).
    diff_protocols: Optional[Tuple[str, ...]] = None
    #: Non-text schema inputs: a predicate deciding whether this front
    #: end accepts *obj* (e.g. pyschema takes dataclasses and modules).
    accepts_object: Optional[Callable] = None
    #: A minimal self-contained source sample; the conformance suite
    #: compiles it and detection must attribute it to this front end.
    sample: str = ""

    # ------------------------------------------------------------------

    def sniff(self, stripped_text):
        """The description of the first matching pattern, or None."""
        for description, pattern in self.patterns:
            if pattern.search(stripped_text):
                return description
        return None

    def compile_frontend(self, text, name="<idl>"):
        """Run both phases: source text to AoiRoot (or PRES_C)."""
        return self.lower(self.parse(text, name), name)


# ----------------------------------------------------------------------
# Registration and lookup
# ----------------------------------------------------------------------


def register(frontend):
    """Register *frontend*, replacing any same-named registration."""
    _REGISTRY[frontend.name] = frontend
    return frontend


def ensure_loaded():
    """Import the built-in front-end packages (self-registration)."""
    for module_name in _BUILTIN_MODULES:
        importlib.import_module(module_name)


def all_frontends():
    """Every registered front end, in content-detection order."""
    ensure_loaded()
    return tuple(sorted(
        _REGISTRY.values(), key=lambda fe: (fe.priority, fe.name)
    ))


def names():
    """Registered front-end names, in content-detection order."""
    return tuple(fe.name for fe in all_frontends())


def get(name):
    """The :class:`FrontEnd` registered as *name*; FlickError if none."""
    ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise FlickError(
            "unknown IDL language %r (have: %s)"
            % (name, ", ".join(sorted(_REGISTRY)))
        ) from None


def suffix_map():
    """``{suffix: frontend name}`` over every registration."""
    return {
        suffix: fe.name
        for fe in all_frontends()
        for suffix in fe.suffixes
    }


def by_suffix(filename):
    """The front end claiming *filename*'s suffix, or None."""
    if not filename:
        return None
    text = str(filename)
    for fe in all_frontends():
        if any(text.endswith(suffix) for suffix in fe.suffixes):
            return fe
    return None


def for_object(obj):
    """The front end accepting the non-text schema object *obj*."""
    for fe in all_frontends():
        if fe.accepts_object is not None and fe.accepts_object(obj):
            return fe
    raise FlickError(
        "no front end accepts %r as a schema object; pass IDL text, a"
        " dataclass, an interface class, or a module (have: %s)"
        % (type(obj).__name__, ", ".join(names()))
    )


# ----------------------------------------------------------------------
# Detection
# ----------------------------------------------------------------------


def strip_comments(text):
    """Drop C-style block/line comments and ``#`` line comments."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    return re.sub(r"(?m)#[^\n]*", " ", text)


def detect(text, name=None):
    """Detect the front end for *text*: suffix first, then content.

    Raises :class:`FlickError` naming, per language, the trigger
    patterns that were tried (and the filename when given) so a failed
    detection is actionable.
    """
    fe = by_suffix(name)
    if fe is not None:
        return fe
    stripped = strip_comments(text)
    for fe in all_frontends():
        if fe.sniff(stripped):
            return fe
    tried = "; ".join(
        "%s (%s)" % (
            fe.name,
            ", ".join(description for description, _ in fe.patterns)
            or "no content patterns",
        )
        for fe in all_frontends()
    )
    where = " in %s" % name if name else ""
    raise FlickError(
        "cannot detect the IDL language%s: no trigger pattern matched —"
        " tried %s; pass lang= one of %s, or name a file with a"
        " recognized suffix (%s)"
        % (where, tried, ", ".join(names()),
           ", ".join(sorted(suffix_map())))
    )
