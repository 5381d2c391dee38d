"""Optimization flags for Flick back ends.

Each flag enables one of the domain-specific optimizations of section 3 of
the paper.  Flick defaults to all-on; the ablation benchmarks toggle them
individually.  (The baseline compilers in :mod:`repro.compilers` do not
consult these flags — they reimplement each rival compiler's code style —
but a Flick back end with a flag off generates code shaped like the
corresponding unoptimized idiom.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass(frozen=True)
class OptFlags:
    """Back-end optimization switches.

    Attributes:
        inline_marshal: inline marshal/unmarshal code into stubs; only
            recursive types get out-of-line functions (section 3.3).  When
            off, every named aggregate type gets its own marshal functions
            and stubs call through them, as traditional IDL compilers do.
        chunk_atoms: coalesce runs of fixed-layout atoms into single
            multi-field pack/unpack operations addressed at constant
            offsets from the chunk start — the paper's chunk pointer +
            constant offset scheme (section 3.2).  When off, each atom is
            packed individually.
        memcpy_arrays: bulk-copy arrays of atomic types whose encoded and
            presented layouts coincide (strings, byte arrays), and batch
            arrays of other atoms into one array-wide pack (section 3.2).
            When off, arrays marshal element by element.
        batch_buffer_checks: one free-space check per message region using
            the storage-class analysis (section 3.1).  When off, every
            atomic datum performs its own buffer check, like rpcgen.
        zero_copy_server: present large received byte arrays to server work
            functions as views into the receive buffer instead of copies —
            the paper's reuse of marshal-buffer storage for unmarshaled
            data, valid because servants must not keep references after
            returning (section 3.1).
        hash_demux: demultiplex requests with a hashed (dict) lookup on the
            discriminator and inline the unmarshal code into the dispatch
            path (section 3.3).  When off, dispatch compares discriminators
            one at a time down an if-chain.
        reuse_buffers: client stubs keep and reset one marshal buffer
            across invocations instead of allocating per call.
        iterative_lists: marshal self-referential list types (a struct
            whose trailing optional field points to itself) with a loop
            instead of recursion.  The paper's footnote 5 promises exactly
            this for "a future version of Flick"; here it also lifts
            Python's recursion limit off deep lists.  Wire bytes are
            unchanged.
        fold_header_constants: fold constant leading reply-body atoms
            (status discriminators, descriptor words) into the reply
            header byte template, one template constant per reply
            function (an IR→IR pass; wire bytes are unchanged).
        dedup_out_of_line: merge structurally identical out-of-line
            helper functions and alias their call sites (an IR→IR pass).

    Flag names ending up in generated-code shape are 1:1 with the MIR
    pass names (:data:`repro.mir.passes.PASS_NAMES`), so the same names
    toggle passes from the CLI (``--disable-pass``) and benchmarks.
    """

    inline_marshal: bool = True
    chunk_atoms: bool = True
    memcpy_arrays: bool = True
    batch_buffer_checks: bool = True
    zero_copy_server: bool = False
    hash_demux: bool = True
    reuse_buffers: bool = True
    iterative_lists: bool = True
    fold_header_constants: bool = True
    dedup_out_of_line: bool = True

    def but(self, **changes):
        """Return a copy with *changes* applied (ablation helper)."""
        return replace(self, **changes)

    def disable_pass(self, name):
        """Return a copy with the MIR pass *name* turned off.

        Unknown names raise ValueError listing the available passes.
        """
        from repro.mir.passes import PASS_NAMES

        if name not in PASS_NAMES:
            raise ValueError(
                "unknown pass %r; available passes: %s"
                % (name, ", ".join(sorted(PASS_NAMES)))
            )
        return replace(self, **{name: False})

    @classmethod
    def all_off(cls):
        """The fully unoptimized configuration."""
        return cls(
            inline_marshal=False,
            chunk_atoms=False,
            memcpy_arrays=False,
            batch_buffer_checks=False,
            zero_copy_server=False,
            hash_demux=False,
            reuse_buffers=False,
            iterative_lists=False,
            fold_header_constants=False,
            dedup_out_of_line=False,
        )


@dataclass(frozen=True)
class RendererPolicy:
    """One value carrying every codec-generation choice.

    Historically the choice was scattered: ``renderer=`` strings on
    ``api.compile``/``Flick``/``generate``, ``--disable-pass`` on the
    CLI, and loose ``**backend_options``.  A policy folds all three into
    one immutable object accepted everywhere a ``renderer=`` string is
    today (the bare string still works — :meth:`coerce` upgrades it).

    Attributes:
        renderer: ``"py"``, ``"closures"`` or ``"c"``.  The first two
            name the same load — each codec function compiled at its
            first call — and are both accepted; the name is recorded as
            ``stubs.renderer``.
        disable_passes: MIR pass names (see
            :data:`repro.mir.passes.PASS_NAMES`) to turn off on top of
            whatever base :class:`OptFlags` the caller supplies.
        backend_options: extra keyword options for the back-end factory,
            stored as a sorted ``(name, value)`` tuple so the policy
            stays hashable; :meth:`options` returns them as a dict.
    """

    renderer: str = "py"
    disable_passes: Tuple[str, ...] = ()
    backend_options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if isinstance(self.disable_passes, str):
            object.__setattr__(
                self, "disable_passes", (self.disable_passes,))
        else:
            object.__setattr__(
                self, "disable_passes", tuple(self.disable_passes))
        options = self.backend_options
        if isinstance(options, dict):
            options = tuple(sorted(options.items()))
        else:
            options = tuple(sorted(tuple(pair) for pair in options))
        object.__setattr__(self, "backend_options", options)

    @classmethod
    def coerce(cls, value, **backend_options):
        """Upgrade *value* to a policy.

        ``None`` means the default policy, a string is a bare renderer
        name, and an existing policy passes through.  Explicit
        *backend_options* merge over (and win against) the policy's own.
        """
        if value is None:
            policy = cls()
        elif isinstance(value, cls):
            policy = value
        elif isinstance(value, str):
            policy = cls(renderer=value)
        else:
            raise TypeError(
                "renderer must be a renderer name or a RendererPolicy,"
                " not %r" % (value,))
        if backend_options:
            merged = dict(policy.backend_options)
            merged.update(backend_options)
            policy = replace(policy, backend_options=merged)
        return policy

    def options(self):
        """The backend factory options as a plain dict."""
        return dict(self.backend_options)

    def resolve_flags(self, base=None):
        """*base* (or the default :class:`OptFlags`) with this policy's
        ``disable_passes`` applied; unknown names raise ValueError."""
        flags = base if base is not None else OptFlags()
        for name in self.disable_passes:
            flags = flags.disable_pass(name)
        return flags

    def but(self, **changes):
        """Return a copy with *changes* applied."""
        return replace(self, **changes)
