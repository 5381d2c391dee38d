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
    pass names (:data:`repro.mir.passes.PASS_NAMES`).  Any field turns
    off by name: ``--disable-pass NAME`` on the CLI, ``but(NAME=False)``
    from Python.
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
