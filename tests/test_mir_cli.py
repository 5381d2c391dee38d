"""The ``flick ir`` verb and pass toggles, pinned by golden dumps.

The golden files under ``tests/golden/mir/`` hold the exact IR dump for
representative operations of each front end.  Regenerate them with::

    flick="env PYTHONPATH=src python -m repro.tools.cli ir"
    $flick examples/idl/mail.idl --op send \
        > tests/golden/mir/mail_send_iiop.txt
    $flick examples/idl/mail.idl --op send --no-opt \
        > tests/golden/mir/mail_send_iiop_noopt.txt
    $flick examples/idl/db.x --op get > tests/golden/mir/db_get_xdr.txt
    $flick examples/idl/arith.defs --op sum \
        > tests/golden/mir/arith_sum_mach3.txt
    $flick examples/idl/ledger.idl --op put_rects \
        > tests/golden/mir/ledger_put_rects_iiop.txt
    $flick examples/idl/ledger.idl --op put_rects --backend oncrpc-xdr \
        > tests/golden/mir/ledger_put_rects_xdr.txt

The two ``ledger_put_rects`` dumps pin the array-region ops
(``PutArrayRegion`` / ``GetArrayRegion``): the IR is the same whichever
renderer later consumes it.
"""

import os

import pytest

from repro.tools.cli import main

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples", "idl")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "mir")


def _golden(name):
    with open(os.path.join(GOLDEN, name)) as handle:
        return handle.read()


def _idl(name):
    return os.path.join(EXAMPLES, name)


class TestIrGolden:
    @pytest.mark.parametrize("golden,argv", [
        ("mail_send_iiop.txt",
         ["ir", _idl("mail.idl"), "--op", "send"]),
        ("mail_send_iiop_noopt.txt",
         ["ir", _idl("mail.idl"), "--op", "send", "--no-opt"]),
        ("db_get_xdr.txt",
         ["ir", _idl("db.x"), "--op", "get"]),
        ("arith_sum_mach3.txt",
         ["ir", _idl("arith.defs"), "--op", "sum"]),
        ("ledger_put_rects_iiop.txt",
         ["ir", _idl("ledger.idl"), "--op", "put_rects"]),
        ("ledger_put_rects_xdr.txt",
         ["ir", _idl("ledger.idl"), "--op", "put_rects",
          "--backend", "oncrpc-xdr"]),
    ])
    def test_dump_matches_golden(self, golden, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == _golden(golden)


class TestIrVerb:
    def test_full_program_dump(self, capsys):
        assert main(["ir", _idl("mail.idl")]) == 0
        out = capsys.readouterr().out
        assert "mir program Mail via iiop" in out
        # Every operation's functions appear in the unfiltered dump.
        for operation in ("send", "check", "fetch"):
            assert "_m_req_%s" % operation in out
            assert "_u_rep_%s" % operation in out

    def test_no_opt_reports_passes_off(self, capsys):
        assert main(["ir", _idl("db.x"), "--op", "put", "--no-opt"]) == 0
        out = capsys.readouterr().out
        assert "chunk_atoms=off" in out
        assert "fold_header_constants=off" in out

    def test_disable_pass_toggles_one(self, capsys):
        assert main(["ir", _idl("db.x"), "--op", "put",
                     "--disable-pass", "chunk_atoms"]) == 0
        out = capsys.readouterr().out
        assert "chunk_atoms=off" in out
        assert "batch_buffer_checks=on" in out

    def test_unknown_operation_listed(self, capsys):
        assert main(["ir", _idl("mail.idl"), "--op", "nope"]) == 1
        err = capsys.readouterr().err
        assert "no operation 'nope'" in err
        assert "send" in err

    def test_region_op_is_dropped_with_any_of_its_passes(self, capsys):
        for name in ("chunk_atoms", "batch_buffer_checks",
                     "memcpy_arrays"):
            assert main(["ir", _idl("ledger.idl"), "--op", "put_rects",
                         "--disable-pass", name]) == 0
            out = capsys.readouterr().out
            assert "ArrayRegion" not in out
            assert "Loop elements" in out and "Loop range" in out

    def test_backend_override(self, capsys):
        assert main(["ir", _idl("mail.idl"), "--backend",
                     "oncrpc-xdr"]) == 0
        assert "via oncrpc-xdr" in capsys.readouterr().out


class TestDisablePassFlag:
    def test_unknown_pass_lists_available(self, capsys):
        assert main(["ir", _idl("mail.idl"),
                     "--disable-pass", "warp_drive"]) == 1
        err = capsys.readouterr().err
        assert "unknown pass 'warp_drive'" in err
        assert "chunk_atoms" in err
        assert "fold_header_constants" in err

    def test_compile_disable_pass(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        assert main(["compile", _idl("mail.idl"), "-o", out_dir,
                     "--emit", "py",
                     "--disable-pass", "chunk_atoms",
                     "--disable-pass", "memcpy_arrays"]) == 0
        assert "compiled Mail" in capsys.readouterr().out

    def test_compile_unknown_pass_fails(self, tmp_path, capsys):
        assert main(["compile", _idl("mail.idl"), "-o", str(tmp_path),
                     "--disable-pass", "warp_drive"]) == 1
        assert "unknown pass 'warp_drive'" in capsys.readouterr().err
