"""Shared fixtures: canonical IDL sources and cached compilations."""

from __future__ import annotations

import pytest

from repro import Flick, OptFlags


#: A CORBA interface exercising every presentable construct.
MAIL_IDL = """
module Test {
  const long LIMIT = 4 * 8;
  enum Color { RED, GREEN, BLUE };
  struct Point { long x, y; };
  struct Rect { Point ul; Point lr; };
  typedef Point Triangle[3];
  typedef sequence<octet> Blob;
  union Value switch (Color) {
    case RED: long i;
    case GREEN: double d;
    default: string s;
  };
  exception Bad { string why; long code; };
  interface Mail {
    long send(in string msg, in Rect r, inout Value v, out Color c)
        raises (Bad);
    oneway void ping(in long x);
    double avg(in sequence<long> xs);
    Blob reverse(in Blob data);
    void tri(in Triangle t);
    readonly attribute long counter;
  };
};
"""

#: An ONC RPC program with recursion, unions, and bounds.
DB_IDL = """
const MAXNAME = 255;
enum kind { KIND_FILE = 1, KIND_DIR = 2 };
struct entry { string name<MAXNAME>; int value; entry *next; };
union lookup_res switch (int status) {
  case 0: entry *head;
  default: void;
};
typedef int int_seq<>;
typedef opaque blob<4096>;
program DB {
  version DBV {
    lookup_res lookup(string) = 1;
    int store(entry) = 2;
    blob echo(blob) = 3;
    int_seq rev(int_seq) = 4;
    int count(void) = 5;
  } = 2;
} = 0x20000099;
"""

MIG_IDL = """
subsystem arith 4200;
type int_array = array[*:4096] of int;
type name_t = c_string[64];
routine add(server : mach_port_t; a : int; b : int; out total : int);
routine total(server : mach_port_t; values : int_array; out result : int);
simpleroutine poke(server : mach_port_t; value : int);
routine greet(server : mach_port_t; who : name_t; out msg : name_t);
"""

ALL_BACKENDS = ("iiop", "oncrpc-xdr", "mach3", "fluke")


@pytest.fixture(scope="session")
def mail_aoi():
    return Flick(frontend="corba").parse(MAIL_IDL)


@pytest.fixture(scope="session")
def mail_presc(mail_aoi):
    return Flick(frontend="corba").present(mail_aoi, "Test::Mail")


@pytest.fixture(scope="session")
def db_aoi():
    return Flick(frontend="oncrpc").parse(DB_IDL)


@pytest.fixture(scope="session")
def db_presc(db_aoi):
    return Flick(frontend="oncrpc").present(db_aoi, "DB::DBV")


_COMPILED_CACHE = {}


def compile_mail(backend, flags=None):
    """Compile MAIL_IDL for *backend* with *flags*, with caching."""
    key = (backend, flags)
    if key not in _COMPILED_CACHE:
        flick = Flick(frontend="corba", backend=backend,
                      flags=flags or OptFlags())
        _COMPILED_CACHE[key] = flick.compile(MAIL_IDL)
    return _COMPILED_CACHE[key]


def compile_db(backend="oncrpc-xdr", flags=None):
    key = ("db", backend, flags)
    if key not in _COMPILED_CACHE:
        flick = Flick(frontend="oncrpc", backend=backend,
                      flags=flags or OptFlags())
        _COMPILED_CACHE[key] = flick.compile(DB_IDL)
    return _COMPILED_CACHE[key]


class MailImpl:
    """Reference servant for MAIL_IDL, usable with any stub module."""

    def __init__(self, module):
        self.module = module
        self.last_ping = None

    def send(self, msg, r, v):
        # Result shape: (return value, inout v, out c).
        from repro.pres.values import get_field

        if msg == "fail":
            raise self.module.Test_Bad("nope", -3)
        ulx = get_field(get_field(r, "ul"), "x")
        lry = get_field(get_field(r, "lr"), "y")
        return ulx + lry + len(msg), v, 2

    def ping(self, x):
        self.last_ping = x

    def avg(self, xs):
        return sum(xs) / len(xs)

    def reverse(self, data):
        return bytes(data)[::-1]

    def tri(self, t):
        pass

    def _get_counter(self):
        return 42


def make_client(module, impl=None):
    """A loopback-wired client for a compiled MAIL_IDL module."""
    from repro.runtime import LoopbackTransport

    impl = impl or MailImpl(module)
    transport = LoopbackTransport(module.dispatch, impl)
    return module.Test_MailClient(transport), impl
