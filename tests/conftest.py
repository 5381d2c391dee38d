"""Shared fixtures: canonical IDL sources and cached compilations."""

from __future__ import annotations

import pytest

from repro import OptFlags, api, frontends
from repro.obs import metrics
from repro.pgen import make_presentation


def base_of(slots, entry):
    """The function under *entry*'s layers in a module's codec slots."""
    return next(slot.base for slot in slots.entries() if slot.name == entry)


def profile_of(snapshot, op, direction):
    """The one profile of *op* in *direction* a ProfileSnapshot holds."""
    (found,) = [profile for profile in snapshot.ops
                if (profile.op, profile.direction) == (op, direction)]
    return found


def counter_total(stats, name):
    """The counter *name* as *stats* exports it, summed over its labels
    (a family with no children yet exports nothing and reads 0)."""
    assert name in [family.name for family in stats.registry.families()]
    samples = metrics.parse_prometheus(stats.registry.render_prometheus())
    return sum(samples.get(name, {}).values())


def top_rows(stats):
    """``flick top``'s per-operation rows of what *stats* exports."""
    return metrics.top_rows(
        metrics.parse_prometheus(stats.registry.render_prometheus()))


def present(root, interface, presentation="corba-c", side="client"):
    """The PRES_C of the interface of *root* named *interface*."""
    return make_presentation(presentation).generate(
        root, root.interface_named(interface), side=side)


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

#: A CORBA interface carrying every atom and aggregate the comparators
#: spell: each operation is one shape, so a test can drive them one by one.
ATOMS_IDL = """
module Atoms {
  enum Mood { CALM, ODD, LOUD };
  struct Pt { short x; unsigned short y; };
  typedef Pt Pair[2];
  typedef sequence<Pt> Pts;
  typedef sequence<octet> Bytes;
  union Num switch (long) {
    case 1: long long big;
    case 2: case 3: float f;
    default: char c;
  };
  union Pick switch (Mood) {
    case CALM: octet o;
    case LOUD: boolean b;
  };
  exception Empty {};
  exception Full { unsigned short code; string<16> why; };
  interface Kit {
    short shorts(in short a, in unsigned short b, in long long c)
        raises (Empty, Full);
    octet bytes(in octet a, in char b, in boolean c, in Bytes d);
    Mood moods(in Mood a, inout Pick p, out double d);
    float floats(in float a, in double b, in string<16> s);
    Pair pairs(in Pair a, in Pts b);
    Num nums(in Num a, in Pick b);
    oneway void tell(in Pts a, in Mood m);
  };
};
"""

#: An ONC RPC program with the XDR atoms CORBA IDL cannot spell.
ATOMS_X = """
struct node { hyper key; node *next; };
typedef node *list;
struct box { unsigned hyper u; opaque tag[6]; opaque body<32>; int *maybe; };
program ATOMS {
  version ATOMSV {
    box boxes(box) = 1;
    list chain(list) = 2;
    hyper keys(unsigned hyper) = 3;
  } = 1;
} = 0x20000123;
"""

ALL_BACKENDS = ("iiop", "oncrpc-xdr", "mach3", "fluke")


@pytest.fixture(scope="session")
def mail_aoi():
    return frontends.get("corba").compile_frontend(MAIL_IDL)


@pytest.fixture(scope="session")
def mail_presc(mail_aoi):
    return present(mail_aoi, "Test::Mail")


@pytest.fixture(scope="session")
def db_aoi():
    return frontends.get("oncrpc").compile_frontend(DB_IDL)


@pytest.fixture(scope="session")
def db_presc(db_aoi):
    return present(db_aoi, "DB::DBV", "rpcgen")


_COMPILED_CACHE = {}


def compile_mail(backend, flags=None):
    """Compile MAIL_IDL for *backend* with *flags*, with caching."""
    key = (backend, flags)
    if key not in _COMPILED_CACHE:
        _COMPILED_CACHE[key] = api.compile(
            MAIL_IDL, "corba", backend=backend, flags=flags or OptFlags())
    return _COMPILED_CACHE[key]


def compile_db(backend="oncrpc-xdr", flags=None):
    key = ("db", backend, flags)
    if key not in _COMPILED_CACHE:
        _COMPILED_CACHE[key] = api.compile(
            DB_IDL, "oncrpc", backend=backend, flags=flags or OptFlags())
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
