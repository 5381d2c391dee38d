"""Front-end registry conformance.

Every registered front end must satisfy one contract: it describes
itself (name, suffixes, sniff patterns, a compilable sample), detection
attributes its own sample to it, and the full pipeline carries its
sample to loadable stubs.  The CI ``frontend-matrix`` job runs exactly
this file, so a new front end that registers itself is conformance-
tested without touching any dispatch site.
"""


import pytest

from repro import api, frontends
from repro.core.compiler import DEFAULT_BACKEND
from repro.errors import FlickError

FRONTENDS = frontends.all_frontends()
NAMES = [fe.name for fe in FRONTENDS]


class TestRegistryInvariants:
    def test_builtin_frontends_registered(self):
        assert set(NAMES) >= {"corba", "oncrpc", "mig", "pyschema"}

    def test_detection_order_is_priority_order(self):
        priorities = [fe.priority for fe in FRONTENDS]
        assert priorities == sorted(priorities)
        # MIG's `subsystem` must sniff before ONC's `program`, which
        # must sniff before CORBA's permissive `interface`; pyschema's
        # decorator patterns must beat CORBA too.
        assert NAMES.index("mig") < NAMES.index("oncrpc")
        assert NAMES.index("oncrpc") < NAMES.index("pyschema")
        assert NAMES.index("pyschema") < NAMES.index("corba")

    def test_suffixes_unique_across_frontends(self):
        suffixes = [s for fe in FRONTENDS for s in fe.suffixes]
        assert len(suffixes) == len(set(suffixes))
        assert frontends.suffix_map() == {
            s: fe.name for fe in FRONTENDS for s in fe.suffixes
        }

    def test_api_langs_mirrors_registry(self):
        assert api.langs() == tuple(NAMES)

    def test_unknown_language_error_lists_names(self):
        with pytest.raises(FlickError, match="unknown IDL language"):
            frontends.get("fortran")
        with pytest.raises(FlickError, match="corba"):
            frontends.get("fortran")

    def test_detect_failure_names_every_pattern(self):
        """Satellite: the error names each language's trigger patterns
        and the filename that was tried."""
        with pytest.raises(FlickError) as error:
            api.detect_lang("zzzz qqqq", name="schema.zz")
        message = str(error.value)
        assert "schema.zz" in message
        for fe in FRONTENDS:
            assert fe.name in message
            for description, _pattern in fe.patterns:
                assert description in message
        for suffix in frontends.suffix_map():
            assert suffix in message


class TestFrontEndConformance:
    """The per-front-end contract, over every registration."""

    @pytest.mark.parametrize("fe", FRONTENDS, ids=NAMES)
    def test_describes_itself(self, fe):
        assert fe.name and fe.description
        assert fe.suffixes, "every front end claims a file suffix"
        assert fe.patterns, "every front end has content-sniff patterns"
        assert fe.sample, "every front end ships a compilable sample"
        if fe.has_aoi:
            assert fe.presentation in DEFAULT_BACKEND
        else:
            assert fe.backend, "conjoined front ends name their back end"

    @pytest.mark.parametrize("fe", FRONTENDS, ids=NAMES)
    def test_sample_detected_by_content(self, fe):
        assert api.detect_lang(fe.sample) == fe.name

    @pytest.mark.parametrize("fe", FRONTENDS, ids=NAMES)
    def test_sample_detected_by_suffix(self, fe):
        for suffix in fe.suffixes:
            assert api.detect_lang("", name="schema" + suffix) == fe.name

    @pytest.mark.parametrize("fe", FRONTENDS, ids=NAMES)
    def test_sample_compiles_and_loads(self, fe):
        result = api.compile(fe.sample, fe.name)
        assert result.frontend == fe.name
        assert result.presc is not None
        module = result.load_module()
        assert hasattr(module, "dispatch")
        if fe.has_aoi:
            assert result.aoi is not None
            assert result.interface is not None
        else:
            assert result.aoi is None

    @pytest.mark.parametrize("fe", FRONTENDS, ids=NAMES)
    def test_parse_contract(self, fe):
        if fe.has_aoi:
            root = api.parse(fe.sample, fe.name)
            assert root.interfaces
        else:
            with pytest.raises(FlickError, match="conjoined"):
                api.parse(fe.sample, fe.name)

    @pytest.mark.parametrize("fe", FRONTENDS, ids=NAMES)
    def test_compile_frontend_phases(self, fe):
        """parse -> lower composes into compile_frontend."""
        spec = fe.parse(fe.sample, "<sample>")
        lowered = fe.lower(spec, "<sample>")
        if fe.has_aoi:
            assert lowered.interfaces
        else:
            assert lowered.interface_name

    @pytest.mark.parametrize("fe", FRONTENDS, ids=NAMES)
    def test_sniff_reports_matched_description(self, fe):
        stripped = frontends.strip_comments(fe.sample)
        description = fe.sniff(stripped)
        assert description is not None
        assert description in [d for d, _ in fe.patterns]


class TestThirdPartyRegistration:
    """A front end registered from outside the package is a peer."""

    def test_register_and_dispatch(self):
        import re

        from repro.aoi import (
            AoiInteger, AoiInterface, AoiOperation, AoiParameter, AoiRoot,
            Direction, validate,
        )

        def parse(text, name):
            return text.strip()

        def lower(spec, name):
            root = AoiRoot(name=name)
            root.add_interface(AoiInterface(
                name=spec, code="IDL:%s:1.0" % spec,
                operations=(AoiOperation(
                    name="nop", request_code="nop",
                    parameters=(AoiParameter("x", AoiInteger(32, True),
                                             Direction.IN),),
                    return_type=AoiInteger(32, True),
                ),),
            ))
            return validate(root)

        toy = frontends.FrontEnd(
            name="toy", description="single-word toy language",
            suffixes=(".toy",),
            patterns=(("the word 'toylang'", re.compile(r"\btoylang\b")),),
            parse=parse, lower=lower, priority=5, presentation="corba-c",
            sample="toylang",
        )
        frontends.register(toy)
        try:
            assert api.detect_lang("x", name="a.toy") == "toy"
            result = api.compile("toylang")
            assert result.frontend == "toy"
            assert result.interface.name == "toylang"
        finally:
            del frontends._REGISTRY["toy"]
        assert "toy" not in api.langs()


# ----------------------------------------------------------------------
# One struct-array contract, three front ends, one array region
# ----------------------------------------------------------------------

GRID_CORBA = """
struct Coord { long x, y; };
struct Rect { Coord ul; Coord lr; };
typedef sequence<Rect> RectSeq;
interface Grid { RectSeq echo(in RectSeq a); };
"""

GRID_ONC = """
struct Coord { int x; int y; };
struct Rect { Coord ul; Coord lr; };
typedef Rect RectSeq<>;
program GRID { version GRIDV { RectSeq echo(RectSeq) = 1; } = 1; } = 0x20000061;
"""

GRID_PYSCHEMA = '''
from dataclasses import dataclass

from repro.pyschema import i32, interface


@dataclass
class Coord:
    x: i32
    y: i32


@dataclass
class Rect:
    ul: Coord
    lr: Coord


@interface
class Grid:
    def echo(self, a: list[Rect]) -> list[Rect]: ...
'''

GRID_TWINS = (("corba", GRID_CORBA), ("oncrpc", GRID_ONC),
              ("pyschema", GRID_PYSCHEMA))


class TestStructArrayTwins:
    """The ONC and dataclass twins of a struct-array contract lower to
    the same array region as the CORBA original and put the same body
    bytes on the wire, on every back end and through both renderers."""

    @staticmethod
    def _bodies(compiled, n):
        from repro.encoding import MarshalBuffer

        module = compiled.load_module()
        rects = [module.Rect(module.Coord(i, -i), module.Coord(i + 1, 7))
                 for i in range(n)]
        bodies = []
        for function, header in (("_m_req_echo", "_H_req_echo"),
                                 ("_m_rep_ok_echo", "_H_rep_ok_echo")):
            buffer = MarshalBuffer()
            getattr(module, function)(buffer, 1, rects)
            message = buffer.getvalue()
            skip = len(getattr(module, header))
            bodies.append(message[skip:])
            if function == "_m_req_echo":
                (decoded,), end = module._u_req_echo(message, skip)
                assert end == len(message)
                assert [(r.ul.x, r.ul.y, r.lr.x, r.lr.y)
                        for r in decoded] == [
                    (i, -i, i + 1, 7) for i in range(n)]
        return bodies

    @pytest.mark.parametrize("renderer", ("py", "closures"))
    @pytest.mark.parametrize("backend",
                             ("iiop", "oncrpc-xdr", "mach3", "fluke"))
    def test_twins_share_region_and_bytes(self, backend, renderer):
        from repro.mir import ops as m

        compiled = {
            lang: api.compile(text, lang, backend=backend,
                              renderer=renderer)
            for lang, text in GRID_TWINS
        }
        for lang, result in compiled.items():
            kinds = {
                fn.name: {type(op) for op in m.walk_ops(fn.ops)}
                for fn in result.stubs.mir.functions
            }
            assert m.PutArrayRegion in kinds["_m_req_echo"], lang
            assert m.GetArrayRegion in kinds["_u_req_echo"], lang
            assert m.PutArrayRegion in kinds["_m_rep_ok_echo"], lang
            assert m.GetArrayRegion in kinds["_u_rep_echo"], lang
        for n in (0, 1, 9):
            want = self._bodies(compiled["corba"], n)
            for lang in ("oncrpc", "pyschema"):
                assert self._bodies(compiled[lang], n) == want, (lang, n)
