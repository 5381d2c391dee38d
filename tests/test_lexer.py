"""Unit tests for the shared front-end lexer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IdlSyntaxError
from repro.idl.lexer import DEFAULT_PUNCTUATORS, Lexer, LexerSpec, TokenKind
from repro.idl.source import SourceFile

SPEC = LexerSpec(
    keywords=frozenset({"struct", "union", "long"}),
    allow_hash_comments=True,
)


def tokens_of(text, spec=SPEC):
    lexer = Lexer(SourceFile(text, "<test>"), spec)
    out = []
    while not lexer.at_end():
        out.append(lexer.next())
    return out


def kinds_of(text):
    return [token.kind for token in tokens_of(text)]


class TestBasicTokens:
    def test_empty_input_is_just_eof(self):
        lexer = Lexer("", SPEC)
        assert lexer.at_end()
        assert lexer.peek().kind is TokenKind.EOF

    def test_identifier(self):
        (token,) = tokens_of("hello")
        assert token.kind is TokenKind.IDENT
        assert token.value == "hello"

    def test_identifier_with_underscore_and_digits(self):
        (token,) = tokens_of("_x42_y")
        assert token.value == "_x42_y"

    def test_keyword_is_distinguished_from_identifier(self):
        struct, other = tokens_of("struct structure")
        assert struct.kind is TokenKind.KEYWORD
        assert other.kind is TokenKind.IDENT

    def test_punctuation(self):
        tokens = tokens_of("{ } ; :: <")
        assert [t.text for t in tokens] == ["{", "}", ";", "::", "<"]
        assert all(t.kind is TokenKind.PUNCT for t in tokens)

    def test_longest_punctuator_wins(self):
        tokens = tokens_of("::: ")
        assert [t.text for t in tokens] == ["::", ":"]

    def test_eof_is_sticky(self):
        lexer = Lexer("x", SPEC)
        lexer.next()
        assert lexer.next().kind is TokenKind.EOF
        assert lexer.next().kind is TokenKind.EOF


class TestNumbers:
    def test_decimal_int(self):
        (token,) = tokens_of("12345")
        assert token.kind is TokenKind.INT
        assert token.value == 12345

    def test_hex_int(self):
        (token,) = tokens_of("0x20000001")
        assert token.value == 0x20000001

    def test_hex_uppercase(self):
        (token,) = tokens_of("0XFF")
        assert token.value == 255

    def test_octal_int(self):
        (token,) = tokens_of("0755")
        assert token.value == 0o755

    def test_plain_zero(self):
        (token,) = tokens_of("0")
        assert token.value == 0

    def test_float_with_point(self):
        (token,) = tokens_of("3.25")
        assert token.kind is TokenKind.FLOAT
        assert token.value == 3.25

    def test_float_with_exponent(self):
        (token,) = tokens_of("1e3")
        assert token.kind is TokenKind.FLOAT
        assert token.value == 1000.0

    def test_float_with_signed_exponent(self):
        (token,) = tokens_of("2.5e-2")
        assert token.value == 0.025

    def test_integer_then_member_access_not_float(self):
        # "1e" without digits must not absorb the 'e'.
        tokens = tokens_of("1 e")
        assert tokens[0].kind is TokenKind.INT
        assert tokens[1].kind is TokenKind.IDENT

    def test_malformed_hex_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokens_of("0x")

    def test_malformed_octal_raises(self):
        with pytest.raises(IdlSyntaxError,
                           match="<test>:1:3: malformed octal literal"):
            tokens_of("  09")


class TestStringsAndChars:
    def test_simple_string(self):
        (token,) = tokens_of('"hello"')
        assert token.kind is TokenKind.STRING
        assert token.value == "hello"

    def test_string_escapes(self):
        (token,) = tokens_of(r'"a\nb\tc\\d\"e"')
        assert token.value == 'a\nb\tc\\d"e'

    def test_string_hex_escape(self):
        (token,) = tokens_of(r'"\x41"')
        assert token.value == "A"

    def test_string_octal_escape(self):
        (token,) = tokens_of(r'"\101"')
        assert token.value == "A"

    def test_unterminated_string_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokens_of('"oops')

    def test_newline_in_string_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokens_of('"a\nb"')

    def test_char_literal(self):
        (token,) = tokens_of("'x'")
        assert token.kind is TokenKind.CHAR
        assert token.value == "x"

    def test_char_escape(self):
        (token,) = tokens_of(r"'\n'")
        assert token.value == "\n"

    def test_unterminated_char_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokens_of("'xy'")

    def test_unknown_escape_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokens_of(r'"\q"')

    def test_octal_escapes_take_octal_digits_only(self):
        (token,) = tokens_of(r'"\18"')
        assert token.value == "\x018"
        with pytest.raises(IdlSyntaxError,
                           match=r"unknown escape sequence \\9"):
            tokens_of(r'"\9"')


class TestComments:
    def test_line_comment(self):
        tokens = tokens_of("a // comment here\n b")
        assert [t.value for t in tokens] == ["a", "b"]

    def test_block_comment(self):
        tokens = tokens_of("a /* stuff \n more */ b")
        assert [t.value for t in tokens] == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokens_of("a /* never ends")

    def test_hash_comment_when_enabled(self):
        tokens = tokens_of("#include <x.h>\n a")
        assert [t.value for t in tokens] == ["a"]

    def test_hash_is_punct_when_disabled(self):
        spec = LexerSpec(keywords=frozenset(), allow_hash_comments=False)
        tokens = tokens_of("#", spec)
        assert tokens[0].kind is TokenKind.PUNCT


class TestStreamInterface:
    def test_peek_does_not_consume(self):
        lexer = Lexer("a b", SPEC)
        assert lexer.peek().value == "a"
        assert lexer.peek().value == "a"
        assert lexer.next().value == "a"

    def test_peek_ahead(self):
        lexer = Lexer("a b c", SPEC)
        assert lexer.peek(2).value == "c"
        assert lexer.next().value == "a"

    def test_accept_punct(self):
        lexer = Lexer("; x", SPEC)
        assert lexer.accept_punct(";")
        assert not lexer.accept_punct(";")
        assert lexer.peek().value == "x"

    def test_expect_punct_error_includes_location(self):
        lexer = Lexer(SourceFile("x", "f.idl"), SPEC)
        with pytest.raises(IdlSyntaxError) as exc_info:
            lexer.expect_punct(";")
        assert "f.idl:1:1" in str(exc_info.value)

    def test_expect_ident(self):
        lexer = Lexer("foo", SPEC)
        assert lexer.expect_ident().value == "foo"

    def test_expect_ident_rejects_keyword(self):
        lexer = Lexer("struct", SPEC)
        with pytest.raises(IdlSyntaxError):
            lexer.expect_ident()

    def test_expect_int(self):
        lexer = Lexer("42", SPEC)
        assert lexer.expect_int().value == 42

    def test_locations_track_lines(self):
        tokens = tokens_of("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_unexpected_character_raises(self):
        with pytest.raises(IdlSyntaxError):
            tokens_of("`")

    def test_location_is_computed_from_the_offset(self):
        source = SourceFile("a\n\n  /* x\n */ bc", "<test>")
        token = Lexer(source, SPEC).peek(1)
        assert (token.text, token.offset) == ("bc", 14)
        assert token.location is token.location
        assert token.location == source.location(14)
        assert str(token.location) == "<test>:4:5"

    def test_eof_sits_on_the_last_character(self):
        lexer = Lexer(SourceFile("a\nb\n", "<test>"), SPEC)
        lexer.next(), lexer.next()
        assert str(lexer.next().location) == "<test>:2:2"
        assert str(Lexer("", SPEC).next().location) == "<string>:1:1"

    def test_unterminated_block_comment_is_reported_where_it_opens(self):
        with pytest.raises(IdlSyntaxError,
                           match="<test>:2:3: unterminated block comment"):
            tokens_of("a /* closed */\n  /* open")


class TestAsciiOnly:
    """CORBA 2.0 section 3.2.3 and RFC 4506 section 6: an identifier is an
    ASCII letter followed by ASCII letters, digits and underscores, and a
    digit is an ASCII digit.  Classifying with ``str.isalnum`` and
    ``str.isdigit`` let ``Pöint`` and ``x²`` through as identifiers
    (whose generated Python did not compile), made ``²`` a raw
    ``ValueError`` from ``int()`` and read ``٣`` as 3."""

    @pytest.mark.parametrize("text,column,char", [
        ("struct Pöint", 9, "ö"),
        ("long x²;", 7, "²"),
        ("Lédger", 2, "é"),
        ("= ²;", 3, "²"),
        ("= ٣;", 3, "٣"),
        ("_ﬁx", 2, "ﬁ"),
        ("x\u00a0y", 2, "\u00a0"),
    ])
    def test_a_non_ascii_character_is_a_syntax_error_where_it_is(
            self, text, column, char):
        with pytest.raises(IdlSyntaxError) as caught:
            tokens_of("\n" + text)
        assert str(caught.value) == "<test>:2:%d: unexpected character %r" \
            % (column, char)

    def test_ascii_identifiers_and_digits_still_lex(self):
        tokens = tokens_of("_Az09 z9_ 0755 9.5e+1")
        assert [t.value for t in tokens] == ["_Az09", "z9_", 0o755, 95.0]


KEYWORDS = sorted(SPEC.keywords)
_identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True) \
    .filter(lambda word: word not in SPEC.keywords)
_ints = st.integers(0, 2 ** 40).flatmap(lambda n: st.sampled_from([
    (str(n), n), (hex(n), n), ("0%o" % n, n)]))
_string_chars = st.sampled_from(
    list("abc XYZ019_;{}/*#'") + ['\\', '"', "\t", "\n"])
_ESCAPED = {"\\": "\\\\", '"': '\\"', "\t": "\\t", "\n": "\\n"}
_tokens = st.one_of(
    _identifiers.map(lambda word: (TokenKind.IDENT, word, word)),
    st.sampled_from(KEYWORDS).map(lambda word: (TokenKind.KEYWORD, word, word)),
    _ints.map(lambda pair: (TokenKind.INT, pair[0], pair[1])),
    st.lists(_string_chars, max_size=8).map(lambda chars: (
        TokenKind.STRING,
        '"%s"' % "".join(_ESCAPED.get(char, char) for char in chars),
        "".join(chars))),
    st.sampled_from([punct for punct in DEFAULT_PUNCTUATORS if punct != "#"])
    .map(lambda punct: (TokenKind.PUNCT, punct, punct)),
)
_comment_text = st.text(st.sampled_from(list("ab */#\"'\t")), max_size=10)
_whitespace = st.text(st.sampled_from(list(" \t\r\n\f\v")), min_size=1,
                      max_size=4)
#: A separator starts with whitespace, so no punctuator before it can
#: merge with it (``/`` then ``//``), and each comment ends in some.
_separators = st.tuples(_whitespace, st.lists(st.tuples(st.one_of(
    _comment_text.map(lambda text: "//%s\n" % text),
    _comment_text.filter(lambda text: "*/" not in text)
    .map(lambda text: "/*%s*/" % text),
    _comment_text.map(lambda text: "#%s\n" % text),
), _whitespace), max_size=2)).map(
    lambda parts: parts[0] + "".join(a + b for a, b in parts[1]))


class TestGeneratedStreams:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_separators, _tokens), max_size=25),
           _separators)
    def test_lexes_back_what_was_generated_at_its_place(self, stream, tail):
        text = "".join(gap + spelling for gap, (_k, spelling, _v) in stream)
        source = SourceFile(text + tail, "<gen>")
        lexer = Lexer(source, SPEC)
        got = []
        while not lexer.at_end():
            got.append(lexer.next())
        assert [(t.kind, t.text, t.value) for t in got] \
            == [token for _gap, token in stream]
        for token in got:
            location = token.location
            line = source.text.split("\n")[location.line - 1]
            assert line[location.column - 1:][:len(token.text)] \
                == token.text
