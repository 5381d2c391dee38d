"""A configurable tokenizer shared by the CORBA, ONC RPC, and MIG front ends.

All three IDLs are C-flavoured: identifiers, integer/float/char/string
literals, ``//`` and ``/* */`` comments, and a set of one- to three-character
punctuators.  The languages differ only in their keyword sets and in a few
lexical details (e.g. MIG treats ``@`` specially), so each front end builds a
:class:`Lexer` from its own :class:`LexerSpec` instead of writing a scanner
from scratch.  This mirrors Flick's shared front-end base library (Table 1 of
the paper).

A spec compiles into one regular expression that skips whitespace and
comments and names the token after them: words and punctuators are read
off the match, numbers, strings and character literals are decoded by the
``_scan_*`` routines from where it starts.  Identifiers and digits are
ASCII, as CORBA 2.0 section 3.2.3 and RFC 4506 section 6 define them.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import IdlSyntaxError
from repro.idl.source import SourceFile


class TokenKind(enum.Enum):
    """Lexical categories produced by :class:`Lexer`."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    CHAR = "char"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


class Token:
    """One lexical token.

    ``value`` holds the decoded payload: an ``int`` for INT tokens, ``float``
    for FLOAT, the unescaped text for CHAR/STRING, and the spelling for
    everything else.  ``location`` is computed from ``offset`` into
    ``source`` when first read: most tokens are never located.
    """

    __slots__ = ("kind", "text", "value", "source", "offset", "_location")

    def __init__(self, kind, text, value, source, offset):
        self.kind = kind
        self.text = text
        self.value = value
        self.source = source
        self.offset = offset
        self._location = None

    @property
    def location(self):
        if self._location is None:
            self._location = self.source.location(self.offset)
        return self._location

    def is_punct(self, spelling):
        return self.kind is TokenKind.PUNCT and self.text == spelling

    def is_keyword(self, spelling):
        return self.kind is TokenKind.KEYWORD and self.text == spelling

    def __str__(self):
        if self.kind is TokenKind.EOF:
            return "end of input"
        return "%r" % self.text


# Punctuators common to the C-family IDLs, longest first so that the scanner
# can match greedily.
DEFAULT_PUNCTUATORS = (
    "<<=", ">>=", "::", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "^", "&", "|", "~", "!", "<", ">", "=",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "?", "@", "#",
)

#: The character each one-character escape sequence stands for.
_ESCAPES = dict(zip("ntvbrfa\\?'\"0", "\n\t\v\b\r\f\a\\?'\"\0"))

_DIGITS = "0123456789"
_OCTAL = "01234567"
_HEX = "0123456789abcdefABCDEF"


@dataclass
class LexerSpec:
    """Per-language lexer configuration.

    Attributes:
        keywords: identifiers to report as ``KEYWORD`` tokens.
        punctuators: recognized punctuator spellings (matched longest-first).
        case_insensitive_keywords: if true, keywords match regardless of
            case and are normalized to lower case (ONC RPC is case
            sensitive; this exists for dialects that are not).
        allow_hash_comments: treat ``# ...`` lines as comments (rpcgen
            passes cpp directives through; we discard them).
    """

    keywords: frozenset = frozenset()
    punctuators: Sequence[str] = DEFAULT_PUNCTUATORS
    case_insensitive_keywords: bool = False
    allow_hash_comments: bool = False
    #: What :meth:`Lexer.tokenize` matches at each position: any run of
    #: whitespace and comments, then exactly one named group.  The last
    #: two alternatives match anywhere, so the skip never backtracks.
    pattern: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.keywords = frozenset(self.keywords)
        # Sort punctuators longest-first once, at spec construction.
        self.punctuators = tuple(
            sorted(self.punctuators, key=len, reverse=True)
        )
        skip = r"[ \t\r\n\f\v]+|//[^\n]*\n?|/\*.*?\*/"
        if self.allow_hash_comments:
            skip += r"|#[^\n]*\n?"
        self.pattern = re.compile(
            r"(?:%s)*(?:(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
            r"|(?P<number>\.?[0-9])|(?P<string>\")|(?P<char>')"
            r"|(?P<open_comment>/\*)|(?P<punct>%s)|(?P<end>\Z)|(?P<bad>.))"
            % (skip, "|".join(map(re.escape, self.punctuators))),
            re.DOTALL)


class Lexer:
    """Tokenizes a :class:`SourceFile` according to a :class:`LexerSpec`.

    The lexer is a one-token-lookahead stream: parsers use :meth:`peek`,
    :meth:`next`, and the ``expect_*`` helpers.  All tokens are produced
    eagerly by :meth:`tokenize` so the stream can also be replayed.
    """

    def __init__(self, source, spec):
        if isinstance(source, str):
            source = SourceFile(source)
        self.source = source
        self.spec = spec
        self._tokens = self.tokenize()
        self._index = 0

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def tokenize(self):
        """Scan the whole input and return the token list (ending in EOF)."""
        source, spec = self.source, self.spec
        text, scan, keywords = source.text, spec.pattern.match, spec.keywords
        fold = spec.case_insensitive_keywords
        tokens = []
        append = tokens.append
        pos = 0
        while True:
            match = scan(text, pos)
            group = match.lastgroup
            start, pos = match.span(group)
            if group == "word":
                word = match[group]
                keyword = word.lower() if fold else word
                if keyword in keywords:
                    append(Token(TokenKind.KEYWORD, keyword, keyword, source,
                                 start))
                else:
                    append(Token(TokenKind.IDENT, word, word, source, start))
            elif group == "punct":
                punct = match[group]
                append(Token(TokenKind.PUNCT, punct, punct, source, start))
            elif group == "end":
                append(Token(TokenKind.EOF, "", None, source,
                             max(start - 1, 0)))
                return tokens
            elif group == "bad":
                self._fail("unexpected character %r" % match[group], start)
            elif group == "open_comment":
                self._fail("unterminated block comment", start)
            else:  # a number, string or character literal
                kind, value, pos = getattr(self, "_scan_" + group)(
                    text, start)
                append(Token(kind, text[start:pos], value, source, start))

    def _fail(self, message, offset):
        raise IdlSyntaxError(message, self.source.location(offset))

    # The literal routines: each decodes the literal at *pos* and returns
    # ``(kind, value, end)``.

    def _scan_number(self, text, pos):
        start = pos
        if text.startswith(("0x", "0X"), pos):
            pos += 2
            while pos < len(text) and text[pos] in _HEX:
                pos += 1
            if pos == start + 2:
                self._fail("malformed hex literal", start)
            return TokenKind.INT, int(text[start:pos], 16), pos
        while pos < len(text) and text[pos] in _DIGITS:
            pos += 1
        is_float = False
        if pos < len(text) and text[pos] == ".":
            is_float = True
            pos += 1
            while pos < len(text) and text[pos] in _DIGITS:
                pos += 1
        if pos < len(text) and text[pos] in "eE":
            lookahead = pos + 1
            if lookahead < len(text) and text[lookahead] in "+-":
                lookahead += 1
            if lookahead < len(text) and text[lookahead] in _DIGITS:
                is_float = True
                pos = lookahead
                while pos < len(text) and text[pos] in _DIGITS:
                    pos += 1
        spelling = text[start:pos]
        if is_float:
            return TokenKind.FLOAT, float(spelling), pos
        if spelling.startswith("0") and len(spelling) > 1:
            if spelling.strip(_OCTAL):
                self._fail("malformed octal literal", start)
            return TokenKind.INT, int(spelling, 8), pos
        return TokenKind.INT, int(spelling, 10), pos

    def _scan_escape(self, text, pos, start):
        """Decode the escape sequence after a backslash; return (char, pos).
        Errors are reported at *start*, the literal's first character."""
        if pos >= len(text):
            self._fail("unterminated escape sequence", start)
        char = text[pos]
        if char in _ESCAPES:
            return _ESCAPES[char], pos + 1
        if char == "x":
            digits = ""
            pos += 1
            while pos < len(text) and text[pos] in _HEX:
                digits += text[pos]
                pos += 1
            if not digits:
                self._fail("malformed \\x escape", start)
            return chr(int(digits, 16)), pos
        if char in _OCTAL:
            digits = ""
            while pos < len(text) and text[pos] in _OCTAL and len(digits) < 3:
                digits += text[pos]
                pos += 1
            return chr(int(digits, 8)), pos
        self._fail("unknown escape sequence \\%s" % char, start)

    def _scan_string(self, text, pos):
        start = pos
        pos += 1
        chars = []
        while True:
            if pos >= len(text):
                self._fail("unterminated string literal", start)
            char = text[pos]
            if char == '"':
                pos += 1
                break
            if char == "\n":
                self._fail("newline in string literal", start)
            if char == "\\":
                decoded, pos = self._scan_escape(text, pos + 1, start)
                chars.append(decoded)
                continue
            chars.append(char)
            pos += 1
        return TokenKind.STRING, "".join(chars), pos

    def _scan_char(self, text, pos):
        start = pos
        pos += 1
        if pos >= len(text):
            self._fail("unterminated character literal", start)
        if text[pos] == "\\":
            decoded, pos = self._scan_escape(text, pos + 1, start)
        else:
            decoded = text[pos]
            pos += 1
        if pos >= len(text) or text[pos] != "'":
            self._fail("unterminated character literal", start)
        return TokenKind.CHAR, decoded, pos + 1

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------

    def peek(self, ahead=0):
        """Return the token *ahead* positions past the cursor (EOF-padded)."""
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def next(self):
        """Consume and return the current token."""
        token = self.peek()
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def at_end(self):
        return self.peek().kind is TokenKind.EOF

    def accept_punct(self, spelling):
        """Consume the punctuator if present; return True on a match."""
        if self.peek().is_punct(spelling):
            self.next()
            return True
        return False

    def accept_keyword(self, spelling):
        """Consume the keyword if present; return True on a match."""
        if self.peek().is_keyword(spelling):
            self.next()
            return True
        return False

    def expect_punct(self, spelling):
        token = self.next()
        if not (token.kind is TokenKind.PUNCT and token.text == spelling):
            raise IdlSyntaxError(
                "expected %r, found %s" % (spelling, token), token.location
            )
        return token

    def expect_keyword(self, spelling):
        token = self.next()
        if not token.is_keyword(spelling):
            raise IdlSyntaxError(
                "expected %r, found %s" % (spelling, token), token.location
            )
        return token

    def expect_ident(self):
        token = self.next()
        if token.kind is not TokenKind.IDENT:
            raise IdlSyntaxError(
                "expected identifier, found %s" % token, token.location
            )
        return token

    def expect_int(self):
        token = self.next()
        if token.kind is not TokenKind.INT:
            raise IdlSyntaxError(
                "expected integer literal, found %s" % token, token.location
            )
        return token
