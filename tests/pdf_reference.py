"""Reference oracle for the PDF lexers: the byte-loop versions.

These are the object lexer, the content-stream tokenizer and the two
single-byte glyph decoders as they were before ``pdf_codec`` moved them
onto compiled regexes, kept verbatim so the differential tests in
``tests/test_pdf_lexer.py`` can compare tokens, parsed objects, end
positions and exception classes against them.  ``font_build`` is the old
``_FontDecoder._build`` (it builds the ``/Differences`` decoder); a test
patches it in to run the whole codec on the old lexers.  Test-only code:
nothing in the package imports it.
"""
from __future__ import annotations

import re
from typing import Dict

from pdf_extractor_ray.codecs.pdf_codec import (
    _WINANSI_HIGH,
    PdfParseError,
    Ref,
    StreamObj,
    _glyph_to_char,
    _parse_tounicode,
)

_WS = b"\x00\t\n\x0c\r "
_DELIM = b"()<>[]{}/%"


class _Lexer:
    """Tokenizer over a PDF object byte region."""

    def __init__(self, buf: bytes, pos: int = 0) -> None:
        self.buf = buf
        self.pos = pos

    def _skip_ws(self) -> None:
        buf, n = self.buf, len(self.buf)
        while self.pos < n:
            c = buf[self.pos]
            if c in _WS:
                self.pos += 1
            elif c == 0x25:  # % comment
                while self.pos < n and buf[self.pos] not in (0x0A, 0x0D):
                    self.pos += 1
            else:
                return

    def parse_object(self):
        self._skip_ws()
        buf, n = self.buf, len(self.buf)
        if self.pos >= n:
            raise PdfParseError("eof")
        c = buf[self.pos]
        if c == 0x2F:  # /Name
            return self._parse_name()
        if c == 0x28:  # (string)
            return self._parse_literal_string()
        if c == 0x3C:  # << dict or <hex>
            if buf.startswith(b"<<", self.pos):
                return self._parse_dict()
            return self._parse_hex_string()
        if c == 0x5B:  # [ array ]
            return self._parse_array()
        if buf.startswith(b"true", self.pos):
            self.pos += 4
            return True
        if buf.startswith(b"false", self.pos):
            self.pos += 5
            return False
        if buf.startswith(b"null", self.pos):
            self.pos += 4
            return None
        return self._parse_number_or_ref()

    def _parse_name(self) -> str:
        self.pos += 1
        buf, n = self.buf, len(self.buf)
        start = self.pos
        out = []
        while self.pos < n:
            c = buf[self.pos]
            if c in _WS or c in _DELIM:
                break
            if c == 0x23 and self.pos + 2 < n:  # #xx escape
                out.append(buf[start : self.pos])
                out.append(bytes([int(buf[self.pos + 1 : self.pos + 3], 16)]))
                self.pos += 3
                start = self.pos
            else:
                self.pos += 1
        out.append(buf[start : self.pos])
        return b"".join(out).decode("latin-1")

    def _parse_literal_string(self) -> bytes:
        self.pos += 1
        buf, n = self.buf, len(self.buf)
        depth = 1
        out = bytearray()
        while self.pos < n:
            c = buf[self.pos]
            if c == 0x5C:  # backslash
                self.pos += 1
                if self.pos >= n:
                    break
                e = buf[self.pos]
                mapping = {0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12}
                if e in mapping:
                    out.append(mapping[e])
                    self.pos += 1
                elif 0x30 <= e <= 0x37:  # octal
                    oct_digits = bytearray()
                    while self.pos < n and len(oct_digits) < 3 and 0x30 <= buf[self.pos] <= 0x37:
                        oct_digits.append(buf[self.pos])
                        self.pos += 1
                    out.append(int(oct_digits, 8) & 0xFF)
                elif e in (0x0A, 0x0D):  # line continuation
                    self.pos += 1
                    if e == 0x0D and self.pos < n and buf[self.pos] == 0x0A:
                        self.pos += 1
                else:
                    out.append(e)
                    self.pos += 1
            elif c == 0x28:
                depth += 1
                out.append(c)
                self.pos += 1
            elif c == 0x29:
                depth -= 1
                self.pos += 1
                if depth == 0:
                    break
                out.append(c)
            else:
                out.append(c)
                self.pos += 1
        return bytes(out)

    def _parse_hex_string(self) -> bytes:
        self.pos += 1
        end = self.buf.find(b">", self.pos)
        if end < 0:
            raise PdfParseError("unterminated hex string")
        hx = re.sub(rb"[^0-9A-Fa-f]", b"", self.buf[self.pos : end])
        self.pos = end + 1
        if len(hx) % 2:
            hx += b"0"
        return bytes.fromhex(hx.decode("ascii"))

    def _parse_array(self) -> list:
        self.pos += 1
        out = []
        while True:
            self._skip_ws()
            if self.pos >= len(self.buf):
                raise PdfParseError("unterminated array")
            if self.buf[self.pos] == 0x5D:
                self.pos += 1
                return out
            out.append(self.parse_object())

    def _parse_dict(self) -> dict:
        self.pos += 2
        out: dict = {}
        while True:
            self._skip_ws()
            if self.buf.startswith(b">>", self.pos):
                self.pos += 2
                return out
            if self.pos >= len(self.buf):
                raise PdfParseError("unterminated dict")
            key = self.parse_object()
            val = self.parse_object()
            if isinstance(key, str):
                out[key] = val

    _NUM_RE = re.compile(rb"[+-]?(?:\d+\.?\d*|\.\d+)")

    def _parse_number_or_ref(self):
        m = self._NUM_RE.match(self.buf, self.pos)
        if not m:
            raise PdfParseError(f"bad token at {self.pos}: {self.buf[self.pos:self.pos+16]!r}")
        tok = m.group()
        self.pos = m.end()
        if b"." in tok:
            return float(tok)
        # might be "N G R" indirect reference
        save = self.pos
        self._skip_ws()
        m2 = self._NUM_RE.match(self.buf, self.pos)
        if m2 and b"." not in m2.group():
            after = m2.end()
            k = after
            while k < len(self.buf) and self.buf[k] in _WS:
                k += 1
            if k < len(self.buf) and self.buf[k : k + 1] == b"R" and (
                k + 1 >= len(self.buf) or self.buf[k + 1] in _WS or self.buf[k + 1] in _DELIM
            ):
                self.pos = k + 1
                return Ref(int(tok), int(m2.group()))
        self.pos = save
        return int(tok)


def _decode_winansi(b: bytes) -> str:
    return "".join(_WINANSI_HIGH.get(c, chr(c)) for c in b)


_CS_TOKEN = re.compile(
    rb"""
    (?P<str>\() | (?P<hex><[0-9A-Fa-f\s]*>) | (?P<arr_open>\[) | (?P<arr_close>\])
    | (?P<name>/[^\s()<>\[\]{}/%]*)
    | (?P<num>[+-]?(?:\d+\.?\d*|\.\d+))
    | (?P<op>[A-Za-z'"*]{1,3})
    """,
    re.VERBOSE,
)


def _tokenize_content(buf: bytes):
    """Yield ('num'|'name'|'str'|'op'|'arr', value) tokens."""
    pos = 0
    n = len(buf)
    while pos < n:
        c = buf[pos]
        if c in _WS:
            pos += 1
            continue
        if c == 0x25:  # comment
            while pos < n and buf[pos] not in (0x0A, 0x0D):
                pos += 1
            continue
        if c == 0x28:
            lex = _Lexer(buf, pos)
            s = lex._parse_literal_string()
            pos = lex.pos
            yield ("str", s)
            continue
        m = _CS_TOKEN.match(buf, pos)
        if not m:
            pos += 1  # skip junk byte (degrade)
            continue
        pos = m.end()
        if m.lastgroup == "hex":
            hx = re.sub(rb"[^0-9A-Fa-f]", b"", m.group())
            if len(hx) % 2:
                hx += b"0"
            yield ("str", bytes.fromhex(hx.decode("ascii")))
        elif m.lastgroup == "name":
            yield ("name", m.group()[1:].decode("latin-1"))
        elif m.lastgroup == "num":
            g = m.group()
            yield ("num", float(g) if b"." in g else int(g))
        elif m.lastgroup == "arr_open":
            yield ("arr_open", None)
        elif m.lastgroup == "arr_close":
            yield ("arr_close", None)
        else:
            op = m.group().decode("latin-1")
            if op == "BI":
                # inline image: skip binary data through to "EI" at a
                # token boundary (whitespace-delimited) so image bytes
                # never reach the text interpreter
                e = pos
                while True:
                    e = buf.find(b"EI", e)
                    if e < 0:
                        pos = n
                        break
                    before_ws = e == 0 or buf[e - 1] in _WS
                    after = buf[e + 2 : e + 3]
                    after_ws = not after or after[0] in _WS
                    if before_ws and after_ws:
                        pos = e + 2
                        break
                    e += 2
                continue
            yield ("op", op)


def font_build(self, font: object):
    if not isinstance(font, dict):
        return None
    key_src = self._key_repr(font)
    tu = font.get("ToUnicode")
    tu_bytes = b""
    if tu is not None:
        try:
            tu_obj = self.doc.resolve(tu)
            if isinstance(tu_obj, StreamObj):
                tu_bytes = tu_obj.data(self.doc.resolve)
        except Exception:
            tu_bytes = b""
    import hashlib as _hl

    key = _hl.md5(key_src.encode() + tu_bytes).hexdigest()
    if key in self.cache:
        return self.cache[key]

    decode = None
    if tu_bytes:
        table, width = _parse_tounicode(tu_bytes)

        def decode_tounicode(b: bytes, _t=table, _w=width) -> str:
            out = []
            for i in range(0, len(b) - _w + 1, _w):
                code = int.from_bytes(b[i : i + _w], "big")
                out.append(_t.get(code, ""))
            return "".join(out)

        decode = decode_tounicode
    else:
        enc = None
        try:
            enc = self.doc.resolve(font.get("Encoding"))
        except Exception:
            enc = None
        if isinstance(enc, dict) and isinstance(enc.get("Differences"), list):
            table2: Dict[int, str] = {}
            code = 0
            for el in enc["Differences"]:
                if isinstance(el, int):
                    code = el
                else:
                    ch = _glyph_to_char(str(el))
                    table2[code] = ch if ch is not None else ""
                    code += 1

            def decode_diff(b: bytes, _t=table2) -> str:
                return "".join(
                    _t.get(c, _WINANSI_HIGH.get(c, chr(c))) for c in b
                )

            decode = decode_diff

    self.cache[key] = decode
    return decode
