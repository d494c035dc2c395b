"""From-scratch PDF layout parser (no pdfplumber/pypdf in this env).

Replaces the reference's pdfplumber-based page loop (reference:
extractor/extractors/pdf_text_extractor.py:58-217) with a pure-Python
codec suitable for ``map_batches`` over Arrow batches:

- xref/object parser with a brute-force object-scan fallback for
  corrupt/truncated xref tables (degrade-and-continue, mirroring the
  reference's swallow policy at pdf_text_extractor.py:195-198)
- FlateDecode via stdlib ``zlib``
- content-stream tokenizer for the text operators
  ``BT ET Tf Td TD TL T* Tm Tj TJ ' "`` and path operators
  ``m l re S s B b f`` (ruled lines for tables)
- WinAnsi/Latin-1 simple-font string decode with per-codec font-object
  cache (the actor-pool warm state; analogue of pdfplumber's internal
  per-document font caches, reference: pdf_text_extractor.py:100,146)
- column-aware y-then-x reading order: chunks are clustered into
  vertical columns when a clean whitespace gutter exists, then lines
  are assembled top-down per column (north-rule "column-aware y-x
  block sort")
- ruled-line table grid reconstruction (the ``lines_strict`` analogue
  of the reference's table settings, pdf_text_extractor.py:183-192):
  horizontal+vertical rules snapped with tolerance 5 → cell grid →
  ragged ``tables`` list (tables → rows → cells, nullable cells,
  reference: extractor/models/base.py:39-42)

Partitioning assumption: one document per row; all state but the
font-decoder cache is document-local, so rows parse embarrassingly
parallel.

Lexer contract.  Both lexers run on compiled regexes whose leading
``(?:whitespace|%comment)*`` skip makes one match one token; the few
constructs without a fast pattern (nested or escaped literal strings,
object hex strings, inline images, bad tokens) run exact byte loops.
Their tokens, objects, end positions and exception classes must equal
those of the byte-loop reference lexers in ``tests/pdf_reference.py``,
which encode these rules:

- content-stream names stop at bytes-regex ``\\s``, which includes
  ``\\x0b`` and excludes ``\\x00``; the skip set is ``_WS``, which is the
  other way round;
- an ``N G R`` reference may have comments between N and G but only
  whitespace between G and ``R``, and ``R`` must be followed by
  whitespace, a delimiter or the end of the buffer;
- ``true``/``false``/``null`` match as prefixes, with no word boundary;
- dict entries whose key is not a name are dropped;
- ``_Lexer.pos`` after each object is the reference's (``get()`` looks
  for ``stream`` there), and an input the reference rejects raises the
  same exception class.

One rule differs on purpose: a ``#`` in a name that is not followed by
two hex digits is a literal ``#``; the reference raised ``ValueError``,
which the degrade handlers (they catch ``PdfParseError``) missed.
"""
from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

# geometry tolerances (points)
LINE_Y_TOL = 3.0  # chunks within this y-delta share a text line
SNAP_TOL = 5.0  # ruling-line snap tolerance (reference uses 5)
COLUMN_MIN_GAP = 24.0  # min whitespace gutter width to split columns
TJ_SPACE_THRESHOLD = -90.0  # TJ adjustment (thousandths) that implies a space
AVG_CHAR_WIDTH_EM = 0.5  # Helvetica-ish average advance per char


class PdfParseError(Exception):
    pass


# --------------------------------------------------------------------------
# object model
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Ref:
    num: int
    gen: int


@dataclass
class StreamObj:
    dict: dict
    raw: bytes

    def data(self, resolver) -> bytes:
        filt = resolver(self.dict.get("Filter"))
        raw = self.raw
        length = resolver(self.dict.get("Length"))
        if isinstance(length, int) and 0 <= length <= len(raw):
            raw = raw[:length]
        if filt is None:
            return raw
        filters = filt if isinstance(filt, list) else [filt]
        # DecodeParms mirrors the Filter shape: a single dict, or an
        # array paired entry-by-entry with the filter array (both forms
        # are common; the array form previously skipped predictors and
        # made xref/content streams decode to garbage)
        parms_raw = self.dict.get("DecodeParms", self.dict.get("DP"))
        parms_raw = resolver(parms_raw)
        if isinstance(parms_raw, list):
            parms_list = [resolver(p) for p in parms_raw]
        else:
            parms_list = [parms_raw]
        parms_list += [None] * (len(filters) - len(parms_list))
        for f, parm in zip(filters, parms_list):
            name = resolver(f)
            if name == "FlateDecode" or name == "Fl":
                try:
                    raw = zlib.decompress(raw)
                except zlib.error:
                    # Length was unusable and raw still carries the EOL
                    # separator before `endstream` — retry trimmed
                    trimmed = raw
                    if trimmed.endswith(b"\r\n"):
                        trimmed = trimmed[:-2]
                    elif trimmed.endswith(b"\n") or trimmed.endswith(b"\r"):
                        trimmed = trimmed[:-1]
                    raw = zlib.decompress(trimmed)
            elif name in ("ASCIIHexDecode", "AHx"):
                raw = _hex_bytes(raw.split(b">")[0])
            elif name in ("ASCII85Decode", "A85"):
                import base64

                body = raw.split(b"~>")[0]
                body = re.sub(rb"\s", b"", body)
                if body.startswith(b"<~"):
                    body = body[2:]
                raw = base64.a85decode(body)
            elif name in ("RunLengthDecode", "RL"):
                raw = _rle_decode(raw)
            elif name in ("LZWDecode", "LZW"):
                raw = _lzw_decode(raw)
            elif name in (None,):
                pass
            else:
                raise PdfParseError(f"unsupported filter {name!r}")
            # predictor applies to THIS filter's output (per-entry
            # pairing, PDF 32000-1 §7.4.4.4)
            if isinstance(parm, dict):
                pred = resolver(parm.get("Predictor")) or 1
                if pred >= 10:
                    raw = _png_unpredict(
                        raw, resolver(parm.get("Columns")) or 1,
                        resolver(parm.get("Colors")) or 1,
                        (resolver(parm.get("BitsPerComponent")) or 8) // 8 or 1,
                    )
        return raw


def _png_unpredict(data: bytes, columns: int, colors: int = 1, bpc_bytes: int = 1) -> bytes:
    """Reverse PNG row predictors (PDF Predictor >= 10; xref streams
    ship Up/Sub rows). Row layout: 1 filter byte + columns*colors*bytes."""
    rowlen = columns * colors * bpc_bytes
    stride = colors * bpc_bytes
    out = bytearray()
    prev = bytearray(rowlen)
    pos = 0
    while pos + 1 + rowlen <= len(data) + rowlen:  # tolerate short last row
        if pos >= len(data):
            break
        ftype = data[pos]
        row = bytearray(data[pos + 1 : pos + 1 + rowlen])
        if len(row) < rowlen:
            row.extend(b"\x00" * (rowlen - len(row)))
        if ftype == 1:  # Sub
            for i in range(stride, rowlen):
                row[i] = (row[i] + row[i - stride]) & 0xFF
        elif ftype == 2:  # Up
            for i in range(rowlen):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif ftype == 3:  # Average
            for i in range(rowlen):
                left = row[i - stride] if i >= stride else 0
                row[i] = (row[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(rowlen):
                a = row[i - stride] if i >= stride else 0
                b = prev[i]
                c = prev[i - stride] if i >= stride else 0
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa_ <= pb and pa_ <= pc_ else (b if pb <= pc_ else c)
                row[i] = (row[i] + pred) & 0xFF
        # ftype 0 = None
        out.extend(row)
        prev = row
        pos += 1 + rowlen
    return bytes(out)


# --------------------------------------------------------------------------
# encryption: standard security handler, RC4 (V1/V2, R2/R3), empty user
# password — the common crawled-document case (owner-locked, readable)
# --------------------------------------------------------------------------
_PAD = bytes(
    [
        0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41,
        0x64, 0x00, 0x4E, 0x56, 0xFF, 0xFA, 0x01, 0x08,
        0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
        0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
    ]
)


def _rc4(key: bytes, data: bytes) -> bytes:
    S = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + S[i] + key[i % klen]) & 0xFF
        S[i], S[j] = S[j], S[i]
    out = bytearray(len(data))
    i = j = 0
    for n, c in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + S[i]) & 0xFF
        S[i], S[j] = S[j], S[i]
        out[n] = c ^ S[(S[i] + S[j]) & 0xFF]
    return bytes(out)


class _StdSecurity:
    """File key for the standard security handler, empty user password.

    Supported: V1/V2 RC4 (R2 40-bit, R3 128-bit) and V4 /AESV2
    (AES-128-CBC, R4). AES-256 (V5) is detected and reported as
    unsupported — the document degrades to parse_error rather than
    emitting garbage.
    """

    def __init__(self, enc: dict, file_id: bytes) -> None:
        import hashlib as _hl

        if enc.get("Filter") != "Standard":
            raise PdfParseError("unsupported security handler")
        v = int(enc.get("V", 0))
        r = int(enc.get("R", 2))
        self.aes = False
        if v in (1, 2):
            pass  # RC4
        elif v == 4:
            cf = enc.get("CF") or {}
            stdcf = cf.get("StdCF") if isinstance(cf, dict) else None
            cfm = stdcf.get("CFM") if isinstance(stdcf, dict) else None
            if cfm == "AESV2":
                self.aes = True
            elif cfm in ("V2", None):
                pass  # RC4 crypt filter
            else:
                raise PdfParseError(f"unsupported crypt filter {cfm!r}")
        else:
            raise PdfParseError("unsupported encryption version (AES-256?)")
        length_bits = int(enc.get("Length", 40))
        self.keylen = 5 if r == 2 else max(5, min(16, length_bits // 8))
        if self.aes:
            self.keylen = 16
        o = enc.get("O")
        p = int(enc.get("P", -1)) & 0xFFFFFFFF
        if not isinstance(o, bytes):
            raise PdfParseError("missing O entry")
        h = _hl.md5()
        h.update(_PAD)  # empty user password → pad only
        h.update(o[:32])
        h.update(p.to_bytes(4, "little"))
        h.update(file_id)
        if r >= 4 and enc.get("EncryptMetadata") is False:
            h.update(b"\xff\xff\xff\xff")
        key = h.digest()
        if r >= 3:
            for _ in range(50):
                key = _hl.md5(key[: self.keylen]).digest()
        self.key = key[: self.keylen]

    def decrypt(self, num: int, gen: int, data: bytes) -> bytes:
        import hashlib as _hl

        k = self.key + num.to_bytes(3, "little") + gen.to_bytes(2, "little")
        if self.aes:
            k += b"sAlT"
        objkey = _hl.md5(k).digest()[: min(self.keylen + 5, 16)]
        if self.aes:
            from .aes import aes128_cbc_decrypt

            return aes128_cbc_decrypt(objkey, data)
        return _rc4(objkey, data)


def _rle_decode(data: bytes) -> bytes:
    """PDF RunLengthDecode: length byte L — L<128: copy L+1 literal
    bytes; L>128: repeat next byte 257-L times; 128 = EOD."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        l = data[i]
        i += 1
        if l == 128:
            break
        if l < 128:
            out += data[i : i + l + 1]
            i += l + 1
        else:
            if i < n:
                out += bytes([data[i]]) * (257 - l)
                i += 1
    return bytes(out)


def _lzw_decode(data: bytes) -> bytes:
    """PDF LZWDecode: variable-width (9-12 bit) MSB-first codes,
    clear=256, EOD=257 (TIFF-style early change)."""
    out = bytearray()
    table: List[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    width = 9
    prev: Optional[bytes] = None
    acc = 0
    nbits = 0
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= width:
            code = (acc >> (nbits - width)) & ((1 << width) - 1)
            nbits -= width
            if code == 256:  # clear table
                table = [bytes([i]) for i in range(256)] + [b"", b""]
                width = 9
                prev = None
                continue
            if code == 257:  # EOD
                return bytes(out)
            if prev is None:
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            else:
                entry = prev + prev[:1]
                table.append(entry)
            out += entry
            prev = entry
            if len(table) >= (1 << width) - 1 and width < 12:
                width += 1
    return bytes(out)


_WS = b"\x00\t\n\x0c\r "

# _WS bytes and %-comments (up to the next \r or \n) before a token
_SKIP = rb"(?:[\x00\t\n\x0c\r\x20]++|%[^\r\n]*+)*+"
_SKIP_RE = re.compile(_SKIP)
# object names stop at _WS bytes and the delimiters ()<>[]{}/% (\x0b
# belongs to the name)
_NAME_BYTE = rb"[^\x00\t\n\x0c\r\x20()<>\[\]{}/%]"
_NAME = _NAME_BYTE + rb"*+"
# one object token after the skip; ``other`` (empty) hands literal
# strings that nest or escape, hex strings, EOF and bad tokens to the
# exact slow paths.  ``N G R`` skips comments between N and G but only
# whitespace between G and R, and R must end at a byte that ends a name
_OBJ_TOKEN = re.compile(
    _SKIP
    + rb"""(?:
      /(?P<name>""" + _NAME + rb""")
    | (?P<int>[+-]?\d++)(?!\.)
      (?:""" + _SKIP + rb"""(?P<gen>[+-]?\d++)(?!\.)
         [\x00\t\n\x0c\r\x20]*+R(?!""" + _NAME_BYTE + rb"""))?
    | (?P<real>[+-]?(?:\d++\.\d*+|\.\d++))
    | (?P<dict><<)
    | (?P<array>\[)
    | \((?P<lit>[^()\\]*+)\)
    | (?P<true>true) | (?P<false>false) | (?P<null>null)
    | (?P<other>)
    )""",
    re.VERBOSE,
)
# inside a dict: the closing ``>>`` or a plain name key
_DICT_KEY = re.compile(_SKIP + rb"(?:(?P<end>>>)|/(?P<key>" + _NAME + rb"))?")
_NAME_ESCAPE = re.compile(rb"#([0-9A-Fa-f]{2})")
_LIT_ESCAPES = {0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12}


_HEX_JUNK = re.compile(rb"[^0-9A-Fa-f]")


def _hex_bytes(body: bytes) -> bytes:
    """Hex-string body → bytes: non-hex bytes are dropped and an odd
    final digit is padded with 0."""
    hx = _HEX_JUNK.sub(b"", body)
    if len(hx) % 2:
        hx += b"0"
    return bytes.fromhex(hx.decode("ascii"))


def _name(raw: bytes) -> str:
    """Decode a name's bytes: ``#xx`` with two hex digits is one byte;
    any other ``#`` stays a literal ``#``."""
    if b"#" in raw:
        raw = _NAME_ESCAPE.sub(lambda m: bytes([int(m.group(1), 16)]), raw)
    return raw.decode("latin-1")


class _Lexer:
    """Tokenizer over a PDF object byte region.

    ``pos`` is the byte after the last object parsed; ``get()`` looks for
    ``stream`` there.
    """

    def __init__(self, buf: bytes, pos: int = 0) -> None:
        self.buf = buf
        self.pos = pos

    def _skip_ws(self) -> None:
        self.pos = _SKIP_RE.match(self.buf, self.pos).end()

    def parse_object(self):
        m = _OBJ_TOKEN.match(self.buf, self.pos)
        self.pos = m.end()
        kind = m.lastgroup
        if kind == "name":
            return _name(m.group("name"))
        if kind == "int":
            return int(m.group("int"))
        if kind == "gen":
            return Ref(int(m.group("int")), int(m.group("gen")))
        if kind == "dict":
            return self._parse_dict()
        if kind == "array":
            return self._parse_array()
        if kind == "lit":
            return m.group("lit")
        if kind == "real":
            return float(m.group("real"))
        if kind == "true":
            return True
        if kind == "false":
            return False
        if kind == "null":
            return None
        buf, pos = self.buf, self.pos
        if pos >= len(buf):
            raise PdfParseError("eof")
        c = buf[pos]
        if c == 0x28:  # (string) with nesting or escapes
            return self._parse_literal_string()
        if c == 0x3C:  # <hex>
            return self._parse_hex_string()
        raise PdfParseError(f"bad token at {pos}: {buf[pos:pos+16]!r}")

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
                if e in _LIT_ESCAPES:
                    out.append(_LIT_ESCAPES[e])
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
        body = self.buf[self.pos : end]
        self.pos = end + 1
        return _hex_bytes(body)

    def _parse_array(self) -> list:
        """Elements up to ``]``; ``pos`` is just past the ``[``."""
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
        """Entries up to ``>>``; ``pos`` is just past the ``<<``.  Entries
        whose key is not a name are parsed and dropped."""
        buf, n = self.buf, len(self.buf)
        out: dict = {}
        while True:
            m = _DICT_KEY.match(buf, self.pos)
            self.pos = m.end()
            key = m.group("key")
            if key is not None:
                out[_name(key)] = self.parse_object()
            elif m.group("end") is not None:
                return out
            elif self.pos >= n:
                raise PdfParseError("unterminated dict")
            else:
                key = self.parse_object()
                val = self.parse_object()
                if isinstance(key, str):
                    out[key] = val


# --------------------------------------------------------------------------
# document
# --------------------------------------------------------------------------
_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
# the brute scan's pattern: never starts inside a digit run, so a long run
# costs one attempt, not one per digit.  A whole-buffer finditer finds the
# same objects as _OBJ_RE; get() keeps the anchored _OBJ_RE because an
# xref offset may point into a run
_OBJ_SCAN_RE = re.compile(rb"(?<![0-9])(\d++)\s++(\d++)\s++obj\b")


class _PdfDocument:
    """Parsed object store; resolves references lazily with a cache.

    The cache dict is the per-document analogue of pdfplumber's internal
    font/object caches (SURVEY.md A4); a ``PdfCodec`` held in an actor
    pool reuses the codec instance while each document's cache is local.
    """

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offsets: Dict[int, int] = {}
        # num → (objstm_num, index) for objects packed in object streams
        # (PDF ≥1.5 compressed objects; invisible to the brute scan)
        self.compressed: Dict[int, Tuple[int, int]] = {}
        self._cache: Dict[int, object] = {}
        self._xref_trailer: Optional[dict] = None
        if not data.startswith(b"%PDF-"):
            raise PdfParseError("missing %PDF header")
        if not self._load_xref():
            self._scan_objects()
        if not self.offsets:
            raise PdfParseError("no objects found")
        self.trailer = self._find_trailer()
        self.security: Optional[_StdSecurity] = None
        enc_ref = self.trailer.get("Encrypt")
        if enc_ref is not None:
            enc = self.resolve(enc_ref)
            if not isinstance(enc, dict):
                raise PdfParseError("bad Encrypt dict")
            fid = self.trailer.get("ID")
            fid0 = fid[0] if isinstance(fid, list) and fid and isinstance(fid[0], bytes) else b""
            self.security = _StdSecurity(enc, fid0)
            # streams parsed before the handler existed must re-decrypt
            self._cache = {k: v for k, v in self._cache.items()
                           if not isinstance(v, StreamObj)}

    # -- xref / scan ------------------------------------------------------
    def _load_xref(self) -> bool:
        tail = self.data[-256:]
        m = re.search(rb"startxref\s+(\d+)", tail)
        if not m:
            return False
        try:
            pos = int(m.group(1))
            if pos >= len(self.data):
                return False
            if not self.data.startswith(b"xref", pos):
                # PDF ≥1.5 cross-reference STREAM (an object, not a table)
                return self._load_xref_stream(pos)
            lex_pos = pos + 4
            sec_re = re.compile(rb"\s*(\d+)\s+(\d+)\s*")
            entry_re = re.compile(rb"(\d{10})\s(\d{5})\s([nf])\s?\s?")
            while True:
                m2 = sec_re.match(self.data, lex_pos)
                if not m2:
                    break
                start, count = int(m2.group(1)), int(m2.group(2))
                p = m2.end()
                for i in range(count):
                    e = entry_re.match(self.data, p)
                    if not e:
                        return False
                    if e.group(3) == b"n":
                        off = int(e.group(1))
                        num = start + i
                        if off < len(self.data):
                            self.offsets[num] = off
                    p = e.end()
                lex_pos = p
            return bool(self.offsets)
        except Exception:
            return False

    def _load_xref_stream(self, pos: int, depth: int = 0) -> bool:
        """Parse a cross-reference stream at ``pos`` (/Type /XRef):
        binary W-field triples, optional PNG predictor, /Prev chain.
        Entry types: 1 = (offset, gen) regular, 2 = (objstm, index)
        compressed; earlier sections win over /Prev (newer first)."""
        if depth > 16:
            return False
        m = _OBJ_RE.match(self.data, pos)
        if not m:
            return False
        lex = _Lexer(self.data, m.end())
        d = lex.parse_object()
        if not isinstance(d, dict) or d.get("Type") != "XRef":
            return False
        lex._skip_ws()
        if not self.data.startswith(b"stream", lex.pos):
            return False
        p = lex.pos + len(b"stream")
        if self.data.startswith(b"\r\n", p):
            p += 2
        elif self.data.startswith(b"\n", p) or self.data.startswith(b"\r", p):
            p += 1
        length = d.get("Length")
        if not isinstance(length, int):
            return False
        stm = StreamObj(dict=d, raw=self.data[p : p + length])
        try:
            body = stm.data(lambda o: o)  # xref streams use direct values
        except Exception:
            return False
        w = d.get("W")
        if not (isinstance(w, list) and len(w) >= 3):
            return False
        w0, w1, w2 = int(w[0]), int(w[1]), int(w[2])
        rec = w0 + w1 + w2
        size = int(d.get("Size", 0))
        index = d.get("Index") or [0, size]
        spans = [
            (int(index[i]), int(index[i + 1])) for i in range(0, len(index) - 1, 2)
        ]
        off = 0

        def field(buf: bytes, width: int, default: int) -> int:
            return int.from_bytes(buf, "big") if width else default

        for start, count in spans:
            for i in range(count):
                if off + rec > len(body):
                    break
                chunk = body[off : off + rec]
                off += rec
                num = start + i
                if num in self.offsets or num in self.compressed:
                    continue  # newer section already defined it
                t = field(chunk[:w0], w0, 1)
                f2 = field(chunk[w0 : w0 + w1], w1, 0)
                f3 = field(chunk[w0 + w1 : rec], w2, 0)
                if t == 1 and f2 < len(self.data):
                    self.offsets[num] = f2
                elif t == 2:
                    self.compressed[num] = (f2, f3)
        if self._xref_trailer is None and "Root" in d:
            self._xref_trailer = d
        prev = d.get("Prev")
        if isinstance(prev, int) and prev < len(self.data):
            if self.data.startswith(b"xref", prev):
                # hybrid file: classic table earlier in the chain — the
                # brute scan recovers those objects
                pass
            else:
                self._load_xref_stream(prev, depth + 1)
        return bool(self.offsets or self.compressed)

    def _scan_objects(self) -> None:
        """Brute-force recovery: find every ``N G obj`` in the file.

        Handles truncated/corrupt xref tables (FIXTURES.md F1 edge rows)
        the way real-world crawler shards require.
        """
        for m in _OBJ_SCAN_RE.finditer(self.data):
            self.offsets[int(m.group(1))] = m.start()

    def _find_trailer(self) -> dict:
        if self._xref_trailer is not None:
            return self._xref_trailer
        idx = self.data.rfind(b"trailer")
        if idx >= 0:
            lex = _Lexer(self.data, idx + len(b"trailer"))
            try:
                t = lex.parse_object()
                if isinstance(t, dict) and "Root" in t:
                    return t
            except PdfParseError:
                pass
        # fallback: find the catalog by scanning objects
        for num in self.offsets:
            try:
                obj = self.get(num)
            except PdfParseError:
                continue
            d = obj.dict if isinstance(obj, StreamObj) else obj
            if isinstance(d, dict) and d.get("Type") == "Catalog":
                return {"Root": Ref(num, 0)}
        raise PdfParseError("no trailer / catalog")

    # -- object access ----------------------------------------------------
    def get(self, num: int):
        if num in self._cache:
            return self._cache[num]
        off = self.offsets.get(num)
        if off is None:
            if num in self.compressed:
                return self._get_compressed(num)
            raise PdfParseError(f"missing object {num}")
        m = _OBJ_RE.match(self.data, off)
        if not m:
            raise PdfParseError(f"bad object header at {off}")
        lex = _Lexer(self.data, m.end())
        obj = lex.parse_object()
        lex._skip_ws()
        if self.data.startswith(b"stream", lex.pos):
            p = lex.pos + len(b"stream")
            if self.data.startswith(b"\r\n", p):
                p += 2
            elif self.data.startswith(b"\n", p) or self.data.startswith(b"\r", p):
                p += 1
            end = self.data.find(b"endstream", p)
            if end < 0:
                end = len(self.data)
            raw = self.data[p:end]
            # trailing-EOL trim is a HEURISTIC for when /Length is
            # unusable; with a usable /Length the exact slice happens in
            # StreamObj.data() — trimming here would eat real data bytes
            # when the (compressed) stream itself ends in \r or \n
            d = obj if isinstance(obj, dict) else {}
            length = d.get("Length")
            has_usable_length = isinstance(length, (int, Ref))
            if not has_usable_length:
                if raw.endswith(b"\r\n"):
                    raw = raw[:-2]
                elif raw.endswith(b"\n") or raw.endswith(b"\r"):
                    raw = raw[:-1]
            sec = getattr(self, "security", None)
            if sec is not None and d.get("Type") != "XRef":
                # stream payloads are RC4-encrypted per object; slice to
                # /Length first (exact ciphertext), then decrypt
                if isinstance(length, int) and 0 <= length <= len(raw):
                    raw = raw[:length]
                elif isinstance(length, Ref):
                    lv = self.resolve(length)
                    if isinstance(lv, int) and 0 <= lv <= len(raw):
                        raw = raw[:lv]
                gen = int(m.group(2))
                raw = sec.decrypt(num, gen, raw)
            obj = StreamObj(dict=d, raw=raw)
        self._cache[num] = obj
        return obj

    def _get_compressed(self, num: int):
        """Load an object packed in an object stream (/Type /ObjStm):
        header = N pairs of "objnum offset" ints, bodies start at
        /First; the whole container parses once and caches every
        member (the warm-cache shape of SURVEY A4)."""
        stm_num, _idx = self.compressed[num]
        container = self.get(stm_num)
        if not isinstance(container, StreamObj):
            raise PdfParseError(f"objstm {stm_num} is not a stream")
        body = container.data(self.resolve)
        n = self.resolve(container.dict.get("N"))
        first = self.resolve(container.dict.get("First"))
        if not isinstance(n, int) or not isinstance(first, int):
            raise PdfParseError("objstm missing N/First")
        head = _Lexer(body[:first])
        pairs = []
        for _ in range(n):
            onum = head.parse_object()
            ooff = head.parse_object()
            if not isinstance(onum, int) or not isinstance(ooff, int):
                raise PdfParseError("bad objstm header")
            pairs.append((onum, ooff))
        for onum, ooff in pairs:
            if onum in self._cache:
                continue
            lex = _Lexer(body, first + ooff)
            try:
                self._cache[onum] = lex.parse_object()
            except PdfParseError:
                continue
        if num not in self._cache:
            raise PdfParseError(f"object {num} not found in objstm {stm_num}")
        return self._cache[num]

    def resolve(self, obj):
        seen = 0
        while isinstance(obj, Ref):
            obj = self.get(obj.num)
            seen += 1
            if seen > 32:
                raise PdfParseError("reference loop")
        return obj

    # -- page tree --------------------------------------------------------
    def pages(self) -> List[dict]:
        root = self.resolve(self.trailer["Root"])
        if not isinstance(root, dict):
            raise PdfParseError("bad catalog")
        out: List[dict] = []
        stack = [(self.resolve(root.get("Pages")), {})]
        guard = 0
        while stack:
            guard += 1
            if guard > 10000:
                raise PdfParseError("page tree too deep")
            node, inherited = stack.pop()
            if not isinstance(node, dict):
                continue
            inh = dict(inherited)
            for k in ("MediaBox", "Resources"):
                if k in node:
                    inh[k] = node[k]
            if node.get("Type") == "Page":
                page = dict(node)
                for k, v in inh.items():
                    page.setdefault(k, v)
                out.append(page)
            else:
                kids = self.resolve(node.get("Kids")) or []
                for kid in reversed(kids):
                    stack.append((self.resolve(kid), inh))
        return out

    def content_bytes(self, page: dict) -> bytes:
        contents = self.resolve(page.get("Contents"))
        if contents is None:
            return b""
        streams = contents if isinstance(contents, list) else [contents]
        parts = []
        for s in streams:
            s = self.resolve(s)
            if isinstance(s, StreamObj):
                parts.append(s.data(self.resolve))
        return b"\n".join(parts)


# --------------------------------------------------------------------------
# content-stream interpretation
# --------------------------------------------------------------------------
@dataclass
class Chunk:
    x: float
    y: float
    size: float
    text: str

    @property
    def x1(self) -> float:
        return self.x + len(self.text) * self.size * AVG_CHAR_WIDTH_EM


# WinAnsiEncoding differences from Latin-1 in the 0x80-0x9F range, as a
# str.translate table over the Latin-1 decoding
_WINANSI_HIGH = {
    0x80: "€", 0x82: "‚", 0x83: "ƒ", 0x84: "„",
    0x85: "…", 0x86: "†", 0x87: "‡", 0x88: "ˆ",
    0x89: "‰", 0x8A: "Š", 0x8B: "‹", 0x8C: "Œ",
    0x8E: "Ž", 0x91: "‘", 0x92: "’", 0x93: "“",
    0x94: "”", 0x95: "•", 0x96: "–", 0x97: "—",
    0x98: "˜", 0x99: "™", 0x9A: "š", 0x9B: "›",
    0x9C: "œ", 0x9E: "ž", 0x9F: "Ÿ",
}


def _decode_winansi(b: bytes) -> str:
    return b.decode("latin-1").translate(_WINANSI_HIGH)


# --------------------------------------------------------------------------
# font decoding: ToUnicode CMaps, /Encoding /Differences, glyph names
# --------------------------------------------------------------------------
# minimal Adobe-Glyph-List subset for /Differences glyph names
_GLYPH_NAMES = {
    "space": " ", "exclam": "!", "quotedbl": '"', "numbersign": "#",
    "dollar": "$", "percent": "%", "ampersand": "&", "quotesingle": "'",
    "parenleft": "(", "parenright": ")", "asterisk": "*", "plus": "+",
    "comma": ",", "hyphen": "-", "period": ".", "slash": "/",
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "colon": ":", "semicolon": ";", "less": "<", "equal": "=",
    "greater": ">", "question": "?", "at": "@", "bracketleft": "[",
    "backslash": "\\", "bracketright": "]", "underscore": "_",
    "braceleft": "{", "bar": "|", "braceright": "}", "degree": "°",
    "bullet": "•", "endash": "–", "emdash": "—", "eacute": "é",
    "egrave": "è", "agrave": "à", "ccedilla": "ç", "uumlaut": "ü",
    "udieresis": "ü", "odieresis": "ö", "adieresis": "ä",
}


def _glyph_to_char(name: str) -> Optional[str]:
    if len(name) == 1:
        return name
    if name in _GLYPH_NAMES:
        return _GLYPH_NAMES[name]
    if name.startswith("uni") and len(name) >= 7:
        try:
            return chr(int(name[3:7], 16))
        except ValueError:
            return None
    return None


_BFCHAR_RE = re.compile(rb"beginbfchar(.*?)endbfchar", re.S)
_BFRANGE_RE = re.compile(rb"beginbfrange(.*?)endbfrange", re.S)
_BFTOK_RE = re.compile(rb"<([0-9A-Fa-f]+)>|\[|\]")
_CODESPACE_RE = re.compile(rb"begincodespacerange\s*<([0-9A-Fa-f]+)>", re.S)
_HEXPAIR_RE = re.compile(rb"<([0-9A-Fa-f]+)>")


def _parse_tounicode(cmap: bytes) -> Tuple[Dict[int, str], int]:
    """Parse a ToUnicode CMap: (code → unicode string, code byte width).

    Handles bfchar pairs and bfrange (contiguous and array-destination
    forms). Width inferred from the codespacerange (default 1 byte).
    """
    width = 1
    m = _CODESPACE_RE.search(cmap)
    if m:
        width = max(1, len(m.group(1)) // 2)
    table: Dict[int, str] = {}

    def u(hex_bytes: bytes) -> str:
        raw = bytes.fromhex(hex_bytes.decode("ascii"))
        return raw.decode("utf-16-be", errors="replace")

    for block in _BFCHAR_RE.findall(cmap):
        pairs = _HEXPAIR_RE.findall(block)
        for i in range(0, len(pairs) - 1, 2):
            table[int(pairs[i], 16)] = u(pairs[i + 1])
    for block in _BFRANGE_RE.findall(cmap):
        # token-stream parse (not line-wise): ranges split across lines
        # and several ranges per line are both legal CMap layouts
        toks: List[bytes] = []
        for m2 in _BFTOK_RE.finditer(block):
            toks.append(m2.group(1) if m2.group(1) is not None else m2.group(0))
        i = 0
        n = len(toks)
        while i + 2 < n or (i + 2 == n and toks[-1] not in (b"[", b"]")):
            if i + 2 >= n:
                break
            lo_t, hi_t, d = toks[i], toks[i + 1], toks[i + 2]
            if lo_t in (b"[", b"]") or hi_t in (b"[", b"]"):
                i += 1  # malformed prefix — resynchronize
                continue
            lo, hi = int(lo_t, 16), int(hi_t, 16)
            if d == b"[":
                # array destination: one string per code
                j = i + 3
                k = 0
                while j < n and toks[j] != b"]":
                    if toks[j] != b"[":
                        table[lo + k] = u(toks[j])
                        k += 1
                    j += 1
                i = j + 1
            else:
                base = u(d)
                if base:
                    base_cp = ord(base[0])
                    for j2 in range(hi - lo + 1):
                        table[lo + j2] = chr(base_cp + j2) + base[1:]
                i += 3
    return table, width


class _FontDecoder:
    """Per-page font → string-decode functions, with a CROSS-DOCUMENT
    cache on the codec instance (keyed by a hash of the font definition)
    — the warm font-cache state the actor-pool/worker-process stage
    amortizes (SURVEY A4 / north rule)."""

    def __init__(self, doc: "_PdfDocument", resources: dict, cache: Dict) -> None:
        self.doc = doc
        self.cache = cache
        self.fonts: Dict[str, object] = {}
        try:
            fonts = doc.resolve(resources.get("Font")) or {}
        except PdfParseError:
            fonts = {}
        for name, ref in fonts.items() if isinstance(fonts, dict) else ():
            try:
                self.fonts[name] = self._build(doc.resolve(ref))
            except Exception:
                continue

    def _key_repr(self, v, depth: int = 0) -> str:
        """Deterministic repr for the cache key with indirect refs
        RESOLVED — a raw ``Ref(num, gen)`` repr would collide across
        documents that reuse object numbering for different /Encoding
        (or /Differences) content, silently reusing the wrong decoder.
        Depth-capped against reference cycles; stream values key on
        their raw bytes, not their object number."""
        if depth > 4:
            return "<deep>"
        try:
            v = self.doc.resolve(v)
        except Exception:
            return "<unresolvable>"
        if isinstance(v, dict):
            return (
                "{"
                + ",".join(
                    f"{k}:{self._key_repr(x, depth + 1)}"
                    for k, x in sorted(v.items())
                )
                + "}"
            )
        if isinstance(v, list):
            return "[" + ",".join(self._key_repr(x, depth + 1) for x in v) + "]"
        if isinstance(v, StreamObj):
            import hashlib as _hl

            return "S" + _hl.md5(v.raw).hexdigest()
        return repr(v)

    def _build(self, font: object):
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

                # codes the /Differences array leaves alone decode as WinAnsi
                table2 = {**_WINANSI_HIGH, **table2}

                def decode_diff(b: bytes, _t=table2) -> str:
                    return b.decode("latin-1").translate(_t)

                decode = decode_diff

        self.cache[key] = decode
        return decode

    def decode(self, font_name: Optional[str], b: bytes) -> str:
        fn = self.fonts.get(font_name) if font_name else None
        if fn is not None:
            return fn(b)
        return _decode_winansi(b)


# one content-stream token after the skip.  Names stop at bytes-regex \s
# (which takes \x0b and leaves \x00 in the name); literal strings without
# nesting or escapes match whole, the rest go to _Lexer's exact loop.
# ``junk`` skips bytes that start no token: a run of bytes that never can,
# or one byte of a failed number or hex string
_CS_SCAN = re.compile(
    _SKIP
    + rb"""(?:
      (?P<op>[A-Za-z'"*]{1,3}+)
    | (?P<int>[+-]?\d++)(?!\.)
    | (?P<real>[+-]?(?:\d++\.\d*+|\.\d++))
    | /(?P<name>[^\s()<>\[\]{}/%]*+)
    | \((?P<lit>[^()\\]*+)\)
    | (?P<str>\()
    | <(?P<hex>[0-9A-Fa-f\s]*+)>
    | (?P<arr_open>\[)
    | (?P<arr_close>\])
    | (?P<junk>[^\x00\t\n\x0c\r\x20%A-Za-z'"*+\-.0-9/(<\[\]]++|[\s\S])
    | (?P<eof>\Z)
    )""",
    re.VERBOSE,
)
def _skip_inline_image(buf: bytes, pos: int) -> int:
    """Position after the ``EI`` that ends an inline image begun before
    ``pos``: the first ``EI`` with _WS (or a buffer end) on both sides,
    so image bytes never reach the text interpreter; the buffer end if
    there is none."""
    e = pos
    while True:
        e = buf.find(b"EI", e)
        if e < 0:
            return len(buf)
        before_ws = e == 0 or buf[e - 1] in _WS
        after = buf[e + 2 : e + 3]
        after_ws = not after or after[0] in _WS
        if before_ws and after_ws:
            return e + 2
        e += 2


def _tokenize_content(buf: bytes):
    """Yield ('num'|'name'|'str'|'op'|'arr_open'|'arr_close', value) tokens."""
    pos = 0
    while pos is not None:
        start, pos = pos, None
        for m in _CS_SCAN.finditer(buf, start):
            kind = m.lastgroup
            if kind == "op":
                op = m.group("op")
                if op == b"BI":
                    pos = _skip_inline_image(buf, m.end())
                    break
                yield ("op", op.decode("latin-1"))
            elif kind == "int":
                yield ("num", int(m.group("int")))
            elif kind == "name":
                yield ("name", m.group("name").decode("latin-1"))
            elif kind == "lit":
                yield ("str", m.group("lit"))
            elif kind == "real":
                yield ("num", float(m.group("real")))
            elif kind == "arr_open" or kind == "arr_close":
                yield (kind, None)
            elif kind == "str":
                lex = _Lexer(buf, m.start("str"))
                s = lex._parse_literal_string()
                yield ("str", s)
                pos = lex.pos
                break
            elif kind == "hex":
                yield ("str", _hex_bytes(m.group("hex")))
            elif kind == "eof":
                return


@dataclass
class _TextState:
    size: float = 12.0
    leading: float = 0.0
    tm: Tuple[float, float, float, float, float, float] = (1, 0, 0, 1, 0, 0)
    tlm: Tuple[float, float, float, float, float, float] = (1, 0, 0, 1, 0, 0)


def _mat_translate(m, tx, ty):
    a, b, c, d, e, f = m
    return (a, b, c, d, tx * a + ty * c + e, tx * b + ty * d + f)


def _interpret_content(
    buf: bytes,
    decoder: Optional["_FontDecoder"] = None,
    xobjects=None,
    depth: int = 0,
) -> Tuple[List[Chunk], List[Tuple[float, float, float, float]]]:
    """Run the content stream; return text chunks and ruled line segments.

    ``decoder`` maps (font, bytes) → str (ToUnicode/Differences aware);
    ``xobjects`` resolves a Form XObject name → (content, decoder,
    matrix) for the ``Do`` operator (recursion capped at depth 8).
    """
    chunks: List[Chunk] = []
    rules: List[Tuple[float, float, float, float]] = []
    st = _TextState()
    cur_font: Optional[str] = None
    stack: list = []
    in_array: Optional[list] = None
    path_start: Optional[Tuple[float, float]] = None
    cur_pt: Optional[Tuple[float, float]] = None
    pending_segs: List[Tuple[float, float, float, float]] = []

    def decode_bytes(s: bytes) -> str:
        return decoder.decode(cur_font, s) if decoder is not None else _decode_winansi(s)

    def show(s: bytes) -> None:
        text = decode_bytes(s)
        if text:
            chunks.append(Chunk(x=st.tm[4], y=st.tm[5], size=st.size, text=text))
            # advance e by an estimated width so consecutive Tj on one
            # line don't overlap (estimate only affects intra-line order)
            w = len(text) * st.size * AVG_CHAR_WIDTH_EM
            st.tm = (*st.tm[:4], st.tm[4] + w, st.tm[5])

    def show_tj(arr: list) -> None:
        parts: List[str] = []
        for el in arr:
            if isinstance(el, bytes):
                parts.append(decode_bytes(el))
            elif isinstance(el, (int, float)) and el <= TJ_SPACE_THRESHOLD:
                parts.append(" ")
        text = "".join(parts)
        if text:
            chunks.append(Chunk(x=st.tm[4], y=st.tm[5], size=st.size, text=text))
            w = len(text) * st.size * AVG_CHAR_WIDTH_EM
            st.tm = (*st.tm[:4], st.tm[4] + w, st.tm[5])

    for kind, val in _tokenize_content(buf):
        if kind == "arr_open":
            in_array = []
            continue
        if kind == "arr_close":
            stack.append(in_array if in_array is not None else [])
            in_array = None
            continue
        if in_array is not None:
            if kind in ("num", "str", "name"):
                in_array.append(val)
            continue
        if kind in ("num", "str", "name"):
            stack.append(val)
            continue
        # operator
        op = val
        try:
            if op == "BT":
                st.tm = st.tlm = (1, 0, 0, 1, 0, 0)
            elif op == "ET":
                pass
            elif op == "Tf" and len(stack) >= 2:
                st.size = float(stack[-1])
                if isinstance(stack[-2], str):
                    cur_font = stack[-2]
            elif op == "Td" and len(stack) >= 2:
                st.tlm = _mat_translate(st.tlm, float(stack[-2]), float(stack[-1]))
                st.tm = st.tlm
            elif op == "TD" and len(stack) >= 2:
                st.leading = -float(stack[-1])
                st.tlm = _mat_translate(st.tlm, float(stack[-2]), float(stack[-1]))
                st.tm = st.tlm
            elif op == "TL" and stack:
                st.leading = float(stack[-1])
            elif op == "T*":
                st.tlm = _mat_translate(st.tlm, 0.0, -st.leading)
                st.tm = st.tlm
            elif op == "Tm" and len(stack) >= 6:
                st.tm = st.tlm = tuple(float(v) for v in stack[-6:])  # type: ignore
            elif op == "Tj" and stack and isinstance(stack[-1], bytes):
                show(stack[-1])
            elif op == "TJ" and stack and isinstance(stack[-1], list):
                show_tj(stack[-1])
            elif op == "'" and stack and isinstance(stack[-1], bytes):
                st.tlm = _mat_translate(st.tlm, 0.0, -st.leading)
                st.tm = st.tlm
                show(stack[-1])
            elif op == '"' and len(stack) >= 3 and isinstance(stack[-1], bytes):
                st.tlm = _mat_translate(st.tlm, 0.0, -st.leading)
                st.tm = st.tlm
                show(stack[-1])
            elif op == "m" and len(stack) >= 2:
                cur_pt = path_start = (float(stack[-2]), float(stack[-1]))
            elif op == "l" and len(stack) >= 2 and cur_pt is not None:
                pt = (float(stack[-2]), float(stack[-1]))
                pending_segs.append((cur_pt[0], cur_pt[1], pt[0], pt[1]))
                cur_pt = pt
            elif op == "re" and len(stack) >= 4:
                x, y, w, h = (float(v) for v in stack[-4:])
                pending_segs.extend(
                    [
                        (x, y, x + w, y),
                        (x, y + h, x + w, y + h),
                        (x, y, x, y + h),
                        (x + w, y, x + w, y + h),
                    ]
                )
            elif op in ("S", "s", "B", "b", "f", "F", "b*", "B*", "f*"):
                rules.extend(pending_segs)
                pending_segs = []
                cur_pt = path_start = None
            elif op == "n":
                pending_segs = []
                cur_pt = path_start = None
            elif op == "Do" and stack and isinstance(stack[-1], str) and xobjects:
                if depth < 8:
                    resolved = xobjects(stack[-1])
                    if resolved is not None:
                        xbuf, xdec, xobj_next, (tx, ty) = resolved
                        sub_chunks, sub_rules = _interpret_content(
                            xbuf, xdec, xobj_next, depth + 1
                        )
                        for c in sub_chunks:
                            chunks.append(
                                Chunk(x=c.x + tx, y=c.y + ty, size=c.size, text=c.text)
                            )
                        rules.extend(
                            (x1 + tx, y1 + ty, x2 + tx, y2 + ty)
                            for (x1, y1, x2, y2) in sub_rules
                        )
        except (TypeError, ValueError):
            pass  # malformed operands: degrade, keep going
        stack.clear()
    return chunks, rules


# --------------------------------------------------------------------------
# layout: columns, lines, tables
# --------------------------------------------------------------------------
def _split_columns(chunks: List[Chunk]) -> List[List[Chunk]]:
    """Split chunks into vertical columns at clean whitespace gutters.

    A gutter is an x-interval of width >= COLUMN_MIN_GAP crossed by no
    chunk, with chunks on both sides whose y-ranges overlap (so a
    full-width title above two columns does not force a split).
    Assumption documented per the build brief: column layouts have a
    clean gutter; chunks spanning the gutter suppress the split.
    """
    if len(chunks) < 6:
        return [chunks]
    events = sorted((c.x, c.x1) for c in chunks)
    # sweep for gaps in the union of x-intervals
    gaps: List[Tuple[float, float]] = []
    cur_end = events[0][1]
    for x0, x1 in events[1:]:
        if x0 > cur_end + COLUMN_MIN_GAP:
            gaps.append((cur_end, x0))
        cur_end = max(cur_end, x1)
    if not gaps:
        return [chunks]
    # use the widest gap
    gap = max(gaps, key=lambda g: g[1] - g[0])
    mid = (gap[0] + gap[1]) / 2
    left = [c for c in chunks if c.x1 <= mid]
    right = [c for c in chunks if c.x >= mid]
    if len(left) < 3 or len(right) < 3:
        return [chunks]
    ly = (min(c.y for c in left), max(c.y for c in left))
    ry = (min(c.y for c in right), max(c.y for c in right))
    overlap = min(ly[1], ry[1]) - max(ly[0], ry[0])
    span = max(ly[1], ry[1]) - min(ly[0], ry[0])
    if span <= 0 or overlap / span < 0.5:
        return [chunks]
    return [_c for col in (left, right) for _c in [col]]


def _assemble_lines(chunks: List[Chunk]) -> List[str]:
    """Group chunks into text lines: cluster by y (tol), sort y desc, x asc."""
    if not chunks:
        return []
    chunks = sorted(chunks, key=lambda c: (-c.y, c.x))
    lines: List[List[Chunk]] = []
    for c in chunks:
        if lines and abs(lines[-1][0].y - c.y) <= LINE_Y_TOL:
            lines[-1].append(c)
        else:
            lines.append([c])
    out = []
    for line in lines:
        line.sort(key=lambda c: c.x)
        parts = [line[0].text]
        for prev, cur in zip(line, line[1:]):
            gap = cur.x - prev.x1
            if gap > prev.size * 0.18 and not parts[-1].endswith(" ") and not cur.text.startswith(" "):
                parts.append(" ")
            parts.append(cur.text)
        out.append("".join(parts).rstrip())
    return out


def _snap(values: Sequence[float], tol: float) -> List[float]:
    """Cluster near-equal coordinates; return sorted cluster centers."""
    out: List[float] = []
    for v in sorted(values):
        if out and v - out[-1] <= tol:
            continue
        out.append(v)
    return out


def _extract_tables(
    chunks: List[Chunk], rules: List[Tuple[float, float, float, float]]
) -> Tuple[List[List[List[Optional[str]]]], List[Chunk]]:
    """Reconstruct ruled tables (lines_strict analogue).

    Returns (tables, leftover_chunks_outside_tables). Cells with no text
    are None (nullable cells, reference models/base.py:39-42).
    """
    horiz = [r for r in rules if abs(r[1] - r[3]) <= SNAP_TOL and abs(r[0] - r[2]) > SNAP_TOL]
    vert = [r for r in rules if abs(r[0] - r[2]) <= SNAP_TOL and abs(r[1] - r[3]) > SNAP_TOL]
    if len(horiz) < 2 or len(vert) < 2:
        return [], chunks
    ys = _snap([r[1] for r in horiz], SNAP_TOL)
    xs = _snap([r[0] for r in vert], SNAP_TOL)
    if len(ys) < 2 or len(xs) < 2:
        return [], chunks
    x_lo, x_hi = xs[0], xs[-1]
    y_lo, y_hi = ys[0], ys[-1]
    n_rows = len(ys) - 1
    n_cols = len(xs) - 1
    grid: List[List[List[str]]] = [[[] for _ in range(n_cols)] for _ in range(n_rows)]
    leftover: List[Chunk] = []
    ys_desc = list(reversed(ys))  # top (max y) first = row 0
    for c in chunks:
        cx, cy = c.x, c.y
        if not (x_lo - SNAP_TOL <= cx <= x_hi + SNAP_TOL and y_lo - SNAP_TOL <= cy <= y_hi + SNAP_TOL):
            leftover.append(c)
            continue
        ri = ci = None
        for r in range(n_rows):
            if ys_desc[r + 1] - SNAP_TOL <= cy <= ys_desc[r] + SNAP_TOL:
                ri = r
                break
        for k in range(n_cols):
            hi = xs[k + 1] + (SNAP_TOL if k == n_cols - 1 else -SNAP_TOL)
            if xs[k] - SNAP_TOL <= cx < hi:
                ci = k
                break
        if ri is None or ci is None:
            leftover.append(c)
            continue
        grid[ri][ci].append(c)
    table: List[List[Optional[str]]] = []
    for r in range(n_rows):
        row: List[Optional[str]] = []
        for k in range(n_cols):
            cell_chunks = grid[r][k]
            if not cell_chunks:
                row.append(None)
            else:
                row.append(" ".join(_assemble_lines(cell_chunks)))
        table.append(row)
    return [table], leftover


# table-indicator gate thresholds (reference pdf_text_extractor.py:167-182)
def has_table_indicators(text: str) -> bool:
    return "\t" in text or text.count("|") > 15 or text.count("│") > 8


_INFO_KEYS = ("Title", "Author", "Subject", "Keywords", "Creator", "Producer")


def _decode_pdf_string(b: bytes) -> str:
    """PDF text-string decode: UTF-16BE when BOM-prefixed, else
    PDFDocEncoding (≈ latin-1 for the printable range we emit)."""
    if b.startswith(b"\xfe\xff"):
        return b[2:].decode("utf-16-be", "replace")
    return b.decode("latin-1")


def extract_info(payload: bytes) -> Dict[str, Optional[str]]:
    """Document-information dictionary (trailer ``/Info``) → the six
    standard metadata strings, snake_cased; missing keys / missing Info
    / unparseable documents yield all-None (never an error — crawled
    PDFs carry arbitrarily broken trailers).

    PDF-channel counterpart of ``html_codec.extract_meta``; the
    reference has no Info reader (pdfplumber exposes ``.metadata`` but
    extraction_service never reads it) — this is the metadata channel a
    crawl pipeline needs for provenance/title indexing.
    """
    out: Dict[str, Optional[str]] = {k.lower(): None for k in _INFO_KEYS}
    try:
        doc = _PdfDocument(payload)
        ref = doc.trailer.get("Info")
        info = doc.resolve(ref)
        if not isinstance(info, dict):
            return out
        num, gen = (ref.num, ref.gen) if isinstance(ref, Ref) else (0, 0)
        for key in _INFO_KEYS:
            raw = info.get(key)
            val = doc.resolve(raw)
            if isinstance(val, bytes):
                if doc.security is not None:
                    # strings decrypt with their CONTAINING object's
                    # num/gen (PDF 32000-1 §7.6.2): a value that is an
                    # indirect reference lives in ITS OWN object, not
                    # the Info dict's
                    knum, kgen = (
                        (raw.num, raw.gen) if isinstance(raw, Ref)
                        else (num, gen)
                    )
                    try:
                        val = doc.security.decrypt(knum, kgen, val)
                    except Exception:
                        continue
                out[key.lower()] = _decode_pdf_string(val)
    except Exception:
        pass
    return out


def extract_links(payload: bytes) -> List[str]:
    """URI link annotations (page ``/Annots`` → ``/A /S /URI``
    actions) in page order, de-duplicated — the PDF channel's outlink
    extractor (PDFs carry real hyperlinks; a web graph that ignores
    them is missing every PDF→page edge).  Encrypted strings decrypt
    with the annotation OBJECT's key.  Never raises; unparseable
    documents yield []."""
    out: List[str] = []
    seen = set()
    try:
        doc = _PdfDocument(payload)
        for page in doc.pages():
            annots = doc.resolve(page.get("Annots"))
            if not isinstance(annots, list):
                continue
            for ref in annots:
                try:
                    a = doc.resolve(ref)
                    if not isinstance(a, dict) or a.get("Subtype") != "Link":
                        continue
                    action = doc.resolve(a.get("A"))
                    if not isinstance(action, dict) or action.get("S") != "URI":
                        continue
                    uri = doc.resolve(action.get("URI"))
                    if not isinstance(uri, bytes):
                        continue
                    if doc.security is not None and isinstance(ref, Ref):
                        try:
                            uri = doc.security.decrypt(ref.num, ref.gen, uri)
                        except Exception:
                            continue
                    u = _decode_pdf_string(uri)
                    if u and u not in seen:
                        seen.add(u)
                        out.append(u)
                except Exception:
                    continue
    except Exception:
        pass
    return out


def extract_outline(payload: bytes) -> List[str]:
    """Document outline (bookmark) titles in /First→/Next order —
    the table-of-contents channel (section-aware chunking and
    navigation extraction start here).  Flat traversal of the top
    level; encrypted titles decrypt with the item object's key.
    Never raises; missing/broken outlines yield []."""
    out: List[str] = []
    try:
        doc = _PdfDocument(payload)
        root = doc.resolve(doc.trailer.get("Root"))
        if not isinstance(root, dict):
            return out
        outlines = doc.resolve(root.get("Outlines"))
        if not isinstance(outlines, dict):
            return out
        ref = outlines.get("First")
        guard = 0
        while ref is not None and guard < 10000:
            guard += 1
            item = doc.resolve(ref)
            if not isinstance(item, dict):
                break
            title = item.get("Title")
            tv = doc.resolve(title)
            if isinstance(tv, bytes):
                if doc.security is not None and isinstance(ref, Ref):
                    try:
                        tv = doc.security.decrypt(ref.num, ref.gen, tv)
                    except Exception:
                        tv = None
                if tv is not None:
                    out.append(_decode_pdf_string(tv))
            ref = item.get("Next")
    except Exception:
        pass
    return out


# --------------------------------------------------------------------------
# public codec
# --------------------------------------------------------------------------
@dataclass
class PdfPageResult:
    page_num: int  # 1-based, as in the reference page records
    text: str
    width: float
    height: float
    tables: List[List[List[Optional[str]]]] = field(default_factory=list)


@dataclass
class PdfExtraction:
    text: str
    pages: List[PdfPageResult] = field(default_factory=list)
    spans: List[Tuple[int, int, int, str]] = field(default_factory=list)
    status: str = "ok"

    @property
    def tables(self) -> List[List[List[Optional[str]]]]:
        return [t for p in self.pages for t in p.tables]


def _page_has_image(doc: "_PdfDocument", resources: dict) -> bool:
    """True iff the page's XObject dict contains an Image stream —
    used to distinguish a scanned page (``image_only``) from a truly
    empty one when no text operators are found."""
    try:
        xdict = doc.resolve(resources.get("XObject")) or {}
        if not isinstance(xdict, dict):
            return False
        for v in xdict.values():
            obj = doc.resolve(v)
            if isinstance(obj, StreamObj) and obj.dict.get("Subtype") == "Image":
                return True
    except Exception:
        pass
    return False


class PdfCodec:
    """Stateless-per-document PDF → (text, pages, tables, spans) codec.

    Use as an actor-pool ``map_batches`` class so the per-instance
    ``_font_cache`` (font decoders keyed by a hash of the font
    definition, shared across documents) is amortized across batches.
    """

    def __init__(self, extract_tables: bool = True) -> None:
        self.extract_tables = extract_tables
        # cross-document font-decoder cache (keyed by font-definition
        # hash) — the A4 warm state amortized per worker/actor
        self._font_cache: Dict[str, object] = {}

    def _xobject_resolver(self, doc: "_PdfDocument", resources: dict):
        """name → (content, decoder, nested_resolver, (tx, ty)) for Form
        XObjects; images and unknown names return None."""

        def resolve(name: str):
            try:
                xdict = doc.resolve(resources.get("XObject")) or {}
                obj = doc.resolve(xdict.get(name)) if isinstance(xdict, dict) else None
                if not isinstance(obj, StreamObj):
                    return None
                if obj.dict.get("Subtype") != "Form":
                    return None
                xres = doc.resolve(obj.dict.get("Resources")) or resources
                mat = obj.dict.get("Matrix")
                tx = ty = 0.0
                if isinstance(mat, list) and len(mat) == 6:
                    tx, ty = float(mat[4]), float(mat[5])
                dec = _FontDecoder(doc, xres if isinstance(xres, dict) else {},
                                   self._font_cache)
                return (
                    obj.data(doc.resolve),
                    dec,
                    self._xobject_resolver(doc, xres if isinstance(xres, dict) else {}),
                    (tx, ty),
                )
            except Exception:
                return None

        return resolve

    def extract(self, payload: bytes) -> PdfExtraction:
        try:
            doc = _PdfDocument(payload)
            pages_raw = doc.pages()
        except Exception:
            return PdfExtraction(text="", status="parse_error")
        if not pages_raw:
            return PdfExtraction(text="", status="empty")

        page_results: List[PdfPageResult] = []
        saw_image = False
        for i, page in enumerate(pages_raw):
            try:
                mediabox = doc.resolve(page.get("MediaBox")) or [0, 0, 612, 792]
                width = float(doc.resolve(mediabox[2])) - float(doc.resolve(mediabox[0]))
                height = float(doc.resolve(mediabox[3])) - float(doc.resolve(mediabox[1]))
            except Exception:
                width, height = 612.0, 792.0
            try:
                content = doc.content_bytes(page)
                resources = {}
                try:
                    resources = doc.resolve(page.get("Resources")) or {}
                except Exception:
                    resources = {}
                decoder = _FontDecoder(doc, resources, self._font_cache)
                xresolver = self._xobject_resolver(doc, resources)
                if not saw_image:
                    saw_image = _page_has_image(doc, resources)
                chunks, rules = _interpret_content(content, decoder, xresolver)
                tables: List[List[List[Optional[str]]]] = []
                if self.extract_tables and rules:
                    tables, chunks = _extract_tables(chunks, rules)
                lines: List[str] = []
                for col in _split_columns(chunks):
                    lines.extend(_assemble_lines(col))
                for t in tables:
                    for row in t:
                        lines.append(" | ".join(c if c is not None else "" for c in row))
                text = "\n".join(lines)
            except Exception:
                # per-page degrade (reference swallows table/page errors,
                # pdf_text_extractor.py:161-163, 195-198)
                text, tables = "", []
            page_results.append(
                PdfPageResult(page_num=i + 1, text=text, width=width, height=height, tables=tables)
            )

        # document text = pages joined by \n\n (reference combine_pages_text,
        # extractor/utils/helpers.py:53-64); spans = one per page line
        parts: List[str] = []
        spans: List[Tuple[int, int, int, str]] = []
        off = 0
        block_id = 0
        any_text = False
        for pi, pr in enumerate(page_results):
            if pi and parts:
                off += 2  # "\n\n"
            page_lines = pr.text.split("\n") if pr.text else []
            for li, line in enumerate(page_lines):
                if li:
                    off += 1  # "\n"
                nbytes = len(line.encode("utf-8"))
                spans.append((block_id, off, off + nbytes, "line"))
                block_id += 1
                off += nbytes
                any_text = True
            parts.append(pr.text)
        text = "\n\n".join(parts)
        if any_text and text.strip():
            status = "ok"
        elif saw_image:
            # scanned/image-based document: no text operators but image
            # XObjects present — the deterministic analogue of the
            # reference's image-based sniff (which would flip its OCR
            # flag, pdf_text_extractor.py:114-125, 149-163); the engine
            # tags instead of OCRing (OCR excluded by design, SURVEY §2.1)
            status = "image_only"
        else:
            status = "empty"
        return PdfExtraction(text=text, pages=page_results, spans=spans, status=status)
