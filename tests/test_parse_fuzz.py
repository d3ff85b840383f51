"""Fuzz `parse` against the per-character parser it replaced.

`reference_parse` is that parser, kept here verbatim as the oracle for
str input, and `reference_read` is the CLI's former decode-then-parse,
the oracle for bytes input.  Every mutant of a small serialized cube must
give the oracle's cube, or a ParseError with the oracle's message, line
and column.  Where the oracle itself crashed with another exception (a
header number too long for int(), a row count too long to print), a
ParseError is required.  A cube the oracle accepts with more than MAX_AXES
axes (only order 1 has so few rows) must be refused by the axis cap.
`parse` is the block reader `read` over an in-memory stream, so the corpus
is run at several `ncube._BUDGET` values: blocks then end inside the
header, inside rows and next to non-ASCII bytes.
"""

import io
import random
import sys
import tracemalloc

import numpy as np
import pytest

from hdmkit import ncube
from hdmkit.cli import main
from hdmkit.constructions import paley3
from hdmkit.errors import ParseError
from hdmkit.gf import Field
from hdmkit.ncube import MAX_AXES, SignCube, parse, read, serialize


def reference_parse(text: str) -> SignCube:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ParseError("missing final newline", line=len(lines))
    lines.pop()
    if not lines:
        raise ParseError("empty input", line=1)
    fields = lines[0].split(" ")
    if len(fields) != 3 or fields[0] != "HDM" \
            or not all(f.isascii() and f.isdigit() for f in fields[1:]):
        raise ParseError("header must be 'HDM <n> <v>'", line=1)
    n, v = int(fields[1]), int(fields[2])
    if n < 1 or v < 1:
        raise ParseError(f"invalid dimensions n={n} v={v}", line=1)
    rows = v ** (n - 1)
    if len(lines) - 1 < rows:
        raise ParseError(f"expected {rows} data lines, found {len(lines) - 1}",
                         line=len(lines) + 1)
    if len(lines) - 1 > rows:
        raise ParseError("trailing content after data lines", line=rows + 2)
    for i, row in enumerate(lines[1:], start=2):
        if len(row) != v:
            raise ParseError(f"expected {v} characters, found {len(row)}", line=i)
        for col, ch in enumerate(row, start=1):
            if ch not in "+-":
                raise ParseError(f"illegal character {ch!r}", line=i, column=col)
    raw = np.frombuffer("".join(lines[1:]).encode("ascii"), dtype=np.uint8)
    return SignCube._adopt(n, v, np.where(raw == ord("+"), np.int8(1), np.int8(-1)))


def reference_read(raw: bytes) -> SignCube:
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        bad = exc.start
        raise ParseError(f"non-ASCII byte 0x{raw[bad]:02x}",
                         line=raw.count(b"\n", 0, bad) + 1,
                         column=bad - raw.rfind(b"\n", 0, bad)) from None
    return reference_parse(text)


def outcome(fn, source):
    """The cube, the ParseError, or the type of any other exception."""
    try:
        return fn(source)
    except ParseError as exc:
        return exc
    except Exception as exc:  # the oracle's crashes
        return type(exc)


# -- the corpus ---------------------------------------------------------------------

BYTES = b"+-,\n\r \t0123456789HDMx?\x00\x7f\x80\xa0\xb2\xff"
NON_ASCII = [ch.encode("utf-8") for ch in "é²٢ €"]
# header numbers; the giant ones only as v, where the oracle fails fast
NUMBERS = ["0", "1", "2", "3", "4", "5", "02", "007", "40", "", "x", "-1", "+2", "2 "]
GIANT = ["9" * 4300, "9" * 4301, "1" + "0" * 5000]


def bases():
    rng = np.random.default_rng(7)
    H2 = SignCube(2, 2, [1, 1, 1, -1])
    cubes = [H2, SignCube(2, 4, np.kron(H2.array, H2.array)), paley3(Field(3)),
             SignCube(1, 5, [1, -1, 1, 1, -1]), SignCube(2, 1, [1])]
    cubes += [SignCube(n, v, rng.choice([-1, 1], size=v**n))
              for n, v in ((3, 3), (4, 2), (2, 6))]
    return [serialize(c).encode("ascii") for c in cubes]


def mutate(rng: random.Random, raw: bytes) -> bytes:
    body = raw.find(b"\n") + 1 if rng.random() < 0.75 else 0  # mostly in the body
    i = rng.randrange(body, len(raw) + 1)
    op = rng.randrange(8)
    if op == 0:  # byte flip
        return raw[:i] + bytes([rng.choice(BYTES)]) + raw[i + 1:]
    if op == 1:  # insertion
        return raw[:i] + bytes([rng.choice(BYTES)]) + raw[i:]
    if op == 2:  # deletion of a short run
        return raw[:i] + raw[i + rng.randint(1, 3):]
    if op == 3:  # truncation
        return raw[:i]
    if op == 4:  # CRLF line endings, for the first few lines or all
        return raw.replace(b"\n", b"\r\n", rng.choice([1, 2, -1]))
    if op == 5:  # a non-ASCII character, UTF-8 encoded
        return raw[:i] + rng.choice(NON_ASCII) + raw[i:]
    lines = raw.split(b"\n")
    if op == 6:  # a data line duplicated or dropped
        j = rng.randrange(len(lines))
        return b"\n".join(lines[:j] + lines[j:j + 1] * rng.randint(0, 2) + lines[j + 1:])
    fields = lines[0].split(b" ")  # header edit
    if len(fields) == 3:
        k = rng.choice([1, 2])
        fields[k] = rng.choice(NUMBERS + GIANT * (k == 2)).encode("utf-8")
    else:
        fields = [b"hdm", b"2", b"2"]
    return b"\n".join([b" ".join(fields)] + lines[1:])


def corpus(size=2000):
    rng = random.Random(20261018)
    originals = bases()
    out = list(originals)
    while len(out) < size:
        raw = rng.choice(originals)
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            raw = mutate(rng, raw)
        out.append(raw)
    return out


CORPUS = corpus()


# budgets of one byte, a few bytes, a few rows and the default; the default
# keeps the bare "str" and "bytes" ids
PARSE_CASES = [pytest.param(as_text, budget, id=kind + ("" if budget == 1 << 20
                                                        else f"-budget-{budget}"))
               for budget in (1, 16, 256, 1 << 20)
               for as_text, kind in ((True, "str"), (False, "bytes"))]


@pytest.mark.parametrize("as_text,budget", PARSE_CASES)
def test_parse_matches_reference_parser(as_text, budget, monkeypatch):
    """parse, and so read, against the oracle on every mutant, as str and
    as bytes, at each budget."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    kinds = {"accepted": 0, "rejected": 0, "crashed": 0}
    for raw in CORPUS:
        # latin-1 maps each byte to one character, so str inputs carry the
        # same non-ASCII positions as the bytes
        source = raw.decode("latin-1") if as_text else raw
        expected = outcome(reference_parse if as_text else reference_read, source)
        if isinstance(expected, SignCube) and expected.n > MAX_AXES:
            expected = ParseError(f"dimension n={expected.n} exceeds {MAX_AXES} axes",
                                  line=1)
        got = outcome(parse, source)
        if isinstance(expected, SignCube):
            kinds["accepted"] += 1
            assert isinstance(got, SignCube) and got == expected, raw
        elif isinstance(expected, ParseError):
            kinds["rejected"] += 1
            assert isinstance(got, ParseError), raw
            assert (str(got), got.line, got.column) == \
                (str(expected), expected.line, expected.column), raw
        else:
            kinds["crashed"] += 1
            assert isinstance(got, ParseError), raw
    assert min(kinds.values()) > 0, kinds


@pytest.mark.parametrize("head", [b"HDM 31 2\n", b"HDM 2 4294967296\n"])
def test_block_reader_refuses_a_huge_header_before_allocating(head):
    """A header claiming a cube of 2**30 or 2**64 entries over a file of a
    few bytes: the size check refuses it before the cube is allocated, and
    the search for the first fault reports the missing rows."""
    raw = head + b"++\n"
    n, v = (int(x) for x in head.split()[1:])
    claimed = len(head) + v ** (n - 1) * (v + 1)  # the size read() expects
    assert claimed > 2**31 and len(raw) < 32
    tracemalloc.start()
    try:
        got = outcome(lambda b: read(io.BytesIO(b)), raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert (str(got), got.line, got.column) == (str(parse_error(raw)), 3, None)


def test_cli_rejects_fuzzed_files_with_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.hdm"
    rejected = [raw for raw in CORPUS
                if not isinstance(outcome(reference_read, raw), SignCube)]
    for raw in rejected[::25]:
        path.write_bytes(raw)
        assert main(["verify", str(path)]) == 2, raw
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("parse error: line "), raw
        assert err == f"parse error: {parse_error(raw)}\n"


def parse_error(raw: bytes) -> ParseError:
    with pytest.raises(ParseError) as exc:
        parse(raw)
    return exc.value


# header lines longer than any header int() converts: the first five have
# the header's grammar (a number too long), the others do not
LONG = "9" * 9000
LONG_HEADS = ["HDM 2 " + LONG, "HDM " + LONG + " 2", "HDM " + LONG + " " + LONG,
              "HDM 00002 " + "0" * 9000 + "3", "HDM " + "0" * 4400 + "2 " + "0" * 4400 + "3",
              "+" * 9000, "HDM " + LONG, "HDM 2 " + LONG + " ", "HDM  " + LONG,
              "HDM 2 " + LONG + " 3", "HDM 2 " + LONG + "x", "HDM 2 " + LONG + "\r",
              "hdm 2 " + LONG, "HDM 2" + LONG]


@pytest.mark.parametrize("budget", [1, 256, 1 << 20])
@pytest.mark.parametrize("limit", [640, 4300])
def test_header_lines_longer_than_int_converts(budget, limit, monkeypatch):
    """The header line is read in bounded pieces: one longer than any valid
    header is only checked against the grammar, and must still give the
    oracle's fault, a number too long (the oracle's int() crash) or a bad
    header; at int()'s smallest digit limit too."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for head in LONG_HEADS:
            raw = (head + "\n++\n").encode("ascii")
            expected = outcome(reference_read, raw)
            if expected is ValueError:
                expected = ParseError("header number too long", line=1)
            got = parse_error(raw)
            assert (str(got), got.line) == (str(expected), 1), head[:12]
        # the longest valid header: two numbers of exactly limit digits
        longest = "HDM " + "0" * (limit - 1) + "1 " + "0" * (limit - 1) + "2\n++\n"
        assert parse(longest) == SignCube(1, 2, [1, 1])
    finally:
        sys.set_int_max_str_digits(old)
    assert [outcome(reference_read, (h + "\n").encode()) is ValueError
            for h in LONG_HEADS] == [True] * 5 + [False] * 9
