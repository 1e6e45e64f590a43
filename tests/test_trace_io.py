"""Tests for repro.trace.io — serialization round-trips."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.trace import (
    Trace,
    load_trace,
    read_binary,
    read_text,
    save_trace,
    write_binary,
    write_text,
)


def roundtrip_binary(trace):
    buf = io.BytesIO()
    write_binary(trace, buf)
    buf.seek(0)
    return read_binary(buf)


def roundtrip_text(trace):
    buf = io.StringIO()
    write_text(trace, buf)
    buf.seek(0)
    return read_text(buf)


class TestBinaryFormat:
    def test_roundtrip(self):
        t = Trace.from_pairs([(0x400, 1), (0x404, 0), (0x400, 1)], name="bench")
        back = roundtrip_binary(t)
        assert back == t
        assert back.name == "bench"

    def test_roundtrip_empty(self):
        assert roundtrip_binary(Trace.empty(name="e")).name == "e"

    def test_roundtrip_non_multiple_of_eight(self):
        # Bit-packing edge: lengths not divisible by 8.
        for n in (1, 7, 8, 9, 15):
            t = Trace.from_pairs([(i, i % 2) for i in range(n)])
            assert roundtrip_binary(t) == t

    def test_bad_magic(self):
        with pytest.raises(TraceFormatError):
            read_binary(io.BytesIO(b"JUNKxxxxxxxxxxxxxxxxxx"))

    def test_truncated_header(self):
        with pytest.raises(TraceFormatError):
            read_binary(io.BytesIO(b"RB"))

    def test_truncated_payload(self):
        t = Trace.from_pairs([(1, 1)] * 10)
        buf = io.BytesIO()
        write_binary(t, buf)
        data = buf.getvalue()[:-6]
        with pytest.raises(TraceFormatError):
            read_binary(io.BytesIO(data))

    def test_bad_version(self):
        t = Trace.from_pairs([(1, 1)])
        buf = io.BytesIO()
        write_binary(t, buf)
        data = bytearray(buf.getvalue())
        data[4] = 0xFF  # clobber the version field
        with pytest.raises(TraceFormatError):
            read_binary(io.BytesIO(bytes(data)))


@pytest.mark.parametrize("version", [1, 2])
def test_non_utf8_name_is_a_format_error(tmp_path, version):
    path = tmp_path / "t.rbt"
    save_trace(Trace.from_pairs([(0x400, 1), (0x404, 0)], name="abcd"), path, version=version)
    data = path.read_bytes()
    assert data.count(b"abcd") == 1
    path.write_bytes(data.replace(b"abcd", b"\xff\xfe\xfd\xfc"))
    with pytest.raises(TraceFormatError, match="UTF-8"):
        load_trace(path)
    with open(path, "rb") as fp, pytest.raises(TraceFormatError, match="UTF-8"):
        read_binary(fp)


class TestTextFormat:
    def test_roundtrip(self):
        t = Trace.from_pairs([(1, 1), (2, 0)], name="txt")
        back = roundtrip_text(t)
        assert back == t
        assert back.name == "txt"

    def test_comments_and_blanks_ignored(self):
        src = "# a comment\n\n1 1\n  \n2 0\n# trailing\n"
        t = read_text(io.StringIO(src))
        assert [(r.pc, r.outcome) for r in t] == [(1, 1), (2, 0)]

    def test_hex_pcs_accepted(self):
        t = read_text(io.StringIO("0x10 1\n"))
        assert t[0].pc == 16

    def test_malformed_line(self):
        with pytest.raises(TraceFormatError):
            read_text(io.StringIO("1 2 3\n"))

    def test_non_integer(self):
        with pytest.raises(TraceFormatError):
            read_text(io.StringIO("abc 1\n"))

    def test_bad_outcome(self):
        with pytest.raises(TraceFormatError):
            read_text(io.StringIO("1 5\n"))


class TestPathHelpers:
    def test_binary_path_roundtrip(self, tmp_path):
        t = Trace.from_pairs([(1, 0), (2, 1)], name="p")
        path = tmp_path / "trace.rbt"
        save_trace(t, path)
        assert load_trace(path) == t

    def test_text_path_roundtrip(self, tmp_path):
        t = Trace.from_pairs([(1, 0), (2, 1)], name="p")
        path = tmp_path / "trace.txt"
        save_trace(t, path)
        back = load_trace(path)
        assert back == t
        assert back.name == "p"


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**40), st.integers(0, 1)),
        max_size=100,
    ),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=20
    ).filter(lambda s: "\n" not in s and "\r" not in s),
)
def test_binary_roundtrip_property(pairs, name):
    """Binary serialization is lossless for arbitrary traces and names."""
    t = Trace.from_pairs(pairs, name=name.strip())
    back = roundtrip_binary(t)
    assert back == t
    assert back.name == name.strip()
