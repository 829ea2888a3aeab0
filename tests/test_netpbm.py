import os
import re
import threading
import time
import tracemalloc

from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import LONG_TOKEN_FILES
from hypothesis import HealthCheck, given, settings

from isophote import (
    IntensityGrid,
    NetpbmError,
    read_grid,
    read_image,
    write_pbm,
    write_pgm,
    write_ppm,
)
from isophote import netpbm
from isophote.cli import main
from reference_netpbm import ReferenceScanner, read_plain


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("maxval", [1, 9, 255, 300, 65535])
def test_pgm_roundtrip(tmp_path, binary, maxval):
    rng = np.random.default_rng(maxval)
    values = rng.integers(0, maxval + 1, size=(5, 7))
    grid = IntensityGrid(values, maxval)
    path = tmp_path / "img.pgm"
    write_pgm(path, grid, binary=binary)
    back = read_grid(path)
    assert np.array_equal(back.values, grid.values)
    assert back.max_value == maxval and not back.values.flags.writeable
    values = read_image(path)[0]  # the caller's own in every format: writable
    assert values.dtype == (np.uint8 if maxval < 256 else np.uint16) and values.flags.writeable


def test_pgm_sixteen_bit_is_big_endian(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, IntensityGrid(np.array([[256, 1]]), 300))
    raw = path.read_bytes()
    assert raw == b"P5\n2 1\n300\n\x01\x00\x00\x01"


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("width", [1, 8, 10, 17])
def test_pbm_roundtrip(tmp_path, binary, width):
    rng = np.random.default_rng(width)
    mask = rng.integers(0, 2, size=(4, width)).astype(bool)
    path = tmp_path / "mask.pbm"
    write_pbm(path, mask, binary=binary)
    values, _, kind = read_image(path)
    assert kind == "pbm" and np.array_equal(values, mask) and values.flags.writeable


def old_plain_rows(rows) -> bytes:
    """The plain writers' former per-row formula, kept as the reference."""
    return b"".join((" ".join(str(int(v)) for v in row) + "\n").encode("ascii") for row in rows)


@pytest.mark.parametrize("maxval", [1, 9, 255, 256, 65535])
@pytest.mark.parametrize("width", [1, 2, 17])
def test_plain_writers_match_row_join(tmp_path, width, maxval):
    rng = np.random.default_rng([width, maxval])
    values = rng.integers(0, maxval + 1, size=(3, width))
    values[0, 0] = maxval
    path = tmp_path / "img.pnm"
    write_pgm(path, IntensityGrid(values, maxval), binary=False)
    assert path.read_bytes() == f"P2\n{width} 3\n{maxval}\n".encode() + old_plain_rows(values)
    rgb = rng.integers(0, maxval + 1, size=(2, width, 3))
    write_ppm(path, rgb, maxval=maxval, binary=False)
    assert path.read_bytes() == f"P3\n{width} 2\n{maxval}\n".encode() + old_plain_rows(rgb.reshape(2, -1))
    mask = values % 2 == 1
    write_pbm(path, mask, binary=False)
    assert path.read_bytes() == f"P1\n{width} 3\n".encode() + old_plain_rows(mask)


@given(
    dtype=st.sampled_from([np.uint8, np.uint16, np.int64, np.intp]),
    data=st.data(),
    suffix=st.binary(max_size=3).filter(lambda b: b"\0" not in b),
)
def test_decimal_cells_are_the_digits_of_str(dtype, data, suffix):
    top = min(np.iinfo(dtype).max, 2**31 - 1)
    values = np.array(data.draw(st.lists(st.integers(0, top), max_size=20)), dtype=dtype)
    cells = netpbm.decimal_cells(values, suffix)
    width = len(str(max(values.tolist(), default=0)))
    assert cells.dtype == np.uint8 and cells.shape == (values.size, width + len(suffix))
    for v, cell in zip(values.tolist(), cells):
        digits = str(v).encode()
        assert cell.tobytes() == b"\0" * (width - len(digits)) + digits + suffix


_SAMPLE_DTYPES = (np.uint8, np.uint16, np.int64, bool)


@st.composite
def sample_arrays(draw, channels: bool):
    """Integer or boolean samples, C-contiguous or a strided view, with the least maxval that holds them."""
    dtype = draw(st.sampled_from(_SAMPLE_DTYPES))
    top = 1 if dtype is bool else draw(st.sampled_from([1, 255, 256, 65535]))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 19))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2 * h, 2 * w) + ((3,) if channels else ())
    values = rng.integers(0, top + 1, size=shape).astype(dtype)
    if draw(st.booleans()):  # every other row and column: a view that is not contiguous
        values = values[::2, ::2]
    else:
        values = np.ascontiguousarray(values[:h, :w])
    return values, max(top, 1)


@given(sample_arrays(channels=False), sample_arrays(channels=True))
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_binary_writers_write_the_samples_bytes(tmp_path, gray, rgb):
    def sample_bytes(values, maxval):
        return values.astype(np.uint8 if maxval < 256 else ">u2").tobytes()

    values, maxval = gray
    h, w = values.shape
    write_pgm(tmp_path / "img.pgm", IntensityGrid(values, maxval))
    head = f"P5\n{w} {h}\n{maxval}\n".encode()
    assert (tmp_path / "img.pgm").read_bytes() == head + sample_bytes(values, maxval)
    write_pbm(tmp_path / "mask.pbm", values % 2 == 1)
    packed = np.packbits(values % 2 == 1, axis=1).tobytes()
    assert (tmp_path / "mask.pbm").read_bytes() == f"P4\n{w} {h}\n".encode() + packed
    values, maxval = rgb
    h, w = values.shape[:2]
    write_ppm(tmp_path / "img.ppm", values, maxval)
    head = f"P6\n{w} {h}\n{maxval}\n".encode()
    assert (tmp_path / "img.ppm").read_bytes() == head + sample_bytes(values, maxval)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("maxval", [255, 65535])
def test_binary_io_makes_no_raster_sized_copy(tmp_path, maxval):
    # reading holds the samples it returns, read from the file straight into
    # them, plus the header's first read; writing holds no copy at 8 bits and
    # one block of byte-swapped samples above, and PBM its packed bits
    rng = np.random.default_rng(maxval)
    dtype = np.uint8 if maxval < 256 else np.uint16
    grid = IntensityGrid(rng.integers(0, maxval + 1, size=(1024, 1024), dtype=dtype), maxval)
    block = 0 if maxval < 256 else netpbm._BINARY_BLOCK
    slack = 1 << 16
    path = tmp_path / "img.pgm"
    assert _traced_peak(write_pgm, path, grid) < block + slack
    assert _traced_peak(read_image, path) < grid.values.nbytes + netpbm._PLAIN_BLOCK + slack
    assert _traced_peak(read_grid, path) < grid.values.nbytes + netpbm._PLAIN_BLOCK + slack
    assert read_image(path)[0].flags.writeable
    mask = grid.values % 2 == 1
    assert _traced_peak(write_pbm, tmp_path / "mask.pbm", mask) < mask.size // 8 + mask.size // 16


@pytest.mark.parametrize("binary", [True, False], ids=["p5", "p2"])
def test_tiny_file_is_read_no_further_than_its_size(tmp_path, binary):
    # the first read of a regular file stops at its size: a 3x4 file does not cost a 64 KiB block
    values = np.arange(12).reshape(3, 4) * 5000
    path = tmp_path / "tiny.pgm"
    write_pgm(path, IntensityGrid(values, 65535), binary=binary)
    assert read_image(path)[0].tolist() == values.tolist()
    assert _traced_peak(read_image, path) < netpbm._PLAIN_BLOCK // 4


def _commented(data: bytes, comment_bytes: int) -> bytes:
    """data with lines of '#' comments, about comment_bytes of them, after its magic."""
    line = b"# " + b"c" * 97 + b"\n"
    return data[:3] + line * (comment_bytes // len(line)) + data[3:]


@pytest.mark.parametrize("block", [None, 1, 7, 4096])
@pytest.mark.parametrize("maxval, channels", [(255, 1), (65535, 1), (255, 3), (1000, 3)],
                         ids=["p5-8bit", "p5-16bit", "p6-8bit", "p6-16bit"])
def test_binary_header_past_the_first_read(tmp_path, block, maxval, channels):
    # 200 KiB of comments: the header is parsed from more than the first read,
    # which the block size sets, and the raster read after it
    rng = np.random.default_rng(maxval + channels)
    shape = (37, 53, 3) if channels == 3 else (37, 53)
    values = rng.integers(0, maxval + 1, size=shape)
    path = tmp_path / "img.pnm"
    if channels == 3:
        write_ppm(path, values, maxval=maxval)
    else:
        write_pgm(path, IntensityGrid(values, maxval))
    data = _commented(path.read_bytes(), 200 << 10)
    head = len(data) - values.size * (1 if maxval < 256 else 2)
    path.write_bytes(data)
    with mock.patch.object(netpbm, "_PLAIN_BLOCK", block or netpbm._PLAIN_BLOCK):
        got, got_maxval, _ = read_image(path)
        assert got_maxval == maxval and got.tolist() == values.tolist()
        # a raster cut short after such a header
        need = len(data) - head
        for cut in (1, values.size // 2, need):
            path.write_bytes(data[: len(data) - cut])
            with pytest.raises(NetpbmError) as err:
                read_image(path)
            assert str(err.value) == (f"{path}: raster truncated: binary samples need at least {need} bytes, "
                                      f"have {need - cut} at byte {len(data) - cut}")
            assert err.value.offset == len(data) - cut
        # the header ends at the end of the file, without the whitespace byte
        path.write_bytes(data[: head - 1])
        with pytest.raises(NetpbmError) as err:
            read_image(path)
        assert str(err.value) == f"{path}: expected single whitespace before binary raster at byte {head - 1}"


@pytest.mark.parametrize("block", [None, 1, 5])
def test_binary_header_cut_inside_its_comments(tmp_path, block):
    # every error of a header cut short names the same offset however much of it the first read held
    data = _commented(b"P5\n3 2\n255\n" + bytes(6), 200 << 10)
    path = tmp_path / "img.pgm"
    for end in (3, 100_000, len(data) - 14, len(data) - 11, len(data) - 8):
        path.write_bytes(data[:end])
        with mock.patch.object(netpbm, "_PLAIN_BLOCK", block or netpbm._PLAIN_BLOCK):
            got = _outcome(lambda p: read_image(p)[0], path)
        assert got[1] == end, got


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\n6 4\n255\n" + bytes(15), "raster truncated: binary samples need at least 24 bytes, have 15"),
        (_commented(b"P5\n6 4\n255\n", 200 << 10)[:-6], "expected height, found end of file"),
    ],
    ids=["raster", "header-past-the-first-read"],
)
def test_file_cut_after_its_size_was_read(tmp_path, monkeypatch, capsys, data, message):
    # fstat reports more bytes than the file holds, as when the file is cut between
    # fstat and the read: the call fails as for a file that was short from the start
    path, out = tmp_path / "cut.pgm", tmp_path / "mask.pbm"
    path.write_bytes(data)
    argv = ["detect", str(path), str(out)]
    want = f"isophote: error: {path}: {message} at byte {len(data)}\n"
    assert main(argv) == 2 and capsys.readouterr().err == want
    real_fstat = os.fstat

    def fstat(fd):
        info = list(real_fstat(fd))
        info[6] += 100  # st_size
        return os.stat_result(info)

    monkeypatch.setattr(netpbm.os, "fstat", fstat)
    assert main(argv) == 2 and capsys.readouterr().err == want
    assert not out.exists()


def test_reads_a_file_of_no_known_size(tmp_path):
    # a pipe has no size to check the header against, so it is read whole
    values = np.arange(60, dtype=np.uint16).reshape(6, 10) * 1000
    write_pgm(tmp_path / "img.pgm", IntensityGrid(values, 65535))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes((tmp_path / "img.pgm").read_bytes()))
    writer.start()
    try:
        got, maxval, kind = read_image(fifo)
    finally:
        writer.join()
    assert (maxval, kind) == (65535, "pgm") and got.tolist() == values.tolist()


def test_pbm_reads_as_grid(tmp_path):
    mask = np.array([[True, False], [False, True]])
    path = tmp_path / "mask.pbm"
    write_pbm(path, mask)
    grid = read_grid(path)
    assert grid.max_value == 1
    assert np.array_equal(grid.values, mask.astype(np.int64))


@pytest.mark.parametrize("binary", [True, False])
def test_ppm_channels(tmp_path, binary):
    rgb = np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255], [10, 20, 30]]])
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb, binary=binary)
    assert read_image(path)[0].flags.writeable
    assert read_grid(path, channel="r").values.tolist() == [[255, 0, 0, 10]]
    assert read_grid(path, channel="g").values.tolist() == [[0, 255, 0, 20]]
    assert read_grid(path, channel="b").values.tolist() == [[0, 0, 255, 30]]
    # integer luma (77 R + 150 G + 29 B) >> 8
    assert read_grid(path, channel="gray").values.tolist() == [[76, 149, 28, 18]]


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("maxval", [1, 255, 256, 65535])
def test_gray_luma_does_not_wrap_at_full_scale(tmp_path, maxval, binary):
    # each channel 0 or maxval: the extreme weighted sums, which the narrow type luma works in must hold
    rgb = np.array([[[r, g, b] for r in (0, maxval) for g in (0, maxval) for b in (0, maxval)]], dtype=np.int64)
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb, maxval=maxval, binary=binary)
    expect = (77 * rgb[..., 0] + 150 * rgb[..., 1] + 29 * rgb[..., 2]) >> 8
    assert expect[0, -1] == maxval
    assert read_grid(path, channel="gray").values.tolist() == expect.tolist()


@pytest.mark.parametrize(
    "data",
    [b"P1\n65536 65536\n0 1\n", b"P2\n65536 65536\n255\n0 0\n", b"P3\n65536 65536\n255\n0 0 0\n"],
)
def test_ascii_header_larger_than_the_file_is_rejected_before_allocating(tmp_path, data):
    path = tmp_path / "bad.pnm"
    path.write_bytes(data)
    with pytest.raises(NetpbmError, match="truncated") as err:
        read_image(path)
    assert err.value.offset == len(data)


_SPACE = b" \t\r\n\x0b\x0c"


def reference_samples(body: bytes, n: int, bits: bool) -> list[int]:
    """The first n samples of a plain raster, one token at a time."""
    text = re.sub(rb"#[^\r\n]*", b" ", body)  # a comment runs to the end of its line
    if bits:
        return [int(chr(c)) for c in [c for c in text if c not in _SPACE][:n]]
    return [int(token) for token in text.split()[:n]]


@st.composite
def plain_files(draw):
    """Plain P1/P2/P3 files with every kind of whitespace, leading zeros,
    comments between samples and arbitrary bytes after the last sample."""
    magic = draw(st.sampled_from(["P1", "P2", "P3"]))
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    maxval = 1 if magic == "P1" else draw(st.sampled_from([1, 9, 255, 256, 65535]))
    n = w * h * (3 if magic == "P3" else 1)
    samples = draw(st.lists(st.integers(0, maxval), min_size=n, max_size=n))
    space = st.binary(min_size=1, max_size=3).map(lambda b: bytes(_SPACE[c % 6] for c in b))
    comment = st.binary(max_size=6).map(lambda b: b"#" + bytes(c for c in b if c not in b"\r\n"))
    line_end = st.sampled_from([b"\n", b"\r"])
    body = b""
    for v in samples:
        sep = draw(space)
        if magic == "P1" and body and draw(st.booleans()):
            sep = b""  # bits may run together
        if draw(st.integers(0, 9)) == 0:
            sep += draw(comment) + draw(line_end)
        token = str(v)
        if magic != "P1":
            token = token.zfill(draw(st.integers(len(token), 5)))
        body += sep + token.encode()
    if draw(st.booleans()):
        tail = st.one_of(st.binary(max_size=8), st.from_regex(rb"[0-9 \n]{0,16}", fullmatch=True))
        body += draw(space) + draw(tail)
    header = f"{magic}\n{w} {h}" + ("" if magic == "P1" else f"\n{maxval}")
    return header.encode() + body, body, (h, w, 3) if magic == "P3" else (h, w), maxval


@given(plain_files())
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_plain_decode_matches_reference(tmp_path, case):
    data, body, shape, maxval = case
    path = tmp_path / "img.pnm"
    path.write_bytes(data)
    values, got_maxval, _ = read_image(path)
    n = int(np.prod(shape))
    expect = reference_samples(body, n, data.startswith(b"P1"))
    assert values.shape == shape and values.ravel().tolist() == expect
    assert got_maxval == maxval
    assert values.dtype == (np.uint8 if maxval < 256 else np.uint16)


# messages and offsets as the byte-by-byte scanner has always given them
@pytest.mark.parametrize(
    "data, message, offset",
    [
        (b"P2\n2 1\n9\n3 -4\n", "expected sample value, found b'-4'", 11),
        (b"P2\n2 1\n9\n3 +4\n", "expected sample value, found b'+4'", 11),
        (b"P2\n2 1\n9\n3 4a\n", "expected sample value, found b'4a'", 11),
        (b"P3\n1 1\n255\n1 x 3\n", "expected sample value, found b'x'", 13),
        (b"P2\n2 1\n65535\n7 123456\n", "sample value 123456 exceeds maxval 65535", 15),
        (b"P2\n2 1\n9\n3 10\n", "sample value 10 exceeds maxval 9", 11),
        (b"P3\n1 1\n300\n1 301 3\n", "sample value 301 exceeds maxval 300", 13),
        (b"P2\n3 1\n9\n1 2  \n", "expected sample value, found end of file", 15),
        (b"P1\n3 1\n0 1 x\n", "expected 0 or 1, found b'x'", 11),
        (b"P1\n3 1\n0 1 2\n", "expected 0 or 1, found b'2'", 11),
        (b"P1\n3 1\n01 \n", "expected bit, found end of file", 11),
    ],
    ids=["minus", "plus", "letter", "p3-letter", "six-digits", "above-maxval", "p3-above-maxval",
         "truncated", "p1-letter", "p1-two", "p1-truncated"],
)
def test_malformed_plain_raster_error(tmp_path, data, message, offset):
    path = tmp_path / "bad.pnm"
    path.write_bytes(data)
    with pytest.raises(NetpbmError) as err:
        read_image(path)
    assert str(err.value) == f"{path}: {message} at byte {offset}"
    assert err.value.offset == offset


@st.composite
def noisy_plain_files(draw):
    """A valid plain P1/P2/P3 header and a random body: samples, every
    whitespace byte, comments where a sample starts, inside a sample and
    right after a bit, zero-padded samples of 6-12 digits, signs, letters,
    NUL and 0xFF bytes, cut short or followed by junk."""
    magic = draw(st.sampled_from(["P1", "P2", "P3"]))
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    maxval = draw(st.sampled_from([1, 9, 255, 256, 65535]))
    n = w * h * (3 if magic == "P3" else 1)
    sample = st.integers(0, 1 if magic == "P1" else maxval).map(lambda v: str(v).encode())
    padded = st.tuples(sample, st.integers(6, 12)).map(lambda t: t[0].zfill(t[1]))
    comment = st.tuples(st.binary(max_size=4), st.sampled_from([b"\n", b"\r", b""])).map(
        lambda t: b"#" + bytes(c for c in t[0] if c not in b"\r\n") + t[1]
    )
    commented = st.tuples(sample, comment).map(b"".join)  # a comment in P1, part of the sample otherwise
    junk = st.sampled_from([b"-", b"+", b"a", b"Z", b"\x00", b"\xff", b"2", b"#"])
    clean = st.one_of(sample, padded, commented) if magic == "P1" else st.one_of(sample, padded)
    noisy = st.one_of(
        commented,
        # a digit other than 0 left of the last five
        st.tuples(st.integers(0, 6), st.integers(1, 9), sample).map(
            lambda t: b"0" * t[0] + b"%d" % t[1] + t[2].zfill(5)
        ),
        st.tuples(junk, sample).map(b"".join),
        st.tuples(sample, junk).map(b"".join),
    )
    space = st.binary(min_size=1, max_size=3).map(lambda b: bytes(_SPACE[c % 6] for c in b))
    seps = [space, st.tuples(space, comment).map(b"".join)] + [st.just(b"")] * (magic == "P1")
    noise = draw(st.sampled_from([0, 0, 0, 2, 20, 100]))  # percent of noisy tokens
    body = b""
    for _ in range(draw(st.integers(max(n - 1, 0), n + 1))):
        body += draw(st.one_of(seps)) + draw(noisy if draw(st.integers(0, 99)) < noise else clean)
    if draw(st.integers(0, 3)) == 0:
        body = body[: draw(st.integers(0, len(body)))]
    tail = st.one_of(st.binary(max_size=6), junk)
    body += draw(st.one_of(st.just(b""), st.tuples(space, tail).map(b"".join), tail))
    header = f"{magic}\n{w} {h}\n" + ("" if magic == "P1" else f"{maxval}\n")
    return header.encode() + body


def _outcome(read, path):
    try:
        values = read(path)
    except NetpbmError as err:
        return str(err), err.offset
    return values.dtype, values.shape, values.tolist()


@given(noisy_plain_files(), st.sampled_from([None, 1, 2, 3, 8]))
@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_plain_decode_matches_token_reader(tmp_path, data, block):
    # blocks of a few bytes end at almost every line end: after samples, comments and bad tokens
    path = tmp_path / "img.pnm"
    path.write_bytes(data)
    with mock.patch.object(netpbm, "_PLAIN_BLOCK", block or netpbm._PLAIN_BLOCK):
        got = _outcome(lambda p: read_image(p)[0], path)
    assert got == _outcome(read_plain, path)


@st.composite
def one_byte_gaps(draw):
    """A plain P2/P3 file whose samples, of 1-7 digits with leading zeros,
    are split by exactly one whitespace byte, and whose maxval is at or
    just past a power of ten, so that a sample's digits sit one byte after
    the digits of the sample before it."""
    magic = draw(st.sampled_from(["P2", "P3"]))
    maxval = draw(st.sampled_from([9, 10, 99, 100, 255, 256, 999, 1000, 9999, 10000, 65535]))
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n = w * h * (3 if magic == "P3" else 1)
    edges = [maxval, maxval + 1] + [10**k + d for k in range(1, 7) for d in (-1, 0)]
    value = st.one_of(st.integers(0, maxval), st.integers(0, maxval), st.sampled_from(edges), st.integers(0, 10**7 - 1))
    body = b""
    for v in draw(st.lists(value, min_size=n, max_size=n)):
        digits = str(v)
        body += bytes([draw(st.sampled_from(_SPACE))]) + digits.zfill(draw(st.integers(len(digits), 7))).encode()
    return f"{magic}\n{w} {h}\n{maxval}".encode() + body


@given(one_byte_gaps(), st.sampled_from([1, 2, 3, 8]))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_plain_decode_of_samples_one_byte_apart(tmp_path, data, block):
    path = tmp_path / "img.pnm"
    path.write_bytes(data)
    with mock.patch.object(netpbm, "_PLAIN_BLOCK", block):
        got = _outcome(lambda p: read_image(p)[0], path)
    assert got == _outcome(read_plain, path)


@pytest.mark.parametrize("block", [1, 5, 64, 1000, None])
def test_plain_decode_is_the_same_in_any_block_size(tmp_path, block):
    rng = np.random.default_rng(7)
    rgb = rng.integers(0, 65536, (40, 50, 3))
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb, maxval=65535, binary=False)
    header, raster = path.read_bytes().split(b"\n65535\n", 1)
    # comments, runs of whitespace and zero-padded samples throughout the raster
    raster = raster.replace(b"9 ", b"9 # a comment 12 34\n\t ").replace(b" 1", b"  0001")
    path.write_bytes(header + b"\n65535\n" + raster + b"\n17 x")
    with mock.patch.object(netpbm, "_PLAIN_BLOCK", block or netpbm._PLAIN_BLOCK):
        values, _, _ = read_image(path)
    assert values.dtype == np.uint16 and values.tolist() == rgb.tolist()
    bad = header.replace(b"50 40", b"50 41") + b"\n65535\n" + raster + b"\n17 x"
    path.write_bytes(bad)
    with mock.patch.object(netpbm, "_PLAIN_BLOCK", block or netpbm._PLAIN_BLOCK):
        got = _outcome(lambda p: read_image(p)[0], path)
    assert got == _outcome(read_plain, path) and "found b'x'" in got[0]


@pytest.mark.parametrize("eol", [b"\n", b"\r", b"\r\n", b" "], ids=["lf", "cr", "crlf", "one-line"])
def test_plain_decode_at_any_line_end(tmp_path, eol):
    values = np.random.default_rng(3).integers(0, 256, (30, 40))
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n40 30\n255\n" + eol.join(b" ".join(b"%d" % v for v in row) for row in values))
    for block in (1, 7, 100, netpbm._PLAIN_BLOCK):
        with mock.patch.object(netpbm, "_PLAIN_BLOCK", block):
            assert read_image(path)[0].tolist() == values.tolist()


@st.composite
def headers(draw):
    """P1, P2 or P5 headers: runs of every whitespace byte, comments ended by
    CR, LF, CRLF or nothing, '#' inside tokens, zero-padded tokens, tokens
    at and just past 65535 and 2^30, junk bytes, and cuts anywhere."""
    magic = draw(st.sampled_from([b"P1", b"P2", b"P5"]))
    space = st.binary(max_size=4).map(lambda b: bytes(_SPACE[c % 6] for c in b))
    comment = st.tuples(st.binary(max_size=6), st.sampled_from([b"\r", b"\n", b"\r\n"] * 2 + [b""])).map(
        lambda t: b"#" + bytes(c for c in t[0] if c not in b"\r\n") + t[1]
    )
    separator = st.lists(st.one_of(space, comment), max_size=3).map(b"".join)
    # whitespace first, or a comment would join the token before it, and
    # digits that run together would pass 16
    gap = st.tuples(st.sampled_from(list(_SPACE)).map(lambda c: bytes([c])), separator).map(b"".join)
    edges = [1, 65534, 65535, 65536, (1 << 30) - 1, 1 << 30, (1 << 30) + 1]
    value = st.one_of(st.integers(1, 300), st.sampled_from([0] + edges), st.integers(0, 1 << 31))
    number = st.tuples(value, st.integers(0, 16)).map(lambda t: str(t[0]).zfill(t[1]).encode())
    junk = st.binary(min_size=1, max_size=4)
    data = magic + draw(separator)
    for i in range(draw(st.sampled_from([0, 1, 2, 3, 3, 3, 4]))):
        kind = draw(st.sampled_from(["number"] * 8 + ["hashed", "junk"]))
        token = draw(junk if kind == "junk" else number)
        if kind == "hashed":
            token += draw(st.sampled_from([b"#", b"#1", b"1#"]))  # '#' inside a token
        data += (draw(gap) if i else b"") + token
    data += draw(st.one_of(st.just(b""), gap, st.tuples(gap, junk).map(b"".join)))
    return data[: draw(st.integers(2, len(data)))] if draw(st.integers(0, 7)) == 0 else data


def _header_fields(scanner, data):
    """Width, height, maxval (unless P1) and where the raster starts, or the message and offset."""
    sc = scanner(data, "img.pnm")
    sc.pos = 2
    try:
        fields = [sc.uint("width", 1 << 30), sc.uint("height", 1 << 30)]
        if not data.startswith(b"P1"):
            fields.append(sc.uint("maxval", 65535))
    except NetpbmError as err:
        return str(err), err.offset
    return fields, sc.pos


@given(headers())
@settings(max_examples=300)
def test_header_scan_matches_byte_scanner(data):
    # tokens stay within 16 digits, beyond which the two quote numbers differently
    assert _header_fields(netpbm._Scanner, data) == _header_fields(ReferenceScanner, data)


def _p2_file(path, size, top, before=b"", after=b""):
    """A size x size P2 file of random samples in [0, top], its raster between before and after."""
    values = np.random.default_rng(size).integers(0, top + 1, (size, size))
    write_pgm(path, IntensityGrid(values, 255), binary=False)
    header, rows = path.read_bytes().split(b"\n255\n", 1)
    path.write_bytes(header + b"\n255\n" + before + rows + after)
    return path


def _decode_seconds(path, runs=1):
    """The least time of runs decodes of a 2048x2048 file."""
    seconds = []
    for _ in range(runs):
        t0 = time.perf_counter()
        values, _, _ = read_image(path)
        seconds.append(time.perf_counter() - t0)
        assert values.shape == (2048, 2048)
    return min(seconds)


def test_comment_costs_no_more_than_any_plain_file(tmp_path):
    # the token-by-token reader took 3.5-8.6 s on the commented file (2-vCPU x86 machine)
    plain = _decode_seconds(_p2_file(tmp_path / "plain.pgm", 2048, 255), runs=3)
    commented = _decode_seconds(_p2_file(tmp_path / "commented.pgm", 2048, 255, b"# after the header\n"))
    assert commented < 3.0
    assert commented < 3 * plain


_MIB8 = 8 << 20


@pytest.mark.parametrize(
    "header",
    [
        b"P2\n#" + b"c" * _MIB8 + b"\n2 1\n255\n",
        b"P2" + _SPACE * (_MIB8 // 6) + b"2 1\n255\n",
        b"P2\n" + b"0" * _MIB8 + b"2 1\n255\n",
        b"P2\n" + b"#\n" * (_MIB8 // 2) + b"2 1\n255\n",
    ],
    ids=["comment", "whitespace", "zero-padded-width", "one-line-comments"],
)
def test_hostile_header_costs_no_more_than_a_plain_file(tmp_path, header):
    # the byte-at-a-time header scanner took 0.9-1.2 s on each of these
    # files, against 0.07 s for the plain decode (2-vCPU x86 machine); the
    # pattern that matched one comment at a time took 0.7-1.1 s on the last
    plain = _decode_seconds(_p2_file(tmp_path / "plain.pgm", 2048, 255), runs=3)
    path = tmp_path / "hostile.pgm"
    path.write_bytes(header + b"1 2\n")
    seconds = []
    for _ in range(3):
        t0 = time.perf_counter()
        values, _, _ = read_image(path)
        seconds.append(time.perf_counter() - t0)
        assert values.tolist() == [[1, 2]]
    assert min(seconds) < 3.0
    assert min(seconds) < 3 * plain


@pytest.mark.parametrize(
    "before, after",
    [(b"", b""), (b"# after the header\n", b""), (b"", b"# after the last sample\n"), (b"000000", b"")],
    ids=["plain", "comment-first", "comment-last", "zero-padded"],
)
def test_plain_decode_peak_memory_is_linear_in_file_bytes(tmp_path, before, after):
    path = _p2_file(tmp_path / "img.pgm", 1024, 255, before, after)
    tracemalloc.start()
    try:
        read_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * path.stat().st_size


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2 # magic\n# a comment line\n 3 2 \n9\n0 1 2\n3 4 5\n")
    grid = read_grid(path)
    assert grid.values.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert grid.max_value == 9


def test_channel_on_grayscale_rejected(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, IntensityGrid(np.zeros((2, 2), dtype=np.int64), 255))
    with pytest.raises(ValueError, match="color"):
        read_grid(path, channel="r")
    with pytest.raises(ValueError, match="channel"):
        read_grid(path, channel="cyan")


class TestParseErrors:
    def test_bad_magic_names_offset_zero(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"Q5\n2 2\n255\n....")
        with pytest.raises(NetpbmError, match="byte 0") as err:
            read_image(path)
        assert err.value.offset == 0

    def test_truncated_raster_names_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        data = b"P5\n2 2\n255\nABC"
        path.write_bytes(data)
        with pytest.raises(NetpbmError, match="truncated") as err:
            read_image(path)
        assert f"byte {len(data)}" in str(err.value)

    def test_binary_raster_needs_its_whitespace_byte(self, tmp_path):
        path = tmp_path / "bad.pgm"
        data = b"P5\n2 1\n255"
        path.write_bytes(data)
        with pytest.raises(NetpbmError, match="expected single whitespace before binary raster") as err:
            read_image(path)
        assert err.value.offset == len(data)

    def test_non_numeric_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\nxx 2\n255\n")
        with pytest.raises(NetpbmError, match="width"):
            read_image(path)

    def test_sample_above_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 1\n9\n3 10\n")
        with pytest.raises(NetpbmError, match="exceeds maxval"):
            read_image(path)

    @pytest.mark.parametrize(
        "data, value, maxval, offset",
        [
            (b"P5\n2 1\n9\n\x05\xc8", 200, 9, 10),
            (b"P5\n2 1\n300\n\x00\x05\x01\x2d", 301, 300, 13),
            (b"P6\n1 1\n9\n\x01\x02\xff", 255, 9, 11),
        ],
        ids=["p5-8bit", "p5-16bit", "p6"],
    )
    def test_binary_sample_above_maxval(self, tmp_path, data, value, maxval, offset):
        path = tmp_path / "bad.pnm"
        path.write_bytes(data)
        with pytest.raises(NetpbmError, match=f"sample value {value} exceeds maxval {maxval} at byte") as err:
            read_image(path)
        assert err.value.offset == offset

    @pytest.mark.parametrize("case", sorted(LONG_TOKEN_FILES))
    def test_token_too_long_for_int_names_its_offset(self, tmp_path, case):
        data, message, offset = LONG_TOKEN_FILES[case]
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(NetpbmError) as err:
            read_image(path)
        assert str(err.value) == f"{path}: {message} at byte {offset}"
        assert err.value.offset == offset

    def test_leading_zeros_leave_the_value_and_its_message(self, tmp_path):
        zeros = b"0" * 5000
        path = tmp_path / "padded.pgm"
        path.write_bytes(b"P2\n" + zeros + b"2 1\n255\n1 " + zeros + b"7\n")
        assert read_grid(path).values.tolist() == [[1, 7]]
        path.write_bytes(b"P2\n2 1\n255\n1 " + zeros + b"300\n")
        with pytest.raises(NetpbmError, match="sample value 300 exceeds maxval 255 at byte 13$"):
            read_image(path)
        path.write_bytes(b"P2\n2 1\n" + zeros + b"65536\n1 1\n")
        with pytest.raises(NetpbmError, match=r"maxval 65536 out of range \[1, 65535\] at byte 7$"):
            read_image(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2\n2 1\n255\n1 00" + b"9" * 16 + b"\n", "sample value " + "9" * 16 + " exceeds maxval 255"),
            (b"P2\n2 1\n255\n1 00" + b"9" * 17 + b"\n", "sample value " + "9" * 16 + "... exceeds maxval 255"),
            (b"P2\n" + b"1" * 16 + b" 1\n255\n1 1\n", "width " + "1" * 16 + " out of range [1, 1073741824]"),
            (b"P2\n" + b"1" * 17 + b" 1\n255\n1 1\n", "width " + "1" * 16 + "... out of range [1, 1073741824]"),
        ],
        ids=["sample-16", "sample-17", "width-16", "width-17"],
    )
    def test_messages_quote_at_most_16_digits(self, tmp_path, data, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(NetpbmError) as err:
            read_image(path)
        assert str(err.value) == f"{path}: {message} at byte {err.value.offset}"

    def test_header_eof(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2")
        with pytest.raises(NetpbmError, match="end of file"):
            read_image(path)

    def test_bad_ascii_bit(self, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_bytes(b"P1\n2 1\n0 2\n")
        with pytest.raises(NetpbmError, match="expected 0 or 1"):
            read_image(path)


class TestWriterLimits:
    def test_pgm_maxval_limit(self, tmp_path):
        grid = IntensityGrid(np.zeros((1, 1), dtype=np.int64), 70000)
        with pytest.raises(ValueError, match="65535"):
            write_pgm(tmp_path / "img.pgm", grid)

    @pytest.mark.parametrize("maxval", [0, 70000])
    def test_ppm_maxval_limit(self, tmp_path, maxval):
        path = tmp_path / "img.ppm"
        with pytest.raises(ValueError, match="65535"):
            write_ppm(path, np.zeros((1, 1, 3), dtype=np.int64), maxval=maxval)
        assert not path.exists()

    def test_pbm_needs_2d(self, tmp_path):
        with pytest.raises(ValueError, match="2D"):
            write_pbm(tmp_path / "m.pbm", np.zeros(4, dtype=bool))

    def test_ppm_shape_checked(self, tmp_path):
        with pytest.raises(ValueError, match="3"):
            write_ppm(tmp_path / "img.ppm", np.zeros((2, 2), dtype=np.int64))

    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize(
        "write",
        [
            lambda path, binary: write_pgm(path, IntensityGrid(np.zeros((1, 1), np.int64), 70000), binary),
            lambda path, binary: write_pbm(path, np.zeros(4, dtype=bool), binary),
            lambda path, binary: write_pbm(path, np.zeros((2, 2, 2), dtype=bool), binary),
            lambda path, binary: write_ppm(path, np.zeros((2, 2), np.int64), binary=binary),
            lambda path, binary: write_ppm(path, np.zeros((2, 2, 4), np.int64), binary=binary),
            lambda path, binary: write_ppm(path, np.full((1, 1, 3), 256), binary=binary),
            lambda path, binary: write_ppm(path, np.full((1, 1, 3), -1), binary=binary),
            lambda path, binary: write_ppm(path, np.full((2, 2, 3), 1.7), binary=binary),
            # the reader refuses a height or width of 0
            lambda path, binary: write_pbm(path, np.zeros((0, 5), dtype=bool), binary),
            lambda path, binary: write_pbm(path, np.zeros((5, 0), dtype=bool), binary),
            lambda path, binary: write_ppm(path, np.zeros((0, 5, 3), np.int64), binary=binary),
        ],
        ids=["pgm-maxval", "pbm-1d", "pbm-3d", "ppm-2d", "ppm-4-channels", "ppm-above-maxval", "ppm-negative",
             "ppm-float", "pbm-no-rows", "pbm-no-columns", "ppm-empty"],
    )
    def test_rejected_write_leaves_no_file(self, tmp_path, write, binary):
        path = tmp_path / "img.pnm"
        with pytest.raises(ValueError):
            write(path, binary)
        assert not path.exists()

    def test_writers_are_deterministic(self, tmp_path):
        grid = IntensityGrid(np.arange(12, dtype=np.int64).reshape(3, 4), 20)
        write_pgm(tmp_path / "a.pgm", grid)
        write_pgm(tmp_path / "b.pgm", grid)
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
