import numpy as np
import pytest

from isophote import (
    IntensityGrid,
    NetpbmError,
    read_grid,
    read_image,
    read_pbm,
    write_pbm,
    write_pgm,
    write_ppm,
)


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
    assert back.max_value == maxval
    assert read_image(path)[0].dtype == (np.uint8 if maxval < 256 else np.uint16)


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
    assert np.array_equal(read_pbm(path), mask)


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
    assert read_grid(path, channel="r").values.tolist() == [[255, 0, 0, 10]]
    assert read_grid(path, channel="g").values.tolist() == [[0, 255, 0, 20]]
    assert read_grid(path, channel="b").values.tolist() == [[0, 0, 255, 30]]
    # integer luma (77 R + 150 G + 29 B) >> 8
    assert read_grid(path, channel="gray").values.tolist() == [[76, 149, 28, 18]]


@pytest.mark.parametrize("maxval", [255, 65535])
def test_gray_luma_does_not_wrap_at_full_scale(tmp_path, maxval):
    rgb = np.array([[[maxval] * 3, [maxval, maxval, 0], [0, maxval, maxval], [maxval, 0, 0]]])
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb, maxval=maxval)
    expect = [[(77 * int(r) + 150 * int(g) + 29 * int(b)) >> 8 for r, g, b in rgb[0]]]
    assert expect[0][0] == maxval
    assert read_grid(path, channel="gray").values.tolist() == expect


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


def test_read_pbm_requires_pbm(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, IntensityGrid(np.zeros((2, 2), dtype=np.int64), 255))
    with pytest.raises(ValueError, match="PBM"):
        read_pbm(path)


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

    def test_pbm_needs_2d(self, tmp_path):
        with pytest.raises(ValueError, match="2D"):
            write_pbm(tmp_path / "m.pbm", np.zeros(4, dtype=bool))

    def test_ppm_shape_checked(self, tmp_path):
        with pytest.raises(ValueError, match="3"):
            write_ppm(tmp_path / "img.ppm", np.zeros((2, 2), dtype=np.int64))

    def test_writers_are_deterministic(self, tmp_path):
        grid = IntensityGrid(np.arange(12, dtype=np.int64).reshape(3, 4), 20)
        write_pgm(tmp_path / "a.pgm", grid)
        write_pgm(tmp_path / "b.pgm", grid)
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
