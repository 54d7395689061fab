import json

import numpy as np
import pytest

from proxdeconv import Image
from proxdeconv.rasters import (read_f64, read_pgm, read_raster, sidecar_path,
                                write_f64, write_pgm, write_raster)


def _float_image():
    rng = np.random.default_rng(42)
    return Image.from_2d(rng.standard_normal((5, 7)) * 1e3)


def _count_image(maxval_needed):
    rng = np.random.default_rng(7)
    data = rng.integers(0, maxval_needed + 1, size=(4, 6)).astype(np.float64)
    data[0, 0] = maxval_needed
    return Image.from_2d(data)


class TestF64:
    def test_round_trip_is_bit_exact(self, tmp_path):
        img = _float_image()
        path = str(tmp_path / "field.f64")
        write_f64(path, img)
        back = read_f64(path)
        assert back.width == img.width and back.height == img.height
        assert np.array_equal(back.data, img.data)

    def test_numpy_integer_sizes_round_trip(self, tmp_path):
        img = Image(np.int64(2), np.int64(1), [1.0, 2.0])
        path = str(tmp_path / "sizes.f64")
        write_f64(path, img)
        back = read_f64(path)
        assert (back.width, back.height) == (2, 1)
        assert np.array_equal(back.data, img.data)

    def test_sidecar_contents(self, tmp_path):
        img = _float_image()
        path = str(tmp_path / "field.f64")
        write_f64(path, img)
        with open(sidecar_path(path)) as fh:
            meta = json.load(fh)
        assert meta == {"dtype": "f64-le", "height": 5, "width": 7}

    def test_payload_length_checked(self, tmp_path):
        img = _float_image()
        path = str(tmp_path / "field.f64")
        write_f64(path, img)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError, match="bytes"):
            read_f64(path)

    def test_foreign_dtype_rejected(self, tmp_path):
        img = _float_image()
        path = str(tmp_path / "field.f64")
        write_f64(path, img)
        with open(sidecar_path(path), "w") as fh:
            json.dump({"dtype": "f32-le", "height": 5, "width": 7}, fh)
        with pytest.raises(ValueError, match="dtype"):
            read_f64(path)


    @pytest.mark.parametrize("meta", [
        {"dtype": "f64-le", "height": 5},
        ["f64-le", 5, 7],
        {"dtype": "f64-le", "height": 5, "width": 2.5},
        {"dtype": "f64-le", "height": 5, "width": "7"},
        {"dtype": "f64-le", "height": True, "width": 7},
        {"dtype": "f64-le", "height": 0, "width": 7},
    ])
    def test_malformed_sidecar_rejected(self, tmp_path, meta):
        path = str(tmp_path / "field.f64")
        write_f64(path, _float_image())
        with open(sidecar_path(path), "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(ValueError, match="field.f64: sidecar"):
            read_f64(path)


class TestPgm:
    def test_binary_8bit_round_trip(self, tmp_path):
        img = _count_image(255)
        path = str(tmp_path / "counts.pgm")
        write_pgm(path, img)
        back = read_pgm(path)
        assert np.array_equal(back.data, img.data)
        assert back.width == img.width and back.height == img.height

    def test_binary_16bit_round_trip(self, tmp_path):
        img = _count_image(60000)
        path = str(tmp_path / "counts.pgm")
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path).data, img.data)

    def test_header_comments_are_skipped(self, tmp_path):
        path = str(tmp_path / "commented.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P2\n# camera A\n3 # width then height\n2\n# max\n9\n"
                     b"0 1 2\n3 4 9\n")
        back = read_pgm(path)
        assert back.width == 3 and back.height == 2
        assert np.array_equal(back.to_2d(), [[0, 1, 2], [3, 4, 9]])

    def test_non_integer_samples_rejected(self, tmp_path):
        path = str(tmp_path / "bad.pgm")
        with pytest.raises(ValueError, match="integer"):
            write_pgm(path, Image.from_2d([[1.5]]))
        with pytest.raises(ValueError, match="integer"):
            write_pgm(path, Image.from_2d([[-2.0]]))
        with pytest.raises(ValueError, match="integer"):
            write_pgm(path, Image.from_2d([[np.inf, 1.0]]))

    def test_maxval_limits(self, tmp_path):
        path = str(tmp_path / "bad.pgm")
        with pytest.raises(ValueError, match="65535"):
            write_pgm(path, Image.from_2d([[70000.0]]))

    def test_sample_above_declared_maxval_rejected(self, tmp_path):
        path = str(tmp_path / "bad.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P2\n2 1\n5\n3 6\n")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(path)

    def test_truncated_binary_payload_rejected(self, tmp_path):
        img = _count_image(255)
        path = str(tmp_path / "short.pgm")
        write_pgm(path, img)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-3])
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize("blob, match", [
        (b"P2\n2 1\n", "truncated PGM header"),
        (b"P5\n1 1\n0\n\x00", "outside"),
        (b"P2\n1 1\n65536\n0\n", "outside"),
        (b"P2\n2 1\n5\n3\n", "1 samples, expected 2"),
        # Header fields and P2 samples are ASCII decimal digits: no sign, no
        # underscore, nothing int() would also take. Errors name the file
        # and the field.
        (b"P2\nab 1\n5\n3\n", r"bad\.pgm: .*width"),
        (b"P2\n+2 1\n5\n3 4\n", r"bad\.pgm: .*width"),
        (b"P2\n0_1 1\n5\n3\n", r"bad\.pgm: .*width"),
        (b"P2\n-2 1\n5\n3\n", r"bad\.pgm: .*width"),
        (b"P2\n0 1\n5\n", r"bad\.pgm: .*width"),
        (b"P5\n1 0\n5\n", r"bad\.pgm: .*height"),
        (b"P2\n1 1\n5x\n3\n", r"bad\.pgm: .*maxval"),
        (b"P2\n2 1\n5\n3 +4\n", r"bad\.pgm: .*sample"),
        (b"P2\n2 1\n5\n3 -1\n", r"bad\.pgm: .*sample"),
        (b"P2\n2 1\n5\n3 x\n", r"bad\.pgm: .*sample"),
    ])
    def test_malformed_file_rejected(self, tmp_path, blob, match):
        path = str(tmp_path / "bad.pgm")
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ValueError, match=match):
            read_pgm(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "not.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="magic"):
            read_pgm(path)


class TestDispatch:
    def test_extension_routes_formats(self, tmp_path):
        counts = _count_image(40)
        field = _float_image()
        pgm = str(tmp_path / "a.PGM")
        raw = str(tmp_path / "b.raw")
        write_raster(pgm, counts)
        write_raster(raw, field)
        assert np.array_equal(read_raster(pgm).data, counts.data)
        assert np.array_equal(read_raster(raw).data, field.data)
        assert (tmp_path / "b.raw.json").exists()
