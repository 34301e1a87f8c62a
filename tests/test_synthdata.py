import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fusionseg.errors import ConfigurationError, IOError_
from fusionseg.synthdata import (OPTICAL_FOREGROUND, SceneSpec, gen_label_mask,
                                 load_split, make_dataset, quantize_u8,
                                 read_pgm, render_optical, render_sar,
                                 sample_speckle, write_pgm)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestMask:
    def test_two_valued(self):
        spec = SceneSpec()
        for seed in range(10):
            mask = gen_label_mask(spec, rng_for(seed))
            assert set(np.unique(mask)) <= {0, 255}

    def test_deterministic(self):
        spec = SceneSpec()
        a = gen_label_mask(spec, rng_for(42))
        b = gen_label_mask(spec, rng_for(42))
        assert np.array_equal(a, b)

    def test_oversized_cells_rejected(self):
        # a scene must be a multiple of 16 above the largest farm cell, 16 px
        for size in (0, 16, 40, -32):
            with pytest.raises(ConfigurationError):
                SceneSpec(image_size=size)


class TestOptical:
    def test_clamped(self):
        mask = gen_label_mask(SceneSpec(), rng_for(3))
        img = render_optical(mask, rng_for(4))
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_foreground_mean(self):
        mask = np.full((64, 64), 255, dtype=np.uint8)
        img = render_optical(mask, rng_for(5))
        assert abs(img.mean() - OPTICAL_FOREGROUND) < 0.02


class TestSpeckle:
    def test_single_look_is_exponential(self):
        s = sample_speckle((100000,), 1, rng_for(6))
        # exponential: mean 1, variance 1, P(X > 1) = e^-1
        assert abs(s.mean() - 1.0) < 0.05
        assert abs(np.mean(s > 1.0) - np.exp(-1)) < 0.01

    def test_mean_one(self):
        s = sample_speckle((100000,), 4, rng_for(7))
        assert abs(s.mean() - 1.0) < 0.05

    def test_variance_quarter_at_four_looks(self):
        s = sample_speckle((100000,), 4, rng_for(8))
        assert abs(s.var() - 0.25) < 0.025

    def test_pixel_independence(self):
        s = sample_speckle((100000,), 4, rng_for(9))
        centered = s - s.mean()
        rho = np.mean(centered[:-1] * centered[1:]) / s.var()
        assert abs(rho) < 0.02

    def test_sar_in_unit_interval(self):
        spec = SceneSpec()
        mask = gen_label_mask(spec, rng_for(10))
        img = render_sar(mask, rng_for(11))
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_header_comments_and_whitespace(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "x.pgm"
        path.write_bytes(b"# lead\nP5\t# c\n\r4\n#\n 3 #x\n255\r" + img.tobytes())
        assert np.array_equal(read_pgm(path), img)

    @pytest.mark.parametrize("raw", [b"P5# c\n4 3\n255\n", b"P5\n4 3\n255#\n",
                                     b"P5\n4 3\n0255\n", b"P6\n4 3\n255\n"])
    def test_malformed_header_rejected(self, tmp_path, raw):
        path = tmp_path / "x.pgm"
        path.write_bytes(raw + bytes(12))
        with pytest.raises(IOError_, match="not an 8-bit P5 PGM"):
            read_pgm(path)

    @pytest.mark.parametrize("tail", [b"P6\n4 3\n255\n", b"P5\n4 3\n255"])
    def test_hash_run_comment_fails_fast(self, tmp_path, tail):
        # a comment must match one way only: a run of "#" that could split
        # into many comments would make a failed match take exponential time
        path = tmp_path / "x.pgm"
        path.write_bytes(b"#" * 40 + b"\n" + tail)
        start = time.perf_counter()
        with pytest.raises(IOError_, match="not an 8-bit P5 PGM"):
            read_pgm(path)
        assert time.perf_counter() - start < 1.0

    def test_write_rejects_non_2d(self, tmp_path):
        path = tmp_path / "x.pgm"
        with pytest.raises(IOError_, match="2-d uint8"):
            write_pgm(path, np.zeros((2, 3, 4), dtype=np.uint8))
        assert not path.exists()

    def test_quantize(self):
        q = quantize_u8(np.array([0.0, 0.5, 1.0]))
        assert list(q) == [0, 128, 255]

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_pgm(path, np.arange(12, dtype=np.uint8).reshape(3, 4))
        raw = path.read_bytes()
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(IOError_):
                read_pgm(path)

    @pytest.mark.parametrize("raw", [b"P5\nab 4\n255\n", b"P5\n-1 4\n255\n"])
    def test_non_numeric_extent_rejected(self, tmp_path, raw):
        path = tmp_path / "x.pgm"
        path.write_bytes(raw)
        with pytest.raises(IOError_):
            read_pgm(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(
        st.binary(max_size=32),
        st.tuples(st.sampled_from([b"P5", b"P6"]),
                  st.from_regex(rb"[0-9a-]{0,2}", fullmatch=True),
                  st.from_regex(rb"[0-9a-]{0,2}", fullmatch=True),
                  st.sampled_from([b"255", b"25"]), st.binary(max_size=32),
                  ).map(lambda t: b"%s\n%s %s\n%s\n%s" % t)))
    def test_arbitrary_bytes_image_or_io_error(self, tmp_path, raw):
        path = tmp_path / "fuzz.pgm"
        path.write_bytes(raw)
        try:
            assert read_pgm(path).dtype == np.uint8
        except IOError_:
            pass


class TestMakeDataset:
    def test_single_sample(self, tmp_path):
        spec = SceneSpec()
        manifest = make_dataset(spec, tmp_path, 1, 0, 0, seed=0)
        assert len(manifest["splits"]["train"]) == 1
        assert len(manifest["splits"]["val"]) == 0
        sar, masks, optical = load_split(tmp_path, "train")
        assert sar.shape == (1, 1, 64, 64)
        assert set(np.unique(masks)) <= {0.0, 1.0}

    def test_entry_naming_a_missing_image_is_io_error(self, tmp_path):
        make_dataset(SceneSpec(image_size=32), tmp_path, 1, 0, 0, seed=0)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["splits"]["train"][0]["sar"] = "train/missing.pgm"
        path.write_text(json.dumps(manifest))
        with pytest.raises(IOError_, match="cannot read .*missing.pgm"):
            load_split(tmp_path, "train")

    def test_unknown_split_is_config_error(self, tmp_path):
        make_dataset(SceneSpec(image_size=32), tmp_path, 1, 0, 0, seed=0)
        with pytest.raises(ConfigurationError, match="unknown split 'holdout'"):
            load_split(tmp_path, "holdout")

    def test_missing_manifest_is_config_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no dataset manifest"):
            load_split(tmp_path, "train")

    def test_byte_identical_regeneration(self, tmp_path):
        spec = SceneSpec()
        make_dataset(spec, tmp_path / "a", 3, 1, 1, seed=5)
        make_dataset(spec, tmp_path / "b", 3, 1, 1, seed=5)
        for rel in json.loads((tmp_path / "a" / "manifest.json").read_text()
                              )["splits"]["train"][0].values():
            assert ((tmp_path / "a" / rel).read_bytes()
                    == (tmp_path / "b" / rel).read_bytes())

    def test_default_split_ratio(self):
        # desk-scale 200/40 mirrors the 3200:600 train:val proportion
        assert 200 / 40 == pytest.approx(3200 / 600, rel=0.07)

    def test_derived_seeds_differ_across_samples(self, tmp_path):
        make_dataset(SceneSpec(), tmp_path, 2, 0, 0, seed=9)
        sar, _, _ = load_split(tmp_path, "train")
        assert not np.array_equal(sar[0], sar[1])

    def test_bytes_pinned(self, tmp_path):
        # sha256 over the sorted relative path and bytes of every file written;
        # computed with numpy 2.4.6; a change to its samplers would move it
        make_dataset(SceneSpec(image_size=32), tmp_path, 3, 2, 2, seed=11)
        digest = hashlib.sha256()
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        for path in files:
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0"
                          + path.read_bytes())
        assert len(files) == 1 + 3 * 7  # the manifest and 7 PGM triples
        assert digest.hexdigest() == (
            "53549f692a2265f3dde91886f431c3c5aef14e0a42cbd9b6a82b71be0652d522")
