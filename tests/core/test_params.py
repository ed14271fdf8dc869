"""Tests for PicassoParams and presets."""

from dataclasses import fields

import pytest

from repro.core import PicassoParams, aggressive_params, normal_params


class TestValidation:
    def test_defaults_valid(self):
        p = PicassoParams()
        assert p.palette_fraction == 0.125
        assert p.alpha == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"palette_fraction": 0.0},
            {"palette_fraction": 1.5},
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"conflict_order": "bogus"},
            {"max_iterations": 0},
            {"grow_on_stall": 0.5},
            {"max_retries": -1},
            {"n_workers": 0},
            {"executor": "threads"},
            {"failover": "threads"},
            {"checkpoint_every": 0},
            {"min_palette": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PicassoParams(**kwargs)

    def test_chunk_size_rejected_before_the_pool_runs(self):
        """There is no pair-chunk size: any value is refused at
        construction, before a pool starts."""
        with pytest.raises(TypeError, match="chunk_size"):
            PicassoParams(chunk_size=-1, n_workers=2)

    def test_engine_knob_is_gone(self):
        """One pair-sweep engine: no field selects it."""
        for engine in ("tiled", "pairs"):
            with pytest.raises(TypeError):
                PicassoParams(engine=engine)
        assert len(fields(PicassoParams)) == 17

    def test_fused_knob_is_gone(self):
        with pytest.raises(TypeError):
            PicassoParams(fused=True)

    def test_shm_gather_knob_is_gone(self):
        with pytest.raises(TypeError):
            PicassoParams(shm_gather=True)

    def test_backend_defaults(self):
        p = PicassoParams()
        assert p.n_workers == 1
        assert p.executor == "auto"
        assert p.with_(n_workers=4, executor="pool").n_workers == 4


class TestSizing:
    def test_palette_size_rounds(self):
        p = PicassoParams(palette_fraction=0.125)
        assert p.palette_size(1000) == 125
        assert p.palette_size(2) >= 1  # min_palette floor

    def test_list_size_capped_by_palette(self):
        p = PicassoParams(palette_fraction=0.03, alpha=30.0)
        n = 100
        assert p.list_size(n) <= p.palette_size(n)

    def test_list_size_tiny_n(self):
        p = PicassoParams()
        assert p.list_size(1) == 1
        assert p.list_size(2) >= 1

    def test_list_size_grows_with_alpha(self):
        lo = PicassoParams(alpha=0.5).list_size(10_000)
        hi = PicassoParams(alpha=4.5).list_size(10_000)
        assert hi > lo


class TestPresets:
    def test_normal(self):
        p = normal_params()
        assert p.palette_fraction == pytest.approx(0.125)
        assert p.alpha == 2.0

    def test_aggressive(self):
        p = aggressive_params()
        assert p.palette_fraction == pytest.approx(0.03)
        assert p.alpha == 30.0

    def test_overrides(self):
        p = normal_params(alpha=3.0, n_workers=2)
        assert p.alpha == 3.0
        assert p.n_workers == 2
        assert p.palette_fraction == pytest.approx(0.125)

    def test_with_is_functional(self):
        a = PicassoParams()
        b = a.with_(alpha=9.0)
        assert a.alpha == 2.0
        assert b.alpha == 9.0
