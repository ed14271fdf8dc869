"""Kernel-backend registry, resolution policy and bit-level contract.

The contract every backend signs: its hot kernel reproduces a naive
per-bit Python reference **exactly**, on randomized packed words,
all-zero rows and single-word matrices, and the engine that needs it
reaches it through :func:`resolve_backend` even when no backend is
named.  The suite parametrizes over
:func:`available_backends`, so a CI leg with numba installed runs every
property against the compiled kernels with zero test changes.
"""

import numpy as np
import pytest

from repro.core.params import PicassoParams
from repro.device.backends import (
    KernelBackend,
    available_backends,
    get_backend,
    registered_backends,
    resolve_backend,
)
from repro.device.backends import base as backends_base

BACKENDS = available_backends()


# -- registry ------------------------------------------------------------


def test_registry_contents():
    # Both implementations register even when their runtime is
    # missing; numpy is always available.
    assert registered_backends() == ("numba", "numpy")
    assert "numpy" in BACKENDS
    assert set(BACKENDS) <= set(registered_backends())


def test_get_backend_is_singleton():
    assert get_backend("numpy") is get_backend("numpy")


def test_get_backend_unknown():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_backend("tpu")


def test_get_backend_unavailable():
    missing = set(registered_backends()) - set(BACKENDS)
    if not missing:
        pytest.skip("every registered backend is importable here")
    with pytest.raises(RuntimeError, match="not importable"):
        get_backend(sorted(missing)[0])


def test_register_backend_rejects_bad_names():
    from repro.device.backends import register_backend

    with pytest.raises(ValueError, match="non-empty name"):
        register_backend(type("Anon", (KernelBackend,), {"name": ""}))
    with pytest.raises(ValueError, match="already registered"):
        register_backend(type("Dup", (KernelBackend,), {"name": "numpy"}))


# -- resolution policy ---------------------------------------------------


def test_resolve_explicit_and_default():
    assert resolve_backend("numpy").name == "numpy"
    assert resolve_backend(None).name == "numpy"
    assert resolve_backend("auto").name == "numpy"


def test_resolve_env_override(monkeypatch):
    monkeypatch.setenv(backends_base.ENV_VAR, "numpy")
    assert resolve_backend(None).name == "numpy"
    monkeypatch.setenv(backends_base.ENV_VAR, "auto")
    assert resolve_backend(None).name == "numpy"


def test_resolve_unknown_falls_back_with_note(capsys):
    backends_base._FALLBACK_NOTED.discard("hexagon")
    assert resolve_backend("hexagon").name == "numpy"
    err = capsys.readouterr().err
    assert "kernel backend 'hexagon' is not registered" in err
    assert "falling back to 'numpy'" in err
    # Once per name per process: a second resolve stays quiet.
    assert resolve_backend("hexagon").name == "numpy"
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(
    "numba" in BACKENDS, reason="numba importable: no fallback to observe"
)
def test_resolve_missing_numba_falls_back_with_note(capsys):
    # The graceful-skip contract of the CI numpy leg: requesting numba
    # on a host without it degrades to numpy with the one-line note.
    backends_base._FALLBACK_NOTED.discard("numba")
    assert resolve_backend("numba").name == "numpy"
    err = capsys.readouterr().err
    assert "kernel backend 'numba' has no importable runtime" in err
    assert "falling back to 'numpy'" in err


def test_params_validate_backend_name():
    assert PicassoParams(kernel_backend="numba").kernel_backend == "numba"
    with pytest.raises(ValueError, match="unknown kernel_backend"):
        PicassoParams(kernel_backend="tpu")
    with pytest.raises(ValueError, match="unknown kernel_backend"):
        PicassoParams(kernel_backend="cupy")


def test_params_resolved_kernel_backend(monkeypatch):
    monkeypatch.delenv(backends_base.ENV_VAR, raising=False)
    assert PicassoParams().resolved_kernel_backend() == "numpy"
    assert (
        PicassoParams(kernel_backend="numba").resolved_kernel_backend()
        == "numba"
    )
    monkeypatch.setenv(backends_base.ENV_VAR, "numba")
    assert PicassoParams().resolved_kernel_backend() == "numba"


# -- per-bit Python references -------------------------------------------


def _ref_lowest_set_bit_rows(masks):
    out = np.empty(len(masks), dtype=np.int64)
    for i, row in enumerate(masks):
        val = 0
        for w, word in enumerate(row):
            if int(word):
                val = int(word)
                out[i] = 64 * w + (val & -val).bit_length() - 1
                break
        else:
            out[i] = -1
    return out


def _random_words(rng, n, words, density=0.5):
    # Sparse uint64 words: dense random words almost never have
    # all-zero rows or even parities, which are the interesting cases.
    bits = rng.random((n, words * 64)) < density
    return np.packbits(
        bits, axis=1, bitorder="little"
    ).view(np.uint64).reshape(n, words)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return get_backend(request.param)


@pytest.mark.parametrize("words", [1, 4])
def test_lowest_set_bit_rows_matches_reference(backend, words):
    rng = np.random.default_rng(13 * words)
    masks = _random_words(rng, 64, words, density=0.05)
    masks[0] = 0  # all-zero row -> -1
    masks[1] = 0
    masks[1, -1] = np.uint64(1) << np.uint64(63)  # highest bit only
    got = backend.lowest_set_bit_rows(masks)
    ref = _ref_lowest_set_bit_rows(masks)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, ref)


def test_lowest_set_bit_rows_empty_and_shape(backend):
    empty = np.empty((0, 2), dtype=np.uint64)
    assert backend.lowest_set_bit_rows(empty).shape == (0,)
    with pytest.raises(ValueError):
        backend.lowest_set_bit_rows(np.zeros(4, dtype=np.uint64))


# -- the seam: one kernel, always dispatched -------------------------------


def test_contract_is_one_kernel():
    assert KernelBackend.__abstractmethods__ == {"lowest_set_bit_rows"}


def _spy(monkeypatch, method: str) -> list:
    """Count calls to ``method`` of the backend :func:`resolve_backend`
    picks with no name given."""
    cls = type(resolve_backend())
    original = getattr(cls, method)
    calls = []

    def spy(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, spy)
    return calls


def test_parallel_list_without_a_name_uses_the_resolved_backend(monkeypatch):
    from repro.coloring.parallel_list import parallel_list_color
    from repro.core.palette import assign_color_lists
    from repro.graphs import erdos_renyi

    calls = _spy(monkeypatch, "lowest_set_bit_rows")
    g = erdos_renyi(40, 0.2, seed=3)
    colors, vu, info = parallel_list_color(
        g, assign_color_lists(40, 10, 4, rng=3), rng=5
    )
    assert len(calls) == info["n_rounds"] > 0
