"""Kernel-backend registry, resolution policy and bit-level contract.

The contract every backend signs: the three hot primitives reproduce a
naive per-bit Python reference **exactly**, on randomized packed words,
all-zero rows and single-word matrices.  The suite parametrizes over
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
from repro.device.tiles import TileScratch
from repro.pauli import random_pauli_set

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


def _ref_parity_block(packed, r0, r1, c0, c1):
    out = np.empty((r1 - r0, c1 - c0), dtype=np.uint8)
    for i in range(r0, r1):
        for j in range(c0, c1):
            bits = sum(
                bin(int(a) & int(b)).count("1")
                for a, b in zip(packed[i], packed[j])
            )
            out[i - r0, j - c0] = bits & 1
    return out


def _ref_intersect_block(colmasks, r0, r1, c0, c1):
    out = np.empty((r1 - r0, c1 - c0), dtype=bool)
    for i in range(r0, r1):
        for j in range(c0, c1):
            out[i - r0, j - c0] = any(
                int(a) & int(b) for a, b in zip(colmasks[i], colmasks[j])
            )
    return out


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


@pytest.mark.parametrize("words", [1, 3])
@pytest.mark.parametrize("density", [0.02, 0.5])
def test_parity_block_matches_reference(backend, words, density):
    rng = np.random.default_rng(7 * words)
    packed = _random_words(rng, 17, words, density)
    packed[3] = 0  # all-zero row
    for r0, r1, c0, c1 in [(0, 17, 0, 17), (2, 9, 5, 17), (0, 1, 16, 17)]:
        got = backend.anticommute_parity_block(packed, r0, r1, c0, c1)
        ref = _ref_parity_block(packed, r0, r1, c0, c1)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("words", [1, 3])
@pytest.mark.parametrize("density", [0.02, 0.5])
def test_intersect_block_matches_reference(backend, words, density):
    rng = np.random.default_rng(11 * words)
    colmasks = _random_words(rng, 17, words, density)
    colmasks[5] = 0  # empty palette row intersects nothing
    scratch = TileScratch(8)
    for r0, r1, c0, c1 in [(0, 17, 0, 17), (1, 9, 9, 17), (0, 8, 0, 8)]:
        sc = scratch if (r1 - r0, c1 - c0) == (8, 8) else None
        got = backend.lists_intersect_block(colmasks, r0, r1, c0, c1, sc)
        ref = _ref_intersect_block(colmasks, r0, r1, c0, c1)
        np.testing.assert_array_equal(np.asarray(got, dtype=bool), ref)


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


# -- backend-dispatched drivers ------------------------------------------


def test_conflict_hits_block_dispatches(backend):
    from repro.core.palette import assign_color_lists
    from repro.device.tiles import conflict_hits_block
    from repro.util.bits import bitset_from_lists

    rng = np.random.default_rng(3)
    colmasks = bitset_from_lists(assign_color_lists(40, 20, 3, rng), 20)
    ps = random_pauli_set(40, 5, seed=4)
    from repro.core.sources import PauliComplementSource

    src = PauliComplementSource(ps)
    for tile in [(0, 40, 0, 40), (3, 20, 17, 40)]:
        got = backend.conflict_hits_block(
            colmasks, *tile, edge_mask_fn=src.edge_mask
        )
        ref = conflict_hits_block(colmasks, *tile, src.edge_mask)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])


def test_block_hits_dispatches(backend):
    ps = random_pauli_set(30, 5, seed=5)
    from repro.core.sources import PauliComplementSource
    from repro.device.tiles import block_hits

    block_fn = PauliComplementSource(ps).edge_block
    for r0, r1 in [(0, 30), (7, 19)]:
        got = backend.block_hits(block_fn, r0, r1, r0, 30, 5)
        ref = block_hits(block_fn, r0, r1, r0, 30, 5)
        assert got.dtype == ref.dtype == np.int32
        np.testing.assert_array_equal(got, ref)
