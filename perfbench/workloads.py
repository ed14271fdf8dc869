"""The benchmark's workloads: seeded inputs plus the algorithmic preset.

Each workload sets only the paper preset (Normal or Aggressive) and
``n_workers``.  None sets an execution-path knob (``engine``, ``fused``,
``tile_budget_bytes``, ``shm_gather``, ``kernel_backend``,
``color_engine``), so a change to a default shows up here and a change
that deletes a path does not break the benchmark.

The workload seed derives :data:`INPUTS_PER_SEED` inputs.  For each
one, two independent streams spawned from one ``SeedSequence`` drive
the input (string generation, or the Hamiltonian permutation) and the
Picasso seed.  The program receives only the generated ``PauliSet``.
One run measures every input, because the number of groups and the
time vary from input to input: on ``h8-aggressive`` single inputs ranged
from 416 to 444 groups and 1.60 to 1.70 s.

Importing this module imports nothing from the program; ``build`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

INPUTS_PER_SEED = 5


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str  # "normal" | "aggressive"
    n_workers: int
    source: str  # "random50q" | "h8"
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rand50q-10k", "normal", 1, "random50q",
            "10,000 seeded uniform 50-qubit strings, Normal preset, serial: "
            "the ROADMAP headline; sweep-bound (palette test ~48%), so kernel "
            "and enumeration changes must show here",
        ),
        Workload(
            "h8-aggressive", "aggressive", 1, "h8",
            "H8_2D_sto3g Hamiltonian (5,564 strings), seed-permuted, "
            "Aggressive preset, serial: real-application control where L=P "
            "and coloring plus CSR assembly dominate",
        ),
        Workload(
            "rand50q-10k-pool2", "normal", 2, "random50q",
            "rand50q-10k's input with n_workers=2: exercises the pool's fork, "
            "install, strip deal and pipe gather; its gap to the serial "
            "workload is the parallel layer's net effect",
        ),
    )
}


def build(workload: Workload, seed: int, index: int):
    """Return ``(pauli_set, params, picasso_rng)`` for input ``index``
    (``0 <= index < INPUTS_PER_SEED``) of ``seed``."""
    import numpy as np

    from repro.core.params import aggressive_params, normal_params

    input_ss, picasso_ss = (
        np.random.SeedSequence(seed).spawn(INPUTS_PER_SEED)[index].spawn(2)
    )
    input_rng = np.random.default_rng(input_ss)
    if workload.source == "random50q":
        from repro.pauli.random import random_pauli_set

        pauli_set = random_pauli_set(10_000, 50, seed=input_rng)
    else:
        from repro.datasets import load_molecule

        molecule = load_molecule("H8_2D_sto3g")
        pauli_set = molecule.subset(input_rng.permutation(molecule.n))
    preset = normal_params if workload.preset == "normal" else aggressive_params
    params = preset(n_workers=workload.n_workers)
    return pauli_set, params, np.random.default_rng(picasso_ss)
