#!/usr/bin/env python3
"""Predicting Picasso's parameters with the §VI ML methodology.

1. sweep (P', alpha) over training molecules and harvest the Eq. 7
   optima per trade-off weight beta;
2. train ridge / lasso / tree / random-forest regressors;
3. compare held-out MAPE and R² (the paper finds the forest best);
4. use the forest to pick parameters for an unseen molecule and run
   Picasso with them.

Run:  python examples/parameter_prediction.py   (takes ~1 minute)
"""

import numpy as np

from repro import Picasso
from repro.core.sources import PauliComplementSource
from repro.graphs import complement_edge_count
from repro.pauli import random_pauli_set_density
from repro.predict import (
    PaletteParamsPredictor,
    build_dataset,
    compare_models,
)

GRID = dict(
    palette_percents=(2.5, 5.0, 10.0, 15.0),
    alphas=(1.0, 2.0, 4.0),
    betas=(0.2, 0.5, 0.8),
)


def main() -> None:
    # Training molecules: structured random Pauli families of graded
    # size (fast stand-ins for the Hn suite; swap in
    # repro.datasets.molecule_suite() for the full pipeline).
    train_sets = [
        random_pauli_set_density(120 + 90 * k, 8, identity_fraction=0.3,
                                 seed=k, name=f"train{k}")
        for k in range(5)
    ]
    test_sets = [
        random_pauli_set_density(200 + 130 * k, 8, identity_fraction=0.3,
                                 seed=100 + k, name=f"test{k}")
        for k in range(2)
    ]

    print("Sweeping the (P', alpha) grid over 7 inputs ...")
    dataset = build_dataset(train_sets + test_sets, seed=0, **GRID)
    train, test = dataset.split_by_input({ps.name for ps in test_sets})
    print(f"dataset: {len(train)} train rows, {len(test)} test rows")

    print("\nHeld-out metrics per model (paper §VI: nonlinear wins):")
    results = compare_models(train, test, seed=0)
    for name, metrics in results.items():
        print(f"  {name:<8} MAPE={metrics['mape']:.3f}  R2={metrics['r2']:+.3f}")

    # Deploy the forest on a brand-new molecule.
    predictor = PaletteParamsPredictor(model="forest", seed=0).fit(train)
    fresh = random_pauli_set_density(500, 8, identity_fraction=0.3, seed=999)
    n_edges = complement_edge_count(fresh)
    beta = 0.7  # favour few colors over low memory
    params = predictor.predict_params(beta, fresh.n, n_edges)
    print(
        f"\nPredicted for new input (|V|={fresh.n}, |E|={n_edges}, beta={beta}): "
        f"P'={100 * params.palette_fraction:.1f}%  alpha={params.alpha:.2f}"
    )
    result = Picasso(params=params, seed=0, exact_edges=True).color(fresh)
    assert PauliComplementSource(fresh).validate(result.colors)
    print(
        f"Picasso with predicted parameters: {result.n_colors} colors "
        f"({result.color_percentage():.1f}% of |V|), "
        f"max |Ec| = {result.max_conflict_edges}, "
        f"{result.n_iterations} iterations"
    )


if __name__ == "__main__":
    main()
