"""Parameter sweeps and the Eq. 7 bi-objective (paper §VI, Step 1–2).

For a given input, sweep the ``(P', alpha)`` grid, record final colors
``C`` and the maximum per-iteration conflict-edge count ``|Ec|``, then
pick, for each trade-off weight ``beta``, the grid point minimizing

    beta * C_norm + (1 - beta) * Ec_norm                       (Eq. 7)

``C`` and ``|Ec|`` live on wildly different scales, so both are min-max
normalized within the sweep before weighting (the paper leaves the
scaling implicit; without it beta would be meaningless).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import PicassoParams
from repro.core.picasso import Picasso

#: Default grids from §VI: P' in {1, 2.5, 5, ..., 20}%, alpha in {0.5..4.5}.
DEFAULT_PALETTE_PERCENTS = (1.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0)
DEFAULT_ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5)
DEFAULT_BETAS = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class SweepPoint:
    """One grid evaluation."""

    palette_percent: float
    alpha: float
    n_colors: int
    max_conflict_edges: int
    elapsed_s: float
    n_iterations: int


def run_sweep(
    target,
    palette_percents=DEFAULT_PALETTE_PERCENTS,
    alphas=DEFAULT_ALPHAS,
    seed: int = 0,
) -> list[SweepPoint]:
    """Step 1: evaluate Picasso at every grid point (``|Ec|`` counted
    exactly, with no conflict graph stored and no device budget)."""
    points = []
    for pp in palette_percents:
        for a in alphas:
            params = PicassoParams(palette_fraction=pp / 100.0, alpha=a)
            result = Picasso(params=params, seed=seed, exact_edges=True).color(target)
            points.append(
                SweepPoint(
                    palette_percent=pp,
                    alpha=a,
                    n_colors=result.n_colors,
                    max_conflict_edges=result.max_conflict_edges,
                    elapsed_s=result.elapsed_s,
                    n_iterations=result.n_iterations,
                )
            )
    return points


def objective(
    beta: float, colors_norm: np.ndarray, edges_norm: np.ndarray
) -> np.ndarray:
    """Eq. 7 on pre-normalized objectives."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    return beta * colors_norm + (1.0 - beta) * edges_norm


def normalize_objectives(points: list[SweepPoint]) -> tuple[np.ndarray, np.ndarray]:
    """Min-max normalize (C, |Ec|) across the sweep."""
    c = np.array([p.n_colors for p in points], dtype=np.float64)
    e = np.array([p.max_conflict_edges for p in points], dtype=np.float64)

    def mm(x: np.ndarray) -> np.ndarray:
        span = x.max() - x.min()
        return np.zeros_like(x) if span == 0 else (x - x.min()) / span

    return mm(c), mm(e)


def optimal_point(points: list[SweepPoint], beta: float) -> SweepPoint:
    """Step 2: grid point minimizing Eq. 7 for one beta."""
    if not points:
        raise ValueError("empty sweep")
    cn, en = normalize_objectives(points)
    scores = objective(beta, cn, en)
    return points[int(np.argmin(scores))]


def optimal_frontier(
    points: list[SweepPoint], betas=DEFAULT_BETAS
) -> list[tuple[float, SweepPoint]]:
    """Step 3: the (beta -> optimal grid point) table for one input."""
    return [(b, optimal_point(points, b)) for b in betas]
