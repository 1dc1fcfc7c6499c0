"""Temperature evolution across layers: fixed points, contraction, sweeps.

The layer update is an affine map around the neutral field 0.5 whose gain
directly sets its Lipschitz constant; this makes contraction factors
constructible exactly for the convergence checks.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import Rng
from .temperature import DEFAULT_EPS_MIN


def evolve_layer(field, gain):
    """One layer step on a field array: affine contraction toward 0.5.

    T' = clamp(0.5 + gain * (T - 0.5)) into [eps_min, 1 - eps_min], with
    eps_min = DEFAULT_EPS_MIN; the gain is the update's Lipschitz constant.
    """
    out = 0.5 + gain * (field - 0.5)
    return np.clip(out, DEFAULT_EPS_MIN, 1.0 - DEFAULT_EPS_MIN)


@dataclass
class ConvergenceReport:
    iterations: int
    residuals: list
    converged: bool


def iterate_to_fixed_point(update, start, tol, max_iter):
    """Iterate a field map until ||T_{t+1} - T_t||_2 < tol.

    Non-convergence within the budget is flagged on the report, never
    raised; convergence_rate_fit fits the decay of its residuals.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    current = start
    residuals = []
    converged = False
    for _ in range(max_iter):
        nxt = update(current)
        r = float(np.linalg.norm(nxt - current))
        residuals.append(r)
        current = nxt
        if r < tol:
            converged = True
            break
    return ConvergenceReport(iterations=len(residuals), residuals=residuals,
                             converged=converged)


def estimate_contraction(update, sample_count, seed):
    """Empirical Lipschitz constant over random (2, 4) field pairs.

    Max over sampled pairs of ||U(T1) - U(T2)|| / ||T1 - T2||; coincident
    pairs are skipped.
    """
    if sample_count < 2:
        raise ValueError("need at least 2 samples")
    shape, eps_min = (2, 4), DEFAULT_EPS_MIN
    rng = Rng(seed)
    best = 0.0
    for _ in range(sample_count):
        a = rng.uniform(shape, eps_min, 1.0 - eps_min)
        b = rng.uniform(shape, eps_min, 1.0 - eps_min)
        dist = np.linalg.norm(a - b)
        if dist == 0.0:
            continue
        best = max(best, float(np.linalg.norm(update(a) - update(b)) / dist))
    return best


def convergence_rate_fit(residuals):
    """Fit log residuals against step index; gamma = exp(slope).

    Returns (alpha_hat, gamma_hat) with alpha = 1 - gamma. A nonpositive
    residual truncates the fit to the positive prefix.
    """
    positive = []
    for r in residuals:
        if r <= 0:
            break
        positive.append(r)
    if len(positive) < 3:
        raise ValueError("need at least 3 positive residuals")
    t = np.arange(len(positive), dtype=np.float64)
    logs = np.log(positive)
    slope = np.polyfit(t, logs, 1)[0]
    gamma = float(np.exp(slope))
    return 1.0 - gamma, gamma


def temperature_sweep(eval_loss, t_min, t_max, steps):
    """Grid search over a global temperature multiplier.

    `eval_loss(multiplier)` returns the mean dataset loss with every field
    scaled by the multiplier. Returns the grid argmin (ties -> smallest
    multiplier) and the full loss curve.
    """
    if not t_min < t_max:
        raise ValueError("t_min must be below t_max")
    if steps < 2:
        raise ValueError("need at least 2 grid points")
    grid = np.linspace(t_min, t_max, steps)
    losses = [float(eval_loss(float(t))) for t in grid]
    best = min(range(steps), key=lambda i: (losses[i], grid[i]))
    return float(grid[best]), list(zip(grid.tolist(), losses))
