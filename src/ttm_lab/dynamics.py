"""Temperature evolution across layers: fixed points, contraction, sweeps.

The layer update is an affine map around the neutral field 0.5 whose gain
directly sets its Lipschitz constant, plus optional norm-bounded noise; this
makes contraction factors constructible exactly for the convergence checks.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, Tensor
from .temperature import TemperatureField


@dataclass
class EvolutionConfig:
    gain: float = 0.9            # Lipschitz constant of the affine update
    bias: float = 0.0
    noise_bound: float = 0.0     # epsilon: hard bound on ||eta||_2
    seed: int = 0

    def __post_init__(self):
        if self.noise_bound < 0:
            raise ValueError("noise bound must be nonnegative")


def evolve_layer(field, cfg, rng=None):
    """One layer step: affine contraction toward 0.5 plus bounded noise.

    T' = clamp(0.5 + gain * (T - 0.5) + bias + eta) with ||eta||_2 rescaled
    onto the bound whenever it exceeds it.
    """
    v = field.array()
    out = 0.5 + cfg.gain * (v - 0.5) + cfg.bias
    if cfg.noise_bound > 0.0:
        rng = rng if rng is not None else Rng(cfg.seed)
        eta = rng.normal(v.shape, 0.0, cfg.noise_bound)
        norm = np.linalg.norm(eta)
        if norm > cfg.noise_bound:
            eta *= cfg.noise_bound / norm
        out = out + eta
    out = np.clip(out, field.eps_min, 1.0 - field.eps_min)
    return TemperatureField(Tensor(out, check=False), field.eps_min,
                            validate=False)


@dataclass
class ConvergenceReport:
    iterations: int
    final_residual: float
    residuals: list
    converged: bool
    alpha_hat: float = None
    gamma_hat: float = None


def iterate_to_fixed_point(update, start, tol, max_iter):
    """Iterate a field map until ||T_{t+1} - T_t||_2 < tol.

    Non-convergence within the budget is flagged on the report, never raised.
    The fitted decay of the residual sequence is attached when enough
    residuals exist.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    current = start
    residuals = []
    converged = False
    for _ in range(max_iter):
        nxt = update(current)
        r = float(np.linalg.norm(nxt.array() - current.array()))
        residuals.append(r)
        current = nxt
        if r < tol:
            converged = True
            break
    report = ConvergenceReport(iterations=len(residuals),
                               final_residual=residuals[-1] if residuals else 0.0,
                               residuals=residuals, converged=converged)
    positive = [r for r in residuals if r > 0]
    if len(positive) >= 3:
        report.alpha_hat, report.gamma_hat = convergence_rate_fit(residuals)
    return report


def estimate_contraction(update, sample_count, seed, shape=(2, 4), eps_min=0.01):
    """Empirical Lipschitz constant over random field pairs.

    Max over sampled pairs of ||U(T1) - U(T2)|| / ||T1 - T2||; coincident
    pairs are skipped.
    """
    if sample_count < 2:
        raise ValueError("need at least 2 samples")
    rng = Rng(seed)
    best = 0.0
    for _ in range(sample_count):
        a = rng.uniform(shape, eps_min, 1.0 - eps_min)
        b = rng.uniform(shape, eps_min, 1.0 - eps_min)
        dist = np.linalg.norm(a - b)
        if dist == 0.0:
            continue
        fa = update(TemperatureField(Tensor(a, check=False), eps_min, validate=False))
        fb = update(TemperatureField(Tensor(b, check=False), eps_min, validate=False))
        best = max(best, float(np.linalg.norm(fa.array() - fb.array()) / dist))
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


def temperature_sweep(eval_loss, t_min, t_max, steps, log_spacing=False):
    """Grid search over a global temperature multiplier.

    `eval_loss(multiplier)` returns the mean dataset loss with every field
    scaled by the multiplier. Returns the grid argmin (ties -> smallest
    multiplier) and the full loss curve.
    """
    if not t_min < t_max:
        raise ValueError("t_min must be below t_max")
    if steps < 2:
        raise ValueError("need at least 2 grid points")
    if log_spacing:
        if t_min <= 0:
            raise ValueError("log spacing needs positive t_min")
        grid = np.exp(np.linspace(np.log(t_min), np.log(t_max), steps))
    else:
        grid = np.linspace(t_min, t_max, steps)
    losses = [float(eval_loss(float(t))) for t in grid]
    best = min(range(steps), key=lambda i: (losses[i], grid[i]))
    return float(grid[best]), list(zip(grid.tolist(), losses))
