"""Toy-scale training with the temperature-aware protocol, plus statistics.

The optimizer is plain gradient descent under a sqrt-decay learning-rate
schedule; temperature parameters get their own (clipped) learning rate.
Instability (a task-loss spike or a collapsing field) halves both base
learning rates and doubles the temperature penalty weight, once per detected
event.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .model import model_forward
from .numerics import NumericError, Rng, Tensor, check_finite
from .temperature import collapse_penalty, detect_collapse


@dataclass
class TrainConfig:
    eta0: float = 0.1            # base LR, non-temperature parameters
    eta0_temp: float = 0.02      # base LR, temperature parameters
    t0: int = 100                # warm steps before the sqrt decay starts
    lambda_T: float = 0.1
    batch: int = 8
    steps: int = 500
    seed: int = 0
    weight_decay: float = 0.01   # non-temperature parameters only

    def __post_init__(self):
        # every comparison with NaN is false: the range checks below would
        # pass it
        for name in ("eta0", "eta0_temp", "lambda_T", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} {getattr(self, name)} must be finite")
        if self.eta0 <= 0 or self.eta0_temp <= 0:
            raise ValueError("learning rates must be positive")
        if self.lambda_T < 0 or self.weight_decay < 0:
            raise ValueError("lambda_T and weight_decay must be nonnegative")
        if self.batch < 1 or self.steps < 0:
            raise ValueError("need batch >= 1 and steps >= 0")
        if self.t0 < 1:
            raise ValueError(f"t0 {self.t0} must be >= 1")


@dataclass
class TaskSpec:
    kind: str = "copy"           # copy | reverse | arithmetic_chain
    length: int = 6
    alphabet: int = 16
    count: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("copy", "reverse", "arithmetic_chain"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.alphabet < 2:
            raise ValueError("alphabet must have at least 2 symbols")
        if self.count < 1 or self.length < 1:
            raise ValueError("need count >= 1 and length >= 1")
        if self.kind == "arithmetic_chain":
            if self.length < 2:
                raise ValueError("arithmetic_chain needs length >= 2 for [INIT v]")
            capacity = arith_program_count(self.length)
            if self.count > capacity:
                raise ValueError(
                    f"arithmetic_chain of length {self.length} has only "
                    f"{capacity} distinct programs; count {self.count} "
                    f"cannot be filled")


# arithmetic token layout: value tokens 0..MAX_VALUE, then operator tokens
MAX_VALUE = 15
TOK_INIT = MAX_VALUE + 1
TOK_ADD = MAX_VALUE + 2
TOK_SUB = MAX_VALUE + 3
TOK_HALVE = MAX_VALUE + 4
ARITH_VOCAB = TOK_HALVE + 1


def _arith_program(rng, max_len):
    """Random in-range program: [INIT a] then ADD/SUB/HALVE ops."""
    value = int(rng.integers(0, MAX_VALUE + 1))
    tokens = [TOK_INIT, value]
    while len(tokens) < max_len - 1:
        ops = [TOK_ADD, TOK_SUB]
        if value % 2 == 0:
            ops.append(TOK_HALVE)
        op = ops[int(rng.integers(0, len(ops)))]
        if op == TOK_HALVE:
            tokens.append(TOK_HALVE)
            value //= 2
        else:
            if op == TOK_ADD:
                hi = MAX_VALUE - value
                if hi == 0:
                    continue
                operand = int(rng.integers(1, hi + 1))
                value += operand
            else:
                if value == 0:
                    continue
                operand = int(rng.integers(1, value + 1))
                value -= operand
            tokens.extend([op, operand])
        if rng.uniform(()) < 0.35:
            break
    return tokens, value


def arith_program_count(max_len):
    """Number of distinct programs `_arith_program` can emit for max_len.

    Every step appends HALVE (even values only), or ADD / SUB with an operand
    that keeps the value in [0, MAX_VALUE]; the loop runs while the program
    is shorter than max_len - 1, and at least one op is drawn whenever it
    runs. ways[n][v] counts the programs of n tokens ending at value v.
    """
    if max_len <= 3:
        return MAX_VALUE + 1  # the loop never runs: [INIT v] only
    ways = [[0] * (MAX_VALUE + 1) for _ in range(max_len + 1)]
    ways[2] = [1] * (MAX_VALUE + 1)
    for n in range(2, max_len - 1):
        for v, w in enumerate(ways[n]):
            if v % 2 == 0:
                ways[n + 1][v // 2] += w
            for u in range(MAX_VALUE + 1):
                if u != v:
                    ways[n + 2][u] += w
    return sum(sum(row) for row in ways[3:])


def eval_arith_program(tokens):
    """Reference evaluator for arithmetic programs."""
    it = iter(tokens)
    value = None
    for tok in it:
        if tok == TOK_INIT:
            value = next(it)
        elif tok == TOK_ADD:
            value += next(it)
        elif tok == TOK_SUB:
            value -= next(it)
        elif tok == TOK_HALVE:
            value //= 2
        else:
            raise ValueError(f"unexpected token {tok}")
    return value


@dataclass
class Example:
    inputs: np.ndarray   # int token ids
    targets: np.ndarray  # int token ids, aligned with inputs
    mask: np.ndarray     # bool, positions that contribute to the loss


def _stack(examples):
    """One Example whose arrays are the examples' (n,) arrays stacked as
    (B, n); examples of unequal lengths raise ValueError."""
    try:
        return Example(inputs=np.array([ex.inputs for ex in examples]),
                       targets=np.array([ex.targets for ex in examples]),
                       mask=np.array([ex.mask for ex in examples]))
    except ValueError:
        lengths = sorted({len(a) for ex in examples
                          for a in (ex.inputs, ex.targets, ex.mask)})
        if len(lengths) < 2:
            raise
        raise ValueError(f"examples of lengths {lengths} cannot be stacked; "
                         f"every example needs one length") from None


def make_task(spec):
    """Deterministic dataset for the given task specification."""
    rng = Rng(spec.seed)
    data = []
    if spec.kind in ("copy", "reverse"):
        for _ in range(spec.count):
            seq = np.asarray(rng.integers(0, spec.alphabet, size=spec.length))
            tgt = seq.copy() if spec.kind == "copy" else seq[::-1].copy()
            data.append(Example(inputs=seq, targets=tgt,
                                mask=np.ones(spec.length, dtype=bool)))
        return data
    seen = set()
    while len(data) < spec.count:
        tokens, answer = _arith_program(rng, spec.length)
        key = tuple(tokens)
        if key in seen:
            continue
        seen.add(key)
        seq = np.asarray(tokens + [0] * (spec.length - len(tokens)))
        tgt = np.zeros(spec.length, dtype=np.int64)
        tgt[-1] = answer
        mask = np.zeros(spec.length, dtype=bool)
        mask[-1] = True
        data.append(Example(inputs=seq, targets=tgt, mask=mask))
    return data


def cross_entropy(logits, targets, mask):
    """Mean negative log-likelihood over masked positions (log-sum-exp).

    Logits are (n, vocab) with (n,) targets and mask, or a (B, n, vocab)
    batch with (B, n) ones; a batch's loss is the mean over examples of each
    example's masked mean, so every example weighs the same.

    One node. Its value and gradient repeat, bit for bit, the chain of ten
    nodes it replaces: z = log(sum(exp(logits - shift))) + shift, the
    masked z minus the picked target logits, weighted and summed; logits -
    shift is checked as its node was.
    """
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=bool)
    per_example = np.add.reduce(mask, axis=-1)
    if (per_example == 0).any():
        raise NumericError("every example needs at least one masked position")
    rows = np.nonzero(mask)               # one index array per mask axis
    picked = rows + (targets[rows],)
    lv = logits.values
    shift = np.maximum.reduce(lv, axis=-1, keepdims=True)  # for stability
    e = check_finite(lv - shift, "cross_entropy")
    np.exp(e, out=e)
    s = np.add.reduce(e, axis=-1)
    z = np.log(s) + shift[..., 0]
    weight = 1.0 / (per_example[rows[:-1]] * float(per_example.size))

    def dlogits(g):
        gd = g * weight                   # the gradient of z[rows] - picked
        gs = np.zeros_like(z)
        gs[rows] = gd
        gs /= s
        out = gs[..., None] * e
        out[picked] -= gd
        return out

    return Tensor(np.add.reduce((z[rows] - lv[picked]) * weight, axis=None),
                  _parents=((logits, dlogits),))


def lr_schedule(t, cfg, eta0=None):
    """eta0 * min(1, sqrt(t0 / t))."""
    if t < 1:
        raise ValueError("step index starts at 1")
    eta0 = cfg.eta0 if eta0 is None else eta0
    return eta0 * min(1.0, math.sqrt(cfg.t0 / t))


METRIC_COLUMNS = ["step", "task_loss", "temp_penalty", "total_loss",
                  "lr_main", "lr_temp", "temp_min", "temp_max",
                  "collapse_fraction", "grad_norm_temp", "event"]


@dataclass
class TrainHistory:
    rows: list = dc_field(default_factory=list)
    aborted: bool = False

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(METRIC_COLUMNS) + "\n")
            for row in self.rows:
                cells = []
                for col in METRIC_COLUMNS:
                    v = row[col]
                    cells.append(repr(v) if isinstance(v, float) else str(v))
                fh.write(",".join(cells) + "\n")


# `train`'s instability rules: a task loss at least SPIKE_FACTOR times the
# previous step's is a spike, and a last-layer field has collapsed when at
# least COLLAPSE_FRACTION of one example's entries lie within COLLAPSE_EPS
# of 0 or 1.
SPIKE_FACTOR = 10.0
COLLAPSE_FRACTION = 0.5
COLLAPSE_EPS = 0.02


def train(params, dataset, cfg):
    """Run the stability-monitored training protocol; returns the history.

    A non-finite task loss or temperature gradient norm, or a NumericError
    raised inside a step (a non-finite update among them), aborts the run
    before that step's row is logged, so every parameter keeps the values of
    the last completed step.

    The logged `total_loss` is the loss backward() ran on, task + lambda_T *
    collapse penalty.
    """
    rng = Rng(cfg.seed)
    eta_main, eta_temp = cfg.eta0, cfg.eta0_temp
    lam_T = cfg.lambda_T
    history = TrainHistory()
    prev_task_loss = None
    prev_unstable = False
    for t in range(1, cfg.steps + 1):
        idx = rng.integers(0, len(dataset), size=cfg.batch)
        batch = _stack([dataset[int(i)] for i in idx])
        params.zero_grad()
        try:
            logits, fields = model_forward(batch.inputs, params)
            task_mean = cross_entropy(logits, batch.targets, batch.mask)
            penalty_mean = collapse_penalty(fields[-1]) / float(cfg.batch)
            rep = detect_collapse(fields[-1], COLLAPSE_EPS)
            loss = task_mean + penalty_mean * lam_T
            loss.backward()

            task_val = float(task_mean.values)
            grad_norm_temp = params.temp_grad_norm()
            if not (math.isfinite(task_val) and math.isfinite(grad_norm_temp)):
                raise NumericError(f"non-finite task loss or temperature "
                                   f"gradient norm at step {t}")

            unstable = ((prev_task_loss is not None
                         and task_val >= SPIKE_FACTOR * prev_task_loss)
                        or rep.fraction >= COLLAPSE_FRACTION)
            event = ""
            if unstable and not prev_unstable:
                eta_main *= 0.5
                eta_temp *= 0.5
                lam_T *= 2.0
                event = "lr_halved"
            prev_unstable = unstable
            prev_task_loss = task_val

            lr_main = lr_schedule(t, cfg, eta0=eta_main)
            lr_temp = lr_schedule(t, cfg, eta0=eta_temp)
            params.update(lr_main, lr_temp, cfg.weight_decay)
        except NumericError:
            history.aborted = True
            break

        history.rows.append({
            "step": t,
            "task_loss": task_val,
            "temp_penalty": float(penalty_mean.values),
            "total_loss": float(loss.values),
            "lr_main": lr_main,
            "lr_temp": lr_temp,
            "temp_min": rep.min_value,
            "temp_max": rep.max_value,
            "collapse_fraction": rep.fraction,
            "grad_norm_temp": grad_norm_temp,
            "event": event,
        })
    return history


# Examples per forward pass in evaluate and dataset_loss: one pass's tape,
# not the whole dataset's, is alive at a time. Each pass's Python per-node
# cost is paid once for its examples, and its tape holds about 1.1 MB per
# 16 examples of the test_10 arithmetic config (4.4 MB for a pass of 64,
# whose loss reads one of 8 positions; 5.8 MB for a forward of all 8).
EVAL_PASS = 64
# Examples whose losses are summed together: a pass's logits are taken
# EVAL_SLICE rows at a time, so each loss sums the same terms in the same
# order as a forward of those examples alone, and every evaluate result
# and sweep.csv keeps its bits for any EVAL_PASS that is a multiple of it.
EVAL_SLICE = 16


def _forward_slices(params, dataset, temp_multiplier=1.0):
    """(batch, sum of its examples' losses, predicted ids) per slice of at
    most EVAL_SLICE examples, from one forward per pass of at most EVAL_PASS.
    The batch's targets and mask, like the predictions, cover only the
    positions its pass computed: the first to the last any mask there reads.

    An example's logits do not depend on the examples stacked with it, so a
    slice's loss is the float a forward of that slice alone would give.
    Raises ValueError for an empty dataset or examples of unequal lengths.
    """
    if not len(dataset):
        raise ValueError("the dataset is empty")
    n = len(dataset[0].inputs)
    for i, ex in enumerate(dataset):
        if len(ex.inputs) != n:
            raise ValueError(f"example {i} has length {len(ex.inputs)}, but "
                             f"example 0 has {n}; every example needs one "
                             f"length")
    for lo in range(0, len(dataset), EVAL_PASS):
        yield from _pass_forward(params, _stack(dataset[lo:lo + EVAL_PASS]),
                                 temp_multiplier)


def _pass_forward(params, batch, temp_multiplier):
    # the pass's tape dies when this returns, before the next pass runs
    read = np.flatnonzero(batch.mask.any(axis=0))
    cols = slice(int(read[0]), int(read[-1]) + 1) if read.size else slice(None)
    logits, _ = model_forward(batch.inputs, params,
                              temp_multiplier=temp_multiplier, positions=cols)
    targets, mask = batch.targets[:, cols], batch.mask[:, cols]
    out = []
    for lo in range(0, len(batch.inputs), EVAL_SLICE):
        rows = slice(lo, lo + EVAL_SLICE)
        part = Example(inputs=batch.inputs[rows], targets=targets[rows],
                       mask=mask[rows])
        values = logits.values[rows]   # checked when the logits were built
        loss = cross_entropy(Tensor(values, check=False), part.targets,
                             part.mask)
        out.append((part, float(loss.values) * len(part.inputs),
                    values.argmax(axis=-1)))
    return out


def evaluate(params, dataset):
    """Mean loss and exact-match accuracy over masked positions."""
    total, hits = 0.0, 0
    for batch, loss_sum, pred in _forward_slices(params, dataset):
        total += loss_sum
        hits += int(((pred == batch.targets) | ~batch.mask).all(axis=-1).sum())
    return total / len(dataset), hits / len(dataset)


def dataset_loss(params, dataset, temp_multiplier=1.0):
    """Mean task loss with every temperature field scaled by a multiplier."""
    total = sum(loss_sum for _, loss_sum, _ in
                _forward_slices(params, dataset, temp_multiplier))
    return total / len(dataset)


# -- descriptive statistics ---------------------------------------------------

LEVELS = (0.90, 0.95, 0.99)   # two-sided confidence levels t_quantile takes


# from this parameter on, _log_beta_weight takes Stirling's difference
_STIRLING_FROM = 1e3


def _log_beta_weight(x, y, a, b):
    """log(x**a * y**b / B(a, b)), y = 1 - x given apart.

    Below _STIRLING_FROM it is the plain sum of lgammas and logs. From it
    on that sum loses digits: lgamma(a + b) - lgamma(a) is a difference of
    two numbers near a log(a), whose rounding (2e-6 at a = 5e8) goes
    straight into the exponent, and a log(x) with x near 1 multiplies x's
    rounding by a. So for the large parameter L and the small one s the
    difference lgamma(L + s) - lgamma(L) comes from Stirling's series,
    s log L + (L + s - 1/2) log1p(s / L) - s - s / (12 L (L + s)), which
    leaves out less than s / (120 L**4), and L's power is taken as
    L log1p(-u) of the other argument u, which is accurate when u is
    small. Then the tail of
    Student's t at df 1e9 is within 2e-8 of a 60-digit reference (7e-6
    with the plain sum); what is left comes from the continued fraction,
    whose terms cancel when x is within about 1 / a of 1."""
    if max(a, b) < _STIRLING_FROM:
        return (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(y))
    if a >= b:
        big, small, powers = a, b, a * math.log1p(-y) + b * math.log(y)
    else:
        big, small, powers = b, a, a * math.log(x) + b * math.log1p(-x)
    diff = (small * math.log(big)
            + ((big + small - 0.5) * math.log1p(small / big) - small)
            - small / (12.0 * big * (big + small)))
    return diff - math.lgamma(small) + powers


def _incomplete_beta(x, y, a, b):
    """Regularized incomplete beta I_x(a, b), y = 1 - x given apart: Lentz's
    method on the continued fraction of Numerical Recipes 6.4, which converges
    for x < (a + 1) / (a + b + 2); 1 - I_y(b, a) covers the rest. The
    prefactor's logarithm is _log_beta_weight's."""
    if x <= 0.0 or y <= 0.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _incomplete_beta(y, x, b, a)
    f, c, d = 1.0, math.inf, 1.0   # Lentz's state after the leading 1 / 1
    for j in range(1, 1000):
        m = j // 2
        num = (m * (b - m) if j % 2 == 0 else -(a + m) * (a + b + m)) \
            * x / ((a + j - 1) * (a + j))
        d = 1.0 / ((1.0 + num * d) or 1e-300)
        c = (1.0 + num / c) or 1e-300
        f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return f / a * math.exp(_log_beta_weight(x, y, a, b))
    raise ValueError(f"I_{x}({a}, {b}) did not converge")


def _t_tail(t, df):
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    t2 = t * t
    return _incomplete_beta(df / (df + t2), t2 / (df + t2), 0.5 * df, 0.5)


def t_quantile(level, df):
    """Two-sided t quantile: the t with P(|T| >= t) = 1 - level, by bisection
    to 1e-12 relative."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {list(LEVELS)}")
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    lo, hi = 0.0, 64.0   # the largest quantile, level 0.99 at df 1, is 63.66
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _t_tail(mid, df) > 1.0 - level else (lo, mid)
    return 0.5 * (lo + hi)


def _moments(samples):
    """(n, mean, sample std, e) of a flat list of at least 2 finite samples,
    the mean and std being those of the samples scaled by 2**-e, which puts
    the largest magnitude in [0.5, 1). The squared deviations then cannot
    overflow, nor vanish because every sample is tiny. Scaling by a power of
    two is exact, so samples of ordinary magnitude give the bits of the
    unscaled arithmetic once a caller scales back with _unscaled."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size < 2 or not np.isfinite(samples).all():
        raise ValueError("need a flat list of at least 2 finite samples")
    _, e = math.frexp(float(np.abs(samples).max()))
    scaled = np.ldexp(samples, -e)
    return samples.size, float(scaled.mean()), float(scaled.std(ddof=1)), e


def _unscaled(x, e, what):
    """x * 2**e, or a ValueError naming `what` when that is beyond the
    largest float."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        raise ValueError(f"{what} does not fit in a float") from None


def sample_mean(samples):
    """The mean of a flat list of at least 2 finite samples, exact in scale
    for any magnitude the samples have."""
    _, mu, _, e = _moments(samples)
    return _unscaled(mu, e, "sample mean")


def confidence_interval(samples, level=0.95):
    """mu +- t_{alpha/2, n-1} * s / sqrt(n) with the sample std deviation;
    an interval beyond the largest float raises ValueError."""
    n, mu, s, e = _moments(samples)
    half = t_quantile(level, n - 1) * s / math.sqrt(n)
    return (_unscaled(mu - half, e, "confidence interval"),
            _unscaled(mu + half, e, "confidence interval"))


def t_test_p(samples):
    """Two-sided p of a one-sample t-test of mean 0 (the paired t-test when
    the samples are per-pair differences). Zero spread gives the t -> +-inf
    limit, 0.0, or 1.0 if the mean is 0 too. t is formed from the scaled
    mean and std, so it is finite at any scale."""
    n, mu, s, _ = _moments(samples)
    if s == 0.0:
        return float(mu == 0.0)
    return _t_tail(mu * math.sqrt(n) / s, n - 1)


def significance_label(p):
    """Evidence label for a p-value: strong / moderate / insufficient."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p-value {p} outside [0, 1]")
    if p < 0.01:
        return "strong"
    if p < 0.05:
        return "moderate"
    return "insufficient"
