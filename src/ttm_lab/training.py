"""Toy-scale training with the temperature-aware protocol, plus statistics.

The optimizer is plain gradient descent under the gradient-norm-aware
learning-rate schedule; temperature parameters get their own (clipped)
learning rate. Instability (a task-loss spike or a collapsing field) halves
both base learning rates and doubles the temperature penalty weight, once per
detected event.
"""

import io
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .model import model_forward
from .numerics import NumericError, Rng, Tensor
from .temperature import (clip_temperature_grad, collapse_penalty,
                          default_grad_clip_tau, detect_collapse)


@dataclass
class TrainConfig:
    eta0: float = 0.1            # base LR, non-temperature parameters
    eta0_temp: float = 0.02      # base LR, temperature parameters
    t0: int = 100                # warm steps before the sqrt decay starts
    clip_lo: float = 1.0         # epsilon in the schedule's norm clamp
    clip_hi: float = 1.0         # M in the schedule's norm clamp
    lambda_T: float = 0.1
    lambda_S: float = 0.0
    batch: int = 8
    steps: int = 500
    seed: int = 0
    weight_decay: float = 0.01   # non-temperature parameters only
    spike_factor: float = 10.0   # task-loss jump that counts as instability
    collapse_fraction: float = 0.5
    collapse_eps: float = 0.02

    def __post_init__(self):
        if self.eta0 <= 0 or self.eta0_temp <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 < self.clip_lo <= self.clip_hi:
            raise ValueError("need 0 < clip_lo <= clip_hi")
        if self.lambda_T < 0 or self.lambda_S < 0:
            raise ValueError("loss weights must be nonnegative")


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
    """Mean negative log-likelihood over masked positions (log-sum-exp)."""
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=bool)
    rows = np.nonzero(mask)[0]
    shift = logits.values.max(axis=-1, keepdims=True)  # constant for stability
    z = (logits - shift).exp().sum(axis=-1).log() + Tensor(shift[:, 0], check=False)
    picked = logits[rows, targets[rows]]
    return (z[rows] - picked).mean()


def total_loss(task_loss, field, stability_term, cfg):
    """task + lambda_T * collapse penalty + lambda_S * stability term."""
    out = task_loss
    if cfg.lambda_T > 0:
        out = out + collapse_penalty(field, 1.0) * cfg.lambda_T
    if cfg.lambda_S > 0:
        out = out + Tensor._coerce(stability_term) * cfg.lambda_S
    return out


def stability_excess(grad_norm, tau):
    """Squared excess of the temperature gradient norm above tau."""
    return max(grad_norm - tau, 0.0) ** 2


def lr_schedule(t, grad_norm, cfg, eta0=None):
    """eta0 * min(1, sqrt(t0 / t)) * clip(grad_norm, clip_lo, clip_hi)."""
    if t < 1:
        raise ValueError("step index starts at 1")
    eta0 = cfg.eta0 if eta0 is None else eta0
    warm = min(1.0, math.sqrt(cfg.t0 / t))
    return eta0 * warm * min(max(grad_norm, cfg.clip_lo), cfg.clip_hi)


METRIC_COLUMNS = ["step", "task_loss", "temp_penalty", "stability_penalty",
                  "total_loss", "lr_main", "lr_temp", "temp_min", "temp_max",
                  "collapse_fraction", "grad_norm_temp", "event"]


@dataclass
class TrainHistory:
    rows: list = dc_field(default_factory=list)
    aborted: bool = False

    def to_csv(self, path_or_buf):
        buf = path_or_buf if hasattr(path_or_buf, "write") else io.StringIO()
        buf.write(",".join(METRIC_COLUMNS) + "\n")
        for row in self.rows:
            cells = []
            for col in METRIC_COLUMNS:
                v = row[col]
                cells.append(repr(v) if isinstance(v, float) else str(v))
            buf.write(",".join(cells) + "\n")
        if buf is not path_or_buf:
            with open(path_or_buf, "w") as fh:
                fh.write(buf.getvalue())

    def column(self, name):
        return [row[name] for row in self.rows]


def _is_temp_param(name):
    return ".temp." in name


def _snapshot(params):
    return {name: t.values.copy() for name, t in params.named_tensors()}


def _restore(params, snap):
    for name, t in params.named_tensors():
        t.values = snap[name]


def train(params, dataset, cfg, loss_injection=None):
    """Run the stability-monitored training protocol; returns the history.

    `loss_injection(step, loss)` may perturb the observed task loss (used to
    script instability scenarios). A non-finite task loss or temperature
    gradient norm, or a NumericError raised inside a step, aborts the run
    before that step's update and restores the last good parameter values.

    The logged `total_loss` is the loss backward() ran on, task + lambda_T *
    collapse penalty. `stability_penalty` is logged beside it, never added:
    the tape has no second-order gradients, so a gradient-norm penalty cannot
    join the objective.
    """
    rng = Rng(cfg.seed)
    tau = default_grad_clip_tau(params.cfg.d_k)
    eta_main, eta_temp = cfg.eta0, cfg.eta0_temp
    lam_T = cfg.lambda_T
    history = TrainHistory()
    prev_task_loss = None
    prev_unstable = False
    last_good = _snapshot(params)
    for t in range(1, cfg.steps + 1):
        idx = rng.integers(0, len(dataset), size=cfg.batch)
        params.zero_grad()
        task_acc = None
        penalty_acc = None
        field_min, field_max, collapse_frac = 1.0, 0.0, 0.0
        try:
            for i in idx:
                ex = dataset[int(i)]
                logits, fields = model_forward(ex.inputs, params)
                ce = cross_entropy(logits, ex.targets, ex.mask)
                task_acc = ce if task_acc is None else task_acc + ce
                pen = collapse_penalty(fields[-1], 1.0)
                penalty_acc = pen if penalty_acc is None else penalty_acc + pen
                rep = detect_collapse(fields[-1], cfg.collapse_eps)
                field_min = min(field_min, rep.min_value)
                field_max = max(field_max, rep.max_value)
                collapse_frac = max(collapse_frac, rep.fraction)
            task_mean = task_acc / float(cfg.batch)
            penalty_mean = penalty_acc / float(cfg.batch)
            loss = task_mean + penalty_mean * lam_T
            loss.backward()

            task_val = float(task_mean.values)
            if loss_injection is not None:
                task_val = loss_injection(t, task_val)
            grads_temp = [tensor.grad for name, tensor in params.named_tensors()
                          if _is_temp_param(name) and tensor.grad is not None]
            grad_norm_temp = math.sqrt(sum(float((g ** 2).sum()) for g in grads_temp))
            if not (math.isfinite(task_val) and math.isfinite(grad_norm_temp)):
                raise NumericError(f"non-finite task loss or temperature "
                                   f"gradient norm at step {t}")
        except NumericError:
            _restore(params, last_good)
            history.aborted = True
            break
        penalty_val = float(penalty_mean.values)
        # the loss backward() ran on; lam_T may double below for later steps
        loss_val = task_val + lam_T * penalty_val
        stab = stability_excess(grad_norm_temp, tau)

        unstable = ((prev_task_loss is not None
                     and task_val >= cfg.spike_factor * prev_task_loss)
                    or collapse_frac >= cfg.collapse_fraction)
        event = ""
        if unstable and not prev_unstable:
            eta_main *= 0.5
            eta_temp *= 0.5
            lam_T *= 2.0
            event = "lr_halved"
        prev_unstable = unstable
        prev_task_loss = task_val

        lr_main = lr_schedule(t, grad_norm_temp, cfg, eta0=eta_main)
        lr_temp = lr_schedule(t, grad_norm_temp, cfg, eta0=eta_temp)

        for name, tensor in params.named_tensors():
            if tensor.grad is None:
                continue
            if _is_temp_param(name):
                g = clip_temperature_grad(tensor.grad, tau)
                tensor.values = tensor.values - lr_temp * g
            else:
                g = tensor.grad + cfg.weight_decay * tensor.values
                tensor.values = tensor.values - lr_main * g

        last_good = _snapshot(params)
        history.rows.append({
            "step": t,
            "task_loss": task_val,
            "temp_penalty": penalty_val,
            "stability_penalty": stab * cfg.lambda_S,
            "total_loss": loss_val,
            "lr_main": lr_main,
            "lr_temp": lr_temp,
            "temp_min": field_min,
            "temp_max": field_max,
            "collapse_fraction": collapse_frac,
            "grad_norm_temp": grad_norm_temp,
            "event": event,
        })
    return history


def evaluate(params, dataset):
    """Mean loss and exact-match accuracy over masked positions."""
    total, hits, count = 0.0, 0, 0
    for ex in dataset:
        logits, _ = model_forward(ex.inputs, params)
        total += float(cross_entropy(logits, ex.targets, ex.mask).values)
        pred = logits.values.argmax(axis=-1)
        rows = np.nonzero(ex.mask)[0]
        hits += int((pred[rows] == ex.targets[rows]).all())
        count += 1
    return total / count, hits / count


def dataset_loss(params, dataset, temp_multiplier=1.0):
    """Mean task loss with every temperature field scaled by a multiplier."""
    total = 0.0
    for ex in dataset:
        logits, _ = model_forward(ex.inputs, params,
                                  temp_multiplier=temp_multiplier)
        total += float(cross_entropy(logits, ex.targets, ex.mask).values)
    return total / len(dataset)


# -- descriptive statistics ---------------------------------------------------

# two-sided t quantiles, df = 1 .. 120 (generated once from the t CDF)
_T_TABLE = {
    0.90: (
        6.313752, 2.919986, 2.353363, 2.131847, 2.015048, 1.943180,
        1.894579, 1.859548, 1.833113, 1.812461, 1.795885, 1.782288,
        1.770933, 1.761310, 1.753050, 1.745884, 1.739607, 1.734064,
        1.729133, 1.724718, 1.720743, 1.717144, 1.713872, 1.710882,
        1.708141, 1.705618, 1.703288, 1.701131, 1.699127, 1.697261,
        1.695519, 1.693889, 1.692360, 1.690924, 1.689572, 1.688298,
        1.687094, 1.685954, 1.684875, 1.683851, 1.682878, 1.681952,
        1.681071, 1.680230, 1.679427, 1.678660, 1.677927, 1.677224,
        1.676551, 1.675905, 1.675285, 1.674689, 1.674116, 1.673565,
        1.673034, 1.672522, 1.672029, 1.671553, 1.671093, 1.670649,
        1.670219, 1.669804, 1.669402, 1.669013, 1.668636, 1.668271,
        1.667916, 1.667572, 1.667239, 1.666914, 1.666600, 1.666294,
        1.665996, 1.665707, 1.665425, 1.665151, 1.664885, 1.664625,
        1.664371, 1.664125, 1.663884, 1.663649, 1.663420, 1.663197,
        1.662978, 1.662765, 1.662557, 1.662354, 1.662155, 1.661961,
        1.661771, 1.661585, 1.661404, 1.661226, 1.661052, 1.660881,
        1.660715, 1.660551, 1.660391, 1.660234, 1.660081, 1.659930,
        1.659782, 1.659637, 1.659495, 1.659356, 1.659219, 1.659085,
        1.658953, 1.658824, 1.658697, 1.658573, 1.658450, 1.658330,
        1.658212, 1.658096, 1.657982, 1.657870, 1.657759, 1.657651,
    ),
    0.95: (
        12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912,
        2.364624, 2.306004, 2.262157, 2.228139, 2.200985, 2.178813,
        2.160369, 2.144787, 2.131450, 2.119905, 2.109816, 2.100922,
        2.093024, 2.085963, 2.079614, 2.073873, 2.068658, 2.063899,
        2.059539, 2.055529, 2.051831, 2.048407, 2.045230, 2.042272,
        2.039513, 2.036933, 2.034515, 2.032245, 2.030108, 2.028094,
        2.026192, 2.024394, 2.022691, 2.021075, 2.019541, 2.018082,
        2.016692, 2.015368, 2.014103, 2.012896, 2.011741, 2.010635,
        2.009575, 2.008559, 2.007584, 2.006647, 2.005746, 2.004879,
        2.004045, 2.003241, 2.002465, 2.001717, 2.000995, 2.000298,
        1.999624, 1.998972, 1.998341, 1.997730, 1.997138, 1.996564,
        1.996008, 1.995469, 1.994945, 1.994437, 1.993943, 1.993464,
        1.992997, 1.992543, 1.992102, 1.991673, 1.991254, 1.990847,
        1.990450, 1.990063, 1.989686, 1.989319, 1.988960, 1.988610,
        1.988268, 1.987934, 1.987608, 1.987290, 1.986979, 1.986675,
        1.986377, 1.986086, 1.985802, 1.985523, 1.985251, 1.984984,
        1.984723, 1.984467, 1.984217, 1.983972, 1.983731, 1.983495,
        1.983264, 1.983038, 1.982815, 1.982597, 1.982383, 1.982173,
        1.981967, 1.981765, 1.981567, 1.981372, 1.981180, 1.980992,
        1.980808, 1.980626, 1.980448, 1.980272, 1.980100, 1.979930,
    ),
    0.99: (
        63.656741, 9.924843, 5.840909, 4.604095, 4.032143, 3.707428,
        3.499483, 3.355387, 3.249836, 3.169273, 3.105807, 3.054540,
        3.012276, 2.976843, 2.946713, 2.920782, 2.898231, 2.878440,
        2.860935, 2.845340, 2.831360, 2.818756, 2.807336, 2.796940,
        2.787436, 2.778715, 2.770683, 2.763262, 2.756386, 2.749996,
        2.744042, 2.738481, 2.733277, 2.728394, 2.723806, 2.719485,
        2.715409, 2.711558, 2.707913, 2.704459, 2.701181, 2.698066,
        2.695102, 2.692278, 2.689585, 2.687013, 2.684556, 2.682204,
        2.679952, 2.677793, 2.675722, 2.673734, 2.671823, 2.669985,
        2.668216, 2.666512, 2.664870, 2.663287, 2.661759, 2.660283,
        2.658857, 2.657479, 2.656145, 2.654854, 2.653604, 2.652394,
        2.651220, 2.650081, 2.648977, 2.647905, 2.646863, 2.645852,
        2.644869, 2.643913, 2.642983, 2.642078, 2.641198, 2.640340,
        2.639505, 2.638691, 2.637897, 2.637123, 2.636369, 2.635632,
        2.634914, 2.634212, 2.633527, 2.632858, 2.632204, 2.631565,
        2.630940, 2.630330, 2.629732, 2.629148, 2.628576, 2.628016,
        2.627468, 2.626931, 2.626405, 2.625891, 2.625386, 2.624891,
        2.624407, 2.623932, 2.623465, 2.623008, 2.622560, 2.622120,
        2.621688, 2.621265, 2.620849, 2.620440, 2.620039, 2.619645,
        2.619258, 2.618878, 2.618504, 2.618137, 2.617776, 2.617421,
    ),
}
_NORMAL_QUANTILE = {0.90: 1.644854, 0.95: 1.959964, 0.99: 2.575829}


def t_quantile(level, df):
    """Two-sided t quantile from the embedded table; normal beyond df 120."""
    if level not in _T_TABLE:
        raise ValueError(f"level must be one of {sorted(_T_TABLE)}")
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    table = _T_TABLE[level]
    if df <= len(table):
        return table[df - 1]
    return _NORMAL_QUANTILE[level]


def confidence_interval(samples, level=0.95):
    """mu +- t_{alpha/2, n-1} * s / sqrt(n) with the sample std deviation."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    mu = float(samples.mean())
    s = float(samples.std(ddof=1))
    half = t_quantile(level, n - 1) * s / math.sqrt(n)
    return mu - half, mu + half


def significance_label(p):
    """Evidence label for a p-value: strong / moderate / insufficient."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p-value {p} outside [0, 1]")
    if p < 0.01:
        return "strong"
    if p < 0.05:
        return "moderate"
    return "insufficient"


def memory_estimate(n, h, b, bytes_per_element):
    """Attention-weight storage in bytes: n^2 * h * b * element size."""
    if min(n, h, b, bytes_per_element) <= 0:
        raise ValueError("all arguments must be positive")
    return int(n) * int(n) * int(h) * int(b) * int(bytes_per_element)


PUBLISHED_MEMORY_CLAIM_BYTES = 16 * 1024 ** 3  # published "~16GB" figure
