"""Guided reasoning over a token universe of primary and hidden tokens.

The pipeline runs three stages: primary extraction (temperature
thresholding), hidden-token generation and integration, and a final forward
pass through the model plus the reasoning head. With a step budget K > 1 the
extraction stage shrinks the active set over K - 1 steps using rank-based
per-step thresholds, which keeps the active-set size within (1 - k/K) * n by
construction; with K = 1 it is a single pass keeping every token whose mean
temperature exceeds tau_p.
"""

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .model import forward_embedded, reasoning_head
from .numerics import Tensor

CONTINUE = "continue"
BACKTRACK = "backtrack"


class EmptyPathError(RuntimeError):
    """Every token was filtered out during primary extraction."""


@dataclass
class GsotConfig:
    theta: float = 0.2          # hidden relevance threshold
    tau_p: float = 0.5          # primary temperature threshold
    tau_h: float = 0.3          # hidden temperature threshold
    tau_backtrack: float = 0.1  # recovery threshold on mean temperature
    K: int = 1                  # step budget for scheduled extraction

    def __post_init__(self):
        for name in ("theta", "tau_p", "tau_h", "tau_backtrack"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} = {v} outside (0, 1)")
        if self.K < 1:
            raise ValueError("step budget K must be >= 1")


class TokenUniverse:
    """Primary vocabulary plus a disjoint hidden-token space.

    Primary ids are 0 .. V-1; hidden ids continue at V .. V+H-1. The bilinear
    score matrix W_h maps [e_x ; context] into embedding space, where hidden
    embeddings are scored against it; (w_h, b_h) parameterize the hidden
    temperature head.
    """

    def __init__(self, primary_embeddings, hidden_embeddings, W_h, w_h, b_h):
        self.primary = np.asarray(primary_embeddings, dtype=np.float64)
        self.hidden = np.asarray(hidden_embeddings, dtype=np.float64)
        if self.primary.shape[1] != self.hidden.shape[1]:
            raise ValueError("primary and hidden embedding widths differ")
        self.W_h = np.asarray(W_h, dtype=np.float64)
        self.w_h = np.asarray(w_h, dtype=np.float64)
        self.b_h = float(b_h)

    @property
    def vocab_size(self):
        return self.primary.shape[0]

    @property
    def hidden_count(self):
        return self.hidden.shape[0]

    def hidden_ids(self):
        return range(self.vocab_size, self.vocab_size + self.hidden_count)

    def hidden_embedding(self, hidden_id):
        return self.hidden[hidden_id - self.vocab_size]


def build_universe(params, hidden_count, rng, d_c=None):
    """Universe whose primary embeddings are the model's token embeddings."""
    d = params.cfg.d_model
    d_c = params.cfg.d_c if d_c is None else d_c
    return TokenUniverse(
        primary_embeddings=params.tok_emb.values,
        hidden_embeddings=rng.normal((hidden_count, d), 0.0, 0.02),
        W_h=rng.normal((d, d + d_c), 0.0, (d + d_c) ** -0.5),
        w_h=rng.normal((d,), 0.0, d ** -0.5),
        b_h=0.0)


def hidden_token_probs(x, context, universe):
    """P(h | x, context): softmax over H of a bilinear score."""
    if not 0 <= x < universe.vocab_size:
        raise ValueError(f"token {x} outside the primary vocabulary")
    joint = np.concatenate([universe.primary[x], np.asarray(context, dtype=np.float64)])
    scores = universe.hidden @ (universe.W_h @ joint)
    scores -= scores.max()
    e = np.exp(scores)
    return e / e.sum()


def hidden_tokens(x, context, universe, theta):
    """Hidden ids whose conditional probability strictly exceeds theta."""
    probs = hidden_token_probs(x, context, universe)
    base = universe.vocab_size
    return {base + i for i, p in enumerate(probs) if p > theta}


def hidden_temperature(hidden_id, relevance, universe):
    """sigma(w_h . e_h + b_h) scaled by the context relevance factor."""
    e = universe.hidden_embedding(hidden_id)
    return float(1.0 / (1.0 + np.exp(-(universe.w_h @ e + universe.b_h)))) * relevance


@dataclass
class TraceStep:
    step: int
    active_primary: list      # sequence positions still active
    active_hidden: list       # hidden token ids
    mean_temperature: float
    decision: str
    op_count: int             # cumulative multiply-accumulate count


@dataclass
class ReasoningTrace:
    steps: list = dc_field(default_factory=list)
    failed: bool = False

    def add(self, **kw):
        step = TraceStep(**kw)
        if self.steps:
            prev = self.steps[-1]
            if step.step <= prev.step or step.op_count < prev.op_count:
                raise ValueError("trace steps must be strictly increasing and "
                                 "cumulative in op_count")
        self.steps.append(step)
        return step

    def to_jsonl(self):
        lines = []
        for s in self.steps:
            lines.append(json.dumps({
                "step": s.step,
                "active_primary": list(map(int, s.active_primary)),
                "active_hidden": list(map(int, s.active_hidden)),
                "mean_temperature": s.mean_temperature,
                "decision": s.decision,
                "op_count": s.op_count,
            }))
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class ReasoningPath:
    id: int
    steps: list
    fn: object  # callable instance -> prediction


def select_path(paths, dataset, loss_fn):
    """Path with the least mean loss over the dataset; ties pick lowest id."""
    if not paths:
        raise ValueError("no reasoning paths given")
    if not dataset:
        raise ValueError("empty dataset")
    losses = []
    for path in paths:
        total = 0.0
        for x, y in dataset:
            total += float(loss_fn(path.fn(x), y))
        losses.append(total / len(dataset))
    best_idx = min(range(len(paths)),
                   key=lambda i: (losses[i], paths[i].id))
    return paths[best_idx], losses


def forward_macs(n, cfg):
    """Multiply-accumulate count of one forward pass over n active tokens."""
    d, h, dk, dff = cfg.d_model, cfg.heads, cfg.d_k, cfg.d_ff
    per_layer = (3 * n * d * dk * h      # Q, K, V projections
                 + 2 * h * n * n * dk    # scores and weighted values
                 + n * h * dk * d        # output projection
                 + 2 * n * d * dff       # FFN
                 + n * h * d)            # temperature head
    return cfg.layers * per_layer + n * d * cfg.vocab_size


def _token_temps(field):
    """Per-token summary: mean over heads of the final layer's field."""
    return field.array().mean(axis=0)


def _rank_keep(active, temps, target):
    """Indices of the `target` hottest active tokens, stable in position."""
    if target >= len(active):
        return list(active)
    if target <= 0:
        return []
    order = np.argsort(-temps, kind="stable")[:target]
    keep = sorted(order)
    return [active[i] for i in keep]


def schedule_target(n, K, k):
    """Largest active-set size allowed at step k: floor((1 - k/K) * n)."""
    return ((K - k) * n) // K


def _admit_hidden(x, context, universe, cfg):
    """Hidden ids admitted for primary token x, and the MACs of scoring them.

    A candidate enters iff its probability strictly exceeds theta and its
    relevance-scaled temperature strictly exceeds tau_h.
    """
    probs = hidden_token_probs(x, context, universe)
    base = universe.vocab_size
    admitted = [base + j for j, p in enumerate(probs)
                if p > cfg.theta
                and hidden_temperature(base + j, p, universe) > cfg.tau_h]
    macs = universe.hidden_count * (universe.W_h.shape[1] + universe.primary.shape[1])
    return admitted, macs


def integrated_token_processing(X, context, universe, params, cfg):
    """Single-pass activation of primary and hidden tokens.

    A primary token enters the active set iff its mean final-layer
    temperature strictly exceeds tau_p; its hidden candidates enter iff their
    relevance-scaled temperature strictly exceeds tau_h.
    """
    X = list(X)
    context = np.asarray(context, dtype=np.float64)
    emb = Tensor(universe.primary[X], check=False)
    _, fields, _ = forward_embedded(emb, params)
    temps = _token_temps(fields[-1])
    trace = ReasoningTrace()
    v_active, h_active = [], []
    ops = forward_macs(len(X), params.cfg)
    for i, x in enumerate(X):
        if temps[i] > cfg.tau_p:
            v_active.append(i)
            admitted, macs = _admit_hidden(x, context, universe, cfg)
            h_active += admitted
            ops += macs
        trace.add(step=i + 1, active_primary=list(v_active),
                  active_hidden=list(h_active),
                  mean_temperature=float(temps[:i + 1].mean()),
                  decision=CONTINUE, op_count=ops)
    return v_active, h_active, trace


def recovery_step(field_summary, cfg):
    """Backtrack iff the temperature summary drops below tau_backtrack.

    Only the decision is made here; `gsot_pipeline` acts on a backtrack by
    retrying the step once on its alternate branch, and fails the trace when
    that alternate is already spent.
    """
    if not 0.0 <= field_summary <= 1.0:
        raise ValueError("field summary must lie in [0, 1]")
    return CONTINUE if field_summary >= cfg.tau_backtrack else BACKTRACK


def gsot_pipeline(X, universe, params, cfg, context=None):
    """Three-stage guided reasoning; returns output probabilities and trace.

    Stage 1 extracts primary tokens (scheduled shrinkage for K > 1, plain
    tau_p thresholding for K = 1). Stage 2 appends active hidden-token
    embeddings to the surviving sequence. Stage 3 runs the model and the
    reasoning head over the integrated sequence.
    """
    X = list(X)
    n = len(X)
    if context is None:
        context = np.zeros(params.cfg.d_c)
    context = np.asarray(context, dtype=np.float64)
    trace = ReasoningTrace()
    ops = 0

    # stage 1: primary extraction
    active = list(range(n))
    if cfg.K == 1:
        emb = Tensor(universe.primary[X], check=False)
        _, fields, _ = forward_embedded(emb, params)
        ops += forward_macs(n, params.cfg)
        temps = _token_temps(fields[-1])
        active = [i for i in active if temps[i] > cfg.tau_p]
        mean_t = float(temps.mean())
        trace.add(step=1, active_primary=list(active), active_hidden=[],
                  mean_temperature=mean_t, decision=CONTINUE, op_count=ops)
    else:
        for k in range(1, cfg.K):
            prev_active = list(active)
            target = schedule_target(n, cfg.K, k)
            alternates_left = 1
            while True:
                emb = Tensor(universe.primary[[X[i] for i in prev_active]],
                             check=False)
                _, fields, _ = forward_embedded(emb, params)
                ops += forward_macs(len(prev_active), params.cfg)
                temps = _token_temps(fields[-1])
                candidate = _rank_keep(prev_active,
                                       temps, target)
                if not candidate:
                    raise EmptyPathError(
                        f"primary extraction emptied the active set at step {k}")
                kept_temps = temps[[prev_active.index(i) for i in candidate]]
                mean_t = float(kept_temps.mean())
                decision = recovery_step(mean_t, cfg)
                if decision == CONTINUE:
                    active = candidate
                    trace.add(step=k, active_primary=list(active),
                              active_hidden=[], mean_temperature=mean_t,
                              decision=CONTINUE, op_count=ops)
                    break
                if alternates_left == 0:
                    trace.failed = True
                    active = candidate
                    trace.add(step=k, active_primary=list(active),
                              active_hidden=[], mean_temperature=mean_t,
                              decision=BACKTRACK, op_count=ops)
                    break
                # alternate branch: drop the coldest survivor
                alternates_left -= 1
                target = max(target - 1, 1)
            if trace.failed:
                break
    if not active:
        raise EmptyPathError("all tokens filtered during primary extraction")

    # stage 2: hidden generation and integration
    h_active = []
    for i in active:
        admitted, macs = _admit_hidden(X[i], context, universe, cfg)
        h_active += admitted
        ops += macs

    # stage 3: integrated forward and reasoning head
    rows = [universe.primary[X[i]] for i in active]
    rows += [universe.hidden_embedding(h) for h in h_active]
    emb = Tensor(np.asarray(rows), check=False)
    logits, fields, hidden_states = forward_embedded(emb, params)
    m = len(rows)
    ops += forward_macs(m, params.cfg)
    probs = reasoning_head(hidden_states, fields[-1], params.W_reason)
    ops += m * params.W_reason.shape[0] * params.W_reason.shape[1]
    final_step = trace.steps[-1].step + 1 if trace.steps else 1
    trace.add(step=final_step, active_primary=list(active),
              active_hidden=list(h_active),
              mean_temperature=float(_token_temps(fields[-1]).mean()),
              decision=CONTINUE, op_count=ops)
    return probs, trace


@dataclass
class ScheduleReport:
    satisfied: bool
    margins: list  # (step k, allowed size - actual size)


def active_set_schedule_check(trace, n, K):
    """Verify |X_k| <= (1 - k/K) * n at every recorded extraction step."""
    if len(trace.steps) > K:
        raise ValueError(f"trace has {len(trace.steps)} steps, budget is {K}")
    margins = []
    ok = True
    for s in trace.steps:
        # (1 - k/K) * n compared in exact integer arithmetic
        margin = ((K - s.step) * n - len(s.active_primary) * K) / K
        margins.append((s.step, margin))
        if margin < 0:
            ok = False
    return ScheduleReport(satisfied=ok, margins=margins)


def complexity_fit(op_counts):
    """Least-squares fit of ops ~ c * n * log2(n) through the origin."""
    if len({n for n, _ in op_counts}) < 4:
        raise ValueError("need at least 4 distinct sequence lengths")
    x = np.array([n * math.log2(n) for n, _ in op_counts])
    y = np.array([ops for _, ops in op_counts], dtype=np.float64)
    c = float((x * y).sum() / (x * x).sum())
    resid = y - c * x
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return c, r2
