"""Guided reasoning over a token universe of primary and hidden tokens.

The pipeline runs three stages: primary extraction (temperature
thresholding), hidden-token generation and integration, and a final forward
pass through the model plus the reasoning head. With a step budget K > 1 the
extraction stage shrinks the active set over K - 1 steps using rank-based
per-step thresholds, which keeps the active-set size within (1 - k/K) * n by
construction; with K = 1 it is a single pass keeping every token whose mean
temperature exceeds TAU_P. Hidden admission takes a candidate whose
probability exceeds THETA and whose relevance-scaled temperature exceeds
TAU_H. These three thresholds are module constants that no run varies;
`GsotConfig` holds what a run sets, the step budget K and the recovery
threshold tau_backtrack. Extraction reads only the last block's temperature
field, so each extraction step runs the model only as far as that field
(`final_field`), off the tape, through one frozen view of the parameters per
call; the final pass is the one full forward. The active set is an array of
sequence positions, and hidden admission builds one table per call, scoring
each distinct surviving id once.
"""

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .model import check_token_ids, final_field, forward_embedded, reasoning_head
from .numerics import Tensor

CONTINUE = "continue"
BACKTRACK = "backtrack"


class EmptyPathError(RuntimeError):
    """Every token was filtered out during primary extraction."""


THETA = 0.2   # hidden relevance threshold
TAU_P = 0.5   # primary temperature threshold
TAU_H = 0.3   # hidden temperature threshold


@dataclass
class GsotConfig:
    tau_backtrack: float = 0.1  # recovery threshold on mean temperature
    K: int = 1                  # step budget for scheduled extraction

    def __post_init__(self):
        if not 0.0 < self.tau_backtrack < 1.0:
            raise ValueError(f"tau_backtrack = {self.tau_backtrack} outside "
                             f"(0, 1)")
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


def build_universe(params, hidden_count, rng):
    """Universe whose primary embeddings are the model's token embeddings."""
    d, d_c = params.cfg.d_model, params.cfg.d_c
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


def forward_macs(n, cfg):
    """Multiply-accumulate count of one forward pass over n active tokens.

    The op count charges this for every extraction step as well, although a
    step stops at the last block's field: that is the paper's cost model, and
    it keeps the trace's op_count (and `bench`'s MAC counts) unchanged.
    """
    d, h, dk, dff = cfg.d_model, cfg.heads, cfg.d_k, cfg.d_ff
    per_layer = (3 * n * d * dk * h      # Q, K, V projections
                 + 2 * h * n * n * dk    # scores and weighted values
                 + n * h * dk * d        # output projection
                 + 2 * n * d * dff       # FFN
                 + n * h * d)            # temperature head
    return cfg.layers * per_layer + n * d * cfg.vocab_size


def _token_temps(field):
    """Per-token summary: mean over heads of the final layer's field."""
    v = field.values
    return np.add.reduce(v, axis=0) / v.shape[0]


def _mean(a):
    """a.mean(), computed as numpy does, without its Python wrapper."""
    return float(np.add.reduce(a, axis=None) / a.size)


def _rank_keep(temps, target):
    """Positions into `temps` of the `target` (>= 0) hottest tokens, in
    ascending order (ties go to the earlier position)."""
    return np.sort(np.argsort(-temps, kind="stable")[:target])


def schedule_target(n, K, k):
    """Largest active-set size allowed at step k: floor((1 - k/K) * n)."""
    return ((K - k) * n) // K


def _admit_hidden(ids, context, universe):
    """Hidden ids admitted for the primary tokens `ids`, token by token, and
    the MACs of scoring them.

    A candidate enters iff its probability strictly exceeds THETA and its
    relevance-scaled temperature strictly exceeds TAU_H. Admission depends
    only on (id, context), so each distinct id is scored once, into a table
    that its repeats read, and each candidate's unscaled temperature is
    computed once; the MACs still charge one scoring per token.
    """
    base = universe.vocab_size
    temps = [hidden_temperature(h, 1.0, universe) for h in universe.hidden_ids()]
    table, admitted = {}, []
    for x in ids:
        if x not in table:
            probs = hidden_token_probs(x, context, universe)
            table[x] = [base + j for j, (p, t) in enumerate(zip(probs, temps))
                        if p > THETA and t * p > TAU_H]
        admitted += table[x]
    macs = len(ids) * universe.hidden_count * (
        universe.W_h.shape[1] + universe.primary.shape[1])
    return admitted, macs


def recovery_step(field_summary, cfg):
    """Backtrack iff the temperature summary drops below tau_backtrack.

    Only the decision is made here; `gsot_pipeline` acts on a backtrack by
    retrying the step once on its alternate branch, and fails the trace when
    that alternate is already spent.
    """
    if not 0.0 <= field_summary <= 1.0:
        raise ValueError("field summary must lie in [0, 1]")
    return CONTINUE if field_summary >= cfg.tau_backtrack else BACKTRACK


def check_sequence(X, vocab_size):
    """X as an (n,) int array; ValueError unless it is a non-empty 1-D
    sequence of integer ids in [0, vocab_size)."""
    if not isinstance(X, np.ndarray):
        X = list(X)
    ids = np.asarray(X)
    if ids.ndim != 1 or not ids.size:
        raise ValueError(f"sequence must be a non-empty (n,) list of token "
                         f"ids, got shape {ids.shape}")
    check_token_ids(X, vocab_size)
    return ids.astype(np.intp, copy=False)


def gsot_pipeline(X, universe, params, cfg, context=None):
    """Three-stage guided reasoning; returns output probabilities and trace.

    Stage 1 extracts primary tokens (scheduled shrinkage for K > 1, plain
    TAU_P thresholding for K = 1). Stage 2 appends active hidden-token
    embeddings to the surviving sequence. Stage 3 runs the model and the
    reasoning head over the integrated sequence. X must be a non-empty 1-D
    sequence of ids in the primary vocabulary, and the context a finite
    (d_c,) vector.
    """
    X = check_sequence(X, universe.vocab_size)
    n = len(X)
    d_c = params.cfg.d_c
    if context is None:
        context = np.zeros(d_c)
    context = np.asarray(context, dtype=np.float64)
    if context.shape != (d_c,) or not np.isfinite(context).all():
        raise ValueError(f"context must be a finite (d_c,) = ({d_c},) "
                         f"vector, got shape {context.shape}")
    frozen = params.detached()
    trace = ReasoningTrace()
    ops = 0

    # stage 1: primary extraction; `active` holds sequence positions
    if cfg.K == 1:
        emb = Tensor(universe.primary[X], check=False)
        ops += forward_macs(n, params.cfg)
        temps = _token_temps(final_field(emb, frozen))
        active = np.flatnonzero(temps > TAU_P)
        mean_t = _mean(temps)
        trace.add(step=1, active_primary=active.tolist(), active_hidden=[],
                  mean_temperature=mean_t, decision=CONTINUE, op_count=ops)
    else:
        active = np.arange(n)
        for k in range(1, cfg.K):
            emb = Tensor(universe.primary[X[active]], check=False)
            ops += forward_macs(active.size, params.cfg)
            temps = _token_temps(final_field(emb, frozen))
            target = schedule_target(n, cfg.K, k)
            # on a backtrack, the alternate branch drops the coldest survivor
            for size in (target, max(target - 1, 1)):
                keep = _rank_keep(temps, size)
                if not keep.size:
                    raise EmptyPathError(
                        f"primary extraction emptied the active set at step {k}")
                mean_t = _mean(temps[keep])
                decision = recovery_step(mean_t, cfg)
                if decision == CONTINUE:
                    break
            active = active[keep]
            trace.add(step=k, active_primary=active.tolist(), active_hidden=[],
                      mean_temperature=mean_t, decision=decision, op_count=ops)
            if decision == BACKTRACK:
                trace.failed = True
                break
    if not active.size:
        raise EmptyPathError("all tokens filtered during primary extraction")

    # stage 2: hidden generation and integration
    ids = X[active]
    h_active, macs = _admit_hidden(ids.tolist(), context, universe)
    ops += macs

    # stage 3: integrated forward and reasoning head
    rows = universe.primary[ids]
    if h_active:
        rows = np.concatenate(
            [rows, universe.hidden_embedding(np.asarray(h_active))])
    emb = Tensor(rows, check=False)
    logits, fields, hidden_states = forward_embedded(emb, params)
    m = len(rows)
    ops += forward_macs(m, params.cfg)
    probs = reasoning_head(hidden_states, fields[-1], params.W_reason)
    ops += m * params.W_reason.shape[0] * params.W_reason.shape[1]
    final_step = trace.steps[-1].step + 1 if trace.steps else 1
    trace.add(step=final_step, active_primary=active.tolist(),
              active_hidden=h_active,
              mean_temperature=_mean(_token_temps(fields[-1])),
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
