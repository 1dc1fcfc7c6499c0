"""Per-layer tracing from outside the library.

`Tracer.install()` replaces the library functions listed in `SPAN_TARGETS`
with wrappers that record a span (name, start, end, parent, op id) around
each call. Each function is wrapped in the module where its caller looks it
up, because `from .numerics import gelu` binds a second name that patching
`numerics.gelu` would not reach. `Tensor.__init__` gets a counting wrapper
instead of a span: it runs thousands of times per op, and the counts are what
matter there. `Tracer.uninstall()` restores every original object.

Spans are kept in memory as lists and written out once, at the end of a run.
A target that no longer exists is skipped and listed in `missing`, so a later
change to the library makes its metric missing instead of crashing the run.
"""

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

# (module, attribute, span name): one name may cover several call sites
SPAN_TARGETS = [
    ("numerics", "Tensor.backward", "numerics.backward"),
    ("model", "gelu", "numerics.gelu"),
    ("model", "layer_norm", "numerics.layer_norm"),
    ("attention", "softmax_rows", "numerics.softmax"),
    ("model", "softmax_rows", "numerics.softmax"),
    ("attention", "attention_baseline", "attention.baseline"),
    ("attention", "attention_temp_broadcast", "attention.modulated"),
    ("attention", "attention_temp_outer", "attention.modulated"),
    ("model", "compute_temperature", "temperature.field"),
    ("model", "block_forward", "model.block"),
    ("training", "model_forward", "model.forward"),
    ("gsot", "forward_embedded", "model.forward"),
    ("training", "cross_entropy", "training.cross_entropy"),
    ("training", "collapse_penalty", "temperature.collapse"),
    ("training", "detect_collapse", "temperature.collapse"),
    ("training", "train", "training.train"),
    ("dynamics", "temperature_sweep", "dynamics.sweep"),
    ("gsot", "gsot_pipeline", "gsot.pipeline"),
    ("gsot", "hidden_token_probs", "gsot.hidden"),
    ("gsot", "hidden_temperature", "gsot.hidden"),
    ("gsot", "reasoning_head", "gsot.head"),
]

# (module, attribute) -> (calls counter, counter of the first argument's rows)
TOKEN_COUNTERS = {("gsot", "forward_embedded"): ("gsot.forward_calls",
                                                 "gsot.tokens_forwarded")}

TAPE_NODES = "numerics.tape_nodes"
CHECKED_TENSORS = "numerics.checked_tensors"

OP = "op"

# span fields
NAME, START, END, PARENT, OP_ID = range(5)


def _resolve(module, attr):
    """(owner object, attribute name) for "Class.attr" or "attr" in module."""
    owner = importlib.import_module(f"ttm_lab.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, leaf):
        raise AttributeError(f"ttm_lab.{module}.{attr}")
    return owner, leaf


def _arg_index(fn, name):
    """Positional index of parameter `name` in fn (self counts), or None."""
    params = list(inspect.signature(fn).parameters)
    return params.index(name) if name in params else None


class Tracer:
    """Records spans and per-op counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.missing = []        # "module.attr" targets that could not be wrapped
        self.counts = Counter()  # counters of the op now open
        self._stack = []
        self._op_id = None
        self._saved = []         # (owner, attribute, original)
        self._wrappers = self._build_wrappers()

    # -- spans --------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op_id])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id):
        self._op_id = op_id
        self.counts = Counter()
        return self.open(OP)

    def end_op(self, idx):
        self.close(idx)
        self._op_id = None
        counts, self.counts = self.counts, Counter()
        return counts

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, name, counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counters is not None:
                calls, tokens = counters
                tracer.counts[calls] += 1
                tracer.counts[tokens] += args[0].shape[0]
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    def _init_wrapper(self, init):
        """Count Tensor constructions that run the finiteness check and
        those that become tape nodes (have parents recorded)."""
        tracer = self
        check_pos = _arg_index(init, "check")
        if check_pos is None:
            self.missing.append("numerics.Tensor.__init__(check=)")
        check_default = (inspect.signature(init).parameters["check"].default
                         if check_pos is not None else None)

        @functools.wraps(init)
        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            counts = tracer.counts
            if check_pos is not None:
                if len(args) >= check_pos:
                    checked = args[check_pos - 1]
                else:
                    checked = kwargs.get("check", check_default)
                if checked:
                    counts[CHECKED_TENSORS] += 1
            if getattr(self, "_parents", None):
                counts[TAPE_NODES] += 1
        return counting_init

    def _build_wrappers(self):
        wrappers = []
        for module, attr, name in SPAN_TARGETS:
            try:
                owner, leaf = _resolve(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            fn = getattr(owner, leaf)
            counters = TOKEN_COUNTERS.get((module, attr))
            wrappers.append((owner, leaf, fn,
                             self._span_wrapper(fn, name, counters)))
        try:
            owner, leaf = _resolve("numerics", "Tensor.__init__")
        except (ImportError, AttributeError):
            self.missing.append("numerics.Tensor.__init__")
        else:
            init = getattr(owner, leaf)
            wrappers.append((owner, leaf, init, self._init_wrapper(init)))
        return wrappers

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, leaf, original, wrapper in self._wrappers:
            setattr(owner, leaf, wrapper)
            self._saved.append((owner, leaf, original))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def originals_restored(self):
        """True when every wrapped attribute holds its original object."""
        return all(getattr(owner, leaf) is original
                   for owner, leaf, original, _ in self._wrappers)

    def span_names(self):
        """Span names with at least one installed call site."""
        names = {name for module, attr, name in SPAN_TARGETS
                 if f"{module}.{attr}" not in self.missing}
        return names | {OP}

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def self_times(spans):
    """Per span: its duration minus the durations of its direct children.

    Calls are single-threaded and properly nested, so the children of one
    span never overlap and their sum is the part of it they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def op_breakdown(spans):
    """Per op id: {"incl": {name: s}, "self": {name: s}} over its spans.

    Inclusive time counts only the outermost span of each name, so a name
    nested in itself is not counted twice.
    """
    own = self_times(spans)
    out = {}
    for i, s in enumerate(spans):
        if s[OP_ID] is None:
            continue
        entry = out.setdefault(s[OP_ID], {"incl": Counter(), "self": Counter()})
        entry["self"][s[NAME]] += own[i]
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != s[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["incl"][s[NAME]] += s[END] - s[START]
    return out


def self_share_per_op(spans, name):
    """Self time of each `name` span that lies outside any op, divided by
    the number of ops it directly contains (its per-op share)."""
    own = self_times(spans)
    children = Counter(s[PARENT] for s in spans if s[NAME] == OP)
    return [own[i] / children[i] for i, s in enumerate(spans)
            if s[NAME] == name and s[OP_ID] is None and children[i]]
