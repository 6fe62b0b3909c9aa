"""Span recorder that wraps graphmia's public functions from outside.

The benchmark does not change the package: it replaces each wrapped
function, in every graphmia module that binds it, with a wrapper that
records one span per call (name, start, end, parent) plus a few counters
taken from the call's arguments and result.  Spans stay in memory and are
written out when the run ends.  ``Tracer.install`` returns an undo
function that puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from pathlib import Path

# (module, attribute path) of every traced function, grouped by layer.
# Kernels below these boundaries (the negative-pair sampler, np.add.at
# scatters, substream hashing) stay inside their callers' spans.
TRACED = (
    ("victim", "pretrain_multidomain"),
    ("victim", "fine_tune"),
    ("victim", "linkpred_loss"),
    ("victim", "contrastive_loss"),
    ("victim", "augment_graph"),
    ("victim", "per_node_ssl_loss"),
    ("graph", "Graph.from_edges"),
    ("graph", "induced_subgraph"),
    ("synth", "sbm_graph"),
    ("shadow", "estimate_fisher"),
    ("shadow", "incremental_finetune"),
    ("amplify", "unlearn"),
    ("amplify", "fine_tune_augment"),
    ("amplify", "draw_sample_plan"),
    ("amplify", "distill_loss_and_grads"),
    ("amplify", "similarity_profile"),
    ("attack", "build_attack_dataset"),
    ("attack", "train_attack_model"),
    ("attack", "infer_membership"),
    ("baselines", "embed_mia"),
    ("baselines", "grad_mia"),
    ("baselines", "nlo_mia"),
    ("baselines", "glo_mia"),
    ("baselines", "ge_mia"),
    ("baselines", "gpia"),
    ("experiment", "build_context"),
    ("experiment", "run_similarity_attack"),
    ("experiment", "run_baseline"),
    ("experiment", "build_shadow_model"),
    ("experiment", "similarity_margin_gap"),
    ("nn", "GCNEncoder.forward"),
    ("nn", "GCNEncoder.backward"),
    ("nn", "adam_step"),
    ("checkpoint", "save_victim"),
    ("checkpoint", "load_victim"),
    ("cli", "cmd_pretrain"),
    ("cli", "cmd_attack"),
    ("cli", "cmd_ablate"),
    ("cli", "cmd_baseline"),
)

TRACED_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

# Traced functions that call no other traced function; every other name
# also reports self time.
LEAVES = frozenset({
    "nn.GCNEncoder.forward", "nn.GCNEncoder.backward", "nn.adam_step",
    "graph.Graph.from_edges", "checkpoint.save_victim", "checkpoint.load_victim",
})

COUNTERS = (
    "synth.sbm_graph.edges",
    "shadow.estimate_fisher.nodes",
    "checkpoint.save_victim.bytes",
    "quality.skipped_train",
    "quality.skipped_test",
    "quality.attack_train_accuracy",
)

# Ratios kept as (numerator, denominator) counter pairs.
RATIOS = {
    "attack.infer_membership.answered_ratio": ("attack.infer_membership.answered",
                                               "attack.infer_membership.asked"),
    "baselines.gpia.answered_ratio": ("baselines.gpia.answered", "baselines.gpia.asked"),
}


def _count(counters: dict, name: str, args: tuple, kwargs: dict, result) -> None:
    """Work counters taken at the boundary of the call that does the work."""
    def add(key: str, value: float) -> None:
        counters[key] = counters.get(key, 0) + value

    if name == "synth.sbm_graph":
        add("synth.sbm_graph.edges", result.num_edges)
    elif name == "shadow.estimate_fisher":
        add("shadow.estimate_fisher.nodes", args[1].num_nodes)
    elif name == "attack.infer_membership":
        add("attack.infer_membership.asked", len(args[3]))
        add("attack.infer_membership.answered", len(result))
    elif name == "baselines.gpia":
        add("baselines.gpia.asked", len(args[4]))
        add("baselines.gpia.answered", len(result))
    elif name == "checkpoint.save_victim":
        path = Path(args[0] if args else kwargs["path"])
        add("checkpoint.save_victim.bytes", path.stat().st_size)
    # quality of the first (similarity/full) attack of a repetition
    elif name == "attack.build_attack_dataset" and "quality.skipped_train" not in counters:
        counters["quality.skipped_train"] = result.skipped_train
        counters["quality.skipped_test"] = result.skipped_test
    elif name == "attack.train_attack_model" and "quality.attack_train_accuracy" not in counters:
        counters["quality.attack_train_accuracy"] = result.train_accuracy


class Tracer:
    """In-memory spans, ``[name, start, end, parent index or -1]``, one
    list per repetition."""

    def __init__(self) -> None:
        self.repetitions: list[list[list]] = []
        self.reset()

    def reset(self) -> None:
        """Start the spans and counters of a new repetition."""
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self.repetitions.append(self.spans)

    def wrap(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, open_ = self.spans, self._open
            idx = len(spans)
            spans.append([name, clock(), None, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()
            _count(self.counters, name, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every traced function in every graphmia module that binds
        it.  Returns a function that restores the original bindings."""
        pkg = importlib.import_module("graphmia")
        modules = [pkg] + [
            importlib.import_module(f"graphmia.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if info.name != "__main__"
        ]
        undo: list[tuple[object, str, object]] = []
        for mod_name, attr in TRACED:
            home = importlib.import_module(f"graphmia.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

        def restore() -> None:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

        return restore

    def summary(self) -> dict[str, float]:
        """Per traced name: inclusive busy seconds, call count and, unless
        the name is a leaf, self seconds; then the work counters and the
        answered ratios (0 when nothing was asked)."""
        busy = {n: 0.0 for n in TRACED_NAMES}
        self_s = {n: 0.0 for n in TRACED_NAMES}
        calls = {n: 0 for n in TRACED_NAMES}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_time[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                busy[name] += dur
        out: dict[str, float] = {}
        for n in TRACED_NAMES:
            out[f"{n}.s"] = busy[n]
            out[f"{n}.calls"] = calls[n]
            if n not in LEAVES:
                out[f"{n}.self_s"] = self_s[n]
        for key in COUNTERS:
            out[key] = self.counters.get(key, 0)
        for key, (num, den) in RATIOS.items():
            total = self.counters.get(den, 0)
            out[key] = self.counters.get(num, 0) / total if total else 0.0
        return out

    def dump(self, path: Path) -> None:
        """Write every repetition's spans as ``rep name start end parent``
        lines, times relative to the repetition's first span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# repetition name start_s end_s parent_index\n")
            for rep, spans in enumerate(r for r in self.repetitions if r):
                t0 = spans[0][1]
                for name, start, end, parent in spans:
                    fh.write(f"{rep} {name} {start - t0:.9f} {end - t0:.9f} {parent}\n")
