"""Spans around the calls into each cad_defense layer, from outside the package.

The tracer replaces module attributes with timing wrappers: the public
names in their defining modules, the bindings through which cad.py,
harness.py and cli.py look them up, and the three operator methods on
SensingOperator.  Nothing under src/ is edited.  A name that a later
version of the package removes is recorded as absent and reads as zero
calls, so the traced run keeps working across refactors.

Spans are kept in memory as [name, start, end, parent, instance] and
written out when the run ends.  The instance id is the ordinal of the
enclosing cad_run call (-1 outside any).  Operator applications are only
counted, not spanned: they are the innermost and by far the most frequent
calls (two per iteration of the general l1 solver), so their time stays
in the self time of the function that applied the operator.  Traced runs
are serial: a pool worker's calls would not be seen.
"""

from __future__ import annotations

import importlib
import json
import time

# span name -> (module, attribute) bindings to wrap; "SensingOperator" is
# looked up on cad_defense.transform and its methods are wrapped in place
_BINDINGS = {
    "transform.analyze": [("transform.SensingOperator", "analyze")],
    "transform.synthesize": [("transform.SensingOperator", "synthesize")],
    "transform.adjoint": [("transform.SensingOperator", "adjoint")],
    "transform.top_k": [("transform", "top_k"), ("cad", "top_k")],
    "recovery.cosamp_run": [("recovery", "cosamp_run"), ("cad", "cosamp_run")],
    "recovery.l1_min_orthonormal": [("recovery", "l1_min_orthonormal"),
                                    ("cad", "l1_min_orthonormal")],
    "recovery.l1_min_general": [("recovery", "l1_min_general"),
                                ("cad", "l1_min_general")],
    "recovery.check_bound": [("recovery", "check_bound"),
                             ("harness", "check_bound")],
    "feedback.residual": [("feedback", "residual"), ("cad", "residual")],
    "feedback.feedback_bit": [("feedback", "feedback_bit"),
                              ("cad", "feedback_bit")],
    "feedback.mahalanobis": [("feedback", "mahalanobis"), ("cad", "mahalanobis")],
    "feedback.estimate_clean_stats": [("feedback", "estimate_clean_stats"),
                                      ("harness", "estimate_clean_stats")],
    "bandit.probabilities": [("bandit", "probabilities"), ("cad", "probabilities")],
    "bandit.sample_action": [("bandit", "sample_action"), ("cad", "sample_action")],
    "bandit.reward": [("bandit", "reward"), ("cad", "reward")],
    "bandit.update": [("bandit", "update"), ("cad", "update")],
    "cad.run_action": [("cad", "run_action")],
    "cad.cad_run": [("cad", "cad_run"), ("harness", "cad_run")],
    "attacks.perturb": [("attacks", "perturb"), ("harness", "perturb")],
    "attacks.make_clean_compressible": [("attacks", "make_clean_compressible"),
                                        ("harness", "make_clean_compressible")],
    "attacks.make_clean_sparse": [("attacks", "make_clean_sparse"),
                                  ("harness", "make_clean_sparse")],
    "harness.cmd_run": [("harness", "cmd_run"), ("cli", "cmd_run")],
    "cli.main": [("cli", "main")],
}

# span name -> Tracer method that inspects the call's arguments and result
_AFTER = {
    "feedback.feedback_bit": "_after_bit",
    "recovery.l1_min_general": "_after_general",
    "cad.run_action": "_after_run_action",
    "cad.cad_run": "_after_cad_run",
}

_OP_APPLIES = ("transform.analyze", "transform.synthesize", "transform.adjoint")
_SOLVERS = ("recovery.cosamp_run", "recovery.l1_min_orthonormal",
            "recovery.l1_min_general")
_BANDIT = ("bandit.probabilities", "bandit.sample_action", "bandit.reward",
           "bandit.update")
_INSTANCE_GEN = ("attacks.perturb", "attacks.make_clean_compressible",
                 "attacks.make_clean_sparse")

# counters that are functions of the inputs alone and must repeat exactly
EXACT_COUNTERS = ("transform.op_applies", "cad.loop_iters", "cad.run_action.calls",
                  "recovery.l1_min_general.iters", "feedback.mahalanobis.calls")


def _resolve(path: str):
    """The cad_defense module (or class in it) named by path, or None."""
    module_name, _, class_name = path.partition(".")
    try:
        owner = importlib.import_module(f"cad_defense.{module_name}")
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


class Tracer:
    """Installs the wrappers, records spans, and reduces them to layer metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._instance = -1
        self._instances = 0
        self._restore: list[tuple] = []
        self._applies = 0
        self._bytes = 0
        self._bits = [0, 0]            # feedback bits evaluated, bits equal to 1
        self._general = [0, 0, 0]      # l1_min_general results, iterations, unconverged
        self._loop_iters = 0
        self._seen_actions: set = set()
        self._repeats = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for name, bindings in _BINDINGS.items():
            found = False
            for owner_path, attr in bindings:
                owner = _resolve(owner_path)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                found = True
                wrap = self._count if name in _OP_APPLIES else self._wrap
                setattr(owner, attr, wrap(name, fn))
                self._restore.append((owner, attr, fn))
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        after = getattr(self, _AFTER[name]) if name in _AFTER else None
        is_cad_run = name == "cad.cad_run"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            outer = self._instance
            if is_cad_run:
                self._instance = self._instances
                self._instances += 1
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._instance]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self._instance = outer
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        """Counting wrapper for a SensingOperator method (no span)."""
        square = name == "transform.analyze"   # analysis is always n x n

        def wrapper(op, *args, **kwargs):
            self._applies += 1
            self._bytes += op.n * (op.n if square else op.m) * 8
            return fn(op, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-call bookkeeping (runs after the span has ended) ----------------

    def _after_bit(self, args, kwargs, result):
        self._bits[0] += 1
        self._bits[1] += int(result == 1)

    def _after_general(self, args, kwargs, result):
        self._general[0] += 1
        self._general[1] += int(getattr(result, "iterations", 0))
        self._general[2] += int(not getattr(result, "converged", True))

    def _after_run_action(self, args, kwargs, result):
        action = args[0] if args else kwargs.get("action")
        key = (self._instance, action)
        self._repeats += key in self._seen_actions
        self._seen_actions.add(key)

    def _after_cad_run(self, args, kwargs, result):
        channels = getattr(result, "channels", None) or [result]
        self._loop_iters += sum(int(getattr(o, "stopped_at", 0)) for o in channels)

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer calls, self seconds, counters and ratios from the spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = {name: 0 for name in _BINDINGS}
        self_s: dict[str, float] = {name: 0.0 for name in _BINDINGS}
        final_rerun = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
            if name in _SOLVERS and parent >= 0 and spans[parent][0] == "cad.cad_run":
                final_rerun += end - start
        op_applies = self._applies
        iters = self._loop_iters
        bits, positive = self._bits
        general, general_iters, unconverged = self._general
        return {
            "transform.op_applies": op_applies,
            "transform.op_applies_per_iter": op_applies / iters if iters else 0.0,
            "transform.bytes_computed": self._bytes,
            "transform.top_k.self_s": self_s["transform.top_k"],
            "recovery.cosamp_run.calls": calls["recovery.cosamp_run"],
            "recovery.cosamp_run.self_s": self_s["recovery.cosamp_run"],
            "recovery.l1_min_orthonormal.calls": calls["recovery.l1_min_orthonormal"],
            "recovery.l1_min_orthonormal.self_s": self_s["recovery.l1_min_orthonormal"],
            "recovery.l1_min_general.calls": calls["recovery.l1_min_general"],
            "recovery.l1_min_general.self_s": self_s["recovery.l1_min_general"],
            "recovery.l1_min_general.iters": general_iters,
            "recovery.l1_min_general.unconverged_frac":
                unconverged / general if general else 0.0,
            "recovery.check_bound.self_s": self_s["recovery.check_bound"],
            "feedback.residual.calls": calls["feedback.residual"],
            "feedback.residual.self_s": self_s["feedback.residual"],
            "feedback.feedback_bit.self_s": self_s["feedback.feedback_bit"],
            "feedback.positive_frac": positive / bits if bits else 0.0,
            "feedback.mahalanobis.calls": calls["feedback.mahalanobis"],
            "feedback.mahalanobis.self_s": self_s["feedback.mahalanobis"],
            "feedback.estimate_clean_stats.self_s":
                self_s["feedback.estimate_clean_stats"],
            "bandit.calls": sum(calls[n] for n in _BANDIT),
            "bandit.self_s": sum(self_s[n] for n in _BANDIT),
            "cad.loop_iters": iters,
            "cad.run_action.calls": calls["cad.run_action"],
            "cad.run_action.self_s": self_s["cad.run_action"],
            "cad.run_action.repeat_frac":
                self._repeats / calls["cad.run_action"] if calls["cad.run_action"] else 0.0,
            "cad.final_rerun.self_s": final_rerun,
            "cad.cad_run.self_s": self_s["cad.cad_run"],
            "attacks.instance_gen.self_s": sum(self_s[n] for n in _INSTANCE_GEN),
            "harness.cmd_run.self_s": self_s["harness.cmd_run"],
            "cli.main.self_s": self_s["cli.main"],
        }

    def write_spans(self, path) -> None:
        """One JSON list per line: name, start, end, parent index, instance."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
