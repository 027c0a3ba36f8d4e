"""Span tracing of closurelab's public functions, installed from the
benchmark's side by replacing module attributes.

A function imported by name into several modules (idlab calls its own
copy of eval_word, suites its own eval_word_on) is replaced in every
closurelab namespace that holds it, and OperatorTable.compose is
replaced on the class, so no call path escapes the wrapper.

Each wrapped call pushes a frame; on return its self time is its
duration minus the time of wrapped calls beneath it.  Calls of the hot
functions in HOT (up to 10^5 and more per pass) are summed per (op,
parent function, function) instead of being kept as one span each, so
the record stays small; what the wrappers cost shows as trace_overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: (module, attribute) of every traced function; the metric prefix is
#: "<module>.<attribute>"
TARGETS = (
    ("opalg", "eval_word"),
    ("opalg", "OperatorTable.compose"),
    ("opalg", "closure_from_fixed_points"),
    ("opalg", "commutes"),
    ("opalg", "check_closure"),
    ("opalg", "check_interior"),
    ("opalg", "eval_word_on"),
    ("idlab", "sample_commuting_pair"),
    ("idlab", "test_equation"),
    ("idlab", "enumerate_commuting_pairs"),
    ("idlab", "enumerate_closures"),
    ("idlab", "search_identities"),
    ("idlab", "find_kuratowski_witness"),
    ("monoid", "generate_monoid"),
    ("monoid", "hasse"),
    ("monoid", "orbit"),
    ("theory", "eval_term"),
    ("theory", "check_intended_model"),
    ("theory", "check_derivation"),
    ("models", "example3"),
    ("models", "example3_additive"),
    ("models", "section4_model"),
    ("models", "pij_pair"),
    ("models", "kuratowski_witness"),
    ("cli", "main"),
)

#: suites are traced under their command names, through the SUITES table
SUITES = (
    "theorem1", "kuratowski14", "theorem2", "fixtures", "section4",
    "example3", "lemma6", "interior", "pq-closure", "remark-involution",
)

HOT = frozenset((
    "opalg.eval_word",
    "opalg.OperatorTable.compose",
    "opalg.closure_from_fixed_points",
    "opalg.commutes",
    "idlab.sample_commuting_pair",
    "monoid.generate_monoid",
))


def _count_eval_word(counters, args, kwargs, result):
    letters = len(str(args[0]))
    counters["opalg.eval_word.letters"] += letters
    counters["opalg.eval_word.bytes_computed"] += letters * (1 << args[1].ground_size) * 8


def _count_test_equation(counters, args, kwargs, result):
    counters["idlab.test_equation.models_checked"] += result.models_checked


def _count_search_identities(counters, args, kwargs, result):
    equations, _scope, examined = result
    counters["idlab.search_identities.words_examined"] += examined
    # every examined word either opens a new state or yields an equation
    counters["idlab.search_identities.distinct_states"] += examined - len(equations)


def _count_generate_monoid(counters, args, kwargs, result):
    counters["monoid.generate_monoid.elements"] += len(result)


#: counters read off the arguments or result of a traced call
HOOKS = {
    "opalg.eval_word": _count_eval_word,
    "idlab.test_equation": _count_test_equation,
    "idlab.search_identities": _count_search_identities,
    "monoid.generate_monoid": _count_generate_monoid,
}

TRACED = tuple(f"{m}.{a}" for m, a in TARGETS) + tuple(f"suites.{s}" for s in SUITES)

#: every per-layer metric of a traced run, with its unit
PER_LAYER = (
    tuple((f"{name}.{kind}", unit) for name in TRACED
          for kind, unit in (("calls", "count"), ("self_s", "s")))
    + (
        ("idlab.enumerate_closures.setup_self_s", "s"),
        ("opalg.eval_word.letters", "count"),
        ("opalg.eval_word.us_per_letter", "us"),
        ("opalg.eval_word.bytes_computed", "B"),
        ("kernel.raw_gather_us", "us"),
        ("kernel.raw_gather_us_n5", "us"),
        ("idlab.sampler.tries", "count"),
        ("idlab.sampler.accept_ratio", "ratio"),
        ("idlab.test_equation.models_checked", "count"),
        ("idlab.search_identities.words_examined", "count"),
        ("idlab.search_identities.distinct_states", "count"),
        ("monoid.generate_monoid.elements", "count"),
        ("monoid.compose_per_element", "calls/element"),
        ("cli.bytes_out", "B"),
        ("trace_overhead", "ratio"),
    )
)


class Tracer:
    """Records spans (id, name, start, end, parent id, op id, self time)
    and per-(op, parent, function) sums for the HOT functions."""

    def __init__(self):
        self.stack = []  # frames: [child time, span id or None, name]
        self.spans = []
        self.agg = {}  # (op id, parent name, name) -> [calls, total, self]
        self.counters = defaultdict(float)
        self.op = None
        self._next_id = 0
        self._patches = []

    # -- installation ------------------------------------------------

    def install(self) -> None:
        for mod_name in {m for m, _ in TARGETS} | {"suites"}:
            importlib.import_module(f"closurelab.{mod_name}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "closurelab" or key.startswith("closurelab.")]
        for mod_name, attr in TARGETS:
            module = importlib.import_module(f"closurelab.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]), False)
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper, False)
        table = importlib.import_module("closurelab.suites").SUITES
        for suite in SUITES:
            self._patch(table, suite, self._wrap(f"suites.{suite}", table[suite]), True)

    def uninstall(self) -> None:
        for target, key, orig, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._patches = []

    def _patch(self, target, key, wrapper, is_dict) -> None:
        if is_dict:
            self._patches.append((target, key, target[key], True))
            target[key] = wrapper
        else:
            self._patches.append((target, key, getattr(target, key), False))
            setattr(target, key, wrapper)

    def _wrap(self, name, fn):
        hot = name in HOT
        hook = HOOKS.get(name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None if hot else tracer._new_id(), name]
            tracer.stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, perf())
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    # -- recording ---------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _close(self, frame, start, end) -> None:
        stack = self.stack
        stack.pop()
        duration = end - start
        own = duration - frame[0]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += duration
        if frame[1] is None:
            key = (self.op, parent[2] if parent else None, frame[2])
            acc = self.agg.get(key)
            if acc is None:
                acc = self.agg[key] = [0, 0.0, 0.0]
            acc[0] += 1
            acc[1] += duration
            acc[2] += own
        else:
            parent_id = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            self.spans.append((frame[1], frame[2], start, end, parent_id, self.op, own))

    def run_op(self, label, fn):
        """Run fn as the root span of one op; returns fn's result."""
        frame = [0.0, self._new_id(), f"op:{label}"]
        self.op = frame[1]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(frame, start, time.perf_counter())
            self.op = None

    def take(self):
        """Hand over and clear what has been recorded so far."""
        out = Records(self.spans, self.agg, dict(self.counters))
        self.spans, self.agg, self.counters = [], {}, defaultdict(float)
        return out


class Records:
    """Spans, hot-call sums and counters of one phase of a run."""

    def __init__(self, spans, agg, counters):
        self.spans = spans
        self.agg = agg
        self.counters = counters

    def per_function(self):
        """name -> [calls, self seconds], spans and hot sums together."""
        out = defaultdict(lambda: [0, 0.0])
        for _id, name, _start, _end, _parent, _op, own in self.spans:
            out[name][0] += 1
            out[name][1] += own
        for (_op, _parent, name), (calls, _total, own) in self.agg.items():
            out[name][0] += calls
            out[name][1] += own
        return out

    def hot_calls(self, parent, name) -> int:
        return sum(acc[0] for (_op, par, fn), acc in self.agg.items()
                   if par == parent and fn == name)

    def op_residuals(self) -> list[float]:
        """For each op: its span minus the self times of everything
        recorded under it, itself included; 0 up to rounding."""
        own = defaultdict(float)
        for _id, _name, _start, _end, _parent, op, t in self.spans:
            own[op] += t
        for (op, _parent, _name), acc in self.agg.items():
            own[op] += acc[2]
        return [end - start - own[sid]
                for sid, name, start, end, _parent, _op, _own in self.spans
                if name.startswith("op:")]

    def to_json(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "hot_sums": [[op, parent, name, *acc]
                         for (op, parent, name), acc in self.agg.items()],
            "counters": self.counters,
        }


def layer_metrics(setup: Records, passes: Records, n_passes: int) -> dict:
    """Per-layer values per traced pass, except the setup-phase ones."""
    funcs = passes.per_function()
    values = {}
    for name in TRACED:
        calls, own = funcs.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / n_passes
        values[f"{name}.self_s"] = own / n_passes
    values["idlab.enumerate_closures.setup_self_s"] = (
        setup.per_function().get("idlab.enumerate_closures", (0, 0.0))[1])
    for key in ("opalg.eval_word.letters", "opalg.eval_word.bytes_computed",
                "idlab.test_equation.models_checked",
                "idlab.search_identities.words_examined",
                "idlab.search_identities.distinct_states",
                "monoid.generate_monoid.elements"):
        values[key] = passes.counters.get(key, 0) / n_passes
    letters = values["opalg.eval_word.letters"]
    values["opalg.eval_word.us_per_letter"] = (
        values["opalg.eval_word.self_s"] / letters * 1e6 if letters else 0.0)
    tries = passes.hot_calls("idlab.sample_commuting_pair", "opalg.commutes") / n_passes
    values["idlab.sampler.tries"] = tries
    values["idlab.sampler.accept_ratio"] = (
        values["idlab.sample_commuting_pair.calls"] / tries if tries else 0.0)
    elements = values["monoid.generate_monoid.elements"]
    composed = passes.hot_calls("monoid.generate_monoid", "opalg.OperatorTable.compose")
    values["monoid.compose_per_element"] = (
        composed / n_passes / elements if elements else 0.0)
    return values
