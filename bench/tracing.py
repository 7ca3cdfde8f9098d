"""Call tracing from outside the package.

`Tracer.install()` replaces every public module-level function of the
traced tflkit modules with a wrapper, and rebinds each name under which
another tflkit module (or the package) imported that function, so calls
between modules go through the wrapper too.  A few `Expr` and
`ControlSystem` methods are wrapped on their classes.  `uninstall()` puts
the originals back.

Spanned functions record a span (id, name, start, end, parent id, round id,
self time) kept in memory, timed by `Tracer.clock`; self time is the
span's duration minus that of its direct child spans.  Counted functions
(the `Expr` arithmetic, `diff` and `zeroness`) only bump a counter, since
they run hundreds of thousands of times; `zeroness` is counted by its
return value.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("forms", "pfaffian", "lift", "conditions", "integrate",
           "algorithm", "numlin", "problem")

ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
         "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__")


def _ideal_key(ideal):
    # the content of the generators, without going through Expr arithmetic
    return tuple((g.degree, tuple(sorted((i, c.key())
                                         for i, c in g.terms.items())))
                 for g in ideal.generators)


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.max_gens = 0
        self.round = None
        self.clock = perf_counter
        self._stack = []          # [span id, child seconds] per open span
        self._next_id = 0
        self._distinct = defaultdict(set)
        self.distinct = Counter()  # distinct inputs, summed over problem runs
        self._saved = []          # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, key=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if key is not None:
                k = key(args)
                if k not in self._distinct[name]:
                    self._distinct[name].add(k)
                    self.distinct[name] += 1
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                self._stack.pop()
                dur = t1 - t0
                if self._stack:
                    self._stack[-1][1] += dur
                own = dur - frame[1]
                self.self_s[name] += own
                self.spans.append((sid, name, t0, t1, parent, self.round,
                                   own))
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _by_result(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[f"{name}.{result}"] += 1
            return result
        return wrapper

    def _derived_system(self, name, fn):
        spanned = self._spanned(name, fn)

        @functools.wraps(fn)
        def wrapper(ideal, *args, **kwargs):
            self.max_gens = max(self.max_gens, len(ideal))
            return spanned(ideal, *args, **kwargs)
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("tflkit")
        mods = {m: importlib.import_module(f"tflkit.{m}") for m in MODULES}
        wrapped = {}   # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(obj)
                        or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name == "pfaffian.augment_with_dt":
                    w = self._spanned(name, obj,
                                      key=lambda a: _ideal_key(a[0]))
                elif name == "pfaffian.derived_system":
                    w = self._derived_system(name, obj)
                else:
                    w = self._spanned(name, obj)
                wrapped[id(obj)] = w
        # rebind the function and every name it was imported under
        all_mods = [pkg, importlib.import_module("tflkit.expr"),
                    *mods.values()]
        for mod in all_mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

        Expr = importlib.import_module("tflkit.expr").Expr
        for op in ARITH:
            self._set(Expr, op, self._counted("expr.arith",
                                              vars(Expr)[op]))
        self._set(Expr, "diff", self._counted("expr.diff", Expr.diff))
        self._set(Expr, "eval", self._spanned("expr.eval", Expr.eval))
        self._set(Expr, "zeroness",
                  self._by_result("expr.zeroness", Expr.zeroness))
        CS = mods["lift"].ControlSystem
        self._set(CS, "lie_f", self._spanned(
            "lift.lie_f", CS.lie_f, key=lambda a: a[1].key()))
        self._set(CS, "lie_g", self._spanned("lift.lie_g", CS.lie_g))
        self._set(CS, "vanishes_on_N",
                  self._spanned("lift.vanishes_on_N", CS.vanishes_on_N))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- bookkeeping --------------------------------------------------------

    def begin_problem(self):
        """Distinct inputs are counted within one problem run."""
        self._distinct.clear()

    def snapshot(self):
        return Counter(self.calls), dict(self.self_s)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent",
                                 "round", "self_s"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
