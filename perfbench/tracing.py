"""Spans and counters recorded from outside the effss package.

A workload process either runs the program untouched (``Tracer(False)``:
every span and count is a no-op) or, for a traced run, wraps public effss
functions and methods (``Tracer(True).install(...)``).  The wrappers only
time and count; they never change arguments or results.
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, Optional


class Tracer:
    """Inclusive span seconds and event counts, keyed by metric name.

    A span opened inside another span of the same name is not timed
    again, so re-entrant calls are not counted twice.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._open: Dict[str, bool] = {}
        self._run: Optional[Callable] = None
        self._staged = weakref.WeakSet()

    @contextmanager
    def span(self, name: str):
        if not self.enabled or self._open.get(name):
            yield
            return
        self._open[name] = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
            self._open[name] = False

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def get(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def run_in_stages(self, ss) -> None:
        """Run ``ss`` to its last page through public calls, a span per stage.

        ``differential_known(1, d)`` builds every d1 matrix, ``run(r_to=2)``
        turns page 1, and each later page first builds its pattern matrices
        with ``differential_known(r, d)``.  The work equals one ``run()``.
        """
        from effss import TriDegree

        run = self._run or type(ss).run
        self._staged.add(ss)
        w = ss.window
        d0 = TriDegree(w.s[0], w.f[0], w.w[0])
        with self.span("engine.d1_s"):
            ss.differential_known(1, d0)
        with self.span("engine.turn1_s"):
            run(ss, 2)
        for r in range(2, ss.r_max):
            with self.span("engine.turn_higher_s"):
                with self.span("engine.pattern_s"):
                    ss.differential_known(r, d0)
                run(ss, r + 1)

    # -- wrappers, traced runs only --------------------------------------

    def _timed(self, fn: Callable, span: str, counter: str) -> Callable:
        def wrapper(*args, **kw):
            if counter:
                self.count(counter)
            if not span:
                return fn(*args, **kw)
            with self.span(span):
                return fn(*args, **kw)

        return wrapper

    def install(self, on_object: Callable) -> None:
        """Wrap the public calls the per-layer metrics are read from.

        ``on_object(obj)`` sees every object ``get_object`` returns, so the
        caller can record its presentation size.
        """
        import effss.charts as charts
        import effss.engine as engine
        import effss.eta as eta
        import effss.intlinalg as intlinalg
        import effss.objects as objects
        from effss.grading import RingPresentation

        # the package's `assemble` attribute is the function, not the module
        assemble_mod = importlib.import_module("effss.assemble")

        get_object = self._timed(objects.get_object, "objects.get_object_s", "")

        def recorded_get_object(*args, **kw):
            obj = get_object(*args, **kw)
            on_object(obj)
            return obj

        _replace_everywhere(objects.get_object, recorded_get_object)
        for fn, span, counter in (
            (intlinalg.smith_normal_form, "", "intlinalg.smith_calls"),
            (eta.localize, "eta.localize_s", "eta.localize_calls"),
            (assemble_mod.expand_ledger, "assemble.ledger_s", ""),
            (assemble_mod.order_pattern_check, "assemble.order_check_s", ""),
            (assemble_mod.assemble, "assemble.assemble_s", ""),
            (charts.chart_data, "charts.chart_data_s", ""),
            (charts.render_chart_text, "charts.emit_s", ""),
            (charts.emit_svg, "charts.emit_s", ""),
        ):
            _replace_everywhere(fn, self._timed(fn, span, counter))
        # the homology calls the engine makes, not the ones inside intlinalg
        engine.homology = self._timed(engine.homology, "intlinalg.snf_s", "intlinalg.snf_calls")
        engine.F2Homology = self._timed(engine.F2Homology, "intlinalg.f2_s", "intlinalg.f2_calls")

        reduce = RingPresentation.reduce
        counts = self.counts

        def counted_reduce(pres, e):
            counts["grading.reduce_calls"] = counts.get("grading.reduce_calls", 0) + 1
            return reduce(pres, e)

        RingPresentation.reduce = counted_reduce

        project = engine.PageGroup.project_element
        depth = [0]

        def counted_project(group, pres, e):
            self.count("engine.project_calls")
            if not depth[0]:
                self.count("engine.project_top_calls")
            depth[0] += 1
            try:
                return project(group, pres, e)
            finally:
                depth[0] -= 1

        engine.PageGroup.project_element = counted_project

        # runs started inside the CLI are split into stages as well
        self._run = run = engine.SliceSS.run

        def staged_run(ss, r_to=None):
            if r_to is None and ss not in self._staged:
                self.run_in_stages(ss)
                return ss
            return run(ss, r_to)

        engine.SliceSS.run = staged_run


def _replace_everywhere(orig: Callable, new: Callable) -> None:
    """Rebind every effss module attribute that refers to ``orig``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "effss" or name.startswith("effss.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
