"""Outside-in span tracer for the rough_transport layers.

``Tracer.install`` replaces the public functions of the layer modules, in
every package namespace that imported them, with wrappers that record a
span (name, start, end, thread id, parent) and read cheap work counters
from argument and result shapes. Catalog field callables are wrapped to
count calls and points. Spans stay in memory; ``layer_metrics`` reduces
them when the pass ends. Nothing inside the package is edited.
"""

import inspect
import itertools
import math
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import replace

PACKAGE = "rough_transport"
LAYER_MODULES = ("fields", "flow", "representation", "weakform", "bmo")
POOL_CALLER = "representation.pointwise_solution"


class Tracer:
    def __init__(self):
        self.spans = []                   # (id, name, start, end, thread, parent)
        self.counts = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._pool_parent = None          # open pointwise_solution span

    # -- recording ---------------------------------------------------------

    def add(self, key, n):
        with self._lock:
            self.counts[key] += n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, counter=None):
        """Span-recording wrapper; ``counter(bound_args, result)`` reads work."""
        sig = inspect.signature(fn) if counter is not None else None
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            tid = threading.get_ident()
            if stack:
                parent = stack[-1]
            elif tid != tracer._main:
                # a pool worker's slice belongs to the caller's span
                parent = tracer._pool_parent
            else:
                parent = None
            sid = next(tracer._ids)
            if name == POOL_CALLER:
                tracer._pool_parent = sid
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, tid, parent))
            if counter is not None:
                counter(sig.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, calls_key, points_key):
        """Count calls and evaluation points of a field callable ``fn(t, x)``."""
        add = self.add

        def field_call(t, x):
            shape = getattr(x, "shape", ())
            if calls_key:
                add(calls_key, 1)
            add(points_key, math.prod(shape[:-1]))
            return fn(t, x)

        return field_call

    # -- installation --------------------------------------------------------

    def install(self):
        """Instrument the imported rough_transport modules in place."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        counters = self._counters()
        for short in LAYER_MODULES:
            mod = modules[f"{PACKAGE}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                target = self._mollify(fn) if name == "fields.mollify" else fn
                traced = self.wrap(target, name, counters.get(name))
                for other in modules.values():
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, key, traced)

        scenarios = modules[f"{PACKAGE}.scenarios"]
        scenarios.run_scenario = self.wrap(scenarios.run_scenario,
                                           "scenarios.run_scenario")
        report = modules[f"{PACKAGE}.report"]
        report.RunReport.write = self.wrap(report.RunReport.write, "report.write")

        for cid, make in list(scenarios.FIELD_CATALOG.items()):
            scenarios.FIELD_CATALOG[cid] = self._field_factory(make)
        for cid, make in list(scenarios.DAMPING_CATALOG.items()):
            scenarios.DAMPING_CATALOG[cid] = self._damping_factory(make)

    def _field_factory(self, make):
        def build(d, T):
            spec = make(d, T)
            return replace(
                spec,
                eval_b=self.counted(spec.eval_b, "fields.eval_b.calls",
                                    "fields.eval_b.points"),
                eval_div_b=self.counted(spec.eval_div_b, None,
                                        "fields.eval_div_b.points"))
        return build

    def _damping_factory(self, make):
        def build(d):
            spec = make(d)
            return replace(spec, eval_c=self.counted(spec.eval_c, None,
                                                     "fields.eval_c.points"))
        return build

    def _mollify(self, mollify):
        """Mollified fields get a span per evaluation and a kernel-node count."""
        add = self.add

        def spanned(fn, nodes):
            span = self.wrap(fn, "fields.mollified_eval")

            def call(t, x):
                add("fields.kernel_node_evals",
                    nodes * math.prod(getattr(x, "shape", ())[:-1]))
                return span(t, x)
            return call

        def instrumented(spec, moll):
            out = mollify(spec, moll)
            nodes = moll.space_offsets.shape[0]
            if not spec.autonomous:
                nodes *= moll.time_nodes.shape[0]
            return replace(out, eval_b=spanned(out.eval_b, nodes),
                           eval_div_b=spanned(out.eval_div_b, nodes))

        return instrumented

    def _counters(self):
        add = self.add

        def flow(args, fl):
            add("flow.rk4_traj_steps", fl.trajectories.shape[0] * fl.steps)

        def pointwise(args, u):
            add("representation.backward_slices", len(args["time_grid"]) - 1)

        def quad_nodes(args, _):
            q = args["quad"]
            add("weakform.quad_nodes", q.times.shape[0] * q.points.shape[0])

        def bmo(args, profile):
            add("bmo.ball_count", len(args["ball_family"]))
            add("bmo.cells", profile.points.shape[0])

        return {"flow.integrate_flow": flow,
                "representation.pointwise_solution": pointwise,
                "weakform.weak_residual": quad_nodes,
                "weakform.gamma_trace": quad_nodes,
                "bmo.bmo_norm": bmo}

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self, workers):
        """Per-layer self times, counts and pool figures from the spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span[5] is not None:
                children[span[5]].append(span)

        def self_time(span):
            return (span[3] - span[2]) - _union(
                (c[2], c[3]) for c in children.get(span[0], ()))

        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span[1]].append(span)

        def total_self(name):
            return sum(self_time(s) for s in by_name[name])

        def total_dur(name):
            return sum(s[3] - s[2] for s in by_name[name])

        m = {}
        for key in ("fields.eval_b.calls", "fields.eval_b.points",
                    "fields.eval_div_b.points", "fields.eval_c.points",
                    "fields.kernel_node_evals", "flow.rk4_traj_steps",
                    "representation.backward_slices", "weakform.quad_nodes",
                    "bmo.ball_count", "bmo.cells"):
            m[key] = self.counts[key]
        for name in ("fields.mollified_eval", "flow.integrate_flow", "flow.jacobian",
                     "flow.jacobian_ode_residual", "flow.superlevel_escape",
                     "representation.damping_integral", "weakform.weak_residual",
                     "weakform.l2_energy_diagnostic", "weakform.gamma_trace",
                     "bmo.bmo_norm", "bmo.bmo_gronwall_diagnostic",
                     "scenarios.run_scenario"):
            m[f"{name}.self_s"] = total_self(name)
        for name in ("flow.integrate_flow", "flow.superlevel_escape",
                     "representation.pointwise_solution", "weakform.gamma_trace",
                     "bmo.jn_decay_check"):
            m[f"{name}.calls"] = len(by_name[name])
        m["scenarios.self_s"] = m.pop("scenarios.run_scenario.self_s")
        flow_busy = total_dur("flow.integrate_flow")
        m["flow.rk4_traj_steps_per_s"] = (m["flow.rk4_traj_steps"] / flow_busy
                                          if flow_busy > 0.0 else 0.0)

        pw_wall = total_dur(POOL_CALLER)
        pool_wait = slice_time = 0.0
        for span in by_name[POOL_CALLER]:
            remote = [c for c in children.get(span[0], ()) if c[4] != span[4]]
            pool_wait += _union((c[2], c[3]) for c in remote)
            slice_time += sum(c[3] - c[2] for c in remote)
        m["representation.pointwise_solution.wall_s"] = pw_wall
        m["representation.pool_wait_s"] = pool_wait
        m["representation.pool_efficiency"] = (slice_time / (pw_wall * workers)
                                               if pw_wall > 0.0 else 0.0)
        m["report.write_s"] = total_dur("report.write")
        return m


def _union(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
