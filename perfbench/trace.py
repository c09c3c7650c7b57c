"""Outside-in layer trace of router_sim.

``Tracer.install`` wraps public functions of the six router_sim modules
(``fock``, ``elements``, ``tsvf``, ``scenarios``, ``dsl``, ``cli``) and
rebinds each name in every router_sim module that holds it, so calls made
through ``from .fock import X`` bindings are traced too.  Nothing under
``src/`` is edited; ``uninstall`` puts the originals back.

Each wrapped call is a span.  Spans are timed on the calling thread's CPU
clock, so the sweep command's worker threads, which share one interpreter
lock, do not charge each other's time.  A span's self time is its duration
minus the durations of its child spans.  The root span (``cli.main``) is
timed on the process CPU clock because its children include spans on the
sweep's worker threads; those top-level worker spans count as its children.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute path, span name).  A span name's first component is
# its layer.
SPANS = [
    ("cli", "main", "cli.main"),
    ("scenarios", "three_box_shutter", "scenarios.evaluate"),
    ("scenarios", "disappearing_full", "scenarios.evaluate"),
    ("scenarios", "simplified_3path", "scenarios.evaluate"),
    ("scenarios", "simplest_2path", "scenarios.evaluate"),
    ("scenarios", "absence_test", "scenarios.evaluate"),
    ("scenarios", "stricter_6beam", "scenarios.evaluate"),
    ("scenarios", "bell_scenario", "scenarios.evaluate"),
    ("scenarios", "build_three_box", "scenarios.build"),
    ("scenarios", "build_disappearing", "scenarios.build"),
    ("scenarios", "build_simplified_3path", "scenarios.build"),
    ("scenarios", "build_simplest_2path", "scenarios.build"),
    ("scenarios", "build_absence_test", "scenarios.build"),
    ("scenarios", "build_stricter_6beam", "scenarios.build"),
    ("scenarios", "run_plan", "scenarios.run_plan"),
    ("scenarios", "bell_test", "scenarios.bell_test"),
    ("tsvf", "abl_probability", "tsvf.query"),
    ("tsvf", "weak_value", "tsvf.query"),
    ("tsvf", "postselection_success", "tsvf.query"),
    ("tsvf", "TwoStateSpec.forward_state", "tsvf.propagation"),
    ("tsvf", "TwoStateSpec.backward_state", "tsvf.propagation"),
    ("tsvf", "three_box_spec", "tsvf.spec"),
    ("tsvf", "disappearing_spec", "tsvf.spec"),
    ("elements", "apply_schedule", "elements.apply_schedule"),
    ("elements", "apply_element", "elements.apply_element"),
    ("fock", "FockState.__init__", "fock.state_init"),
    ("fock", "apply_mode_unitary", "fock.apply_mode_unitary"),
    ("fock", "apply_fock_phase", "fock.apply_fock_phase"),
    ("fock", "project_pattern", "fock.projections"),
    ("fock", "project_predicate", "fock.projections"),
    ("fock", "postselect_subsystem", "fock.projections"),
    ("fock", "inner_product", "fock.projections"),
    ("fock", "schmidt_spectrum", "fock.schmidt_spectrum"),
    ("fock", "register_modes", "fock.sources"),
    ("fock", "superposition_source", "fock.sources"),
    ("dsl", "simulate_text", "dsl.simulate_text"),
    ("dsl", "parse", "dsl.parse"),
    ("dsl", "compile_doc", "dsl.compile_doc"),
    ("dsl", "execute", "dsl.execute"),
]

ROOT = "cli.main"
# Spans that report the size of the state they were handed.
_SUPPORT_ARG = {"fock.apply_mode_unitary", "elements.apply_element"}


class _Stat:
    __slots__ = ("calls", "self_ns", "outer_ns", "configs_in", "extra")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.outer_ns = 0  # duration of calls not nested in the same name
        self.configs_in = 0
        self.extra = 0  # routers for apply_element, statements for parse


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # [name, start_ns, child_ns]
        self.depth = defaultdict(int)  # open spans per name and per layer
        self.stats = defaultdict(_Stat)
        self.layer_ns = defaultdict(int)  # spans not nested in their layer
        self.top_level_ns = 0


class Tracer:
    def __init__(self):
        self._local = _ThreadState()
        self._threads = []  # (thread, its _ThreadState dict)
        self._lock = threading.Lock()
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not getattr(local, "registered", False):
            local.registered = True
            with self._lock:
                self._threads.append((threading.current_thread(), local.__dict__))
        return local

    def _wrap(self, fn, name):
        clock = time.process_time_ns if name == ROOT else time.thread_time_ns
        support = name in _SUPPORT_ARG
        router_kinds = None
        if name == "elements.apply_element":
            from router_sim.elements import ElementKind
            router_kinds = (ElementKind.PQR_IDEAL, ElementKind.PQR_DECOMPOSED)

        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st.stack
            depth = st.depth
            frame = [name, 0, 0]
            if name == ROOT:
                frame.append(self._top_level_total())
            stack.append(frame)
            depth[name] += 1
            depth[layer] += 1
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                depth[layer] -= 1
                dur = end - frame[1]
                child = frame[2]
                if name == ROOT:
                    child += self._top_level_total() - frame[3]
                stat = st.stats[name]
                stat.calls += 1
                stat.self_ns += dur - child
                if not depth[name]:
                    stat.outer_ns += dur
                if not depth[layer]:
                    st.layer_ns[layer] += dur
                if stack:
                    stack[-1][2] += dur
                else:
                    st.top_level_ns += dur
                if support:
                    stat.configs_in += len(args[0].amplitudes)
                    if router_kinds and args[1].kind in router_kinds:
                        stat.extra += 1
            if name == "dsl.parse":
                doc = result
                stat.extra += (len(doc.modes) + len(doc.sources)
                               + len(doc.elements) + len(doc.postselects)
                               + len(doc.detects))
            return result

        return wrapper

    def _top_level_total(self):
        with self._lock:
            return sum(t["top_level_ns"] for _, t in self._threads)

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every name in ``SPANS`` wherever router_sim binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "router_sim" or n.startswith("router_sim.")]
        for module_name, path, span in SPANS:
            owner = sys.modules[f"router_sim.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, span))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(original, span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved = []

    # -- results -----------------------------------------------------------

    def reset(self):
        """Forget every recorded span, and the threads that have ended."""
        with self._lock:
            self._threads = [(th, t) for th, t in self._threads if th.is_alive()]
            for _, t in self._threads:
                t["stats"].clear()
                t["layer_ns"].clear()
                t["top_level_ns"] = 0

    def totals(self):
        """Per-span-name statistics and per-layer inclusive time, merged
        over every thread."""
        merged = defaultdict(_Stat)
        layers = defaultdict(int)
        with self._lock:
            threads = [t for _, t in self._threads]
        for t in threads:
            for name, s in t["stats"].items():
                m = merged[name]
                m.calls += s.calls
                m.self_ns += s.self_ns
                m.outer_ns += s.outer_ns
                m.configs_in += s.configs_in
                m.extra += s.extra
            for layer, ns in t["layer_ns"].items():
                layers[layer] += ns
        return merged, layers


def layer_metrics(stats, layers):
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json.

    ``.calls`` and other counts are exact; ``.self_ms`` excludes child
    spans; any other ``.ms`` is inclusive of everything the spans called.
    """
    ms = 1e-6

    def get(name):
        return stats.get(name) or _Stat()

    def layer_self(layer):
        return sum(s.self_ns for n, s in stats.items()
                   if n.split(".")[0] == layer) * ms

    def per_call(stat):
        return stat.configs_in / stat.calls if stat.calls else 0.0

    unitary = get("fock.apply_mode_unitary")
    element = get("elements.apply_element")
    out = {
        "cli.main.calls": get(ROOT).calls,
        "cli.main.self_ms": get(ROOT).self_ns * ms,
        "scenarios.evaluations": get("scenarios.evaluate").calls,
        "scenarios.self_ms": layer_self("scenarios"),
        "scenarios.build.ms": get("scenarios.build").outer_ns * ms,
        "scenarios.run_plan.self_ms": get("scenarios.run_plan").self_ns * ms,
        "scenarios.bell_test.calls": get("scenarios.bell_test").calls,
        "tsvf.queries": get("tsvf.query").calls,
        "tsvf.propagations": get("tsvf.propagation").calls,
        "tsvf.ms": layers["tsvf"] * ms,
        "tsvf.self_ms": layer_self("tsvf"),
        "elements.apply_element.calls": element.calls,
        "elements.apply_element.self_ms": element.self_ns * ms,
        "elements.router.calls": element.extra,
        "elements.configs_in": element.configs_in,
        "elements.configs_per_call": per_call(element),
        "elements.self_ms": layer_self("elements"),
        "fock.state_constructions": get("fock.state_init").calls,
        "fock.state_init.ms": get("fock.state_init").outer_ns * ms,
        "fock.apply_mode_unitary.calls": unitary.calls,
        "fock.apply_mode_unitary.self_ms": unitary.self_ns * ms,
        "fock.apply_mode_unitary.configs_in": unitary.configs_in,
        "fock.apply_mode_unitary.configs_per_call": per_call(unitary),
        "fock.projections.ms": get("fock.projections").outer_ns * ms,
        "fock.schmidt_spectrum.ms": get("fock.schmidt_spectrum").outer_ns * ms,
        "fock.sources.ms": get("fock.sources").outer_ns * ms,
        "fock.self_ms": layer_self("fock"),
        "dsl.statements": get("dsl.parse").extra,
        "dsl.parse.ms": get("dsl.parse").outer_ns * ms,
        "dsl.compile_doc.ms": get("dsl.compile_doc").outer_ns * ms,
        "dsl.execute.self_ms": get("dsl.execute").self_ns * ms,
        "dsl.self_ms": layer_self("dsl"),
    }
    return out
