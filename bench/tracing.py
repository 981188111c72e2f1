"""In-memory spans around the public functions of each kzquench layer.

The child process calls ``install`` before the command runs.  It wraps every
public function defined in a layer module and rebinds each name in the
package that refers to it, so calls made through ``from .x import f``
bindings are traced too.  The program's source is not touched.  A span is
(name, layer, start, end, parent index); spans are kept in a list and handed
back to the parent as plain data.  ``layer_metrics`` turns a round's spans
and counts into the per-layer metrics.
"""

import functools
import inspect
import sys
import time

# Layers in the order they are reported.  ``cli`` is the root span opened
# when the command starts; ``lattice`` and ``specfun`` are timed inside their
# callers (evolver, closedform).
LAYERS = ("protocol", "quadrature", "evolver", "closedform", "correlators",
          "analysis", "edoracle")

EVOLVE_ENTRIES = ("evolve_spectrum_quadrature", "evolve_spectrum")
TRANSFORMS = ("fermionic_correlators_numeric", "czz")


class Tracer:
    """Spans and work counts of one child; records only once armed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"evolver.steps": 0, "evolver.mode_steps": 0,
                       "quadrature.nodes": 0, "correlators.transform_elems": 0}
        self.armed = False

    def open(self, name, layer):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][3] = time.perf_counter()

    def count(self, name, args, result):
        """Work counts read from a layer call's arguments and result."""
        c = self.counts
        if name in EVOLVE_ENTRIES:
            steps = int(result.meta["steps"])
            c["evolver.steps"] += steps
            c["evolver.mode_steps"] += steps * len(result.q)
        elif name == "support_panels":
            c["quadrature.nodes"] += len(result[0])
        elif name == "fermionic_correlators_numeric":
            c["correlators.transform_elems"] += len(result.r) * len(args[0].q)

    def wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            self.count(name, args, result)
            return result
        return traced


def install(tracer):
    """Wrap the public functions of every layer module and rebind their names."""
    import kzquench  # noqa: F401  (imports every layer)

    replace = {}
    for layer in LAYERS:
        mod = sys.modules["kzquench." + layer]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                replace[id(obj)] = tracer.wrap(layer, name, obj)
    for modname, mod in list(sys.modules.items()):
        if modname == "kzquench" or modname.startswith("kzquench."):
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, name, replace[id(obj)])


def self_times(spans):
    """Self time of each span: its duration minus the time its children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced round (times in seconds)."""
    own = self_times(spans)
    m = {"cli.self_s": 0.0, "evolver.evolve_s": 0.0, "evolver.calls": 0,
         "quadrature.panels_s": 0.0, "correlators.transform_s": 0.0,
         "correlators.closed_s": 0.0, "edoracle.evolve_s": 0.0,
         "edoracle.ground_state_s": 0.0, "edoracle.measure_s": 0.0,
         "edoracle.calls": 0, "protocol.build_s": 0.0, "closedform.s": 0.0,
         "closedform.calls": 0, "analysis.fit_s": 0.0}
    key = {"cli": "cli.self_s", "evolver": "evolver.evolve_s",
           "quadrature": "quadrature.panels_s", "protocol": "protocol.build_s",
           "closedform": "closedform.s", "analysis": "analysis.fit_s"}
    for (name, layer, _, _, parent), t in zip(spans, own):
        if layer == "correlators":
            m["correlators.transform_s" if name in TRANSFORMS
              else "correlators.closed_s"] += t
        elif layer == "edoracle":
            if name == "evolve_exact":
                m["edoracle.evolve_s"] += t
                m["edoracle.calls"] += 1
            elif name == "ground_state":
                m["edoracle.ground_state_s"] += t
            else:
                m["edoracle.measure_s"] += t
        else:
            m[key[layer]] += t
        if name in EVOLVE_ENTRIES:
            m["evolver.calls"] += 1
        if layer == "closedform" and (parent < 0 or spans[parent][1] != "closedform"):
            m["closedform.calls"] += 1
    m.update(counts)
    m["evolver.magnus_applies"] = 3 * counts["evolver.steps"]
    applies = 3 * counts["evolver.mode_steps"]
    m["evolver.us_per_mode_apply"] = 1e6 * m["evolver.evolve_s"] / applies if applies else 0.0
    return m
