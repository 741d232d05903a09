"""Spans and counts recorded around covsteer's public entry points.

The tracer rebinds public functions and methods of the package's modules
to wrappers; it touches no private helper.  A span is
[name, start, end, parent index, operation id, completed]; spans and
counts stay in memory and are written out once, when the run ends.
Counts are kept per phase ("setup" or "timed"), like the spans' operation
ids, so the per-layer figures can cover one set-up and one round.
"""

import collections
import functools
import json
import os
import sys
import time

LAYERS = ("matfun", "controllability", "transition", "riccati", "steering",
          "sde_sim", "cli")

# (module, attribute, span name)
SPANS = (
    ("matfun", "validate_system", "matfun.validate"),
    ("controllability", "classify", "controllability.classify"),
    ("controllability", "construct_feasible_steering", "controllability.construct"),
    ("transition", "transition_blocks", "transition.direct"),
    ("transition", "TransitionPath.__init__", "transition.path_build"),
    ("riccati", "closed_form_on_path", "riccati.closed_form"),
    ("riccati", "solve_closed_form", "riccati.closed_form"),
    ("riccati", "existence_check", "riccati.existence"),
    ("riccati", "maximal_interval", "riccati.maxint"),
    ("riccati", "integrate_general", "riccati.integrate_general"),
    ("steering", "solve_boundary", "steering.solve"),
    ("steering", "jacobian_f", "steering.jacobian"),
    ("steering", "map_f", "steering.map_f"),
    ("steering", "propagate_covariance", "steering.propagate"),
    ("steering", "feedback_gain", "steering.gain_grid"),
    ("steering", "optimal_cost", "steering.cost"),
    ("sde_sim", "simulate_paths", "sde_sim.simulate"),
    ("cli", "run", "cli.run"),
)

# (module, attribute, count name): counted calls without a span
COUNTED = (
    ("matfun", "MatrixPoly.eval", "matfun.eval_calls"),
    ("transition", "TransitionPath.phi", "transition.phi_evals"),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {"setup": collections.Counter(), "timed": collections.Counter()}
        self.op = None  # operation id of the spans being recorded
        self._stack = []

    @property
    def phase(self):
        return "setup" if self.op is None or self.op == "setup" else "timed"

    def count(self, name, amount=1):
        self.counts[self.phase][name] += amount

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[5] = True
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if rec[5] and after is not None:
                    after(result)

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def durations(self, name):
        """Durations of the spans with the given name, in recording order."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def close_open(self, now):
        """End spans left open by an exception that unwound past them."""
        while self._stack:
            rec = self.spans[self._stack.pop()]
            if rec[2] is None:
                rec[2] = now

    # -- installation -------------------------------------------------------

    def install(self, only=None):
        """Wrap the layer entry points in every loaded covsteer module.

        With `only`, a set of span names, wrap just those entry points and
        record spans without counts.
        """
        import covsteer.cli  # noqa: F401  (loads every layer module)

        after = {
            "steering.jacobian": lambda ws: self.count(
                "steering.jacobian_nodes", len(ws.nodes)),
            "sde_sim.simulate": self._after_simulate,
        }
        for mod, attr, name in SPANS:
            if only is None:
                self._replace(mod, attr, lambda fn, name=name: self._span(
                    name, fn, after.get(name)))
            elif name in only:
                self._replace(mod, attr, lambda fn, name=name: self._span(name, fn))
        if only is not None:
            return
        for mod, attr, name in COUNTED:
            self._replace(mod, attr, lambda fn, name=name: self._counted(name, fn))
        self._replace("transition", "hamiltonian", self._counted_hamiltonian)
        for attr in ("write_json", "write_csv"):
            self._replace("cli", attr, self._counted_bytes)

    def _after_simulate(self, result):
        steps = len(result.times) - 1
        self.count("sde_sim.path_steps", result.num_paths * steps)
        self.count("sde_sim.accepted_jumps",
                   int(round(sum(result.jump_mean_counts) * result.num_paths)))

    def _counted_hamiltonian(self, fn):
        @functools.wraps(fn)
        def wrapper(sys_):
            m_of_t = fn(sys_)

            def counted(t):
                self.count("transition.rhs_evals")
                return m_of_t(t)

            return counted

        return wrapper

    def _counted_bytes(self, fn):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.count("cli.bytes_written", os.path.getsize(path))
            return result

        return wrapper

    def _replace(self, module, attr, make):
        mod = sys.modules[f"covsteer.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "covsteer" or name.startswith("covsteer.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is orig:
                    setattr(loaded, key, new)

    # -- reduction ----------------------------------------------------------

    def per_layer(self, rounds):
        """Per-layer metrics for one set-up plus one round (mean over rounds)."""
        spans = self.spans
        weight = [1.0 if s[4] in (None, "setup") else 1.0 / rounds for s in spans]
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_time[s[3]] += dur[i]

        total = collections.defaultdict(float)
        calls = collections.defaultdict(float)
        self_time = collections.defaultdict(float)
        for i, s in enumerate(spans):
            total[s[0]] += weight[i] * dur[i]
            calls[s[0]] += weight[i]
            self_time[s[0].split(".")[0]] += weight[i] * (dur[i] - child_time[i])

        counts = collections.Counter(self.counts["setup"])
        for key, value in self.counts["timed"].items():
            counts[key] += value / rounds

        # Newton iterations and the time after Newton, per completed solve.
        newton_iters = 0.0
        post_newton = 0.0
        solve_done = 0.0
        last_jac_end = {}
        for i, s in enumerate(spans):
            if s[0] == "steering.jacobian" and s[3] >= 0 and spans[s[3]][0] == "steering.solve":
                newton_iters += weight[i]
                last_jac_end[s[3]] = max(last_jac_end.get(s[3], 0.0), s[2])
        for i, s in enumerate(spans):
            if s[0] == "steering.solve" and s[5] and i in last_jac_end:
                post_newton += weight[i] * (s[2] - last_jac_end[i])
                solve_done += weight[i] * dur[i]

        sim_s = total["sde_sim.simulate"]
        metrics = {
            "sde_sim.simulate_s": sim_s,
            "sde_sim.path_steps_per_s": counts["sde_sim.path_steps"] / sim_s if sim_s else 0.0,
            "sde_sim.accepted_jumps": counts["sde_sim.accepted_jumps"],
            "steering.solve_s": total["steering.solve"],
            "steering.newton_iters": newton_iters,
            "steering.jacobian_calls": calls["steering.jacobian"],
            "steering.jacobian_s": total["steering.jacobian"],
            "steering.jacobian_nodes": counts["steering.jacobian_nodes"],
            "steering.map_f_calls": calls["steering.map_f"],
            "steering.map_f_s": total["steering.map_f"],
            "steering.propagate_s": total["steering.propagate"],
            "steering.gain_grid_s": total["steering.gain_grid"],
            "steering.cost_s": total["steering.cost"],
            "steering.post_newton_share": post_newton / solve_done if solve_done else 0.0,
            "transition.path_builds": calls["transition.path_build"],
            "transition.path_build_s": total["transition.path_build"],
            "transition.rhs_evals": counts["transition.rhs_evals"],
            "transition.phi_evals": counts["transition.phi_evals"],
            "transition.direct_integrations": calls["transition.direct"],
            "transition.direct_s": total["transition.direct"],
            "riccati.closed_form_calls": calls["riccati.closed_form"],
            "riccati.closed_form_s": total["riccati.closed_form"],
            "riccati.maxint_s": total["riccati.maxint"],
            "riccati.existence_s": total["riccati.existence"],
            "riccati.integrate_general_s": total["riccati.integrate_general"],
            "controllability.classify_calls": calls["controllability.classify"],
            "controllability.classify_s": total["controllability.classify"],
            "controllability.construct_s": total["controllability.construct"],
            "matfun.validate_s": total["matfun.validate"],
            "matfun.eval_calls": counts["matfun.eval_calls"],
            "cli.bytes_written": counts["cli.bytes_written"],
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_time[layer]
        return metrics

    def write(self, path):
        """Write spans and counts as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "span_fields": ["name", "start", "end", "parent", "op", "completed"],
            "spans": self.spans,
            "counts": {phase: dict(c) for phase, c in self.counts.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
