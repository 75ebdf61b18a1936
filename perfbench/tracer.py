"""Spans around the public functions of each neoms layer, recorded from outside.

The program is not edited.  `Tracer.install` replaces each function listed in
`WRAPPED` by a wrapper, under the name its caller binds (for example
`neoms.bifurcation.solve_photon_roots`, which `power_sweep` looks up in its own
module), and `Tracer.uninstall` puts the originals back.  A span is
(name, parent span, start, end, value, raised); the value is the work count
the call reports: integrator evaluations for `solve_ivp`, roots returned,
1 for an unstable classification, bytes of text a serializer returns.
Spans stay in memory until `write_csv`.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (module, attribute, span name).  Each span name starts with its layer.
# A function is listed under the module that defines it and under every
# module that binds it for a caller on a benchmarked path, so a caller that
# moves its import into a function still reaches a wrapper.  Classes are
# patched on the class, so every caller sees it.  A listed binding that the
# program no longer has is skipped with a warning.
WRAPPED = [
    ("neoms.cli", "main", "cli.main"),
    ("neoms.presets", "parse_config_text", "config.parse"),
    ("neoms.config", "parse_config_text", "config.parse"),
    ("neoms.cli", "load_config", "config.parse"),
    ("neoms.config:RunConfig", "snapshot", "config.snapshot"),
    ("neoms.model", "derive", "model.derive"),
    ("neoms.config", "derive", "model.derive"),
    ("neoms.bifurcation", "derive", "model.derive"),
    ("neoms.steady_state", "susceptibilities", "steady_state.coeffs"),
    ("neoms.steady_state", "cubic_coefficients", "steady_state.coeffs"),
    ("neoms.steady_state", "solve_photon_roots", "steady_state.solve_roots"),
    ("neoms.steady_state", "steady_fields", "steady_state.fields"),
    ("neoms.stability", "classify", "stability.classify"),
    ("neoms.cli", "susceptibilities", "steady_state.coeffs"),
    ("neoms.bifurcation", "susceptibilities", "steady_state.coeffs"),
    ("neoms.bifurcation", "cubic_coefficients", "steady_state.coeffs"),
    ("neoms.dynamics", "susceptibilities", "steady_state.coeffs"),
    ("neoms.dynamics", "cubic_coefficients", "steady_state.coeffs"),
    ("neoms.bifurcation", "solve_photon_roots", "steady_state.solve_roots"),
    ("neoms.dynamics", "solve_photon_roots", "steady_state.solve_roots"),
    ("neoms.bifurcation", "steady_fields", "steady_state.fields"),
    ("neoms.bifurcation", "classify", "stability.classify"),
    ("neoms.cli", "power_sweep", "bifurcation.sweep"),
    ("neoms.cli", "family_sweep", "bifurcation.sweep"),
    ("neoms.bifurcation", "power_sweep", "bifurcation.sweep"),
    ("neoms.bifurcation", "family_sweep", "bifurcation.sweep"),
    ("neoms.cli", "auto_power_grid", "bifurcation.sweep"),
    ("neoms.bifurcation", "auto_power_grid", "bifurcation.sweep"),
    ("neoms.cli", "bistability_window", "bifurcation.window"),
    ("neoms.bifurcation", "bistability_window", "bifurcation.window"),
    ("neoms.cli", "hysteresis_from_curve", "bifurcation.hysteresis"),
    ("neoms.bifurcation", "hysteresis_from_curve", "bifurcation.hysteresis"),
    ("neoms.cli", "relax_to_steady", "dynamics.relax"),
    ("neoms.dynamics", "relax_to_steady", "dynamics.relax"),
    ("neoms.cli", "hysteresis_loop", "dynamics.loop"),
    ("neoms.dynamics", "hysteresis_loop", "dynamics.loop"),
    ("neoms.dynamics", "solve_ivp", "dynamics.ivp"),
] + [("neoms.output", fn, "output.serialize") for fn in (
    "curve_to_csv", "curve_to_dict", "family_to_csv", "family_to_dict",
    "window_to_dict", "window_to_csv", "window_json", "threshold_to_dict",
    "threshold_to_csv", "trace_to_csv", "trace_to_dict", "fields_to_dict",
    "fields_to_csv", "dumps_json")]


def _value(name: str, result) -> float:
    """Work count carried by a call's result."""
    if name == "dynamics.ivp":
        return float(result.nfev)
    if name == "steady_state.solve_roots":
        return float(len(result.roots))
    if name == "stability.classify":
        return 1.0 if result.classification.value == "unstable" else 0.0
    if name == "output.serialize" and isinstance(result, str):
        return float(len(result.encode("utf-8")))
    return 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._skipped: set[str] = set()

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, fn, name: str):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        nid = self._name_id[name]
        stack, clock = self._stack, time.perf_counter
        name_idx, parent, start, end = (self.name_idx, self.parent,
                                        self.start, self.end)
        value, raised = self.value, self.raised

        def traced(*args, **kwargs):
            sid = len(start)
            name_idx.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            value.append(0.0)
            raised.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[sid] = clock()
                raised[sid] = 1
                raise
            finally:
                stack.pop()
            end[sid] = clock()
            value[sid] = _value(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _skip(self, what: str) -> None:
        if what not in self._skipped:
            self._skipped.add(what)
            print(f"warning: tracer skips {what}; its calls are untraced "
                  f"unless another listed binding reaches them",
                  file=sys.stderr)

    def install(self) -> None:
        # Every module is imported before any is patched, so no module
        # binds a wrapper at import time and no call is counted twice.
        owners = []
        for target, attr, name in WRAPPED:
            mod, _, cls = target.partition(":")
            owner = importlib.import_module(mod)
            owners.append(getattr(owner, cls) if cls else owner)
        for owner, (target, attr, name) in zip(owners, WRAPPED):
            fn = owner.__dict__.get(attr)
            if fn is None:
                self._skip(f"{target}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_s,end_s,value,raised\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_idx[i]]},"
                         f"{self.parent[i]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.value[i]!r},"
                         f"{self.raised[i]}\n")


def layer_metrics(tr: Tracer, lo: int, hi: int, invocations: int) -> dict:
    """Per-layer metrics over spans [lo, hi), which cover one round.

    Self time is a span's duration minus the time its direct children cover.
    `invocations` is the number of `cli.main` calls expected in the round,
    the base of `cli.main_s`.
    """
    import numpy as np

    n = hi - lo
    # slicing copies, so the arrays can still grow after this
    idx = np.frombuffer(tr.name_idx[lo:hi], dtype=np.int32)
    par = np.frombuffer(tr.parent[lo:hi], dtype=np.int32) - lo
    dur = (np.frombuffer(tr.end[lo:hi], dtype=np.float64)
           - np.frombuffer(tr.start[lo:hi], dtype=np.float64))
    val = np.frombuffer(tr.value[lo:hi], dtype=np.float64)
    raised = np.frombuffer(tr.raised[lo:hi], dtype=np.int8).astype(bool)
    has_parent = par >= 0
    child_time = np.bincount(par[has_parent], weights=dur[has_parent],
                             minlength=n)
    self_time = dur - child_time

    def mask(name):
        nid = tr._name_id.get(name)
        return idx == nid if nid is not None else np.zeros(n, dtype=bool)

    def total(name, of=dur):
        return float(of[mask(name)].sum())

    def count(name):
        return int(mask(name).sum())

    relax, ivp = mask("dynamics.relax"), mask("dynamics.ivp")
    ivp_parent = par[ivp]
    # integrator segments belong to the relaxation that issued them
    in_relax = relax[np.clip(ivp_parent, 0, None)] & (ivp_parent >= 0)
    owner_raised = raised[np.clip(ivp_parent, 0, None)]
    ivp_nfev = val[ivp]
    settled_relax = relax & ~raised
    settled = int(settled_relax.sum())
    ok_segments = in_relax & ~owner_raised
    nfev_total = float(ivp_nfev.sum())
    ivp_s = total("dynamics.ivp")
    classify_calls = count("stability.classify")

    def per(a, b):
        return a / b if b else 0.0

    return {
        "cli.main_s": per(total("cli.main"), invocations),
        "config.parse_s": total("config.parse"),
        "config.parse_calls": count("config.parse"),
        "config.snapshot_s": total("config.snapshot"),
        "model.derive_s": total("model.derive"),
        "model.derive_calls": count("model.derive"),
        "steady_state.coeffs_s": total("steady_state.coeffs"),
        "steady_state.solve_roots_s": total("steady_state.solve_roots"),
        "steady_state.solve_roots_calls": count("steady_state.solve_roots"),
        "steady_state.roots_returned":
            int(val[mask("steady_state.solve_roots")].sum()),
        "steady_state.fields_s": total("steady_state.fields"),
        "steady_state.fields_calls": count("steady_state.fields"),
        "stability.classify_s": total("stability.classify"),
        "stability.classify_calls": classify_calls,
        "stability.unstable_share":
            per(float(val[mask("stability.classify")].sum()), classify_calls),
        "bifurcation.self_s": total("bifurcation.sweep", self_time),
        "bifurcation.window_s": total("bifurcation.window"),
        "bifurcation.hysteresis_s": total("bifurcation.hysteresis"),
        # serializers call one another, so their self times add up to the
        # time spent in the outermost ones
        "output.serialize_s": total("output.serialize", self_time),
        "output.bytes": int(val[mask("output.serialize")].sum()),
        "dynamics.relax_self_s": total("dynamics.relax", self_time),
        "dynamics.ivp_s": ivp_s,
        "dynamics.ivp_calls": int(ivp.sum()),
        "dynamics.nfev": int(nfev_total),
        "dynamics.us_per_rhs": per(ivp_s * 1e6, nfev_total),
        "dynamics.settled": settled,
        "dynamics.nfev_per_settled":
            per(float(ivp_nfev[ok_segments].sum()), settled),
        "dynamics.ivp_calls_per_settled":
            per(float(ok_segments.sum()), settled),
        "dynamics.fail_nfev":
            int(ivp_nfev[in_relax & owner_raised].sum()),
    }
