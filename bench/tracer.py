"""Traced runs of the benchmark: spans and counts around each layer.

A :class:`Tracer` wraps public functions of the ``reinforce_sim`` modules
from outside the program while it is active, and restores them on exit.
Timed calls record a span (name, start, end, parent) in memory; calls
that take under a microsecond (``RngStream.uniform``,
``BDEnvironment.p``) and the per-event step kernels are only counted,
because a timer pair on them would mostly measure the tracer.  A target
that no longer exists is reported as absent, and its metrics read 0.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

COUNT, TIME = "count", "time"

# metric prefix, module, attribute (Class.method for a method), kind
TARGETS = (
    ("distributions.streams", "reinforce_sim.distributions", "RngStream.__init__", COUNT),
    ("distributions.uniform", "reinforce_sim.distributions", "RngStream.uniform", COUNT),
    ("distributions.sample_beta", "reinforce_sim.distributions", "sample_beta", COUNT),
    ("distributions.sample_dirichlet", "reinforce_sim.distributions", "sample_dirichlet", COUNT),
    ("direct.run_direct", "reinforce_sim.direct", "run_direct", TIME),
    ("direct.direct_step", "reinforce_sim.direct", "direct_step", COUNT),
    ("direct.meeting_statistics", "reinforce_sim.direct", "meeting_statistics", TIME),
    ("urn.magic_draw", "reinforce_sim.urn", "magic_draw", TIME),
    ("urn_process.enumerate_exact", "reinforce_sim.urn_process", "enumerate_exact", TIME),
    ("urn_process.tv_distance", "reinforce_sim.urn_process", "tv_distance", TIME),
    ("urn_process.initial_masses", "reinforce_sim.urn_process", "initial_masses", COUNT),
    ("coupling.run_coupling", "reinforce_sim.coupling", "run_coupling", TIME),
    ("coupling.coupled_step", "reinforce_sim.coupling", "coupled_step", COUNT),
    ("coupling.sample_site_environment", "reinforce_sim.coupling",
     "sample_site_environment", TIME),
    ("rwre.difference_recurrence", "reinforce_sim.rwre", "difference_recurrence", TIME),
    ("rwre.BDEnvironment.p", "reinforce_sim.rwre", "BDEnvironment.p", COUNT),
)
CLI_COMMANDS = ("couple", "simulate", "urn-verify", "rwre")


def _enumerate_model(args, kwargs) -> str:
    return kwargs["model"] if "model" in kwargs else args[0]


def _observe_enumerate(counts, args, kwargs, result) -> None:
    counts["urn_process.enumerate_exact.leaves"] += len(result.probs)


def _observe_coupling(counts, args, kwargs, result) -> None:
    counts["coupling.events"] += result.events_executed
    if result.tau1_event is None and not result.violations:
        counts["coupling.budget_cut_runs"] += 1
        counts["coupling.budget_cut_events"] += result.events_executed


def _observe_recurrence(counts, args, kwargs, result) -> None:
    counts["rwre.trials"] += result.trials


# span-name suffix from the arguments, and an observer of the result
HOOKS = {
    "urn_process.enumerate_exact": (_enumerate_model, _observe_enumerate),
    "coupling.run_coupling": (None, _observe_coupling),
    "rwre.difference_recurrence": (None, _observe_recurrence),
}


def _resolve(module: str, attr: str):
    """(owner, leaf name) of ``module:attr``, or None if it no longer exists."""
    try:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        getattr(owner, leaf)
    except (ImportError, AttributeError):
        return None
    return owner, leaf


class Tracer:
    """One traced round; use as a context manager around the traced calls."""

    def __init__(self, cli_group):
        self.cli = cli_group
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # spans in four parallel arrays, so a round of 10^5 spans stays small
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by child spans]
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for name, module, attr, kind in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}:{attr}")
                continue
            owner, leaf = found
            original = getattr(owner, leaf)
            if kind == COUNT:
                wrapper = self._counted(original, name)
            else:
                wrapper = self._timed(original, name, *HOOKS.get(name, (None, None)))
            self._replace(owner, leaf, original, wrapper)
        for cmd in CLI_COMMANDS:
            command = self.cli.commands.get(cmd)
            if command is None:
                self.absent.append(f"reinforce_sim.cli:{cmd}")
                continue
            self._set(command, "callback", self._timed(command.callback, f"cli.{cmd}"))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    def _set(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _replace(self, owner, leaf: str, original, wrapper) -> None:
        """Patch a method on its class, or a function under every name a
        package module imported it as (``from .direct import run_direct``)."""
        if isinstance(owner, type):
            self._set(owner, leaf, wrapper)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "reinforce_sim":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _counted(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _timed(self, fn, name: str, label=None, observe=None):
        counts, self_s, incl_s, stack = self.counts, self.self_s, self.incl_s, self._stack
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        name_id = self._name_id

        def timed(*args, **kwargs):
            key = name if label is None else f"{name}.{label(args, kwargs)}"
            index = len(starts)
            names.append(name_id(key))
            parents.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[index] = t1
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                counts[key] += 1
                self_s[key] += duration - frame[1]
                incl_s[key] += duration
            if observe is not None:
                try:
                    observe(counts, args, kwargs, result)
                except (AttributeError, LookupError, TypeError):
                    if f"{name} result" not in self.absent:
                        self.absent.append(f"{name} result")
            return result
        return timed

    def _name_id(self, key: str) -> int:
        index = self._name_ids.get(key)
        if index is None:
            index = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return index

    def write_spans(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names, dtype=str), name=np.asarray(self.span_name),
            parent=np.asarray(self.span_parent), start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
        )


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if ".ns_per_" in metric:
        return "ns"
    if ".uniforms_per_" in metric:
        return "uniforms/" + metric.rpartition("_")[2]
    if ".budget_cut_" in metric:
        return "fraction"
    return "count"


def layer_metrics(rounds: list[Tracer], overhead_s: float) -> dict[str, dict]:
    """Per-layer metrics of one traced round: counts from the first round,
    times as the mean over the rounds.  Times include the tracer's own cost
    inside them; ``trace.overhead_s`` is that cost for the whole round."""
    c = rounds[0].counts

    def self_s(key: str) -> float:
        return sum(t.self_s[key] for t in rounds) / len(rounds)

    def ns_per(key: str, per: int) -> float:
        return 1e9 * sum(t.incl_s[key] for t in rounds) / len(rounds) / per if per else 0.0

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    events = c["direct.direct_step"] + c["coupling.coupled_step"] + c["rwre.BDEnvironment.p"]
    values = {f"cli.{cmd}.self_s": self_s(f"cli.{cmd}") for cmd in CLI_COMMANDS}
    values.update({
        "distributions.streams": c["distributions.streams"],
        "distributions.uniform.calls": c["distributions.uniform"],
        "distributions.uniforms_per_stream":
            ratio(c["distributions.uniform"], c["distributions.streams"]),
        "distributions.uniforms_per_event": ratio(c["distributions.uniform"], events),
        "distributions.sample_beta.calls": c["distributions.sample_beta"],
        "distributions.sample_dirichlet.calls": c["distributions.sample_dirichlet"],
        "direct.run_direct.calls": c["direct.run_direct"],
        "direct.run_direct.self_s": self_s("direct.run_direct"),
        "direct.direct_step.calls": c["direct.direct_step"],
        "direct.ns_per_event": ns_per("direct.run_direct", c["direct.direct_step"]),
        "direct.meeting_statistics.self_s": self_s("direct.meeting_statistics"),
        "urn.magic_draw.calls": c["urn.magic_draw"],
        "urn.magic_draw.self_s": self_s("urn.magic_draw"),
        "urn.ns_per_draw": ns_per("urn.magic_draw", c["urn.magic_draw"]),
        "urn_process.enumerate_exact.direct.self_s":
            self_s("urn_process.enumerate_exact.direct"),
        "urn_process.enumerate_exact.urn.self_s": self_s("urn_process.enumerate_exact.urn"),
        "urn_process.enumerate_exact.leaves": c["urn_process.enumerate_exact.leaves"],
        "urn_process.tv_distance.self_s": self_s("urn_process.tv_distance"),
        "urn_process.initial_masses.calls": c["urn_process.initial_masses"],
        "coupling.run_coupling.calls": c["coupling.run_coupling"],
        "coupling.run_coupling.self_s": self_s("coupling.run_coupling"),
        "coupling.coupled_step.calls": c["coupling.coupled_step"],
        "coupling.ns_per_event": ns_per("coupling.run_coupling", c["coupling.coupled_step"]),
        "coupling.sample_site_environment.calls": c["coupling.sample_site_environment"],
        "coupling.sample_site_environment.self_s": self_s("coupling.sample_site_environment"),
        "coupling.budget_cut_fraction":
            ratio(c["coupling.budget_cut_runs"], c["coupling.run_coupling"]),
        "coupling.budget_cut_event_share":
            ratio(c["coupling.budget_cut_events"], c["coupling.events"]),
        "rwre.difference_recurrence.self_s": self_s("rwre.difference_recurrence"),
        "rwre.trials": c["rwre.trials"],
        "rwre.BDEnvironment.p.calls": c["rwre.BDEnvironment.p"],
        "rwre.ns_per_step": ns_per("rwre.difference_recurrence", c["rwre.BDEnvironment.p"]),
        "trace.overhead_s": overhead_s,
    })
    return {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
