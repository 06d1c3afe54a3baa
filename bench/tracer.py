"""Span recorder for the traced benchmark run.

For the length of one study, the traced run swaps the module attributes
`mildspde.harness` calls into (`substream`, `sample_increments_batch`,
`alg1_iterated_batch`, `noise.chain_arrays`, `NoisePacket`, `integrate`,
`CostLedger`, `estimate_ms_error`) and the problem's drift and diffusion for
timing wrappers defined here. Nothing under src/ changes.

Coarse calls, a few per path, each get a span: name, start, end, parent span,
and the id of the path they serve, taken from the (group, path) key harness
passes to `substream`. Fine-grained calls (drift, diffusion, packet
construction: up to ~10^5 per path) are too many to keep one span each; they
are summed as [count, seconds] into the innermost open span, which is all
that self time needs. Spans stay in memory until the study ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

import mildspde.harness as harness
import mildspde.noise as noise
from mildspde.cost import CostLedger, ledger_expected

_CHARGES = ("charge_f", "charge_b", "charge_bprime", "charge_normals", "charge_unit")
clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "path", "attrs", "inner")

    def __init__(self, name, parent, path, attrs):
        self.name, self.parent, self.path, self.attrs = name, parent, path, attrs
        self.inner: Dict[str, List[float]] = {}
        self.start = clock()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


def identity_residual(db, iq, eta, h) -> float:
    """Largest normalized violation of I + I^T = dW dW^T - diag(eta) h over a
    batch of packets; the per-packet scale is that of
    `NoisePacket.identity_residual`."""
    eta = np.asarray(eta, dtype=float)
    dw = np.sqrt(eta) * db
    target = dw[:, :, None] * dw[:, None, :] - np.diag(eta * h)
    resid = np.abs(iq + np.swapaxes(iq, 1, 2) - target).max(axis=(1, 2))
    scale = h * float(eta.max()) + np.abs(dw).max(axis=1) ** 2 + 1e-300
    return float((resid / scale).max())


def draw_ns(seed: int, n: int = 1 << 20, reps: int = 5) -> float:
    """Nanoseconds per standard normal from a `substream` generator (median)."""
    rng = noise.substream(seed, 99)
    times = []
    for _ in range(reps):
        t = clock()
        rng.standard_normal(n)
        times.append(clock() - t)
    return statistics.median(times) / n * 1e9


class _TimedDrift:
    def __init__(self, tracer: "Tracer", drift):
        self._tracer, self._drift = tracer, drift

    def __call__(self, y):
        return self._tracer.inner("problems.drift", self._drift, y)


class _TimedDiffusion:
    def __init__(self, tracer: "Tracer", diffusion):
        self._tracer, self._diffusion = tracer, diffusion
        self.has_derivative = diffusion.has_derivative

    def column(self, *args):
        return self._tracer.inner("problems.diffusion", self._diffusion.column, *args)

    def matrix(self, *args):
        return self._tracer.inner("problems.diffusion", self._diffusion.matrix, *args)

    def stage_columns(self, *args):
        return self._tracer.inner("problems.diffusion", self._diffusion.stage_columns, *args)

    def deriv_column(self, *args):
        return self._tracer.inner("problems.deriv", self._diffusion.deriv_column, *args)


class Tracer:
    """Records the spans of one traced `run_study` call."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []           # indices of the open spans
        self._orig: Dict[str, object] = {}
        self.path: Optional[tuple] = None
        self.groups = set()
        self.ledger_charges = 0
        self.resid_max = 0.0
        self.horizon = 1.0

    # --- recording ---------------------------------------------------------

    def open(self, name: str, **attrs) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.path, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        span = self.open(name, **(attrs or {}))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def inner(self, name: str, fn, *args, **kwargs):
        t = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            acc = self.spans[self._stack[-1]].inner.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += clock() - t

    def _check(self, db, iq, eta, h) -> None:
        span = self.open("trace.check")
        self.resid_max = max(self.resid_max, identity_residual(db, iq, eta, h))
        self.close(span)

    # --- wrappers ----------------------------------------------------------

    def _substream(self, seed, *key):
        rng = self._orig["substream"](seed, *key)
        if len(key) == 3:                      # harness keys: (purpose, group, path)
            self.path = (int(key[1]), int(key[2]))
            self.groups.add(int(key[1]))
        return rng

    def _increments(self, rng, s, k, h, ledger=None):
        return self.call("noise.increments", self._orig["sample_increments_batch"],
                         rng, s, k, h, ledger, attrs={"normals": s * k})

    def _series(self, rng, db, h, d, eta, ledger=None, **kwargs):
        s, k = np.shape(db)
        iq = self.call("noise.series", self._orig["alg1_iterated_batch"],
                       rng, db, h, d, eta, ledger, attrs={"normals": 2 * s * d * k},
                       **kwargs)
        self._check(np.asarray(db, dtype=float), iq, eta, h)
        return iq

    def _chain(self, db, iq, eta):
        g = db.shape[0]
        out = self.call("noise.chain", self._orig["chain_arrays"], db, iq, eta,
                        attrs={"packets": g})
        self._check(out[0], out[1], eta, self.horizon / g)
        return out

    def _packet(self, **kwargs):
        return self.inner("noise.packet", self._orig["NoisePacket"], **kwargs)

    def _integrate(self, config, *args, **kwargs):
        role = "ref" if kwargs.get("ledger") is None else "row"
        return self.call("schemes.integrate", self._orig["integrate"], config, *args,
                         attrs={"kind": config.kind, "steps": config.m, "role": role},
                         **kwargs)

    def _estimate(self, sq):
        self.path = None                       # aggregation serves no single path
        return self.call("harness.aggregate", self._orig["estimate_ms_error"], sq)

    def _ledger_class(self):
        tracer = self

        def counted(method):
            def charge(ledger, n):
                tracer.ledger_charges += 1
                method(ledger, n)
            return charge

        return type("CountingLedger", (CostLedger,),
                    {name: counted(getattr(CostLedger, name)) for name in _CHARGES})

    @contextmanager
    def installed(self):
        patches = [
            (harness, "substream", self._substream),
            (harness, "sample_increments_batch", self._increments),
            (harness, "alg1_iterated_batch", self._series),
            (noise, "chain_arrays", self._chain),
            (harness, "NoisePacket", self._packet),
            (harness, "integrate", self._integrate),
            (harness, "CostLedger", self._ledger_class()),
            (harness, "estimate_ms_error", self._estimate),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        self._orig = {name: fn for _, name, fn in saved}
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        try:
            yield
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def run_study(self, config):
        """Run one single-process study under the wrappers; returns the
        report and its wall seconds."""
        self.horizon = config.problem.horizon
        problem = replace(config.problem,
                          drift=_TimedDrift(self, config.problem.drift),
                          diffusion=_TimedDiffusion(self, config.problem.diffusion))
        with self.installed():
            span = self.open("harness.run_study")
            try:
                report = harness.run_study(replace(config, problem=problem, workers=1))
            finally:
                self.close(span)
        return report, span.seconds

    # --- analysis ----------------------------------------------------------

    def _children(self) -> Dict[Optional[int], List[Span]]:
        kids = defaultdict(list)
        for span in self.spans:
            kids[span.parent].append(span)
        return kids

    def self_seconds(self) -> Dict[str, float]:
        """Self time per module: each span's duration minus its child spans
        and the fine-grained calls summed into it, attributed by name prefix.
        `trace.check` is the tracer's own identity check."""
        kids = self._children()
        out: Dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            own = span.seconds - sum(c.seconds for c in kids[i])
            for name, (_, secs) in span.inner.items():
                own -= secs
                out[name.split(".")[0]] += secs
            out[span.name.split(".")[0]] += own
        return dict(out)

    def largest_span(self) -> tuple:
        """(label, seconds) of the span kind with the most inclusive time."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.name in ("harness.run_study", "trace.check"):
                continue
            label = span.name
            if span.name == "schemes.integrate":
                label = f"schemes.{span.attrs['role']}.{span.attrs['kind']}"
            totals[label] += span.seconds
        return max(totals.items(), key=lambda kv: kv[1])

    def step_us(self) -> Dict[str, float]:
        """Microseconds per `integrate` step for each scheme kind the study
        ran (reference and rows together)."""
        seconds, steps = defaultdict(float), defaultdict(int)
        for span in self.spans:
            if span.name == "schemes.integrate":
                seconds[span.attrs["kind"]] += span.seconds
                steps[span.attrs["kind"]] += span.attrs["steps"]
        return {kind: seconds[kind] / steps[kind] * 1e6 for kind in sorted(steps)}

    def layer_metrics(self, config, draw_ns_value: float, plan_s: float) -> Dict[str, float]:
        """Per-layer metrics of the traced study (names as in BENCHMARK.json,
        except trace.overhead, which needs the untraced run)."""
        named = defaultdict(list)
        for span in self.spans:
            named[span.name].append(span)

        def total(name):
            return sum(s.seconds for s in named[name])

        def inner(name, field):
            return sum(s.inner.get(name, (0, 0.0))[field] for s in self.spans)

        series_normals = sum(s.attrs["normals"] for s in named["noise.series"])
        drawn = series_normals + sum(s.attrs["normals"] for s in named["noise.increments"])
        billed = config.paths * sum(
            r.m * ledger_expected(r.scheme, r.n, r.k, r.d).normals for r in config.rows)
        integ = named["schemes.integrate"]
        m = {
            "noise.increments_s": total("noise.increments"),
            "noise.series_s": total("noise.series"),
            "noise.series_calls": len(named["noise.series"]),
            "noise.chain_s": total("noise.chain"),
            "noise.normals_drawn": drawn,
            "noise.draw_ns": draw_ns_value,
            "noise.contract_s": total("noise.series") - series_normals * draw_ns_value * 1e-9,
            "noise.packets_built": inner("noise.packet", 0),
            "noise.identity_resid_max": self.resid_max,
            "noise.drawn_per_billed": drawn / billed,
        }
        for role in ("ref", "row"):
            spans = [s for s in integ if s.attrs["role"] == role]
            m[f"schemes.{role}_s"] = sum(s.seconds for s in spans)
            m[f"schemes.{role}_steps"] = sum(s.attrs["steps"] for s in spans)
        m["schemes.step_us.DFM"] = self.step_us()["DFM"]     # every workload runs DFM
        m.update({
            "problems.drift_s": inner("problems.drift", 1),
            "problems.drift_calls": inner("problems.drift", 0),
            "problems.diffusion_s": inner("problems.diffusion", 1) + inner("problems.deriv", 1),
            "problems.diffusion_calls": inner("problems.diffusion", 0) + inner("problems.deriv", 0),
            "problems.deriv_calls": inner("problems.deriv", 0),
            "cost.normals_billed": billed,
            "cost.ledger_charges": self.ledger_charges,
            "eoc.plan_s": plan_s,
            "harness.groups": len(self.groups),
            "harness.self_s": self.self_seconds().get("harness", 0.0) - total("harness.aggregate"),
            "harness.aggregate_s": total("harness.aggregate"),
        })
        return m

    def span_records(self) -> list:
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "path": s.path, "attrs": s.attrs,
                 "inner": s.inner} for s in self.spans]
