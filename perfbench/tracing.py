"""Per-layer tracing from outside the program.

The tracer replaces module attributes and class methods of heckeg7 with
timing wrappers, always on the name that the *calling* module uses: the
sweep's witness rebuilds go through ``sweep.build_general`` while decision
builds go through ``irreducibility.build_general``, so the two are told
apart by site although both belong to the layer ``representation.build``.

Every wrapped call takes part in one call stack, which gives exact self
time (a call's duration minus the time its wrapped children cover) for
every site.  Calls into coarse layers also record a span -- id, parent span
id, request id, layer, site, start, end -- kept in memory until the run
writes them out.  High-frequency leaves (exact arithmetic, ``is_finite``,
``validate``, eigen classification) are timed and counted but keep no
span, so memory stays bounded.

``Tracer.restore`` puts every replaced attribute back.
"""

from __future__ import annotations

import json as _json
import time

ROOT_LAYER = "cli.main"
EXACT_CLASSES = ("Poly", "ExtElem", "RatElem")
EXACT_OPS = ("mul", "add", "sub")


class _JsonProxy:
    """Stands in for the ``json`` module inside ``cli`` so that only the
    rendering calls made from ``cli`` are timed."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.request = None
        self.calls: dict[str, int] = {}  # site -> calls
        self.self_s: dict[str, float] = {}  # site -> self seconds
        self.layer_s: dict[str, float] = {}  # layer -> outermost inclusive seconds
        self.site_layer: dict[str, str] = {}
        self.spans: list[tuple] = []
        self._stack: list[list[float]] = []  # per open call: [child seconds]
        self._open_spans: list[int] = []
        self._depth: dict[str, int] = {}
        self._restore: list = []

    def wrap(self, fn, site: str, layer: str, span: bool):
        """A function that calls ``fn`` and records it under site/layer."""
        self.calls.setdefault(site, 0)
        self.self_s.setdefault(site, 0.0)
        self.layer_s.setdefault(layer, 0.0)
        self.site_layer[site] = layer
        calls, self_s, layer_s = self.calls, self.self_s, self.layer_s
        stack, open_spans, depth_of, spans = (
            self._stack, self._open_spans, self._depth, self.spans
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            depth = depth_of.get(layer, 0)
            depth_of[layer] = depth + 1
            frame = [0.0]
            stack.append(frame)
            if span:
                span_id = len(spans) + len(open_spans)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                took = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                calls[site] += 1
                self_s[site] += took - frame[0]
                depth_of[layer] = depth
                if not depth:
                    layer_s[layer] += took
                if span:
                    open_spans.pop()
                    spans.append(
                        (span_id, parent, tracer.request, layer, site, start, end)
                    )

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` (or ``owner[attr]``) to ``make(original)``."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
            self._restore.append(lambda: owner.__setitem__(attr, original))
        else:
            original = vars(owner)[attr]
            setattr(owner, attr, make(original))
            self._restore.append(lambda: setattr(owner, attr, original))

    def install(self, owner, attr: str, site: str, layer: str, span: bool) -> None:
        self._replace(owner, attr, lambda fn: self.wrap(fn, site, layer, span))

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    def aggregate(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "layer_s": dict(self.layer_s),
            "site_layer": dict(self.site_layer),
            "spans": list(self.spans),
        }


def install_all(tracer: Tracer, m: dict) -> None:
    """Wrap every traced name; ``m`` maps short module names to modules."""
    cli, sweep, irr = m["cli"], m["sweep"], m["irreducibility"]
    rep, mat, ident, exact = m["representation"], m["matrix2"], m["identities"], m["exact"]
    coarse = [
        (cli, "build_parser", "cli.build_parser"),
        (cli, "load_params", "cli.load_params"),
        (cli, "decide", "irreducibility.decide"),
        (cli, "build_general", "representation.build"),
        (cli, "build_equal_x", "representation.build"),
        (cli, "braid_residual", "representation.residuals"),
        (cli, "hecke_residuals", "representation.residuals"),
        (cli, "verdict_as_dict", "sweep.render"),
        (cli, "params_as_dict", "sweep.render"),
        (cli, "run_sweep", "sweep.run_sweep"),
        (cli, "run_all", "identities.run_all"),
        (cli, "report_as_dict", "identities.render"),
        (sweep, "decide", "irreducibility.decide"),
        (sweep, "build_general", "representation.build"),
        (sweep, "build_equal_x", "representation.build"),
        (sweep, "solve_case", "irreducibility.solve_case"),
        (sweep, "verdict_as_dict", "sweep.render"),
        (sweep, "params_as_dict", "sweep.render"),
        (sweep.SweepResult, "as_dict", "sweep.render"),
        (irr, "theorem_verdict", "irreducibility.theorem_verdict"),
        (irr, "oracle_verdict", "irreducibility.oracle_verdict"),
        (irr, "build_general", "representation.build"),
        (irr, "build_equal_x", "representation.build"),
        (ident, "substitute", "exact.substitute"),
    ]
    owner_names = {
        cli: "cli", sweep: "sweep", irr: "irreducibility", ident: "identities",
        sweep.SweepResult: "sweep.SweepResult",
    }
    for owner, attr, layer in coarse:
        tracer.install(owner, attr, f"{owner_names[owner]}.{attr}", layer, span=True)
    for name in list(ident.REGISTRY):
        tracer.install(ident.REGISTRY, name, f"identities.REGISTRY.{name}",
                       f"identities.{name}", span=True)
    leaves = [
        (irr, "common_eigenvector", "irreducibility.common_eigenvector",
         "matrix2.common_eigenvector"),
        (mat, "eigen_directions", "matrix2.eigen_directions", "matrix2.eigen_directions"),
        (rep, "is_finite", "representation.is_finite", "numerics.is_finite"),
        (rep.Params, "validate", "representation.Params.validate",
         "representation.validate"),
    ]
    for owner, attr, site, layer in leaves:
        tracer.install(owner, attr, site, layer, span=False)
    for cls_name in EXACT_CLASSES:
        cls = getattr(exact, cls_name)
        for op in EXACT_OPS:
            layer = f"exact.{cls_name}.{op}"
            tracer.install(cls, f"__{op}__", layer, layer, span=False)
    dumps = tracer.wrap(_json.dumps, "cli.json.dumps", "cli.render", span=True)
    tracer._replace(cli, "json", lambda real: _JsonProxy(real, dumps))


def merge(aggregates: list[dict]) -> dict:
    """Sum the aggregates of several traced processes."""
    out = {"calls": {}, "self_s": {}, "layer_s": {}, "site_layer": {}, "spans": []}
    for agg in aggregates:
        for key in ("calls", "self_s", "layer_s"):
            for name, value in agg[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["site_layer"].update(agg["site_layer"])
        # span ids restart at 0 in every process; keep them unique
        offset = len(out["spans"])
        out["spans"].extend(
            (sid + offset, None if parent is None else parent + offset, *rest)
            for sid, parent, *rest in agg["spans"]
        )
    return out


def module_self_table(agg: dict, requests: int) -> list[tuple[str, float, float]]:
    """(module, self seconds per request, share of traced request time),
    largest first.  The self time of the root ``cli.main`` span is CLI code
    that no wrapper covers (argument parsing, subcommand glue)."""
    per_module: dict[str, float] = {}
    for site, seconds in agg["self_s"].items():
        layer = agg["site_layer"][site]
        module = "cli, unwrapped" if layer == ROOT_LAYER else layer.split(".", 1)[0]
        per_module[module] = per_module.get(module, 0.0) + seconds
    total = sum(per_module.values()) or 1.0
    rows = [(m, s / requests, s / total) for m, s in per_module.items() if s]
    return sorted(rows, key=lambda row: -row[1])
