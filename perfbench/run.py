"""Benchmark of the heckeg7 command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded client drives ``heckeg7.cli.main(argv)`` in a closed
loop: the next request is sent only when the previous one has returned.
Requests are served by one worker process (perfbench/worker.py) that
imports heckeg7 from ``src/`` of this checkout -- a warm process for the
sweeps and the check corpus, a fresh interpreter per request for the
identity suite.  The client checks each response before it sends the
next request, so nothing else of the benchmark runs while a request is
served.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
request times in refs (the time of a fixed routine measured around each
request, see worker.py); with ``--trace 1`` it holds the per-layer metrics
of a traced pass over a fixed request list, which is first served untraced
to measure the tracing overhead.  The line before it holds run details
(request counts, failed ratio, stdout digests, corpus mix, raw wall-clock
figures).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
PYTHON = [sys.executable, "-E", "-s"]

MIN_REQUESTS = 100  # leaves at least 10 requests above the p90
WARMUP_SECONDS = 1.0
SETUP_PROBES = 16
IMPORTTIME_PROBES = 5
TRACE_REQUESTS = {
    "sweep-positive-real": 20,
    "sweep-complex-wide": 20,
    "identities": 6,
    "check-corpus": 500,
}
COLD_REQUESTS = 3
FINGERPRINT_REQUESTS = 20
WORKER_TIMEOUT = 120


# ---------------------------------------------------------------------------
# serving processes


def _read_reply(stream) -> tuple[dict, bytes]:
    line = stream.readline()
    if not line:
        raise RuntimeError("worker exited without replying")
    header = json.loads(line)
    return header, stream.read(header["n"])


class WarmServer:
    """One worker process that serves every request."""

    def __init__(self, trace: bool):
        self.proc = subprocess.Popen(
            PYTHON + [WORKER, "serve"] + (["--trace"] if trace else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        self.sent = 0

    def _write(self, doc: dict) -> None:
        self.proc.stdin.write(json.dumps(doc).encode() + b"\n")
        self.proc.stdin.flush()

    def send(self, argv: list[str]) -> None:
        self._write({"id": self.sent, "argv": argv})
        self.sent += 1

    def receive(self) -> tuple[dict, bytes]:
        return _read_reply(self.proc.stdout)

    def finish(self) -> dict:
        self._write({"finish": True})
        header, _ = _read_reply(self.proc.stdout)
        self.proc.wait(timeout=WORKER_TIMEOUT)
        return header

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class FreshServer:
    """A fresh interpreter for every request."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.proc = None
        self.rss_kb = 0
        self.traces: list[dict] = []

    def send(self, argv: list[str]) -> None:
        self.proc = subprocess.Popen(
            PYTHON + [WORKER, "once"] + (["--trace"] if self.trace else []) + argv,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT,
        )

    def receive(self) -> tuple[dict, bytes]:
        header, body = _read_reply(self.proc.stdout)
        self.proc.stdout.close()
        self.proc.wait(timeout=WORKER_TIMEOUT)
        self.rss_kb = max(self.rss_kb, header["rss_kb"])
        if self.trace:
            self.traces.append(header["trace"])
        return header, body

    def finish(self) -> dict:
        out = {"rss_kb": self.rss_kb}
        if self.trace:
            out["trace"] = tracing.merge(self.traces)
        return out

    def close(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()


def open_server(workload: str, trace: bool):
    return FreshServer(trace) if workload == "identities" else WarmServer(trace)


# ---------------------------------------------------------------------------
# set-up


def setup_probes(count: int, importtime: bool = False) -> list[float]:
    """Seconds for a fresh interpreter to import heckeg7.cli and build its
    parser, or with ``importtime`` the seconds that -X importtime gives
    heckeg7.exact plus heckeg7.identities."""
    flags = ["-X", "importtime"] if importtime else []
    values = []
    for _ in range(count):
        proc = subprocess.run(PYTHON + flags + [WORKER, "probe"], cwd=ROOT,
                              capture_output=True, timeout=WORKER_TIMEOUT, check=True)
        if not importtime:
            values.append(json.loads(proc.stdout.splitlines()[0])["s"])
            continue
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            parts = [part.strip() for part in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) * 1e-6
        values.append(cumulative["heckeg7.exact"] + cumulative["heckeg7.identities"])
    return values


def make_requests(workload: str, seed: int, scratch: str):
    """(request iterator, run details describing the inputs)."""
    if workload == "check-corpus":
        requests, mix = wl.write_corpus(scratch, seed)
        return wl.corpus_requests(requests), {"corpus_files": len(requests),
                                              "corpus_mix": mix}
    if workload == "identities":
        return itertools.repeat(wl.Request(["identities"])), {}
    return wl.sweep_requests(workload, seed), {}


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Checked responses of one phase."""

    def __init__(self, workload: str):
        self.workload = workload
        self.latencies: list[float] = []  # seconds inside main()
        self.service: list[float] = []  # seconds the worker spent on the request
        self.refs: list[float] = []  # reference time around each request
        self.checked: list[wl.Checked] = []
        self.output_bytes = 0

    def add(self, req: wl.Request, header: dict, body: bytes) -> None:
        self.latencies.append(header["s"])
        self.service.append(header["service_s"])
        self.refs.append(header["ref"])
        self.output_bytes += len(body)
        self.checked.append(wl.check(self.workload, req, header["code"], body))

    def total(self, field: str) -> int:
        return sum(getattr(c, field) for c in self.checked)

    def problems(self) -> list[str]:
        return [p for c in self.checked for p in c.problems]

    def digests(self) -> list[str]:
        return [c.sha256 for c in self.checked]

    def in_refs(self) -> list[float]:
        """Each request's latency in units of the reference time."""
        return [s / ref for s, ref in zip(self.latencies, self.refs)]

    def items_per_ref(self) -> float:
        """Items per request over the median service time in refs.  On warm
        workloads service time is the time inside main(), so this is items
        per request over latency_p50_ref; in a fresh interpreter it also
        counts the import of heckeg7.cli."""
        return self.total("items") / len(self.checked) / statistics.median(
            s / ref for s, ref in zip(self.service, self.refs))


def closed_loop(server, requests, tally: Tally, until, between=None) -> float:
    """Serve and check requests until ``until(seconds elapsed, requests
    done)``.  Nothing else of the benchmark runs while a request is served:
    ``between(seconds elapsed)``, if given, runs between requests.  Returns
    the elapsed wall seconds."""
    start = time.perf_counter()
    done = 0
    while not until(time.perf_counter() - start, done):
        if between is not None:
            between(time.perf_counter() - start)
        req = next(requests)
        server.send(req.argv)
        tally.add(req, *server.receive())
        done += 1
    return time.perf_counter() - start


def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and how many values lie above it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: int, scratch: str) -> tuple[dict, dict]:
    requests, details = make_requests(workload, seed, scratch)
    setup = setup_probes(1)
    warm = Tally(workload)
    timed = Tally(workload)
    server = open_server(workload, trace=False)
    try:
        if workload != "identities":
            closed_loop(server, requests, warm,
                        lambda t, n: t >= WARMUP_SECONDS and n >= 2)

        def probe(t: float) -> None:
            # the set-up probes are spread over the timed phase, so that a
            # stretch of slow CPU does not decide setup_s alone
            due = (len(setup) - 1) * seconds / (SETUP_PROBES - 1)
            if len(setup) < SETUP_PROBES - 1 and t >= due:
                setup.extend(setup_probes(1))

        wall = closed_loop(server, requests, timed,
                           lambda t, n: t >= seconds and n >= MIN_REQUESTS, probe)
        rss_kb = server.finish()["rss_kb"]
    finally:
        server.close()
    setup += setup_probes(SETUP_PROBES - len(setup))
    items = timed.total("items")
    ref = statistics.median(timed.refs)
    latency_p90, above = p90(timed.in_refs())
    details.update({
        "requests": len(timed.checked),
        "warmup_requests": len(warm.checked),
        "requests_above_p90": above,
        "items": items,
        "failed_items": timed.total("failed_items"),
        "failed_ratio": timed.total("failed_items") / items,
        "failed_requests": sum(c.request_failed for c in timed.checked),
        "stdout_sha256": (warm.digests() + timed.digests())[:FINGERPRINT_REQUESTS],
        "setup_probes_s": setup,
        "ref_ms": ref * 1e3,
        "items_per_s": items / wall,
        "latency_p50_ms": statistics.median(timed.latencies) * 1e3,
        "latency_p90_ms": p90(timed.latencies)[0] * 1e3,
        # host bursts move the p90 by up to half between runs, so it is
        # reported here and not as a gated metric
        "latency_p90_ref": latency_p90,
    })
    problems = warm.problems() + timed.problems()
    result = {
        "correct": not problems,
        "attempted": len(timed.checked),
        "failed": details["failed_requests"],
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "items_per_ref": metric(timed.items_per_ref(), "1/ref"),
            "latency_p50_ref": metric(statistics.median(timed.in_refs()), "ref"),
            "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        },
    }
    details["problems"] = problems[:10]
    return result, details


def _serve_list(workload: str, requests: list, trace: bool) -> tuple[Tally, dict]:
    tally = Tally(workload)
    server = open_server(workload, trace)
    try:
        for req in requests:
            server.send(req.argv)
            tally.add(req, *server.receive())
        return tally, server.finish()
    finally:
        server.close()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, tally: Tally, overhead: float, import_s: float) -> dict:
    n = len(tally.checked)
    items = tally.total("items")
    injected = tally.total("injected")
    layer_s = agg["layer_s"]
    main_s = layer_s[tracing.ROOT_LAYER]

    def calls(layer=None, site=None):
        return sum(c for s, c in agg["calls"].items()
                   if s == site or agg["site_layer"][s] == layer)

    out = {
        "failed_ratio": metric(_ratio(tally.total("failed_items"), items), "1"),
        "trace.overhead_ratio": metric(overhead, "1"),
        "irreducibility.decide.share": metric(
            _ratio(layer_s["irreducibility.decide"], main_s), "1"),
        "render.share": metric(
            _ratio(layer_s["sweep.render"] + layer_s["cli.render"], main_s), "1"),
        "identities.run_all.share": metric(
            _ratio(layer_s["identities.run_all"], main_s), "1"),
        "sweep.witness_builds_per_injected": metric(_ratio(
            calls(site="sweep.build_general") + calls(site="sweep.build_equal_x"),
            injected), "1"),
        "sweep.solve_case.calls_per_injected": metric(
            _ratio(calls(site="sweep.solve_case"), injected), "1"),
        "irreducibility.oracle_per_decide": metric(_ratio(
            calls("irreducibility.oracle_verdict"), calls("irreducibility.decide")), "1"),
        "sweep.self_s": metric(agg["self_s"]["cli.run_sweep"] / n, "s"),
        "cli.output_bytes": metric(tally.output_bytes / n, "B"),
        "import.identities_exact.s": metric(import_s, "s"),
    }
    for layer in ("representation.build", "representation.validate",
                  "numerics.is_finite", "matrix2.eigen_directions"):
        out[f"{layer}.calls_per_item"] = metric(_ratio(calls(layer), items), "1")
    timed_layers = ["representation.build", "irreducibility.decide",
                    "irreducibility.theorem_verdict", "irreducibility.oracle_verdict",
                    "matrix2.common_eigenvector", "sweep.render", "cli.render",
                    "cli.build_parser", "cli.load_params", "representation.residuals",
                    "exact.substitute"]
    timed_layers += [f"identities.{name}" for name in wl.IDENTITY_REPORTS]
    for layer in timed_layers:
        out[f"{layer}.s"] = metric(layer_s[layer] / n, "s")
    for cls_name in tracing.EXACT_CLASSES:
        for op in tracing.EXACT_OPS:
            site = f"exact.{cls_name}.{op}"
            out[f"{site}.calls"] = metric(agg["calls"][site] / n, "count")
            out[f"{site}.self_s"] = metric(agg["self_s"][site] / n, "s")
    return out


def write_trace(agg: dict, n: int, stem: str) -> list[str]:
    """Write spans (gzip JSON lines) and the per-module self-time table."""
    os.makedirs(OUT, exist_ok=True)
    with gzip.open(os.path.join(OUT, f"{stem}-spans.jsonl.gz"), "wt") as fh:
        fh.write('["id","parent","request","layer","site","start_s","end_s"]\n')
        for span in agg["spans"]:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")
    table = ["module            self s/request  share"]
    table += [f"{module:<17} {per_request:>14.6f}  {share:6.1%}"
              for module, per_request, share in tracing.module_self_table(agg, n)]
    with open(os.path.join(OUT, f"{stem}-modules.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(table) + "\n")
    return table


def measure_traced(workload: str, seed: int, scratch: str) -> tuple[dict, dict]:
    import_s = statistics.median(setup_probes(IMPORTTIME_PROBES, importtime=True))
    requests, details = make_requests(workload, seed, scratch)
    fixed = list(itertools.islice(requests, TRACE_REQUESTS[workload]))
    plain, _ = _serve_list(workload, fixed, trace=False)
    traced, finished = _serve_list(workload, fixed, trace=True)
    agg = finished["trace"]
    # the first requests of a warm worker run cold in both passes
    overhead = (sum(traced.in_refs()[COLD_REQUESTS:])
                / sum(plain.in_refs()[COLD_REQUESTS:]))
    table = write_trace(agg, len(fixed), f"trace-{workload}-seed{seed}")
    print("\n".join(table), file=sys.stderr)
    problems = plain.problems() + traced.problems()
    if plain.digests() != traced.digests():
        problems.append("traced stdout differs from untraced stdout")
    details.update({
        "requests": len(fixed),
        "spans": len(agg["spans"]),
        "stdout_sha256": traced.digests()[:FINGERPRINT_REQUESTS],
        "module_self_time": table,
        "problems": problems[:10],
    })
    result = {
        "correct": not problems,
        "attempted": len(fixed),
        "failed": sum(c.request_failed for c in traced.checked),
        "metrics": layer_metrics(agg, traced, overhead, import_s),
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heckeg7", "cli.py")):
        print(f"error: no heckeg7 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(OUT, exist_ok=True)
    for name in names:
        scratch = tempfile.mkdtemp(prefix="corpus-", dir=OUT)
        try:
            if args.trace:
                result, details = measure_traced(name, args.seed, scratch)
            else:
                result, details = measure(name, args.seed, args.seconds, scratch)
        finally:
            shutil.rmtree(scratch)
        details = {"workload": name, "seed": args.seed, "trace": args.trace, **details}
        print(json.dumps(details, sort_keys=True))
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
