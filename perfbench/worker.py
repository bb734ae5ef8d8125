"""The process that serves benchmark requests by calling heckeg7.cli.main.

Modes (the first argument):

  probe            time a fresh import of heckeg7.cli plus build_parser()
  serve [--trace]  warm loop: one JSON request per stdin line, either
                   {"argv": [...]} or {"finish": true}
  once [--trace] ARGV...
                   one request in this fresh interpreter, then exit

Each request answers with one JSON header line followed by the request's
stdout as ``n`` raw UTF-8 bytes.  The header carries the exit code, the
seconds spent inside main(), the service seconds (main() plus, in a fresh
interpreter, the import of heckeg7.cli), the reference time around it and,
once the process is done, its peak RSS and (when tracing) the tracer
aggregate.  heckeg7 is always imported from the ``src`` directory of the
checkout this file sits in.

The reference time ("ref") is the time of a fixed pure-Python routine,
measured in this process just before and just after a request (at most
REF_INTERVAL_S apart from it).  The CPU of a shared host can run at very
different speeds from one minute to the next; a request's time divided by
the ref measured around it stays nearly constant while both drift.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MODULES = ("cli", "sweep", "irreducibility", "representation", "matrix2",
           "identities", "exact")
REF_INTERVAL_S = 0.1


def _reference_pass() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(5_000):
        total += i * i
    acc = 0j
    for i in range(400):
        # eigenvalues of a 2x2 complex matrix, as the sweeps compute them
        a, b, c, d = complex(i, 1), complex(0.5, -i), complex(1, 1), complex(2, -0.5)
        trace, det = a + d, a * d - b * c
        disc = cmath.sqrt(trace * trace - 4 * det)
        first, second = (trace + disc) / 2, (trace - disc) / 2
        acc += abs(first - second) + cmath.phase(first)
    # a JSON round trip of freshly built records, as the sweeps render
    doc = [{"z": [complex(i, 0.5).real, (complex(i, 0.5) * 1j).imag],
            "k": str(i), "v": (i, i * 0.1)} for i in range(100)]
    json.loads(json.dumps(doc))
    return time.perf_counter() - start


def reference_s() -> float:
    """Median of three timings of a fixed pure-Python routine: integer
    arithmetic, small complex eigenvalue problems and a JSON round trip.
    Each part alone tracked the host's slow stretches on some workloads
    and not on others; the mix tracks all three kinds of work."""
    return sorted(_reference_pass() for _ in range(3))[1]


class Reference:
    """The latest reference time, measured again once it is stale."""

    def __init__(self):
        self.value = reference_s()
        self.at = time.perf_counter()

    def fresh(self) -> float:
        if time.perf_counter() - self.at >= REF_INTERVAL_S:
            self.value = reference_s()
            self.at = time.perf_counter()
        return self.value


def _import_cli():
    sys.path.insert(0, SRC)
    import heckeg7.cli

    where = os.path.realpath(heckeg7.cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"heckeg7 imported from {where}, not from {SRC}")
    return heckeg7.cli


def _modules() -> dict:
    return {name: sys.modules[f"heckeg7.{name}"] for name in MODULES}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run(main, argv: list[str], ref: Reference) -> tuple[dict, bytes]:
    before = ref.fresh()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is reported as a failed request
            code = -1
            traceback.print_exc(file=err)
        took = time.perf_counter() - start
    header = {"code": code, "s": took, "service_s": took,
              "ref": (before + ref.fresh()) / 2, "err": err.getvalue()[-2000:]}
    return header, out.getvalue().encode()


def _reply(stream, header: dict, body: bytes = b"") -> None:
    header["n"] = len(body)
    stream.write(json.dumps(header).encode() + b"\n" + body)
    stream.flush()


def _serve(main, stream, tracer) -> None:
    ref = Reference()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("finish"):
            header = {"rss_kb": _peak_rss_kb()}
            if tracer is not None:
                tracer.restore()
                header["trace"] = tracer.aggregate()
            _reply(stream, header)
            return
        if tracer is not None:
            tracer.request = request["id"]
        header, body = _run(main, request["argv"], ref)
        _reply(stream, header, body)


def main() -> None:
    started = time.perf_counter()
    mode, args = sys.argv[1], sys.argv[2:]
    stream = sys.stdout.buffer
    if mode == "probe":
        start = time.perf_counter()
        cli = _import_cli()
        cli.build_parser()
        _reply(stream, {"s": time.perf_counter() - start})
        return
    trace = bool(args) and args[0] == "--trace"
    if trace:
        args = args[1:]
    cli = _import_cli()
    import_s = time.perf_counter() - started
    run_main = cli.main
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_all(tracer, _modules())
        run_main = tracer.wrap(cli.main, "cli.main", tracing.ROOT_LAYER, span=True)
    if mode == "serve":
        _serve(run_main, stream, tracer)
        return
    if mode != "once":
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        tracer.request = 0
    header, body = _run(run_main, args, Reference())
    header["service_s"] += import_s  # a fresh interpreter pays the import
    header["rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        tracer.restore()
        header["trace"] = tracer.aggregate()
    _reply(stream, header, body)


if __name__ == "__main__":
    main()
