"""Timed child process: runs `report.run_report` in cycles and nothing else.

Inputs are written beforehand by run.py, so this process's peak RSS
covers only the timed calls. A cycle is one call into a fresh output
directory (and, for endpoint mode, an empty cache and a reset mock),
followed by reruns on the same directories. With tracing on, traced and
untraced cycles alternate; the wrappers are installed only around the
traced calls.

    python3 perfbench/worker.py <config.json>

A fixed calibration runs between timed calls and launches; every timing
is also stored scaled to the reference host speed (see README.md,
"Host-speed scaling").

The config is written by run.py; the result JSON goes to config["result"].
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from array import array
from pathlib import Path

from toolstream import report
from toolstream.corpus import StreamSpec
from toolstream.genclient import EndpointConfig
from toolstream.transform import Condition

from spans import Tracer, layer_metrics, write_spans

CALIBRATION_ITERS = 300_000
CHASE_SLOTS = 1 << 20  # 4 MiB of 32-bit slots: past the per-core caches
CHASE_STEPS = 150_000
# Wall time of the calibration at the reference host speed. A scaled time
# is what the measured time would have been had the calibration taken this.
CALIBRATION_REF_S = 0.050

# One cycle through every slot, in the order of a full-period linear
# congruential generator, so each step is a dependent load from an address
# the hardware prefetchers cannot predict.
_CHASE = array("i", ((5 * i + 1) & (CHASE_SLOTS - 1) for i in range(CHASE_SLOTS)))


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def _calibrate() -> float:
    """Wall time of a fixed pure-Python integer loop and a pointer chase
    through memory: the host's current speed for interpreter-bound and for
    cache-missing work."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_ITERS):
        s += i * i % 7
    j = 0
    for _ in range(CHASE_STEPS):
        j = _CHASE[j]
    return time.perf_counter() - t0


def _cpu() -> float:
    """CPU time of this process and of its waited-for children so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _timing(seconds: float, busy: float, calibration_s: list[float]) -> dict:
    """A timed operation, given the calibrations taken so far, the last of
    them just after it. Its time at the reference host speed is its CPU time
    (of all the run's processes), scaled by the calibrations just before and
    just after it, plus the rest of its wall time (waiting on the mock's
    fixed delay) as it was."""
    busy = min(busy, seconds)
    calibration = (calibration_s[-2] + calibration_s[-1]) / 2
    return {
        "seconds": seconds,
        "busy_s": busy,
        "calibration_s": calibration,
        "scaled_s": busy * CALIBRATION_REF_S / calibration + (seconds - busy),
    }


def _timed_launch(calibration_s: list[float]) -> dict:
    c0 = _cpu()
    seconds = _launch()
    busy = _cpu() - c0
    calibration_s.append(_calibrate())
    return _timing(seconds, busy, calibration_s)


def _launch() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import toolstream.cli"], check=True)
    return time.perf_counter() - t0


def _mock(base: str, path: str, post: bool = False) -> dict:
    request = urllib.request.Request(base + path, data=b"{}" if post else None)
    with urllib.request.urlopen(request, timeout=10) as resp:
        return json.loads(resp.read())


def main() -> None:
    cfg = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    work = Path(cfg["work"])
    out_dir, cache_dir = work / "out", work / "cache"
    mock_base = cfg.get("mock_base")
    kwargs: dict = {
        "stream": StreamSpec(T=cfg["T"], seed=cfg["seed"]),
        "conditions": [Condition.A_STRIPPED, Condition.B_TRAJECTORY],
    }
    if mock_base:
        kwargs["endpoint"] = EndpointConfig(
            base_url=mock_base + "/v1",
            model_id="mock",
            max_parallel=2,
            retries=2,
            retry_backoff=0.01,
            timeout=30.0,
        )
        kwargs["stages"] = cfg["stages"]
        kwargs["cache_dir"] = cache_dir
    else:
        kwargs["import_paths"] = cfg["import_paths"]

    launches = cfg["setup_launches"]
    setup: list[dict] = []
    if launches:
        _launch()  # unrecorded: writes the bytecode cache, as installation would
    _calibrate()  # unrecorded warm-up
    # A calibration follows every timed call and launch, and serves both the
    # operation before it and the one after it.
    calibration_s = [_calibrate()]
    tracer = Tracer() if cfg["trace"] else None
    # Replay reruns repeat the first call's work exactly, so a traced cycle
    # keeps only the warm rerun that endpoint mode serves from the cache.
    reruns = (1 if mock_base else 0) if tracer else cfg["reruns"]
    cycles: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(cycles) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)
        if mock_base:
            _mock(mock_base, "/reset", post=True)
        calls = []
        for j in range(1 + reruns):
            before = _mock(mock_base, "/stats") if mock_base else None
            if traced:
                tracer.install()
            error = None
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.root("report.run_report", report.run_report, cfg["corpus"], out_dir, **kwargs)
                else:
                    report.run_report(cfg["corpus"], out_dir, **kwargs)
            except Exception as exc:  # a failed call is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            busy = time.process_time() - c0
            calibration_s.append(_calibrate())
            if traced:
                tracer.uninstall()
            if mock_base:
                after = _mock(mock_base, "/stats")
                busy += after["cpu_s"] - before["cpu_s"]
            call = {
                "phase": "cold" if j == 0 else "warm",
                "error": error,
                **_timing(seconds, busy, calibration_s),
            }
            if error is None:
                call["digest"] = _digest(out_dir)
            if mock_base:
                call["requests"] = after["requests"] - before["requests"]
                call["retries"] = after["retries"] - before["retries"]
                if j == 0:
                    call["cache_entries"] = sum(1 for _ in cache_dir.rglob("*.json"))
            calls.append(call)
        cycle = {"traced": traced, "calls": calls}
        if traced:
            spans = tracer.finish()
            metrics = layer_metrics(spans)
            # Counted at the mock since the reset at the start of this cycle.
            stats = _mock(mock_base, "/stats") if mock_base else dict.fromkeys(
                ("requests", "retries", "inflight_max", "service_ms_p50"), 0
            )
            metrics["genclient.requests"] = stats["requests"]
            metrics["genclient.retries"] = stats["retries"]
            metrics["genclient.inflight_max"] = stats["inflight_max"]
            metrics["genclient.server_ms.p50"] = stats["service_ms_p50"]
            cycle["metrics"] = metrics
            cycle["spans"] = str(work / f"spans_{len(cycles)}.jsonl")
            write_spans(Path(cycle["spans"]), spans)
        cycles.append(cycle)

        # Fresh-interpreter launches are spread over the run, between cycles,
        # so that their median is not taken from a single moment of the host.
        while len(setup) < min(launches, launches * (time.perf_counter() - start) / cfg["seconds"]):
            setup.append(_timed_launch(calibration_s))

        elapsed = time.perf_counter() - start
        n_plain = sum(1 for c in cycles if not c["traced"])
        enough = n_plain >= 3 if tracer is None else len(cycles) >= 4
        if (elapsed >= cfg["seconds"] and enough) or elapsed >= cfg["max_seconds"]:
            break
    while len(setup) < launches:
        setup.append(_timed_launch(calibration_s))

    result = {
        "calibration_s": statistics.median(calibration_s),
        "setup": setup,
        "cycles": cycles,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(cfg["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
