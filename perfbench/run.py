"""toolstream benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload replay-stages --seed 1 --seconds 40 --trace 0

Set-up writes the workload's inputs from the seed, times fresh launches
of `import toolstream.cli`, and starts the mock endpoint for
live-generate. A child process (worker.py) then runs `run_report` for
`--seconds`, with a calibration between timed calls that scales their
times to a reference host speed; afterwards the outputs are checked
against the planted categories. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 12
CHILD_TIMEOUT_S = 150.0

# Per-layer metrics printed and kept in the trace summary besides those
# BENCHMARK.json lists. Only some workloads do this work, so each reads 0
# on the others.
PER_LAYER_EXTRA = (
    ("genclient.import_s", "s"),
    ("genclient.batch_s", "s"),
    ("genclient.request_ms.p50", "ms"),
    ("genclient.request_ms.p99", "ms"),
    ("genclient.server_ms.p50", "ms"),
    ("genclient.cache_get_s", "s"),
    ("genclient.cache_put_s", "s"),
    ("clmetrics.summarize_s", "s"),
    ("clmetrics.write_s", "s"),
    ("corpus.layer_self_s", "s"),
    ("transform.layer_self_s", "s"),
    ("calls.layer_self_s", "s"),
    ("scoring.layer_self_s", "s"),
    ("genclient.layer_self_s", "s"),
    ("trace.layer_sum_s", "s"),
    ("trace.spans", "count"),
)

# Counts that must repeat exactly between traced cycles of one seed.
REPEATABLE = (
    "corpus.episodes",
    "corpus.examples",
    "corpus.context_turns",
    "transform.render_calls",
    "transform.prompt_chars.A",
    "transform.prompt_chars.B",
    "transform.prompt_hash_calls",
    "calls.parse_calls",
    "calls.normalize_calls",
    "scoring.records",
    "genclient.import_records",
    "genclient.requests",
    "genclient.retries",
    "genclient.cache_hits",
    "genclient.cache_misses",
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def start_mock(replies: Path) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "mockserver.py"), "--replies", str(replies)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        stop(proc)
        raise RuntimeError(f"mock endpoint did not start: {line!r}")
    return proc, f"http://127.0.0.1:{int(line.split()[1])}"


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout:
        proc.stdout.close()


def run_worker(config: dict, work: Path) -> dict:
    config_path = work / "worker.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    log_path = work / "worker.log"
    with log_path.open("w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(config_path)],
            env=_env(), cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    if code != 0:
        tail = log_path.read_text(encoding="utf-8")[-3000:]
        raise RuntimeError(f"worker exited with {code}:\n{tail}")
    return json.loads(Path(config["result"]).read_text(encoding="utf-8"))


def evaluate(result: dict, n: int, bad: int, mock: bool) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every run_report call of the run,
    given `bad` of the `n` planted records failing in the last output."""
    calls = [call for cycle in result["cycles"] for call in cycle["calls"]]
    problems = []
    if bad:
        problems.append(f"{bad} of {n} planted score records missing, duplicated or miscategorised")
    last = calls[-1].get("digest")
    failed = 0
    for call in calls:
        if call["error"] is not None:
            problems.append(f"run_report failed: {call['error']}")
            failed += n
        elif call["digest"] != last:
            problems.append("outputs differ between repetitions")
            failed += n
        else:
            failed += bad
        if mock and call["phase"] == "warm" and call["requests"] != 0:
            problems.append(f"warm call sent {call['requests']} requests to the endpoint")
        if mock and call["phase"] == "cold" and call["requests"] != call["cache_entries"] + call["retries"]:
            problems.append(
                f"endpoint saw {call['requests']} requests, expected {call['cache_entries']} "
                f"cache misses + {call['retries']} retries"
            )
    return n * len(calls), min(failed, n * len(calls)), sorted(set(problems))


def end_to_end(inputs, result: dict) -> tuple[dict, dict]:
    """Metric name -> (median, sample count), from times scaled to the
    reference host speed; and the unscaled medians, for the table."""
    calls = [c for cy in result["cycles"] for c in cy["calls"]]
    timings = {
        "setup_s": result["setup"],
        "report_s": [c for c in calls if c["phase"] == "cold"],
        "rerun_s": [c for c in calls if c["phase"] == "warm"],
    }
    n = len(inputs.planted)
    metrics = {name: (statistics.median(t["scaled_s"] for t in ts), len(ts)) for name, ts in timings.items()}
    cold = timings["report_s"]
    metrics["completions_per_s"] = (statistics.median(n / t["scaled_s"] for t in cold), len(cold))
    metrics["peak_rss_mib"] = (result["peak_rss_mib"], 1)
    unscaled = {name: statistics.median(t["seconds"] for t in ts) for name, ts in timings.items()}
    unscaled["calibration"] = result["calibration_s"]
    return metrics, unscaled


def per_layer(workload, result: dict, problems: list[str], names: list[str], trace_dir: Path,
              tag: str) -> dict:
    """Metric name -> (value, traced cycles), from the median traced cycle."""
    plain = [c["calls"] for c in result["cycles"] if not c["traced"]]
    traced = [c for c in result["cycles"] if c["traced"]]
    counts = {tuple(c["metrics"][k] for k in REPEATABLE) for c in traced}
    if len(counts) > 1:
        problems.append("per-layer counts differ between traced cycles")
    untraced_s = statistics.median(sum(call["scaled_s"] for call in calls) for calls in plain)
    chosen = sorted(traced, key=lambda c: c["metrics"]["trace.report_s"])[(len(traced) - 1) // 2]
    m = dict(chosen["metrics"])
    m["trace.overhead_frac"] = statistics.median(
        sum(call["scaled_s"] for call in c["calls"]) for c in traced
    ) / untraced_s - 1
    if workload.mode == "import":
        # Without concurrency the layer self times partition the root span.
        gap = abs(m["trace.layer_sum_s"] - m["trace.report_s"])
        if gap > max(m["trace.overhead_frac"], 0.0) * m["trace.report_s"] + 1e-3:
            problems.append(f"layer self times miss the traced report_s by {gap:.4f} s")
    trace_dir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(chosen["spans"], trace_dir / f"{tag}.spans.jsonl")
    (trace_dir / f"{tag}.summary.json").write_text(json.dumps({n: m[n] for n in names}, indent=1) + "\n")
    return {name: (m[name], len(traced)) for name in names}


def main() -> int:
    parser = argparse.ArgumentParser(description="toolstream benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "toolstream" / "__init__.py").is_file():
        print(f"error: no toolstream sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PER_LAYER_EXTRA)
    sys.path.insert(0, str(SRC))
    from workloads import T, WORKLOADS, check_scores, write_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Every process of the run (worker, mock, set-up launches) inherits one
    # CPU. On a 2-vCPU host whose vCPUs slow each other down, runs spread
    # over both were far less repeatable (README.md, "Host noise").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = BENCH / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    mock = None
    try:
        inputs = write_inputs(workload, args.seed, work / "inputs")
        config = {
            "work": str(work), "result": str(work / "result.json"),
            "seed": args.seed, "T": T, "trace": bool(args.trace),
            "corpus": str(inputs.corpus), "import_paths": [str(p) for p in inputs.import_paths],
            "stages": list(workload.stages), "reruns": workload.reruns,
            "setup_launches": 0 if args.trace else SETUP_LAUNCHES,
            "seconds": args.seconds, "max_seconds": max(args.seconds, CHILD_TIMEOUT_S - 30),
        }
        if inputs.replies is not None:
            mock, config["mock_base"] = start_mock(inputs.replies)
        result = run_worker(config, work)
        bad = check_scores(work / "out", inputs.planted)
        attempted, failed, problems = evaluate(result, len(inputs.planted), bad, mock is not None)
        if args.trace:
            tag = f"{workload.name}-seed{args.seed}"
            names = listed + [name for name, _ in PER_LAYER_EXTRA]
            metrics = per_layer(workload, result, problems, names, BENCH / ".work" / "traces", tag)
            unscaled = {}
        else:
            metrics, unscaled = end_to_end(inputs, result)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if mock is not None:
            stop(mock)
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, samples) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]:6s} (n={samples})")
    for name, value in unscaled.items():
        label = "calibration (median)" if name == "calibration" else f"{name} unscaled"
        print(f"  {label:32s} {value:14.6g} s")
    print(f"  {'failed_frac':32s} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
