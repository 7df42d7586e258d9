"""Check that CPython 3.10 to 3.13 give the same bytes.

    python3 scripts/check_pythons.py

For each interpreter found under ~/.pyenv/versions (3.10.*, 3.11.*,
3.12.*, 3.13.*), this runs two checks in a child process of that
interpreter, with the sources under src/ and no installed package:

- the reference-fixture `report` (fixtures, then report with both
  conditions imported), the multi-stage `report` on the seeded input of
  tests/_support.py's write_multistage_inputs (stages 0-4, so it also
  writes the summaries and full matrices) and the long-trace `report` on
  that function's 6 episodes of 40 calls each (up to 157 context turns per
  prompt); each output directory is hashed with sha256 and compared with
  the 3.11 hash;
- the continual-learning statistics against the brute-force oracles of
  tests/_support.py on the random matrices of
  tests/test_clmetrics.py::test_oracle_equivalence_random_matrices
  (seed 7), counting the values that differ;
- the naive model of `report`'s import-mode outputs in tests/_oracle.py
  against `run_report` on the 40 seeded random inputs of
  tests/test_report.py::test_report_matches_naive_oracle, counting the
  inputs on which some output file differs;
- the differential parser check of
  tests/test_calls.py::test_parse_equals_scanner_on_seeded_strings:
  parse_first_call and the scoring view (calls.scoring_view) against the
  scanner alone on 100,000 seeded strings, counting the strings on which
  either differs, so the whole-call pattern is checked on every
  interpreter's `re` engine;
- the differential JSON-lines check of
  tests/test_files.py::test_line_decoder_equals_json_loads_on_seeded_lines:
  the line reader's decoder against json.loads on 20,000 seeded lines,
  counting the lines whose value or error differs, since the reader calls
  the scanner json.loads uses directly;
- the differential request-form check of tests/test_genclient.py's
  TestRequestForms::test_templated_forms_equal_json_dumps_on_seeded_texts:
  batch_generate's templated cache keys and request bodies against
  json.dumps of each request on 20,000 seeded prompt texts under each of
  tests/_support.py's REQUEST_CONFIGS, counting the texts on which either
  differs, since a key that moves with the interpreter's json module
  would turn a shared cache into misses;
- the import checks of
  tests/test_cli.py::test_cli_import_leaves_http_libraries_out and
  ::test_cli_import_leaves_dataclasses_out: the modules of
  tests/_support.py's DEFERRED_IMPORTS (HTTP, TLS, sockets, thread pools,
  logging, subprocess, decimal, random, the fixture writer) and NEVER_IMPORTED
  (`dataclasses`, `inspect`) that `import toolstream.cli` loads in a fresh
  interpreter, since which of them the rest of the standard library pulls
  in differs by version;
- the `--stop` decoding: `a\\` (a trailing backslash) and `a\\q` (an
  unknown escape) must be usage errors (exit 2) and `\\n` must decode to a
  newline, since the codec reports the two bad escapes differently by
  version.

An interpreter that is not installed is printed as MISSING and counts as
a failure. The exit status is 0 only when all four are present, every
report hash equals 3.11's, no oracle value or report output differs, no parse,
JSON-lines decoding or request form differs, the CLI import loads none of those modules and every `--stop`
probe gives its expected result.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYENV_VERSIONS = Path.home() / ".pyenv" / "versions"
MINORS = ("3.10", "3.11", "3.12", "3.13")
REFERENCE = "3.11"

REPORT_ARGS = [
    "report", "--corpus", "fixture/corpus.jsonl", "--blocks", "4", "--seed", "42",
    "--conditions", "A,B",
    "--import", "fixture/completions_A.jsonl",
    "--import", "fixture/completions_B.jsonl",
    "--out", "run",
]

# Report name -> (input directory, write_multistage_inputs' keyword
# arguments); the report is written to "<input directory>_run". The
# manifest records the corpus path, so these names are part of the digest.
MULTISTAGE_RUNS = {
    "multi-stage": ("multistage", ""),
    "long-trace": ("long_trace", "n_episodes=6, calls_per_episode=40, stages=(MULTISTAGE_T,)"),
}
MULTISTAGE_CODE = """
from _support import MULTISTAGE_SEED, MULTISTAGE_T, write_multistage_inputs
from toolstream.cli import main
corpus, imports = write_multistage_inputs("{inputs}", {kwargs})
args = ["report", "--corpus", str(corpus), "--blocks", str(MULTISTAGE_T),
        "--seed", str(MULTISTAGE_SEED), "--out", "{inputs}_run"]
for path in imports:
    args += ["--import", str(path)]
raise SystemExit(main(args))
"""

ORACLE_CODE = """
import random
from _support import (
    oracle_aulc, oracle_average_accuracy, oracle_bwt, oracle_forgetting,
    oracle_fwt, random_matrix,
)
from toolstream.clmetrics import (
    aulc, average_accuracy, avg_forgetting, baseline_vector, bwt, eval_matrix, fwt,
)
rng = random.Random(7)
checked = mismatches = 0
for T in (2, 4, 8, 12):
    for _ in range(25):
        R = random_matrix(rng, T)
        b = [rng.random() for _ in range(T)]
        m = eval_matrix(R)
        pairs = [
            (average_accuracy(m), oracle_average_accuracy(R)),
            (bwt(m), oracle_bwt(R)),
            (fwt(m, baseline_vector(b)), oracle_fwt(R, b)),
            (avg_forgetting(m), oracle_forgetting(R)),
            (aulc(m), oracle_aulc(R)),
        ]
        checked += len(pairs)
        mismatches += sum(got != want for got, want in pairs)
print(checked, mismatches)
"""

REPORT_ORACLE_SEED, REPORT_ORACLE_INPUTS = 1, 40
REPORT_ORACLE_CODE = f"""
import tempfile
from _oracle import report_oracle_mismatches
with tempfile.TemporaryDirectory() as tmp:
    mismatches, _ = report_oracle_mismatches({REPORT_ORACLE_SEED}, {REPORT_ORACLE_INPUTS}, tmp)
print(len({{m.split("/")[0] for m in mismatches}}))
"""

PARSER_SEED, PARSER_TEXTS = 20261019, 100_000
PARSER_CODE = f"""
from _support import differential_mismatches
print(len(differential_mismatches({PARSER_SEED}, {PARSER_TEXTS})))
"""

JSONL_SEED, JSONL_LINES = 20261020, 20_000
JSONL_CODE = f"""
from _support import jsonl_mismatches
print(len(jsonl_mismatches({JSONL_SEED}, {JSONL_LINES})))
"""

REQUEST_SEED, REQUEST_TEXTS = 20261021, 20_000
REQUEST_CODE = f"""
from _support import request_form_mismatches
print(len(request_form_mismatches({REQUEST_SEED}, {REQUEST_TEXTS})))
"""

IMPORT_CODE = """
from _support import DEFERRED_IMPORTS, NEVER_IMPORTED, cli_launch_imports
print(*cli_launch_imports(DEFERRED_IMPORTS + NEVER_IMPORTED))
"""

# Each --stop value -> its exit code (2 for a usage error), or the decoded
# stop sequence when it parses.
STOP_PROBES = {"a\\": 2, "a\\q": 2, "\\n": "\n"}
STOP_CODE = f"""
import contextlib, io, json
from toolstream.cli import build_parser
argv = ["generate", "--prompts", "p", "--stage", "1", "--out", "o",
        "--base-url", "http://localhost", "--model", "m", "--stop"]
results = {{}}
for value in {list(STOP_PROBES)!r}:
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            results[value] = build_parser().parse_args(argv + [value]).stop[0]
    except SystemExit as exc:
        results[value] = exc.code
print(json.dumps(results))
"""


def find_interpreter(minor: str) -> Path | None:
    found = sorted(PYENV_VERSIONS.glob(f"{minor}.*/bin/python3"))
    return found[-1] if found else None


def _run(python: Path, args: list[str], cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    proc = subprocess.run(
        [str(python), *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{python} {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check(python: Path) -> tuple[tuple[str, ...], int, int, int, int, int, int, list[str], dict]:
    """((fixture, multi-stage and long-trace report digests), oracle values
    checked, oracle mismatches, report-oracle inputs that differ, parser
    mismatches, JSON-lines mismatches, request-form mismatches, deferred or
    never-imported modules that the CLI import loads, --stop probe results)
    for one interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _run(python, ["-m", "toolstream.cli", "fixtures", "--out", "fixture"], work)
        _run(python, ["-m", "toolstream.cli", *REPORT_ARGS], work)
        outputs = ["run"]
        for inputs, kwargs in MULTISTAGE_RUNS.values():
            _run(python, ["-c", MULTISTAGE_CODE.format(inputs=inputs, kwargs=kwargs)], work)
            outputs.append(f"{inputs}_run")
        digests = tuple(tree_digest(work / out) for out in outputs)
        checked, mismatches = map(int, _run(python, ["-c", ORACLE_CODE], work).split())
        report_mismatches = int(_run(python, ["-c", REPORT_ORACLE_CODE], work))
        parse_mismatches = int(_run(python, ["-c", PARSER_CODE], work))
        jsonl_mismatches = int(_run(python, ["-c", JSONL_CODE], work))
        request_mismatches = int(_run(python, ["-c", REQUEST_CODE], work))
        loaded = _run(python, ["-c", IMPORT_CODE], work).split()
        stops = json.loads(_run(python, ["-c", STOP_CODE], work))
    return (digests, checked, mismatches, report_mismatches, parse_mismatches, jsonl_mismatches,
            request_mismatches, loaded, stops)


def main() -> int:
    results: dict[str, tuple | None] = {}
    for minor in MINORS:
        python = find_interpreter(minor)
        if python is None:
            results[minor] = None
            continue
        version = _run(python, ["-c", "import platform; print(platform.python_version())"], ROOT)
        results[minor] = (version.strip(), *check(python))

    reference = results[REFERENCE]
    names = ["fixture", *MULTISTAGE_RUNS]
    reference_digests = reference[1] if reference else (None,) * len(names)
    ok = True
    for minor in MINORS:
        result = results[minor]
        if result is None:
            print(f"{minor}: MISSING")
            ok = False
            continue
        (version, digests, checked, mismatches, report_mismatches, parse_mismatches,
         jsonl_mismatches, request_mismatches, loaded, stops) = result
        matched = (
            digests == reference_digests and mismatches == 0 and report_mismatches == 0
            and parse_mismatches == 0 and jsonl_mismatches == 0 and request_mismatches == 0
            and not loaded and stops == STOP_PROBES
        )
        ok = ok and matched
        shown = ", ".join(
            f"{name} report sha256 {digest[:16]} ({REFERENCE}: {str(ref)[:16]})"
            for name, digest, ref in zip(names, digests, reference_digests)
        )
        print(f"{version}: {'match' if matched else 'MISMATCH'} {shown}, "
              f"oracle mismatches {mismatches}/{checked}, "
              f"report oracle mismatches {report_mismatches}/{REPORT_ORACLE_INPUTS}, "
              f"parser mismatches {parse_mismatches}/{PARSER_TEXTS}, "
              f"jsonl mismatches {jsonl_mismatches}/{JSONL_LINES}, "
              f"request-key mismatches {request_mismatches}/{REQUEST_TEXTS}, "
              f"deferred or never-imported modules loaded by the CLI import: "
              f"{' '.join(loaded) or 'none'}, "
              f"--stop probes {stops}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
