"""Subcommand behavior, exit codes, and required flags."""

from __future__ import annotations

import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import toolstream
from _support import DEFERRED_IMPORTS, NEVER_IMPORTED, MockEndpoint, cli_launch_imports
from toolstream.cli import (
    EXIT_ENDPOINT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_STALE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from toolstream.clmetrics import write_matrix_csv
from toolstream.corpus import read_blocks_json
from toolstream.files import write_jsonl_records


@pytest.fixture()
def split_paths(reference_paths, tmp_path):
    blocks_path = tmp_path / "blocks.json"
    code = main(
        [
            "split",
            "--corpus",
            str(reference_paths["corpus"]),
            "--blocks",
            "4",
            "--seed",
            "42",
            "--out",
            str(blocks_path),
        ]
    )
    assert code == EXIT_OK
    return reference_paths, blocks_path


class TestSplit:
    def test_writes_disjoint_blocks(self, split_paths):
        _, blocks_path = split_paths
        T, assignment = read_blocks_json(blocks_path)
        assert T == 4
        assert len(assignment) == 440

    def test_missing_corpus_is_input_error(self, tmp_path):
        code = main(
            ["split", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "b.json")]
        )
        assert code == EXIT_INPUT

    def test_missing_out_is_usage_error(self, reference_paths, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["split", "--corpus", str(reference_paths["corpus"])])
        assert excinfo.value.code == EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    def test_too_many_blocks_is_validation_error(self, reference_paths, tmp_path):
        code = main(
            [
                "split",
                "--corpus",
                str(reference_paths["corpus"]),
                "--blocks",
                "9",
                "--out",
                str(tmp_path / "b.json"),
            ]
        )
        assert code == EXIT_VALIDATION


class TestRenderScorePipeline:
    def test_render_then_score(self, split_paths, tmp_path):
        reference_paths, blocks_path = split_paths
        prompts_path = tmp_path / "prompts_B.jsonl"
        assert (
            main(
                [
                    "render",
                    "--corpus",
                    str(reference_paths["corpus"]),
                    "--condition",
                    "B",
                    "--out",
                    str(prompts_path),
                ]
            )
            == EXIT_OK
        )
        assert len(prompts_path.read_text().strip().splitlines()) == 440

        scores_path = tmp_path / "scores_B.jsonl"
        categories_path = tmp_path / "categories_B.csv"
        assert (
            main(
                [
                    "score",
                    "--corpus",
                    str(reference_paths["corpus"]),
                    "--blocks-file",
                    str(blocks_path),
                    "--completions",
                    str(reference_paths["completions_B"]),
                    "--prompts",
                    str(prompts_path),
                    "--out",
                    str(scores_path),
                    "--categories",
                    str(categories_path),
                ]
            )
            == EXIT_OK
        )
        counts = [
            int(line.rsplit(",", 1)[1])
            for line in categories_path.read_text().strip().splitlines()[1:]
        ]
        assert counts == [251, 54, 22, 12, 101]

    def test_score_rejects_a_second_completion_per_example(self, split_paths, tmp_path):
        # Both fixture files hold stage-4 completions for the same 440
        # examples; without --condition, score cannot tell which to score.
        reference_paths, blocks_path = split_paths
        scores_path = tmp_path / "scores.jsonl"
        argv = [
            "score",
            "--corpus",
            str(reference_paths["corpus"]),
            "--blocks-file",
            str(blocks_path),
            "--completions",
            str(reference_paths["completions_A"]),
            "--completions",
            str(reference_paths["completions_B"]),
            "--out",
            str(scores_path),
        ]
        assert main(argv) == EXIT_VALIDATION
        assert main(argv + ["--condition", "A"]) == EXIT_OK
        assert len(scores_path.read_text().strip().splitlines()) == 440

    def test_render_with_sampling(self, split_paths, tmp_path):
        reference_paths, blocks_path = split_paths
        prompts_path = tmp_path / "sampled.jsonl"
        assert (
            main(
                [
                    "render",
                    "--corpus",
                    str(reference_paths["corpus"]),
                    "--condition",
                    "A",
                    "--blocks-file",
                    str(blocks_path),
                    "--sample",
                    "32",
                    "--out",
                    str(prompts_path),
                ]
            )
            == EXIT_OK
        )
        assert len(prompts_path.read_text().strip().splitlines()) == 4 * 32

    def test_sample_zero_rejected_by_render_and_report(self, split_paths, tmp_path):
        reference_paths, blocks_path = split_paths
        corpus = str(reference_paths["corpus"])
        render = ["render", "--corpus", corpus, "--condition", "A",
                  "--blocks-file", str(blocks_path), "--sample", "0",
                  "--out", str(tmp_path / "prompts.jsonl")]
        report = ["report", "--corpus", corpus, "--conditions", "A",
                  "--import", str(reference_paths["completions_A"]), "--sample", "0",
                  "--out", str(tmp_path / "report")]
        assert main(render) == EXIT_VALIDATION
        assert main(report) == EXIT_VALIDATION

    def test_render_sample_matches_report_prompts(self, split_paths, tmp_path):
        reference_paths, blocks_path = split_paths
        corpus = str(reference_paths["corpus"])
        rendered = tmp_path / "prompts_A.jsonl"
        render = ["render", "--corpus", corpus, "--condition", "A",
                  "--blocks-file", str(blocks_path), "--sample", "32",
                  "--sample-seed", "42", "--out", str(rendered)]
        report = ["report", "--corpus", corpus, "--blocks", "4", "--seed", "42",
                  "--conditions", "A", "--import", str(reference_paths["completions_A"]),
                  "--sample", "32", "--out", str(tmp_path / "report")]
        assert main(render) == EXIT_OK
        assert main(report) == EXIT_OK
        assert rendered.read_bytes() == (tmp_path / "report" / "prompts_A.jsonl").read_bytes()

    def test_matrix_from_scores(self, split_paths, tmp_path):
        reference_paths, blocks_path = split_paths
        scores_path = tmp_path / "scores.jsonl"
        main(
            [
                "score",
                "--corpus",
                str(reference_paths["corpus"]),
                "--blocks-file",
                str(blocks_path),
                "--completions",
                str(reference_paths["completions_A"]),
                "--out",
                str(scores_path),
            ]
        )
        matrix_path = tmp_path / "matrix.csv"
        assert (
            main(
                [
                    "matrix",
                    "--scores",
                    str(scores_path),
                    "--metric",
                    "exact",
                    "--out",
                    str(matrix_path),
                ]
            )
            == EXIT_OK
        )
        lines = matrix_path.read_text().strip().splitlines()
        assert lines[0] == "stage,block_1,block_2,block_3,block_4"
        assert lines[1].startswith("4,")

    def test_matrix_rejects_flags_contradicting_category(self, split_paths, tmp_path, capsys):
        # Giving 20 wrong_api records all-true flags must not raise the
        # exact rate: the category is the score, and the file contradicts it.
        reference_paths, blocks_path = split_paths
        scores_path = tmp_path / "scores_A.jsonl"
        main(
            [
                "score",
                "--corpus", str(reference_paths["corpus"]),
                "--blocks-file", str(blocks_path),
                "--completions", str(reference_paths["completions_A"]),
                "--out", str(scores_path),
            ]
        )
        lines, edited = [], 0
        for line in scores_path.read_text(encoding="utf-8").splitlines():
            raw = json.loads(line)
            if raw["category"] == "wrong_api" and edited < 20:
                raw["flags"] = dict.fromkeys(raw["flags"], True)
                edited += 1
            lines.append(json.dumps(raw))
        assert edited == 20
        scores_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            ["matrix", "--scores", str(scores_path), "--out", str(tmp_path / "matrix.csv")]
        )
        assert code == EXIT_VALIDATION
        assert "contradict wrong_api" in capsys.readouterr().err
        assert not (tmp_path / "matrix.csv").exists()

    @pytest.mark.parametrize("second", ["scores_B", "head_of_scores_A"])
    def test_matrix_rejects_a_repeated_stage_and_example(
        self, split_paths, tmp_path, capsys, second
    ):
        # Score records name no condition, so A's and B's files together, or
        # a file's lines given twice, would pool into one matrix.
        reference_paths, blocks_path = split_paths
        for tag in ("A", "B"):
            code = main(
                [
                    "score",
                    "--corpus", str(reference_paths["corpus"]),
                    "--blocks-file", str(blocks_path),
                    "--completions", str(reference_paths[f"completions_{tag}"]),
                    "--out", str(tmp_path / f"scores_{tag}.jsonl"),
                ]
            )
            assert code == EXIT_OK
        scores_a = (tmp_path / "scores_A.jsonl").read_text(encoding="utf-8")
        (tmp_path / "head_of_scores_A.jsonl").write_text(
            "".join(scores_a.splitlines(keepends=True)[:40]), encoding="utf-8"
        )
        code = main(
            [
                "matrix",
                "--scores", str(tmp_path / "scores_A.jsonl"),
                "--scores", str(tmp_path / f"{second}.jsonl"),
                "--out", str(tmp_path / "matrix.csv"),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "more than one score for example" in capsys.readouterr().err
        assert not (tmp_path / "matrix.csv").exists()


class TestSummary:
    def test_two_by_two_fixture(self, tmp_path, capsys):
        matrix_path = tmp_path / "m.csv"
        write_matrix_csv(matrix_path, {1: [0.8, 0.0], 2: [0.6, 0.7]}, [1, 2])
        baseline_path = tmp_path / "b.csv"
        write_matrix_csv(baseline_path, {0: [0.0, 0.0]}, [1, 2])
        assert (
            main(
                [
                    "summary",
                    "--matrix",
                    str(matrix_path),
                    "--baseline",
                    str(baseline_path),
                ]
            )
            == EXIT_OK
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["bwt"] == pytest.approx(-0.2)
        assert summary["final_aa"] == pytest.approx(0.65)

    def test_incomplete_matrix_is_validation_error(self, tmp_path):
        matrix_path = tmp_path / "m.csv"
        write_matrix_csv(matrix_path, {2: [0.6, 0.7]}, [1, 2])
        assert main(["summary", "--matrix", str(matrix_path)]) == EXIT_VALIDATION

    def test_missing_baseline_is_validation_error(self, tmp_path):
        matrix_path = tmp_path / "m.csv"
        write_matrix_csv(matrix_path, {1: [0.8, 0.0], 2: [0.6, 0.7]}, [1, 2])
        assert main(["summary", "--matrix", str(matrix_path)]) == EXIT_VALIDATION


class TestParseSubcommand:
    def test_stdin_lines(self, monkeypatch, capsys):
        def stdin(data: bytes):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))

        stdin(b"[GetWeather(city='Paris')]\r\nnot a call\n")
        assert main(["parse"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        first = json.loads(lines[0])
        second = json.loads(lines[1])
        assert first["ok"] and first["name"] == "GetWeather"
        assert first["normalized"] == {"city": "Paris"}
        assert not second["ok"] and second["reason"] == "no_bracket"

        stdin(b"[Ping(a=\xff)]\n")
        assert main(["parse"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: <stdin>: line 1: ")


class TestFixturesSubcommand:
    def test_writes_fixture_files(self, tmp_path):
        out = tmp_path / "fixture"
        assert main(["fixtures", "--out", str(out)]) == EXIT_OK
        assert (out / "corpus.jsonl").exists()
        assert (out / "completions_A.jsonl").exists()
        assert (out / "completions_B.jsonl").exists()


class TestReportSubcommand:
    def test_full_import_run(self, reference_paths, tmp_path):
        out = tmp_path / "report"
        code = main(
            [
                "report",
                "--corpus",
                str(reference_paths["corpus"]),
                "--blocks",
                "4",
                "--seed",
                "42",
                "--conditions",
                "A,B",
                "--import",
                str(reference_paths["completions_A"]),
                "--import",
                str(reference_paths["completions_B"]),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        table = (out / "final_table.csv").read_text()
        assert "A,exact" in table and "B,exact" in table

    @pytest.mark.parametrize("conditions", ["A,C", "A,A,B"])
    def test_bad_or_repeated_condition_is_usage_error(
        self, reference_paths, tmp_path, capsys, conditions
    ):
        out = tmp_path / "report"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "report",
                    "--corpus", str(reference_paths["corpus"]),
                    "--conditions", conditions,
                    "--import", str(reference_paths["completions_A"]),
                    "--out", str(out),
                ]
            )
        assert excinfo.value.code == EXIT_USAGE
        assert "--conditions" in capsys.readouterr().err
        assert not out.exists()

    def test_no_source_is_validation_error(self, reference_paths, tmp_path):
        code = main(
            [
                "report",
                "--corpus",
                str(reference_paths["corpus"]),
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == EXIT_VALIDATION

    def test_endpoint_failure_exits_endpoint(self, reference_paths, tmp_path):
        code = main(
            [
                "report",
                "--corpus",
                str(reference_paths["corpus"]),
                "--base-url",
                "http://127.0.0.1:9",
                "--model",
                "m",
                "--retries",
                "0",
                "--timeout",
                "2",
                "--sample",
                "1",
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == EXIT_ENDPOINT

    def test_failing_tokenizer_is_input_error_before_scoring(self, reference_paths, tmp_path):
        out = tmp_path / "r"
        code = main(
            [
                "report",
                "--corpus",
                str(reference_paths["corpus"]),
                "--conditions",
                "A",
                "--import",
                str(reference_paths["completions_A"]),
                "--tokenizer-cmd",
                shlex.join([sys.executable, "-c", "import sys; sys.exit(1)"]),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_INPUT
        assert not list(out.glob("scores_*.jsonl"))
        assert not (out / "manifest.json").exists()


    @pytest.mark.parametrize("stages, message", [
        ("0,5", "stage 5 is outside stages 0..4"),
        ("4,0,4", "stage 4 appears more than once"),
    ], ids=["stage-above-t", "repeated-stage"])
    def test_bad_stages_are_rejected_before_any_request(
        self, reference_paths, tmp_path, capsys, stages, message
    ):
        out = tmp_path / "r"
        with MockEndpoint() as mock:
            code = main(["report", "--corpus", str(reference_paths["corpus"]),
                         "--base-url", mock.base_url, "--model", "m", "--stages", stages,
                         "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert mock.requests == 0
        assert not out.exists()

    def test_missing_completion_is_validation_error(self, reference_paths, tmp_path, capsys):
        lines = reference_paths["completions_B"].read_text(encoding="utf-8").splitlines(True)
        assert len(lines) == 440
        truncated = tmp_path / "completions_B.jsonl"
        truncated.write_text("".join(lines[:400]), encoding="utf-8")
        out = tmp_path / "r"
        code = main(
            [
                "report",
                "--corpus", str(reference_paths["corpus"]),
                "--import", str(reference_paths["completions_A"]),
                "--import", str(truncated),
                "--out", str(out),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "condition B: 40 of 440 examples x 1 stages" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_warm_report_needs_no_endpoint_and_loads_no_network(self, reference_paths, tmp_path):
        # A rerun on a filled cache is served from the cache alone: with the
        # endpoint gone it exits 0, writes the same bytes, and never loads the
        # network stack or the thread pool.
        with MockEndpoint() as mock:
            base_url = mock.base_url
            args = ["report", "--corpus", str(reference_paths["corpus"]), "--conditions", "A",
                    "--stages", "0,4", "--sample", "2", "--base-url", base_url, "--model", "m",
                    "--retries", "0", "--timeout", "2", "--cache-dir", str(tmp_path / "cache")]
            assert main(args + ["--out", str(tmp_path / "cold")]) == EXIT_OK
            assert mock.requests
        code = (
            "import json, sys; from toolstream.cli import main; code = main(sys.argv[1:]); "
            "print(json.dumps([m for m in ('http.client', 'concurrent.futures') "
            "if m in sys.modules])); sys.exit(code)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(toolstream.__file__).resolve().parents[1])}
        warm = subprocess.run(
            [sys.executable, "-c", code, *args, "--out", str(tmp_path / "warm")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert warm.returncode == EXIT_OK, warm.stderr
        assert json.loads(warm.stdout.splitlines()[-1]) == []
        cold_files = sorted(p.relative_to(tmp_path / "cold") for p in (tmp_path / "cold").rglob("*"))
        assert cold_files == sorted(
            p.relative_to(tmp_path / "warm") for p in (tmp_path / "warm").rglob("*")
        )
        for name in cold_files:
            assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


class TestGenerate:
    def test_stop_sequences_reach_the_request_as_typed(self, tmp_path):
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(
            json.dumps({"example_id": "e:0", "condition": "A", "prompt": "p", "target": "[F()]"})
            + "\n",
            encoding="utf-8",
        )
        with MockEndpoint() as mock:
            assert main(["generate", "--prompts", str(prompts), "--stage", "1",
                         "--base-url", mock.base_url, "--model", "m",
                         "--stop", "é", "--stop", "漢", "--stop", "\\n\\t",
                         "--out", str(tmp_path / "out.jsonl")]) == EXIT_OK
        assert mock.last_payload["stop"] == ["é", "漢", "\n\t"]

    def test_base_url_without_scheme_is_validation_error(self, tmp_path):
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(
            json.dumps({"example_id": "e:0", "condition": "A", "prompt": "p", "target": "[F()]"})
            + "\n",
            encoding="utf-8",
        )
        args = ["generate", "--prompts", str(prompts), "--model", "m", "--stage", "1",
                "--out", str(tmp_path / "out.jsonl")]
        assert main(args + ["--base-url", "localhost:8000"]) == EXIT_VALIDATION
        assert not (tmp_path / "out.jsonl").exists()

    def test_missing_base_url_is_usage_error(self, tmp_path, capsys):
        args = ["generate", "--prompts", str(tmp_path / "prompts.jsonl"), "--model", "m",
                "--stage", "1", "--out", str(tmp_path / "out.jsonl")]
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == EXIT_USAGE
        assert "--base-url" in capsys.readouterr().err


def test_cli_import_leaves_numpy_out():
    src = Path(toolstream.__file__).resolve().parents[1]
    code = "import sys, toolstream.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_cli_import_leaves_http_libraries_out():
    # Also the TLS, thread-pool, subprocess, logging, decimal and random
    # modules, and the fixture writer: each loads on first use.
    assert cli_launch_imports(DEFERRED_IMPORTS) == []


def test_cli_import_leaves_dataclasses_out():
    assert cli_launch_imports(NEVER_IMPORTED) == []


@pytest.fixture(scope="module")
def exit_code_inputs(reference_paths, tmp_path_factory):
    """Paths the exit-code table refers to by name."""
    tmp = tmp_path_factory.mktemp("exit_codes")
    paths = {name: str(path) for name, path in reference_paths.items()}
    paths["dir"] = str(tmp)
    corpus = reference_paths["corpus"].read_bytes().split(b"\n")
    surrogate = list(corpus)
    surrogate[2] = surrogate[2].replace(b'"text": "', b'"text": "\\ud800', 1)
    (tmp / "surrogate.jsonl").write_bytes(b"\n".join(surrogate))
    paths["surrogate"] = str(tmp / "surrogate.jsonl")
    corpus[2] = corpus[2].replace(b'"text": "', b'"text": "\xff', 1)
    (tmp / "not_utf8.jsonl").write_bytes(b"\n".join(corpus))
    paths["not_utf8"] = str(tmp / "not_utf8.jsonl")
    first = corpus[0] + b"\n"
    (tmp / "duplicate.jsonl").write_bytes(first + first)
    paths["duplicate"] = str(tmp / "duplicate.jsonl")
    # Nested far past the recursion limit: the decoder's depth, not a
    # traceback, is the reason given.
    deep = b"[" * 200_000 + b"]" * 200_000 + b"\n"
    (tmp / "deep.jsonl").write_bytes(first + deep)
    paths["deep"] = str(tmp / "deep.jsonl")
    paths["blocks"] = str(tmp / "blocks.json")
    assert main(["split", "--corpus", paths["corpus"], "--out", paths["blocks"]]) == EXIT_OK
    lines = reference_paths["completions_B"].read_text(encoding="utf-8").splitlines(True)
    (tmp / "truncated_B.jsonl").write_text("".join(lines[:400]), encoding="utf-8")
    paths["truncated_B"] = str(tmp / "truncated_B.jsonl")
    paths["sampled_prompts"] = str(tmp / "sampled_prompts.jsonl")
    assert main(["render", "--corpus", paths["corpus"], "--condition", "B",
                 "--blocks-file", paths["blocks"], "--sample", "5",
                 "--out", paths["sampled_prompts"]]) == EXIT_OK
    sampled = {json.loads(line)["example_id"]
               for line in Path(paths["sampled_prompts"]).read_text(encoding="utf-8").splitlines()}
    (tmp / "sampled_B.jsonl").write_text(
        "".join(line for line in lines if json.loads(line)["example_id"] in sampled),
        encoding="utf-8",
    )
    paths["sampled_B"] = str(tmp / "sampled_B.jsonl")
    paths["prompts_A"] = str(tmp / "prompts_A.jsonl")
    assert main(["render", "--corpus", paths["corpus"], "--condition", "A",
                 "--out", paths["prompts_A"]]) == EXIT_OK
    prompts = Path(paths["prompts_A"]).read_bytes().split(b"\n")
    prompts[1] = prompts[1].replace(b'"prompt": "', b'"prompt": "\\udfff', 1)
    (tmp / "surrogate_prompts.jsonl").write_bytes(b"\n".join(prompts))
    paths["surrogate_prompts"] = str(tmp / "surrogate_prompts.jsonl")
    null_prompt = json.loads(prompts[1])
    null_prompt["prompt"] = None
    prompts[1] = json.dumps(null_prompt).encode()
    (tmp / "null_prompts.jsonl").write_bytes(b"\n".join(prompts))
    paths["null_prompts"] = str(tmp / "null_prompts.jsonl")
    records_a = [json.loads(line) for line in
                 reference_paths["completions_A"].read_text(encoding="utf-8").splitlines()]
    unknown = dict(records_a[0], example_id="nosuch_episode:1")
    write_jsonl_records(tmp / "unknown_A.jsonl", records_a + [unknown])
    paths["unknown_A"] = str(tmp / "unknown_A.jsonl")
    write_jsonl_records(tmp / "tagged_C.jsonl", records_a + [dict(records_a[0], condition="C")])
    paths["tagged_C"] = str(tmp / "tagged_C.jsonl")
    write_jsonl_records(tmp / "repeated_A.jsonl", records_a + [records_a[0]])
    paths["repeated_A"] = str(tmp / "repeated_A.jsonl")
    (tmp / "deep_A.jsonl").write_bytes(
        reference_paths["completions_A"].read_bytes() + b"[" * 200_000 + b"]" * 200_000 + b"\n"
    )
    paths["deep_A"] = str(tmp / "deep_A.jsonl")
    # String fields are strings: none is coerced with str().
    for name, field, value in (("text_list_A", "text", ["[Ping()]"]),
                               ("text_null_A", "text", None),
                               ("text_number_A", "text", 12),
                               ("example_id_number_A", "example_id", 7)):
        write_jsonl_records(tmp / f"{name}.jsonl", records_a[:2] + [dict(records_a[2], **{field: value})])
        paths[name] = str(tmp / f"{name}.jsonl")
    # Stage labels are integers: neither a fraction, a boolean nor a
    # string is one.
    for name, stage in (("stage_fraction_A", 4.9), ("stage_true_A", True),
                        ("stage_string_A", " 4 ")):
        write_jsonl_records(tmp / f"{name}.jsonl", [dict(records_a[0], stage=stage)] + records_a[1:])
        paths[name] = str(tmp / f"{name}.jsonl")
    records_a[7]["prompt_hash"] = "0" * 64
    write_jsonl_records(tmp / "stale_A.jsonl", records_a)
    paths["stale_A"] = str(tmp / "stale_A.jsonl")
    (tmp / "not_utf8.csv").write_bytes(b"stage,block_1,block_2\r\n1,0.5,\xff0.1\r\n")
    paths["not_utf8_csv"] = str(tmp / "not_utf8.csv")
    (tmp / "with_stage_0.csv").write_bytes(
        b"stage,block_1,block_2\r\n0,0.1,0.2\r\n1,0.5,0.3\r\n2,0.6,0.7\r\n"
    )
    paths["with_stage_0_csv"] = str(tmp / "with_stage_0.csv")
    (tmp / "repeated_stage.csv").write_bytes(
        b"stage,block_1,block_2\r\n0,0.1,0.2\r\n1,0.5,0.3\r\n2,0.6,0.4\r\n2,0.9,0.9\r\n"
    )
    paths["repeated_stage_csv"] = str(tmp / "repeated_stage.csv")
    (tmp / "stage_5.csv").write_bytes(
        b"stage,block_1,block_2\r\n0,0.1,0.2\r\n1,0.5,0.3\r\n2,0.6,0.4\r\n5,0.9,0.9\r\n"
    )
    paths["stage_5_csv"] = str(tmp / "stage_5.csv")
    (tmp / "stages_1_2.csv").write_bytes(b"stage,block_1,block_2\r\n1,0.5,0.3\r\n2,0.6,0.4\r\n")
    paths["stages_1_2_csv"] = str(tmp / "stages_1_2.csv")
    (tmp / "stage_2_only.csv").write_bytes(b"stage,block_1,block_2\r\n2,0.9,0.9\r\n")
    paths["stage_2_only_csv"] = str(tmp / "stage_2_only.csv")
    (tmp / "swapped_blocks.csv").write_bytes(b"stage,block_2,block_1\r\n0,0.1,0.2\r\n")
    paths["swapped_blocks_csv"] = str(tmp / "swapped_blocks.csv")
    rows = b"0,0.1,0.2\r\n1,0.5,0.3\r\n2,0.6,0.4\r\n"
    (tmp / "repeated_block.csv").write_bytes(b"stage,block_1,block_1\r\n" + rows)
    paths["repeated_block_csv"] = str(tmp / "repeated_block.csv")
    (tmp / "blocks_7_9.csv").write_bytes(b"stage,block_7,block_9\r\n" + rows)
    paths["blocks_7_9_csv"] = str(tmp / "blocks_7_9.csv")
    # The fixture's completions are all at stage T=4; move them to another stage.
    for name, condition, stage in (("stage_9_B", "B", 9), ("stage_neg_A", "A", -1),
                                   ("stage_2_A", "A", 2)):
        lines = reference_paths[f"completions_{condition}"].read_text(encoding="utf-8")
        moved = [dict(json.loads(line), stage=stage) for line in lines.splitlines()]
        write_jsonl_records(tmp / f"{name}.jsonl", moved)
        paths[name] = str(tmp / f"{name}.jsonl")
    blocks = json.loads(Path(paths["blocks"]).read_text(encoding="utf-8"))
    blocks["blocks"][1]["example_ids"].append("querybalance_0000:1")  # also in block 1
    (tmp / "repeated_example.json").write_text(json.dumps(blocks), encoding="utf-8")
    paths["repeated_example_blocks"] = str(tmp / "repeated_example.json")
    blocks["blocks"][1]["example_ids"][-1] = 7
    (tmp / "number_id.json").write_text(json.dumps(blocks), encoding="utf-8")
    paths["number_id_blocks"] = str(tmp / "number_id.json")
    blocks["blocks"][1]["example_ids"].pop()
    # Arrays: not a string whose characters, or an object whose keys, read as items.
    string_ids = json.loads(json.dumps(blocks))
    string_ids["blocks"][0]["example_ids"] = "abc"
    object_blocks = dict(blocks, blocks={str(b["block_id"]): b for b in blocks["blocks"]})
    for name, wrong in (("string_ids", string_ids), ("object_blocks", object_blocks)):
        (tmp / f"{name}.json").write_text(json.dumps(wrong), encoding="utf-8")
        paths[f"{name}_blocks"] = str(tmp / f"{name}.json")
    # Every JSON value read is an object: a blocks entry, a whole blocks
    # file, and each line of the corpus, completions, prompts and scores.
    entry_7 = json.loads(json.dumps(blocks))
    entry_7["blocks"][1] = 7
    for name, wrong in (("entry_7", entry_7), ("array", blocks["blocks"])):
        (tmp / f"{name}.json").write_text(json.dumps(wrong), encoding="utf-8")
        paths[f"{name}_blocks"] = str(tmp / f"{name}.json")
    for name, source, line in (("array_corpus", "corpus", [1]),
                               ("array_line_A", "completions_A", [1, 2]),
                               ("number_line_A", "completions_A", 7)):
        lines = reference_paths[source].read_text(encoding="utf-8").splitlines(True)
        (tmp / f"{name}.jsonl").write_text(
            "".join(lines[:2] + [json.dumps(line) + "\n"] + lines[2:]), encoding="utf-8"
        )
        paths[name] = str(tmp / f"{name}.jsonl")
    blocks["T"] = 4.5
    (tmp / "fraction_t.json").write_text(json.dumps(blocks), encoding="utf-8")
    paths["fraction_t_blocks"] = str(tmp / "fraction_t.json")
    # Block ids lie in 1..T, and T is at least 2.
    blocks = json.loads(Path(paths["blocks"]).read_text(encoding="utf-8"))
    assert [b["block_id"] for b in blocks["blocks"]] == [1, 2, 3, 4] and blocks["T"] == 4
    for name, T, last_id in (("block_9", 4, 9), ("t_2", 2, 4), ("t_1", 1, 4)):
        blocks["T"], blocks["blocks"][3]["block_id"] = T, last_id
        (tmp / f"{name}.json").write_text(json.dumps(blocks), encoding="utf-8")
        paths[f"{name}_blocks"] = str(tmp / f"{name}.json")
    paths["scores_A"] = str(tmp / "scores_A.jsonl")
    assert main(["score", "--corpus", paths["corpus"], "--blocks-file", paths["blocks"],
                 "--completions", paths["completions_A"], "--out", paths["scores_A"]]) == EXIT_OK
    scores = [json.loads(line) for line in Path(paths["scores_A"]).read_text().splitlines()]
    write_jsonl_records(tmp / "block_0.jsonl", [dict(scores[0], block=0)] + scores[1:])
    paths["block_0"] = str(tmp / "block_0.jsonl")
    write_jsonl_records(tmp / "block_true.jsonl", [dict(scores[0], block=True)] + scores[1:])
    paths["block_true"] = str(tmp / "block_true.jsonl")
    write_jsonl_records(tmp / "id_null.jsonl", scores[:1] + [dict(scores[1], example_id=None)])
    paths["id_null"] = str(tmp / "id_null.jsonl")
    (tmp / "array_scores.jsonl").write_text(json.dumps(scores[0]) + "\n[3]\n", encoding="utf-8")
    paths["array_scores"] = str(tmp / "array_scores.jsonl")
    prompts = Path(paths["sampled_prompts"]).read_text(encoding="utf-8").splitlines(True)
    (tmp / "array_prompts.jsonl").write_text(prompts[0] + "[1]\n", encoding="utf-8")
    paths["array_prompts"] = str(tmp / "array_prompts.jsonl")
    # The fixture's scores are all at stage T=4, block 1 first.
    for name, moved in (("scores_stage_9", [dict(r, stage=9) for r in scores]),
                        ("scores_stray_9", scores[:5] + [dict(scores[5], stage=9)] + scores[6:]),
                        ("scores_partial_2", [dict(r, stage=2) for r in scores[:10]]),
                        ("scores_reblocked", [dict(scores[0], stage=3, block=2)])):
        write_jsonl_records(tmp / f"{name}.jsonl", moved)
        paths[name] = str(tmp / f"{name}.jsonl")
    return paths


_SCORE = "score --corpus {corpus} --blocks-file {blocks} --out {out}/scores.jsonl"
_REPORT = "report --corpus {corpus} --import {completions_B} --out {out}/r"
# Nothing listens on the discard port, and no retry waits.
_GENERATE = ("generate --prompts {sampled_prompts} --stage 4 --out {out}/c.jsonl"
             " --base-url http://127.0.0.1:9 --model m --retries 0")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("split --corpus {not_utf8} --out {out}/b.json", EXIT_INPUT, "line 3: "),
        ("split --corpus {duplicate} --out {out}/b.json", EXIT_INPUT, "duplicate episode id"),
        ("split --corpus {dir} --out {out}/b.json", EXIT_INPUT, "error: "),
        ("report --corpus {corpus} --import {dir} --out {out}/r", EXIT_INPUT, "error: "),
        (_SCORE + " --completions {truncated_B}", EXIT_VALIDATION, "40 of 440 examples"),
        (_SCORE + " --completions {sampled_B}", EXIT_VALIDATION, "--prompts"),
        (_SCORE + " --completions {sampled_B} --prompts {sampled_prompts}", EXIT_OK, ""),
        (_SCORE + " --completions {completions_B} --prompts {sampled_prompts}", EXIT_OK, ""),
        (_SCORE + " --completions {completions_A} --condition B", EXIT_VALIDATION,
         "no completions found for condition B"),
        (_SCORE + " --completions {completions_A} --completions {completions_B}",
         EXIT_VALIDATION, "conditions A, B"),
        (_SCORE + " --completions {stale_A} --prompts {prompts_A}", EXIT_STALE, "prompt hash"),
        (_SCORE + " --completions {stale_A}", EXIT_STALE, "stale_A.jsonl: line 8: stale"),
        (_REPORT + " --import {stale_A}", EXIT_STALE, "prompt hash mismatch"),
        (_REPORT + " --import {unknown_A}", EXIT_VALIDATION, "unknown example id"),
        (_REPORT + " --import {tagged_C}", EXIT_VALIDATION, "tagged_C.jsonl: line 441: "),
        ("summary --matrix {not_utf8_csv}", EXIT_VALIDATION, "not_utf8.csv: line 2: "),
        ("summary --matrix {with_stage_0_csv} --baseline {dir}/nonexistent.csv",
         EXIT_VALIDATION, "with_stage_0.csv: matrix has a stage 0 row"),
        ("matrix --scores {block_0} --out {out}/m.csv", EXIT_VALIDATION,
         "block_0.jsonl: block 0 is outside blocks 1..4"),
        ("matrix --scores {block_true} --out {out}/m.csv", EXIT_VALIDATION,
         "block_true.jsonl: line 1: block must be an integer, got true"),
        ("report --corpus {corpus} --conditions A --import {stage_fraction_A} --out {out}/r",
         EXIT_VALIDATION, "stage_fraction_A.jsonl: line 1: stage must be an integer, got 4.9"),
        ("report --corpus {corpus} --conditions A --import {stage_true_A} --out {out}/r",
         EXIT_VALIDATION, "stage_true_A.jsonl: line 1: stage must be an integer, got true"),
        ("report --corpus {corpus} --conditions A --import {stage_string_A} --out {out}/r",
         EXIT_VALIDATION, 'stage_string_A.jsonl: line 1: stage must be an integer, got " 4 "'),
        ("score --corpus {corpus} --blocks-file {repeated_example_blocks} --out {out}/s.jsonl"
         " --completions {completions_A}", EXIT_VALIDATION,
         "repeated_example.json: example 'querybalance_0000:1' is listed in block 1 and in block 2"),
        ("score --corpus {corpus} --blocks-file {fraction_t_blocks} --out {out}/s.jsonl"
         " --completions {completions_A}", EXIT_VALIDATION,
         "fraction_t.json: T must be an integer, got 4.5"),
        ("score --corpus {corpus} --blocks-file {block_9_blocks} --out {out}/s.jsonl"
         " --completions {completions_A}", EXIT_VALIDATION,
         "block_9.json: block 9 is outside blocks 1..4"),
        ("score --corpus {corpus} --blocks-file {t_2_blocks} --out {out}/s.jsonl"
         " --completions {completions_A}", EXIT_VALIDATION,
         "t_2.json: block 3 is outside blocks 1..2"),
        ("score --corpus {corpus} --blocks-file {t_1_blocks} --out {out}/s.jsonl"
         " --completions {completions_A}", EXIT_VALIDATION, "t_1.json: T must be at least 2, got 1"),
        ("summary --matrix {repeated_stage_csv}", EXIT_VALIDATION,
         "repeated_stage.csv: line 5: stage 2 appears more than once"),
        ("summary --matrix {stage_5_csv}", EXIT_VALIDATION,
         "stage_5.csv: line 5: stage 5 is outside stages 0..2"),
        ("summary --matrix {stages_1_2_csv} --baseline {stage_2_only_csv}", EXIT_VALIDATION,
         "stage_2_only.csv: baseline CSV must hold exactly one row (stage 0)"),
        ("summary --matrix {stages_1_2_csv} --baseline {with_stage_0_csv}", EXIT_VALIDATION,
         "with_stage_0.csv: baseline CSV must hold exactly one row (stage 0)"),
        ("summary --matrix {stages_1_2_csv} --baseline {swapped_blocks_csv}", EXIT_VALIDATION,
         "swapped_blocks.csv: blocks [2, 1] differ from the matrix's [1, 2]"),
        ("render --corpus {surrogate} --condition B --out {out}/p.jsonl", EXIT_INPUT,
         "surrogate.jsonl: line 3: turn 0 text holds a lone surrogate"),
        (_REPORT.replace("{corpus}", "{surrogate}"), EXIT_INPUT,
         "surrogate.jsonl: line 3: turn 0 text holds a lone surrogate"),
        (_SCORE + " --completions {completions_A} --prompts {surrogate_prompts}", EXIT_VALIDATION,
         "surrogate_prompts.jsonl: line 2: prompt holds a lone surrogate"),
        ("summary --matrix {repeated_block_csv}", EXIT_VALIDATION,
         "repeated_block.csv: line 1: block 1 appears more than once"),
        ("summary --matrix {blocks_7_9_csv}", EXIT_VALIDATION,
         "blocks_7_9.csv: line 1: block 7 is outside blocks 1..2"),
        ("report --corpus {corpus} --import {completions_A} --import {stage_9_B} --out {out}/r",
         EXIT_VALIDATION, "stage_9_B.jsonl: line 1: stage 9 is outside stages 0..4"),
        ("report --corpus {corpus} --conditions A --import {stage_neg_A} --out {out}/r",
         EXIT_VALIDATION, "stage_neg_A.jsonl: line 1: stage -1 is outside stages 0..4"),
        (_SCORE + " --completions {stage_neg_A}", EXIT_VALIDATION,
         "stage_neg_A.jsonl: line 1: stage -1 is outside stages 0..4"),
        ("matrix --scores {scores_stage_9} --out {out}/m.csv", EXIT_VALIDATION,
         "scores_stage_9.jsonl: stage 9 is outside stages 0..4"),
        ("matrix --scores {scores_stray_9} --out {out}/m.csv", EXIT_VALIDATION,
         "scores_stray_9.jsonl: stage 9 is outside stages 0..4"),
        ("matrix --scores {scores_A} --scores {scores_partial_2} --out {out}/m.csv", EXIT_OK,
         "note: stage 2 has no scores for blocks [2, 3, 4]; leaving it out of the matrix"),
        ("matrix --scores {scores_A} --scores {scores_reblocked} --out {out}/m.csv",
         EXIT_VALIDATION, "scores_reblocked.jsonl: example 'querybalance_0000:1' is in block 1 "
         "and in block 2"),
        (_SCORE + " --completions {stage_2_A} --categories {out}/categories.csv",
         EXIT_VALIDATION, "no completions at the final stage 4 for --categories"),
        ("split --corpus {deep} --out {out}/b.json", EXIT_INPUT,
         "deep.jsonl: line 2: invalid JSON (nested too deeply)"),
        (_REPORT + " --import {deep_A}", EXIT_VALIDATION,
         "deep_A.jsonl: line 441: invalid JSON (nested too deeply)"),
        ("report --corpus {corpus} --conditions A --import {text_list_A} --out {out}/r",
         EXIT_VALIDATION, 'text_list_A.jsonl: line 3: text must be a string, got ["[Ping()]"]'),
        ("report --corpus {corpus} --conditions A --import {text_null_A} --out {out}/r",
         EXIT_VALIDATION, "text_null_A.jsonl: line 3: text must be a string, got null"),
        ("report --corpus {corpus} --conditions A --import {text_number_A} --out {out}/r",
         EXIT_VALIDATION, "text_number_A.jsonl: line 3: text must be a string, got 12"),
        ("report --corpus {corpus} --conditions A --import {example_id_number_A} --out {out}/r",
         EXIT_VALIDATION, "example_id_number_A.jsonl: line 3: example_id must be a string, got 7"),
        (_SCORE + " --completions {completions_A} --prompts {null_prompts}", EXIT_VALIDATION,
         "null_prompts.jsonl: line 2: prompt must be a string, got null"),
        ("matrix --scores {id_null} --out {out}/m.csv", EXIT_VALIDATION,
         "id_null.jsonl: line 2: example_id must be a string, got null"),
        ("score --corpus {corpus} --blocks-file {number_id_blocks} --out {out}/s.jsonl"
         " --completions {completions_A}", EXIT_VALIDATION,
         "number_id.json: example_ids entry must be a string, got 7"),
        (_GENERATE + " --stop a\\", EXIT_USAGE, "argument --stop: bad escape in 'a\\\\'"),
        (_GENERATE + " --stop a\\q", EXIT_USAGE, "argument --stop: bad escape in 'a\\\\q'"),
        (_GENERATE + " --retries -1", EXIT_VALIDATION, "retries must be at least 0, got -1"),
        (_GENERATE + " --max-parallel 0", EXIT_VALIDATION,
         "max_parallel must be at least 1, got 0"),
        (_GENERATE + " --timeout -1", EXIT_VALIDATION, "timeout must be positive, got -1.0"),
        (_GENERATE + " --timeout inf", EXIT_VALIDATION, "timeout must be finite, got inf"),
        (_GENERATE + " --max-tokens 0", EXIT_VALIDATION,
         "max_new_tokens must be at least 1, got 0"),
        (_REPORT + " --stages 0,1 --model x --cache-dir {dir}/nonexistent/zz", EXIT_VALIDATION,
         "--stages, --model, --cache-dir only apply in endpoint mode (--base-url)"),
        (_REPORT + " --stop x", EXIT_VALIDATION,
         "--stop only apply in endpoint mode (--base-url)"),
        (_REPORT + " --max-tokens 0", EXIT_VALIDATION,
         "--max-tokens only apply in endpoint mode (--base-url)"),
        (_REPORT + " --timeout -1", EXIT_VALIDATION,
         "--timeout only apply in endpoint mode (--base-url)"),
        (_REPORT + " --max-parallel 0", EXIT_VALIDATION,
         "--max-parallel only apply in endpoint mode (--base-url)"),
        (_REPORT + " --retries -3", EXIT_VALIDATION,
         "--retries only apply in endpoint mode (--base-url)"),
        (_REPORT + " --max-parallel 0 --retries -3 --timeout -1 --max-tokens 0", EXIT_VALIDATION,
         "--max-tokens, --timeout, --max-parallel, --retries only apply in endpoint mode"),
        ("render --corpus {corpus} --condition B --blocks-file {string_ids_blocks}"
         " --out {out}/p.jsonl", EXIT_VALIDATION,
         'string_ids.json: example_ids must be an array, got "abc"'),
        ("score --corpus {corpus} --blocks-file {string_ids_blocks} --out {out}/s.jsonl"
         " --completions {completions_A}", EXIT_VALIDATION,
         'string_ids.json: example_ids must be an array, got "abc"'),
        ("score --corpus {corpus} --blocks-file {object_blocks_blocks} --out {out}/s.jsonl"
         " --completions {completions_A}", EXIT_VALIDATION,
         'object_blocks.json: blocks must be an array, got {"1": '),
        (_REPORT.split() + ["--tokenizer-cmd", " "], EXIT_USAGE,
         "argument --tokenizer-cmd: no command in ' '"),
        (_REPORT.split() + ["--tokenizer-cmd", ""], EXIT_USAGE,
         "argument --tokenizer-cmd: no command in ''"),
        (_REPORT.split() + ["--tokenizer-cmd", "wc -w 'x"], EXIT_USAGE,
         "argument --tokenizer-cmd: cannot split \"wc -w 'x\": No closing quotation"),
        ("report --corpus {corpus} --conditions A --import {repeated_A} --out {out}/r",
         EXIT_VALIDATION, "repeated_A.jsonl: line 441: more than one completion for example "
         "'querybalance_0000:1' at stage 4\n"),
        (_SCORE + " --completions {repeated_A}", EXIT_VALIDATION,
         "repeated_A.jsonl: line 441: more than one completion for example "
         "'querybalance_0000:1' at stage 4\n"),
        (_SCORE + " --completions {truncated_B}", EXIT_VALIDATION,
         "condition B: 40 of 440 examples x 1 stages have no completion (to score a sampled "
         "run, pass its prompts file as --prompts)\n"),
        (_SCORE + " --completions {unknown_A}", EXIT_VALIDATION,
         "unknown_A.jsonl: line 441: completion references unknown example id "
         "'nosuch_episode:1'\n"),
        ("render --corpus {corpus} --condition B --blocks-file {entry_7_blocks}"
         " --out {out}/p.jsonl", EXIT_VALIDATION,
         "entry_7.json: blocks entry 1: expected a JSON object, got a number\n"),
        ("render --corpus {corpus} --condition B --blocks-file {array_blocks}"
         " --out {out}/p.jsonl", EXIT_VALIDATION,
         "array.json: expected a JSON object, got an array\n"),
        ("split --corpus {array_corpus} --out {out}/b.json", EXIT_INPUT,
         "array_corpus.jsonl: line 3: expected a JSON object, got an array\n"),
        (_SCORE + " --completions {array_line_A}", EXIT_VALIDATION,
         "array_line_A.jsonl: line 3: expected a JSON object, got an array\n"),
        ("report --corpus {corpus} --conditions A --import {number_line_A} --out {out}/r",
         EXIT_VALIDATION, "number_line_A.jsonl: line 3: expected a JSON object, got a number\n"),
        ("matrix --scores {array_scores} --out {out}/m.csv", EXIT_VALIDATION,
         "array_scores.jsonl: line 2: expected a JSON object, got an array\n"),
        (_GENERATE.replace("{sampled_prompts}", "{array_prompts}"), EXIT_VALIDATION,
         "array_prompts.jsonl: line 2: expected a JSON object, got an array\n"),
    ],
    ids=["corpus-not-utf8", "duplicate-episode", "corpus-dir", "import-dir",
         "score-truncated", "score-sampled-without-prompts", "score-sampled-with-prompts",
         "score-all-with-sampled-prompts", "score-condition-without-records",
         "score-two-conditions", "score-stale-hash", "score-stale-hash-without-prompts",
         "report-stale-hash", "report-unknown-id", "report-unknown-condition",
         "matrix-not-utf8", "summary-stage-0-and-baseline", "matrix-block-0",
         "matrix-block-boolean", "report-stage-fraction", "report-stage-boolean",
         "report-stage-string",
         "score-example-in-two-blocks", "score-blocks-t-fraction", "score-block-id-above-t",
         "score-blocks-t-2", "score-blocks-t-1",
         "summary-repeated-stage", "summary-stage-outside-t", "summary-baseline-not-stage-0",
         "summary-baseline-extra-row", "summary-baseline-other-blocks", "render-lone-surrogate",
         "report-lone-surrogate", "score-prompts-lone-surrogate", "summary-repeated-block",
         "summary-block-outside-t", "report-stage-above-t", "report-stage-below-0",
         "score-stage-below-0", "matrix-stage-above-t", "matrix-stray-stage-above-t",
         "matrix-stage-missing-blocks", "matrix-example-in-two-blocks",
         "score-categories-without-stage-t", "corpus-nested-too-deeply",
         "report-nested-too-deeply",
         "report-text-list", "report-text-null", "report-text-number", "report-example-id-number",
         "score-prompt-null", "matrix-example-id-null", "score-blocks-example-id-number",
         "generate-stop-trailing-backslash", "generate-stop-unknown-escape",
         "generate-retries-negative", "generate-max-parallel-0", "generate-timeout-negative",
         "generate-timeout-infinite",
         "generate-max-tokens-0", "report-import-with-endpoint-flags", "report-import-with-stop",
         "report-import-with-max-tokens", "report-import-with-timeout",
         "report-import-with-max-parallel", "report-import-with-retries",
         "report-import-with-every-setting", "render-blocks-string-ids",
         "score-blocks-string-ids", "score-blocks-object", "report-tokenizer-blank",
         "report-tokenizer-empty", "report-tokenizer-unbalanced-quote",
         "report-repeated-completion", "score-repeated-completion",
         "score-missing-completions-hint", "score-unknown-id-no-hint",
         "render-blocks-entry-number", "render-blocks-array", "corpus-line-array",
         "score-completion-array", "report-completion-number", "matrix-score-array",
         "generate-prompt-array"],
)
def test_exit_code_table(exit_code_inputs, tmp_path, capsys, argv, code, message):
    # A row is a command line split at blanks, or a list of words when a
    # word holds a blank or is empty.
    if isinstance(argv, str):
        argv = argv.format(**exit_code_inputs, out=tmp_path).split()
    else:
        argv = [word.format(**exit_code_inputs, out=tmp_path) for word in argv]
    try:
        exit_code = main(argv)
    except SystemExit as exc:  # a usage error, raised by argparse
        exit_code = exc.code
    assert exit_code == code
    assert message in capsys.readouterr().err
    if code != EXIT_OK:
        # A failed run scores nothing it leaves behind.
        assert not list(tmp_path.rglob("scores*.jsonl"))
        assert not list(tmp_path.rglob("categories*.csv"))
        assert not list(tmp_path.rglob("manifest.json"))
        if "lone surrogate" in message:
            # Rejected while the input is read, before any output is written.
            assert not list(tmp_path.rglob("*.jsonl"))
