"""Artifact emission and the end-to-end report pipeline."""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

import pytest

from _support import MULTISTAGE_SEED, MULTISTAGE_T, MockEndpoint, write_multistage_inputs
from toolstream import report, scoring
from toolstream.cli import EXIT_OK, main
from toolstream.corpus import StreamSpec
from toolstream.fixtures import trace_heavy_corpus_records, write_jsonl_records
from toolstream.genclient import EndpointConfig
from toolstream.report import (
    ReportError,
    emit_heatmap_data,
    format_pct,
    run_report,
)
from toolstream.scoring import METRICS, AggregationError
from toolstream.transform import Condition, RenderedPrompt

# sha256 over (name, bytes) of each `report` output except manifest.json,
# in name order (see _report_digest), for the fixture and for the seeded
# multi-stage input of _support.write_multistage_inputs.
REFERENCE_REPORT_SHA256 = "264111b1ce56252304c091130689f2425877becca06215e2e888537663b244a9"
MULTISTAGE_REPORT_SHA256 = "2c5b72766d40274d4ee5cc45998c48d5295838b18d87753a4f2777b2bd206a77"
# The same over the prompt files and context_stats.json of a report on 6
# episodes of 40 calls each (see test_long_trace_report_golden_digest).
LONG_TRACE_RENDER_SHA256 = "fb53bf83f93ed2a7b7180d83c281d46aba065d18a795db8a5dda0cdd66a570b4"
LONG_TRACE_RENDER_FILES = ("context_stats.json", "prompts_A.jsonl", "prompts_B.jsonl")


def _report_digest(out: Path, names: tuple[str, ...] = ()) -> str:
    """Digest of the named outputs, or by default of every output but
    manifest.json, which holds paths."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        keep = path.name in names if names else path.name != "manifest.json"
        if keep:
            digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class TestFormatPct:
    @pytest.mark.parametrize(
        "fraction,expected",
        [
            (0.125, "12.5"),
            (0.5625, "56.3"),   # half rounds up
            (0.392041860, "39.2"),
            (1.0, "100.0"),
            (0.0, "0.0"),
        ],
    )
    def test_half_up_one_decimal(self, fraction, expected):
        assert format_pct(fraction) == expected


class TestHeatmapData:
    def test_two_matrices_give_32_rows(self, tmp_path):
        rng = random.Random(3)
        rows = {
            tag: {stage: [rng.random() for _ in range(4)] for stage in range(1, 5)}
            for tag in ("A", "B")
        }
        path = tmp_path / "heatmap.csv"
        emit_heatmap_data(path, rows, block_ids=[1, 2, 3, 4])
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "condition,stage,block,value"
        assert len(lines) == 1 + 32

        # read-back reconstructs the matrices exactly
        rebuilt: dict[str, dict[int, dict[int, float]]] = {}
        with path.open() as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                rebuilt.setdefault(row["condition"], {}).setdefault(
                    int(row["stage"]), {}
                )[int(row["block"])] = float(row["value"])
        for tag, stage_rows in rows.items():
            for stage, values in stage_rows.items():
                assert [rebuilt[tag][stage][b] for b in (1, 2, 3, 4)] == values

    def test_empty_set_gives_header_only(self, tmp_path):
        path = tmp_path / "heatmap.csv"
        emit_heatmap_data(path, {}, block_ids=[1, 2])
        assert path.read_text(encoding="utf-8").strip() == "condition,stage,block,value"


class TestRunReport:
    def test_requires_exactly_one_source(self, reference_paths, tmp_path):
        with pytest.raises(ReportError):
            run_report(
                corpus_path=reference_paths["corpus"],
                out_dir=tmp_path / "out",
                stream=StreamSpec(T=4, seed=42),
                conditions=[Condition.A_STRIPPED],
            )

    def test_reference_replay_outputs(self, reference_paths, tmp_path):
        out = run_report(
            corpus_path=reference_paths["corpus"],
            out_dir=tmp_path / "out",
            stream=StreamSpec(T=4, seed=42),
            conditions=[Condition.A_STRIPPED, Condition.B_TRAJECTORY],
            import_paths=[
                reference_paths["completions_A"],
                reference_paths["completions_B"],
            ],
        )
        produced = {p.name for p in out.iterdir()}
        assert {
            "manifest.json",
            "blocks.json",
            "prompts_A.jsonl",
            "prompts_B.jsonl",
            "scores_A.jsonl",
            "scores_B.jsonl",
            "categories_A.csv",
            "categories_B.csv",
            "final_table.csv",
            "final_means.json",
            "context_stats.json",
            "heatmap_exact.csv",
        } <= produced

        means = json.loads((out / "final_means.json").read_text())
        assert format_pct(means["A"]["macro"]["exact"]) == "39.2"
        assert format_pct(means["B"]["macro"]["exact"]) == "56.9"
        assert format_pct(means["A"]["macro"]["name"]) == "66.6"
        assert format_pct(means["B"]["macro"]["name"]) == "74.3"
        assert format_pct(means["A"]["macro"]["name_any"]) == "56.1"
        assert format_pct(means["B"]["macro"]["name_any"]) == "69.4"
        assert means["A"]["n_final"] == 440

        categories = (out / "categories_A.csv").read_text().strip().splitlines()
        counts = [int(line.rsplit(",", 1)[1]) for line in categories[1:]]
        assert counts == [172, 74, 47, 102, 45]

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stream"]["T"] == 4
        assert manifest["conditions"] == ["A", "B"]
        assert manifest["stages"] == [4]
        assert manifest["source"]["mode"] == "import"

        stats = json.loads((out / "context_stats.json").read_text())
        assert stats["ws_token_ratio_b_over_a"] > 1

    def test_reference_report_golden_digest(self, reference_paths, tmp_path):
        # Pins the bytes of every output but manifest.json, so a change
        # that alters them the same way on every run still fails here.
        out = tmp_path / "out"
        code = main(
            [
                "report",
                "--corpus", str(reference_paths["corpus"]),
                "--import", str(reference_paths["completions_A"]),
                "--import", str(reference_paths["completions_B"]),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert _report_digest(out) == REFERENCE_REPORT_SHA256

    def test_multistage_report_golden_digest(self, tmp_path):
        # Stages 0-4 under both conditions: full matrices, summaries and
        # heatmaps, which the single-stage fixture does not write.
        corpus, imports = write_multistage_inputs(tmp_path / "in")
        out = run_report(
            corpus_path=corpus,
            out_dir=tmp_path / "out",
            stream=StreamSpec(T=MULTISTAGE_T, seed=MULTISTAGE_SEED),
            conditions=[Condition.A_STRIPPED, Condition.B_TRAJECTORY],
            import_paths=imports,
        )
        assert (out / "summary_A.json").exists() and (out / "summary_B.json").exists()
        assert _report_digest(out) == MULTISTAGE_REPORT_SHA256

    def test_long_trace_report_golden_digest(self, tmp_path):
        # Up to 157 context turns per prompt, where the multi-stage input
        # has at most 9: pins the rendered prompts and their length totals
        # on long action-observation traces.
        corpus, imports = write_multistage_inputs(
            tmp_path / "in", n_episodes=6, calls_per_episode=40, stages=(MULTISTAGE_T,)
        )
        out = run_report(
            corpus_path=corpus,
            out_dir=tmp_path / "out",
            stream=StreamSpec(T=MULTISTAGE_T, seed=MULTISTAGE_SEED),
            conditions=[Condition.A_STRIPPED, Condition.B_TRAJECTORY],
            import_paths=imports,
        )
        assert _report_digest(out, LONG_TRACE_RENDER_FILES) == LONG_TRACE_RENDER_SHA256

    def test_import_given_twice_is_rejected(self, reference_paths, tmp_path):
        with pytest.raises(AggregationError, match="more than one completion"):
            run_report(
                corpus_path=reference_paths["corpus"],
                out_dir=tmp_path / "out",
                stream=StreamSpec(T=4, seed=42),
                conditions=[Condition.A_STRIPPED],
                import_paths=[reference_paths["completions_A"]] * 2,
            )

    def test_final_table_contents(self, reference_paths, tmp_path):
        out = run_report(
            corpus_path=reference_paths["corpus"],
            out_dir=tmp_path / "out",
            stream=StreamSpec(T=4, seed=42),
            conditions=[Condition.A_STRIPPED, Condition.B_TRAJECTORY],
            import_paths=[
                reference_paths["completions_A"],
                reference_paths["completions_B"],
            ],
        )
        rows = (out / "final_table.csv").read_text().strip().splitlines()
        assert rows[0] == "condition,metric,block_1,block_2,block_3,block_4,mean"
        table = {tuple(r.split(",")[:2]): r.split(",")[2:] for r in rows[1:]}
        assert table[("A", "exact")][-1] == "39.2"
        assert table[("B", "exact")][-1] == "56.9"
        # block 1 holds the 126-example block
        assert table[("A", "exact")][0] == "35.7"
        assert table[("B", "exact")][0] == "57.9"

    def test_summary_skipped_without_full_stage_coverage(
        self, reference_paths, tmp_path, capsys
    ):
        out = run_report(
            corpus_path=reference_paths["corpus"],
            out_dir=tmp_path / "out",
            stream=StreamSpec(T=4, seed=42),
            conditions=[Condition.A_STRIPPED],
            import_paths=[reference_paths["completions_A"]],
        )
        assert not (out / "summary_A.json").exists()
        assert "skipping the continual-learning summary" in capsys.readouterr().err

    def test_sampled_run(self, reference_paths, tmp_path):
        out = run_report(
            corpus_path=reference_paths["corpus"],
            out_dir=tmp_path / "out",
            stream=StreamSpec(T=4, seed=42, sample_size=32),
            conditions=[Condition.A_STRIPPED],
            import_paths=[reference_paths["completions_A"]],
        )
        scores = (out / "scores_A.jsonl").read_text().strip().splitlines()
        assert len(scores) == 4 * 32

    def test_endpoint_mode_with_full_stage_coverage(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        write_jsonl_records(
            corpus_path, trace_heavy_corpus_records(n_episodes=6, calls_per_episode=2)
        )
        with MockEndpoint(reply=lambda p: "[DemoTool0(arg0a='x', arg0b='y')]") as mock:
            endpoint = EndpointConfig(
                base_url=mock.base_url,
                model_id="mock",
                max_parallel=2,
                retries=1,
                retry_backoff=0.01,
                timeout=10.0,
            )
            out = run_report(
                corpus_path=corpus_path,
                out_dir=tmp_path / "out",
                stream=StreamSpec(T=2, seed=42),
                conditions=[Condition.B_TRAJECTORY],
                endpoint=endpoint,
                stages=[0, 1, 2],
                cache_dir=tmp_path / "cache",
            )
        assert (out / "summary_B.json").exists()
        summary = json.loads((out / "summary_B.json").read_text())
        assert set(summary) == {"final_aa", "bwt", "fwt", "avg_forgetting", "aulc"}
        matrix_lines = (out / "matrix_exact_B.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in matrix_lines] == ["stage", "0", "1", "2"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["source"]["mode"] == "http"
        assert manifest["stages"] == [0, 1, 2]

    def test_cache_hit_scores_the_requesting_example(self, tmp_path):
        # Under condition A, cuts 1 and 3 of `user, api_request, api_response,
        # api_request` render to one prompt, so cut 3 is a cache hit.
        records = [
            {
                "id": f"e{i}",
                "turns": [
                    {"role": "user", "text": f"request {i}"},
                    {"role": "api_request", "text": f"[Tool{i % 2}(step='a{i}')]"},
                    {"role": "api_response", "text": "ok"},
                    {"role": "api_request", "text": f"[Tool{i % 2}(step='b{i}')]"},
                ],
            }
            for i in range(4)
        ]
        corpus_path = tmp_path / "corpus.jsonl"
        write_jsonl_records(corpus_path, records)
        with MockEndpoint() as mock:
            endpoint = EndpointConfig(
                base_url=mock.base_url, model_id="mock", max_parallel=1, timeout=10.0
            )
            out = run_report(
                corpus_path=corpus_path,
                out_dir=tmp_path / "out",
                stream=StreamSpec(T=2, seed=42),
                conditions=[Condition.A_STRIPPED],
                endpoint=endpoint,
                stages=[2],
                cache_dir=tmp_path / "cache",
            )
        assert mock.requests == 4
        lines = (out / "scores_A.jsonl").read_text().splitlines()
        scored = sorted(json.loads(line)["example_id"] for line in lines)
        assert scored == [f"e{i}:{cut}" for i in range(4) for cut in (1, 3)]

    def test_records_of_one_prompt_share_its_hash(self, reference_paths, tmp_path, monkeypatch):
        # Endpoint mode gives each prompt's records at every stage the one
        # hash string that prompt keeps, not a copy per stage.
        batches = []
        generate = report.batch_generate

        def recording(prompts, *args):
            result = generate(prompts, *args)
            batches.append(result.records)
            return result

        monkeypatch.setattr(report, "batch_generate", recording)
        with MockEndpoint() as mock:
            endpoint = EndpointConfig(base_url=mock.base_url, model_id="mock", timeout=10.0)
            run_report(
                corpus_path=reference_paths["corpus"],
                out_dir=tmp_path / "out",
                stream=StreamSpec(T=4, seed=42, sample_size=2),
                conditions=[Condition.A_STRIPPED],
                endpoint=endpoint,
                stages=[0, 4],
            )
        stage_0, stage_4 = batches
        assert len(stage_0) == 8
        for first, last in zip(stage_0, stage_4, strict=True):
            assert (first.stage, last.stage) == (0, 4)
            assert first.example_id is last.example_id
            assert first.prompt_hash is last.prompt_hash


def test_trace_targets_resolve(monkeypatch):
    # perfbench's `--trace 1` replaces each (owner, attr) in spans.TARGETS and
    # the prompt_hash property; a name missing here breaks trace mode.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    for owner, attr, _, _ in spans.TARGETS:
        assert callable(getattr(owner, attr)), f"{owner!r}.{attr}"
    assert isinstance(RenderedPrompt.__dict__["prompt_hash"], property)


@pytest.mark.parametrize("workload", ["replay-stages", "replay-long-trace"])
def test_perfbench_inputs_score_as_planted(monkeypatch, tmp_path, workload):
    # perfbench's workloads build their inputs with package names (records,
    # writers, the trace-heavy corpus); a change that breaks one of them
    # would otherwise show only as a failed benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    inputs = workloads.write_inputs(workloads.WORKLOADS[workload], 7, tmp_path / "in")
    out = run_report(
        inputs.corpus,
        tmp_path / "out",
        inputs.stream,
        conditions=[Condition.A_STRIPPED, Condition.B_TRAJECTORY],
        import_paths=inputs.import_paths,
    )
    assert workloads.check_scores(out, inputs.planted) == 0


@pytest.mark.parametrize("inputs", ["multistage", "fixture-sample-5"])
def test_steps_match_report(reference_paths, tmp_path, inputs):
    # split -> render -> score -> matrix -> summary writes what `report` writes.
    if inputs == "multistage":
        corpus, imports = write_multistage_inputs(tmp_path / "in")
        T, seed, sample = MULTISTAGE_T, MULTISTAGE_SEED, []
    else:
        corpus = reference_paths["corpus"]
        imports = [reference_paths["completions_A"], reference_paths["completions_B"]]
        T, seed, sample = 4, 42, ["--sample", "5"]
    corpus, out, steps = str(corpus), tmp_path / "report", tmp_path / "steps"
    steps.mkdir()
    argv = ["report", "--corpus", corpus, "--blocks", str(T), "--seed", str(seed)]
    for path in imports:
        argv += ["--import", str(path)]
    assert main(argv + sample + ["--out", str(out)]) == EXIT_OK

    blocks = str(steps / "blocks.json")
    split = ["split", "--corpus", corpus, "--blocks", str(T), "--seed", str(seed)]
    assert main(split + ["--out", blocks]) == EXIT_OK
    names = ["blocks.json"]
    for tag, completions in zip("AB", imports):
        prompts, scores = steps / f"prompts_{tag}.jsonl", steps / f"scores_{tag}.jsonl"
        render = ["render", "--corpus", corpus, "--condition", tag, "--out", str(prompts)]
        if sample:
            render += ["--blocks-file", blocks, "--sample-seed", str(seed)] + sample
        assert main(render) == EXIT_OK
        categories = steps / f"categories_{tag}.csv"
        score = ["score", "--corpus", corpus, "--blocks-file", blocks,
                 "--completions", str(completions), "--out", str(scores),
                 "--categories", str(categories)]
        assert main(score + (["--prompts", str(prompts)] if sample else [])) == EXIT_OK
        names += [prompts.name, scores.name, categories.name]
        for metric in METRICS:
            matrix = steps / f"matrix_{metric}_{tag}.csv"
            assert main(["matrix", "--scores", str(scores), "--metric", metric,
                         "--out", str(matrix)]) == EXIT_OK
            names.append(matrix.name)
        if inputs == "multistage":  # the fixture's one stage gives no summary
            summary = steps / f"summary_{tag}.json"
            assert main(["summary", "--matrix", str(steps / f"matrix_exact_{tag}.csv"),
                         "--out", str(summary)]) == EXIT_OK
            names.append(summary.name)
    for name in names:
        assert (steps / name).read_bytes() == (out / name).read_bytes(), name


def test_traced_report_calls_every_import_path_target(monkeypatch, tmp_path):
    # perfbench's trace mode times `report` through its names in spans.TARGETS;
    # a step that bypasses one of them drops out of the layer metrics.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    # The multi-stage input writes summaries, which the single-stage fixture skips.
    corpus, imports = write_multistage_inputs(tmp_path / "in")
    tracer, called = spans.Tracer(), set()
    call = tracer.call

    def recording(name, fn, args, kwargs, info):
        called.add(fn.__name__)
        return call(name, fn, args, kwargs, info)

    monkeypatch.setattr(tracer, "call", recording)
    tracer.install()
    try:
        run_report(
            corpus_path=corpus,
            out_dir=tmp_path / "out",
            stream=StreamSpec(T=MULTISTAGE_T, seed=MULTISTAGE_SEED),
            conditions=[Condition.A_STRIPPED, Condition.B_TRAJECTORY],
            import_paths=imports,
        )
    finally:
        tracer.uninstall()
    # Scoring must parse and normalize through `scoring`'s names, which the
    # calls.parse_* and calls.normalize_* metrics count. Since scoring reads a
    # matched call straight from the match, these see only the texts the match
    # declines, plus one normalize per expected call.
    targets = {attr for owner, attr, _, _ in spans.TARGETS if owner in (report, scoring)}
    assert {"parse_first_call", "normalize_params"} <= targets
    assert targets - {"batch_generate"} <= called, targets - called
