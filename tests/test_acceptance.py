"""Acceptance suite: the release gate, one test per criterion.

Each test prints a single `ACCEPTANCE n ... PASS|FAIL` line (run with
`pytest tests/test_acceptance.py -v -s` to see them inline). Tolerances
are pinned here and nowhere else.
"""

from __future__ import annotations

import filecmp
import random
import time
from collections import Counter

from _support import (
    MALFORMED_CASES,
    MockEndpoint,
    category_counts,
    load_episodes_from_records,
    oracle_aulc,
    oracle_flags,
    oracle_average_accuracy,
    oracle_bwt,
    oracle_forgetting,
    oracle_fwt,
    random_call,
    random_matrix,
    random_text,
    score_records,
)
from toolstream.calls import (
    ApiCall,
    ParsedCall,
    ParseFailure,
    normalize_params,
    parse_first_call,
    render_call,
)
from toolstream.cli import EXIT_OK, main
from toolstream.clmetrics import (
    aulc,
    average_accuracy,
    avg_forgetting,
    baseline_vector,
    bwt,
    eval_matrix,
    fwt,
)
from toolstream.corpus import Role, extract_examples
from toolstream.fixtures import trace_heavy_corpus_records
from toolstream.genclient import (
    CompletionCache,
    EndpointConfig,
    batch_generate,
    import_completions,
)
from toolstream.report import format_pct
from toolstream.scoring import (
    CATEGORY_ORDER,
    FLAGS,
    ScoreRecord,
    aggregate_macro,
    evaluate_completion,
    rates,
    score_completions,
)
from toolstream.transform import (
    PREFIXES,
    Condition,
    RenderedPrompt,
    render_prompt,
)


def _verdict(num: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {num} ({label}): {status}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


def _scored_blocks(reference_paths, reference_blocks, condition: str):
    _, blocks, index = reference_blocks
    records = import_completions([reference_paths[f"completions_{condition}"]])
    scored = score_records(score_completions(records, index, 4)[condition])
    by_block: dict[int, list] = {}
    for record in scored:
        by_block.setdefault(record.block_id, []).append(record)
    return scored, [rates(category_counts(by_block[b])) for b in sorted(by_block)]


def test_criterion_1_final_table_replay(reference_paths, reference_blocks):
    started = time.perf_counter()
    targets = {
        "A": {"exact": 39.2, "name": 66.6, "name_any": 56.1},
        "B": {"exact": 56.9, "name": 74.3, "name_any": 69.4},
    }
    failures: list[str] = []
    for condition, expected in targets.items():
        _, block_scores = _scored_blocks(reference_paths, reference_blocks, condition)
        macro = aggregate_macro(block_scores)
        for metric, target in expected.items():
            got = macro[metric] * 100
            if abs(got - target) > 0.05:
                failures.append(f"{condition}/{metric}: {got:.3f} vs {target}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"replay took {elapsed:.2f}s (budget 5s)")
    _verdict(1, "final-stage macro means replay", failures)


def test_criterion_2_category_count_replay(reference_paths, reference_blocks):
    expected = {
        "A": (172, 74, 47, 102, 45),
        "B": (251, 54, 22, 12, 101),
    }
    failures: list[str] = []
    for condition, want in expected.items():
        scored, _ = _scored_blocks(reference_paths, reference_blocks, condition)
        got = tuple(category_counts(scored))
        if got != want:
            failures.append(f"{condition}: {got} vs {want}")
        if sum(got) != 440:
            failures.append(f"{condition}: total {sum(got)} != 440")
    _verdict(2, "error-category count replay", failures)


def _broken_call_rule(text: str, result) -> str | None:
    """The call rule a parse of `text` breaks, or None. The scanner is the
    only check on a call read from text, so each call it returns must have
    ASCII-identifier name and keys, distinct keys, and a span from '[' to
    ']' that parses back to the same call."""
    if not isinstance(result, ParsedCall):
        return None
    call = result.call
    keys = [key for key, _ in call.params]
    if not all(s.isascii() and s.isidentifier() for s in (call.name, *keys)):
        return f"non-identifier name or key in {call}"
    if len(set(keys)) != len(keys):
        return f"repeated key in {call}"
    piece = text[slice(*result.span)]
    if not (
        piece[:1] == "[" and piece[-1:] == "]"
        and parse_first_call(piece) == ParsedCall(call, (0, len(piece)))
    ):
        return f"span {result.span} of {text!r} does not parse back to {call}"
    return None


_EDIT_CHARS = "[](),='\"\\ \taZ_9é"


def _edited_call_text(rng: random.Random) -> str:
    """A rendered call, sometimes with a repeated key, after a few random
    one-character edits, behind random text: inputs near the call rules."""
    call = random_call(rng)
    if call.params and rng.random() < 0.3:
        call = ApiCall(call.name, call.params + (rng.choice(call.params),))
    chars = list(render_call(call))
    for _ in range(rng.randrange(0, 4)):
        pos = rng.randrange(len(chars))
        if rng.random() < 0.5:
            del chars[pos]
        else:
            chars.insert(pos, rng.choice(_EDIT_CHARS))
    return random_text(rng, 12).replace("[", "") + "".join(chars)


def test_criterion_3_parser_properties():
    started = time.perf_counter()
    failures: list[str] = []

    rng = random.Random(1_000_003)
    roundtrip_failures = 0
    broken_rules: list[str] = []
    for _ in range(1000):
        call = random_call(rng)
        text = render_call(call)
        parsed = parse_first_call(text)
        if not (
            isinstance(parsed, ParsedCall)
            and parsed.call.name == call.name
            and normalize_params(parsed.call) == normalize_params(call)
        ):
            roundtrip_failures += 1
        elif broken := _broken_call_rule(text, parsed):
            broken_rules.append(broken)
    if roundtrip_failures:
        failures.append(f"{roundtrip_failures}/1000 round-trips failed")

    crashes = parsed_calls = 0
    for i in range(12_000):
        if i < 10_000:
            raw = rng.randbytes(rng.randrange(0, 64)).decode("latin-1")
            if i % 3 == 0:
                raw = random_text(rng)  # bracket-heavy mix to reach deep scanner paths
        else:
            raw = _edited_call_text(rng)  # near-calls, to reach the call rules
        try:
            result = parse_first_call(raw)
        except Exception:  # noqa: BLE001 - totality is the property under test
            crashes += 1
            continue
        if not isinstance(result, (ParsedCall, ParseFailure)):
            crashes += 1
        elif broken := _broken_call_rule(raw, result):
            broken_rules.append(broken)
        parsed_calls += isinstance(result, ParsedCall)
    if crashes:
        failures.append(f"{crashes}/12000 fuzz inputs crashed or mistyped")
    if parsed_calls < 200:
        failures.append(f"only {parsed_calls} fuzz inputs parsed to a call")
    if broken_rules:
        failures.append(
            f"{len(broken_rules)} parsed calls break a call rule; first: {broken_rules[0]}"
        )

    if len(MALFORMED_CASES) < 20:
        failures.append(f"malformed corpus holds only {len(MALFORMED_CASES)} cases")
    for text, reason, offset in MALFORMED_CASES:
        result = parse_first_call(text)
        if result != ParseFailure(reason, offset):
            failures.append(f"malformed case {text!r}: got {result}")

    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"parser properties took {elapsed:.2f}s (budget 10s)")
    _verdict(3, "parser round-trip, totality, malformed corpus", failures)


def test_criterion_4_metric_oracle_equivalence():
    failures: list[str] = []
    rng = random.Random(424_242)
    for i in range(100):
        R = random_matrix(rng, T=4)
        b = [rng.random() for _ in range(4)]
        matrix = eval_matrix(R)
        baseline = baseline_vector(b)
        checks = [
            ("aa", average_accuracy(matrix), oracle_average_accuracy(R)),
            ("bwt", bwt(matrix), oracle_bwt(R)),
            ("fwt", fwt(matrix, baseline), oracle_fwt(R, b)),
            ("forgetting", avg_forgetting(matrix), oracle_forgetting(R)),
            ("aulc", aulc(matrix), oracle_aulc(R)),
        ]
        for name, got, want in checks:
            if abs(got - want) > 1e-12:
                failures.append(f"matrix {i}: {name} off by {abs(got - want):.2e}")

    # diagonal-max matrices: forgetting must equal -bwt bit-exactly, at the
    # magnitudes the summary table pairs (10.4 and 13.5 points)
    for drop in (0.104, 0.135):
        values = (
            (0.8, 0.0, 0.0, 0.0),
            (0.5, 0.8, 0.0, 0.0),
            (0.5, 0.5, 0.8, 0.0),
            (0.8 - drop, 0.8 - drop, 0.8 - drop, 0.8),
        )
        matrix = eval_matrix(values)
        if avg_forgetting(matrix) != -bwt(matrix):
            failures.append(f"drop {drop}: forgetting != -bwt")
        if format_pct(avg_forgetting(matrix)) != format_pct(drop):
            failures.append(f"drop {drop}: prints {format_pct(avg_forgetting(matrix))}")
    _verdict(4, "continual-learning metrics vs brute-force oracle", failures)


def test_criterion_5_condition_transform_properties(tmp_path):
    failures: list[str] = []
    episodes = load_episodes_from_records(
        trace_heavy_corpus_records(n_episodes=100, calls_per_episode=3), tmp_path
    )
    examples = [
        ex
        for ep in episodes
        for ex in extract_examples(ep)
        if any(t.role is Role.API_REQUEST for t in ex.context)
    ]
    if len(examples) != 200:
        failures.append(f"expected 200 trace-bearing examples, got {len(examples)}")

    total_a = total_b = 0
    trace_prefixes = (PREFIXES[Role.API_REQUEST], PREFIXES[Role.API_RESPONSE])
    for ex in examples:
        a = render_prompt(ex, Condition.A_STRIPPED)
        b = render_prompt(ex, Condition.B_TRAJECTORY)
        a_lines = Counter(a.text.splitlines())
        b_lines = Counter(b.text.splitlines())
        if not all(b_lines[line] >= n for line, n in a_lines.items()):
            failures.append(f"{ex.id}: A lines not contained in B")
        if sum(b_lines.values()) <= sum(a_lines.values()):
            failures.append(f"{ex.id}: containment not strict")
        context_lines = a.text.splitlines()[:-1]  # cue line excluded
        if any(line.startswith(trace_prefixes) for line in context_lines):
            failures.append(f"{ex.id}: trace line leaked into stripped prompt")
        total_a += len(a.text.split())
        total_b += len(b.text.split())
    if not total_b / total_a > 1:
        failures.append(f"token ratio {total_b / total_a:.4f} not > 1")
    _verdict(5, "stripped vs trajectory rendering properties", failures)


def test_criterion_6_report_determinism(reference_paths, tmp_path):
    failures: list[str] = []
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
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
        if code != EXIT_OK:
            failures.append(f"report run {run} exited {code}")
        outs.append(out)
    if not failures:
        names = [sorted(p.name for p in out.iterdir()) for out in outs]
        if names[0] != names[1]:
            failures.append(f"file sets differ: {names[0]} vs {names[1]}")
        else:
            _, mismatched, errored = filecmp.cmpfiles(
                outs[0], outs[1], names[0], shallow=False
            )
            for name in mismatched + errored:
                failures.append(f"{name} differs between runs")
    _verdict(6, "byte-identical report reruns", failures)


def test_criterion_7_flag_chain_invariant(reference_paths, reference_blocks):
    failures: list[str] = []
    if set(FLAGS) != set(CATEGORY_ORDER) or len(set(FLAGS.values())) != len(FLAGS):
        failures.append(f"FLAGS rows are not one distinct row per category: {FLAGS}")
    for category, flags in FLAGS.items():
        # (parsed, name_ok, name_any_ok, exact_ok): each flag implies the one before.
        if any(stronger and not weaker for weaker, stronger in zip(flags, flags[1:])):
            failures.append(f"FLAGS row of {category.value} breaks the chain: {flags}")

    def check(tag, records, cases):
        flags = [FLAGS[r.category] for r in records]
        n_exact = sum(f.exact_ok for f in flags)
        n_any = sum(f.name_any_ok for f in flags)
        n_name = sum(f.name_ok for f in flags)
        n_parsed = sum(f.parsed for f in flags)
        if not n_exact <= n_any <= n_name <= n_parsed:
            failures.append(f"{tag}: chain {n_exact}/{n_any}/{n_name}/{n_parsed}")
        for r, f, (completion, expected) in zip(records, flags, cases):
            if f != oracle_flags(completion, expected):
                failures.append(f"{tag}: {r.example_id} flags {f} vs oracle")

    _, _, index = reference_blocks
    for condition in ("A", "B"):
        completions = import_completions([reference_paths[f"completions_{condition}"]])
        scored = score_records(score_completions(completions, index, 4)[condition])
        texts = {c.example_id: c.text for c in completions}
        cases = [(texts[r.example_id], index[r.example_id].expected) for r in scored]
        check(f"fixture {condition}", scored, cases)

    rng = random.Random(777)
    fuzz_records = []
    fuzz_cases = []
    expected_pool = [random_call(rng) for _ in range(20)]
    for i in range(2000):
        expected = expected_pool[i % len(expected_pool)]
        completion = random_text(rng) if i % 2 else render_call(random_call(rng))
        category = evaluate_completion(completion, expected)
        fuzz_records.append(
            ScoreRecord(
                example_id=f"fuzz:{i}",
                stage=1,
                block_id=1,
                category=category,
            )
        )
        fuzz_cases.append((completion, expected))
    check("fuzz", fuzz_records, fuzz_cases)
    _verdict(7, "metric flag chain", failures)


def test_criterion_8_mock_endpoint_integration(tmp_path):
    failures: list[str] = []
    cache = CompletionCache(tmp_path / "cache")
    prompts = []
    for i in range(10):
        text = f"User: integration request {i}\nAPI-Request:"
        prompts.append(
            RenderedPrompt(
                example_id=f"e:{i}",
                condition=Condition.A_STRIPPED,
                text=text,
            )
        )
    with MockEndpoint(delay=0.03) as mock:
        mock.fail_once.add("integration request 7")
        cfg = EndpointConfig(
            base_url=mock.base_url,
            model_id="mock",
            max_parallel=3,
            retries=2,
            retry_backoff=0.01,
            timeout=10.0,
        )
        first = batch_generate(prompts, cfg, stage=1, cache=cache)
        if first.failures:
            failures.append(f"first pass had failures: {first.failures}")
        if mock.max_inflight > 3:
            failures.append(f"in-flight limit exceeded: {mock.max_inflight}")
        if mock.requests != 11:  # 10 prompts + 1 retry of the injected failure
            failures.append(f"expected 11 requests after retry, saw {mock.requests}")
        second = batch_generate(prompts, cfg, stage=1, cache=cache)
        if second.failures or len(second.records) != 10:
            failures.append("second pass did not return all records")
        if mock.requests != 11:
            failures.append(f"cache miss on second pass: {mock.requests} requests")
        if [r.text for r in first.records] != [r.text for r in second.records]:
            failures.append("cached texts differ from first pass")
    _verdict(8, "mock endpoint: parallelism, retry, cache", failures)
