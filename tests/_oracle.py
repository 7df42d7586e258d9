"""A naive model of `report`'s import-mode outputs, and seeded random
inputs to compare it with `run_report` on.

The model is written the slow, obvious way on purpose, from the README's
descriptions rather than from the package's code. It reads each file with
json.loads per line, builds each prompt by joining its kept turns, hashes
it with hashlib, scores each completion through parse_first_call alone
(via _support.oracle_flags), groups with dicts and sorted, and writes with
json.dumps and the csv module. It shares with the package only the call
parser and render_call (to write canonical inputs).
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from _support import (
    differential_text,
    oracle_aulc,
    oracle_average_accuracy,
    oracle_bwt,
    oracle_flags,
    oracle_forgetting,
    oracle_fwt,
    random_identifier,
)
from toolstream.calls import ApiCall, ParsedCall, parse_first_call, render_call

PREFIX = {"user": "User: ", "assistant": "Assistant: ",
          "api_request": "API-Request: ", "api_response": "API-Response: "}
KEPT = {"A": ("user", "assistant"), "B": ("user", "assistant", "api_request", "api_response")}
CUE = "API-Request:"
METRICS = ("exact", "name", "name_any", "malformed")
# (category, label, flags as (parsed, name_ok, name_any_ok, exact_ok)), in table order.
CATEGORIES = (
    ("exact_full_call", "Exact full call", (True, True, True, True)),
    ("correct_api_some_params", "Correct API, some params", (True, True, True, False)),
    ("correct_api_wrong_params", "Correct API, wrong params", (True, True, False, False)),
    ("wrong_api", "Wrong API", (True, False, False, False)),
    ("malformed_no_call", "Malformed or no call", (False, False, False, False)),
)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _pct(fraction: float) -> str:
    return str(Decimal(repr(fraction * 100)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def _mean(values: list[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _metric_hits(category: str) -> dict[str, bool]:
    parsed, name_ok, name_any_ok, exact_ok = next(f for c, _, f in CATEGORIES if c == category)
    return {"exact": exact_ok, "name": name_ok, "name_any": name_any_ok, "malformed": not parsed}


def oracle_report(corpus, out, T, seed, block_order, sample, conditions, imports) -> None:
    """Write what `report --import ...` writes, manifest.json aside."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    episodes = _read_jsonl(corpus)

    # Examples: one per api_request turn, in corpus order.
    examples = []
    for ep in episodes:
        for idx, turn in enumerate(ep["turns"]):
            if turn["role"] == "api_request":
                call = parse_first_call(turn["text"])
                assert isinstance(call, ParsedCall)
                examples.append({"id": f"{ep['id']}:{idx}", "episode": ep, "cut": idx,
                                 "call": call.call})

    # Blocks: API-name groups, largest first (ties in seeded-shuffle
    # order), each on the least-loaded block (ties to the lowest id).
    sizes = Counter(ex["call"].name for ex in examples)
    names = sorted(sizes)
    random.Random(seed).shuffle(names)
    names.sort(key=lambda name: -sizes[name])
    loads = [0] * T
    block_of = {}
    for name in names:
        target = min(range(T), key=lambda i: (loads[i], i))
        block_of[name] = target + 1
        loads[target] += sizes[name]
    for ex in examples:
        ex["block"] = block_of[ex["call"].name]
    members = {b: [ex for ex in examples if ex["block"] == b] for b in range(1, T + 1)}
    _write_json(out / "blocks.json", {"T": T, "blocks": [
        {"block_id": b, "api_names": sorted({ex["call"].name for ex in members[b]}),
         "example_ids": [ex["id"] for ex in members[b]]}
        for b in range(1, T + 1)
    ]})

    evaluated = []
    for b in range(1, T + 1):
        if sample is None:
            evaluated += members[b]
        else:
            key = hashlib.sha256(f"{seed}:{b}:{sample}".encode()).digest()
            rng = random.Random(int.from_bytes(key[:8], "big"))
            picked = rng.sample(range(len(members[b])), min(sample, len(members[b])))
            evaluated += [members[b][i] for i in sorted(picked)]
    by_id = {ex["id"]: ex for ex in evaluated}

    stats = {}
    hashes = {}
    for tag in conditions:
        lines = []
        for ex_id in sorted(by_id):
            ex = by_id[ex_id]
            turns = ex["episode"]["turns"][: ex["cut"]]
            prompt = "".join(
                PREFIX[t["role"]] + t["text"] + "\n" for t in turns if t["role"] in KEPT[tag]
            ) + CUE
            hashes[tag, ex_id] = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
            bucket = stats.setdefault(tag, {"char": 0, "ws_token": 0})
            bucket["char"] += len(prompt)
            bucket["ws_token"] += len(prompt.split())
            target = ex["episode"]["turns"][ex["cut"]]["text"]
            lines.append(json.dumps({"example_id": ex_id, "condition": tag,
                                     "prompt": prompt, "target": target}) + "\n")
        (out / f"prompts_{tag}.jsonl").write_text("".join(lines), encoding="utf-8")
    if "A" in stats and "B" in stats and stats["A"]["ws_token"] > 0:
        stats["ws_token_ratio_b_over_a"] = stats["B"]["ws_token"] / stats["A"]["ws_token"]
    _write_json(out / "context_stats.json", stats)

    # (condition, stage, example id) -> category, for the evaluated examples.
    scored = {}
    for path in imports:
        for record in _read_jsonl(path):
            tag, ex_id = record["condition"], record["example_id"]
            if tag not in conditions or ex_id not in by_id:
                continue
            assert record["prompt_hash"] == hashes[tag, ex_id]
            flags = oracle_flags(record["text"], by_id[ex_id]["call"])
            scored[tag, record["stage"], ex_id] = next(
                c for c, _, f in CATEGORIES if f == flags
            )

    heat = {metric: [] for metric in METRICS}
    final_means = {}
    final_rows = {}
    for tag in conditions:
        keys = sorted((stage, by_id[e]["block"], e) for t, stage, e in scored if t == tag)
        lines = []
        for stage, block, ex_id in keys:
            category = scored[tag, stage, ex_id]
            flags = next(f for c, _, f in CATEGORIES if c == category)
            lines.append(json.dumps({
                "example_id": ex_id, "stage": stage, "block": block,
                "flags": dict(zip(("parsed", "name_ok", "name_any_ok", "exact_ok"), flags)),
                "category": category,
            }) + "\n")
        (out / f"scores_{tag}.jsonl").write_text("".join(lines), encoding="utf-8")

        stages = sorted({stage for stage, _, _ in keys})
        # stage -> block -> metric -> rate
        rate = {}
        for stage in stages:
            for b in block_order:
                cats = [scored[tag, s, e] for s, blk, e in keys if s == stage and blk == b]
                rate.setdefault(stage, {})[b] = {
                    m: sum(_metric_hits(c)[m] for c in cats) / len(cats) for m in METRICS
                }
        for metric in METRICS:
            rows = [["stage"] + [f"block_{b}" for b in block_order]]
            for stage in stages:
                rows.append([stage] + [repr(rate[stage][b][metric]) for b in block_order])
                if stage >= 1:
                    heat[metric] += [
                        [tag, stage, b, repr(rate[stage][b][metric])] for b in block_order
                    ]
            _write_csv(out / f"matrix_{metric}_{tag}.csv", rows)
        if stages == list(range(T + 1)):
            R = [[rate[s][b]["exact"] for b in block_order] for s in range(1, T + 1)]
            base = [rate[0][b]["exact"] for b in block_order]
            _write_json(out / f"summary_{tag}.json", {
                "final_aa": oracle_average_accuracy(R), "bwt": oracle_bwt(R),
                "fwt": oracle_fwt(R, base), "avg_forgetting": oracle_forgetting(R),
                "aulc": oracle_aulc(R),
            })
        if T in stages:
            finals = [scored[tag, s, e] for s, _, e in keys if s == T]
            _write_csv(out / f"categories_{tag}.csv", [["category", "count"]] + [
                [label, finals.count(c)] for c, label, _ in CATEGORIES
            ])
            final_means[tag] = {
                "macro": {m: _mean([rate[T][b][m] for b in block_order]) for m in METRICS},
                "micro": {m: sum(_metric_hits(c)[m] for c in finals) / len(finals)
                          for m in METRICS},
                "n_final": len(finals),
            }
            final_rows[tag] = rate[T]

    for metric in METRICS:
        rows = sorted(heat[metric], key=lambda r: (r[0], r[1]))
        _write_csv(out / f"heatmap_{metric}.csv", [["condition", "stage", "block", "value"]] + rows)
    if final_means:
        final_means = dict(sorted(final_means.items()))
        rows = [["condition", "metric"] + [f"block_{b}" for b in block_order] + ["mean"]]
        for tag, means in final_means.items():
            for metric in METRICS:
                rows.append([tag, metric]
                            + [_pct(final_rows[tag][b][metric]) for b in block_order]
                            + [_pct(means["macro"][metric])])
        _write_csv(out / "final_table.csv", rows)
        _write_json(out / "final_means.json", final_means)


# ---------------------------------------------------------------------------
# Seeded random inputs

# Turn text pieces: quotes, backslashes, JSON escapes, non-ASCII (accented,
# CJK, astral, a line separator) and blanks str.split counts as separators.
_TEXT_PIECES = ("plain", "two words", 'q"uote', "back\\slash", "café", "例",
                "\U0001f600", "tab\there", "new\nline", "sep\u2028x", "\x1cfs", "", "  ")


def _text(rng: random.Random) -> str:
    return " ".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randrange(0, 5)))


def _value(rng: random.Random) -> str:
    return "".join(rng.choice("ab ' \\\"é,()=") for _ in range(rng.randrange(0, 5)))


def _completion(rng: random.Random, expected: ApiCall, names: list[str]) -> str:
    roll = rng.random()
    if roll < 0.3:
        return render_call(expected)
    if roll < 0.45 and expected.params:
        params = list(expected.params)
        i = rng.randrange(len(params))
        params[i] = (params[i][0], params[i][1] + "x")
        return render_call(ApiCall(expected.name, tuple(params)))
    if roll < 0.55:
        return render_call(ApiCall(rng.choice(names), expected.params))
    if roll < 0.65:
        return "  " + render_call(expected) + " then " + render_call(ApiCall("Other"))
    return differential_text(rng)


def write_random_inputs(directory, seed: int) -> dict:
    """A random corpus and completion files; returns run_report's settings
    for them (T, seed, block order, sample, conditions, stages, paths)."""
    rng = random.Random(seed)
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    T = rng.randint(2, 6)
    names = [random_identifier(rng, 6) + str(i) for i in range(T + rng.randrange(0, 4))]
    keys = [random_identifier(rng, 4) + str(i) for i in range(3)]
    episodes = []
    for e in range(rng.randint(T, T + 8)):
        # A few long episodes among many short ones.
        n_calls = rng.choice((0, 1, 2, 3, 4, rng.randrange(0, 61)))
        if e < len(names):
            n_calls = max(n_calls, 1)
        turns = [{"role": "user", "text": _text(rng)}]
        for c in range(n_calls):
            if rng.random() < 0.4:
                turns.append({"role": rng.choice(("user", "assistant")), "text": _text(rng)})
            name = names[e] if c == 0 and e < len(names) else rng.choice(names)
            params = tuple((k, _value(rng)) for k in keys[: rng.randrange(0, 4)])
            turns.append({"role": "api_request", "text": render_call(ApiCall(name, params))})
            if rng.random() < 0.8:
                turns.append({"role": "api_response", "text": _text(rng)})
        ep_id = rng.choice(("ep", 'e"p', "e\\p", "ép", "ep 例")) + str(e)
        episodes.append({"id": ep_id, "turns": turns})
    corpus = out / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(ep) + "\n" for ep in episodes), encoding="utf-8")

    stages = sorted(rng.sample(range(T + 1), rng.randint(1, T + 1)))
    if rng.random() < 0.5:
        stages = list(range(T + 1))
    conditions = rng.choice((["A", "B"], ["A", "B"], ["B", "A"], ["A"], ["B"]))
    # Completions for every corpus example, under both conditions: the
    # report skips those a sample leaves out and a condition it does not run.
    imports = []
    for tag in ("A", "B"):
        records = []
        for ep in episodes:
            for idx, turn in enumerate(ep["turns"]):
                if turn["role"] != "api_request":
                    continue
                prompt = "".join(PREFIX[t["role"]] + t["text"] + "\n"
                                 for t in ep["turns"][:idx] if t["role"] in KEPT[tag]) + CUE
                expected = parse_first_call(turn["text"]).call
                for stage in stages:
                    records.append({
                        "example_id": f"{ep['id']}:{idx}", "condition": tag, "stage": stage,
                        "prompt_hash": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
                        "text": _completion(rng, expected, names),
                    })
        rng.shuffle(records)
        path = out / f"completions_{tag}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        imports.append(path)
    block_order = list(range(1, T + 1))
    rng.shuffle(block_order)
    return {
        "corpus": corpus, "T": T, "seed": rng.randrange(100), "block_order": block_order,
        "sample": rng.choice((None, None, 1, 2, 5)), "conditions": conditions,
        "stages": stages, "imports": imports,
    }


def report_oracle_mismatches(seed: int, n: int, directory) -> tuple[list[str], int]:
    """Run `run_report` and the model on n seeded random inputs; return
    '<case>/<file>' for each output (manifest.json aside) whose bytes
    differ or that only one side wrote, and the number of cases in which
    some prompt renders the same under A and B."""
    from toolstream.corpus import StreamSpec
    from toolstream.report import run_report
    from toolstream.transform import Condition

    mismatches = []
    shared = 0
    for case in range(n):
        base = Path(directory) / f"case_{case}"
        inputs = write_random_inputs(base / "in", seed * 1000 + case)
        stream = StreamSpec(T=inputs["T"], block_order=inputs["block_order"],
                            seed=inputs["seed"], sample_size=inputs["sample"])
        got = run_report(inputs["corpus"], base / "report", stream,
                         [Condition(tag) for tag in inputs["conditions"]],
                         import_paths=inputs["imports"])
        want = base / "oracle"
        oracle_report(inputs["corpus"], want, inputs["T"], inputs["seed"],
                      inputs["block_order"], inputs["sample"], inputs["conditions"],
                      inputs["imports"])
        names = {p.name for p in got.iterdir()} | {p.name for p in want.iterdir()}
        for name in sorted(names - {"manifest.json"}):
            a, b = got / name, want / name
            if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
                mismatches.append(f"case_{case}/{name}")
        prompts = {}
        for tag in ("A", "B"):
            path = want / f"prompts_{tag}.jsonl"
            if path.exists():
                for line in path.read_text(encoding="utf-8").splitlines():
                    record = json.loads(line)
                    prompts.setdefault(record["example_id"], []).append(record["prompt"])
        shared += any(len(p) == 2 and p[0] == p[1] for p in prompts.values())
    return mismatches, shared
