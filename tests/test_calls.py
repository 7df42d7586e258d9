"""Parser, normalizer, and renderer behavior, including the round-trip
and totality properties."""

from __future__ import annotations

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import (
    MALFORMED_CASES,
    agrees_with_scanner,
    differential_mismatches,
    differential_text,
    random_call,
    random_text,
    scanner_parse,
)
from toolstream.calls import (
    ApiCall,
    FailureReason,
    ParsedCall,
    ParseFailure,
    _CALL,
    normalize_params,
    parse_first_call,
    render_call,
    scoring_view,
)


def _parsed(text: str) -> ParsedCall:
    result = parse_first_call(text)
    assert isinstance(result, ParsedCall), f"expected a parse, got {result}"
    return result


def _failed(text: str) -> ParseFailure:
    result = parse_first_call(text)
    assert isinstance(result, ParseFailure), f"expected a failure, got {result}"
    return result


class TestParse:
    def test_simple_call(self):
        parsed = _parsed("[GetWeather(city='Paris')]")
        assert parsed.call.name == "GetWeather"
        assert parsed.call.params == (("city", "Paris"),)
        assert parsed.span == (0, len("[GetWeather(city='Paris')]"))

    def test_call_embedded_in_prose(self):
        text = "Sure! [AddAlarm(time=\"07:30\", label='wake up')] done"
        parsed = _parsed(text)
        assert parsed.call.name == "AddAlarm"
        assert parsed.call.params == (("time", "07:30"), ("label", "wake up"))
        start, end = parsed.span
        assert text[start:end] == "[AddAlarm(time=\"07:30\", label='wake up')]"

    def test_span_reparses_to_equal_call(self):
        text = "noise [F(a='1', b='2')] trailing [G(c='3')]"
        parsed = _parsed(text)
        again = parse_first_call(text[parsed.span[0] : parsed.span[1]])
        assert isinstance(again, ParsedCall)
        assert again.call == parsed.call

    def test_first_call_wins(self):
        parsed = _parsed("[First(a='1')] then [Second(b='2')]")
        assert parsed.call.name == "First"

    def test_unbalanced_delimiter(self):
        failure = _failed("[GetWeather(city='Paris']")
        assert failure.reason is FailureReason.BAD_PARAM_SYNTAX

    def test_zero_params(self):
        assert _parsed("[Ping()]").call == ApiCall("Ping")

    def test_unquoted_values(self):
        parsed = _parsed("[Set(count=42, mode=fast)]")
        assert parsed.call.params == (("count", "42"), ("mode", "fast"))

    def test_whitespace_tolerated_in_params(self):
        parsed = _parsed("[Set( a = '1' ,  b = 2 )]")
        assert parsed.call.params == (("a", "1"), ("b", "2 "))

    def test_escaped_quote_in_value(self):
        parsed = _parsed(r"[Note(text='it\'s fine')]")
        assert parsed.call.params == (("text", "it's fine"),)

    def test_bad_candidate_then_good_candidate(self):
        parsed = _parsed("[not a call] but [Real(x='1')] works")
        assert parsed.call.name == "Real"

    def test_leftmost_failure_reported(self):
        failure = _failed("[123(] and [also bad]")
        assert failure.reason is FailureReason.BAD_NAME
        assert failure.offset == 1


@pytest.mark.parametrize(
    "text,reason,offset",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in MALFORMED_CASES],
)
def test_malformed_corpus(text, reason, offset):
    failure = _failed(text)
    assert failure.reason is reason
    assert failure.offset == offset


class TestNormalize:
    def test_sort_and_trim(self):
        call = ApiCall("F", (("b", " 2 "), ("a", "1")))
        assert normalize_params(call) == {"a": "1", "b": "2"}
        assert list(normalize_params(call)) == ["a", "b"]

    def test_quote_style_invariance(self):
        single = _parsed("[F(city='Paris')]").call
        double = _parsed('[F(city="Paris")]').call
        assert normalize_params(single) == normalize_params(double) == {"city": "Paris"}

    def test_escape_resolution(self):
        assert _parsed(r"[F(x='a\'b')]").call.params == (("x", "a'b"),)

    def test_unknown_escape_kept(self):
        call = ApiCall("F", (("x", r"a\nb"),))
        assert normalize_params(call) == {"x": r"a\nb"}

    def test_case_sensitive(self):
        assert normalize_params(ApiCall("F", (("A", "x"),))) != normalize_params(
            ApiCall("F", (("a", "x"),))
        )
        assert normalize_params(ApiCall("F", (("a", "X"),))) != normalize_params(
            ApiCall("F", (("a", "x"),))
        )


class TestRender:
    def test_single_param(self):
        assert render_call(ApiCall("GetWeather", (("city", "Paris"),))) == "[GetWeather(city='Paris')]"

    def test_zero_params(self):
        assert render_call(ApiCall("Ping")) == "[Ping()]"

    def test_quote_in_value_roundtrips(self):
        call = ApiCall("Note", (("text", "it's ok"),))
        parsed = parse_first_call(render_call(call))
        assert isinstance(parsed, ParsedCall)
        assert normalize_params(parsed.call) == normalize_params(call)


def test_seeded_roundtrip_batch():
    rng = random.Random(20_240_811)
    for _ in range(300):
        call = random_call(rng)
        parsed = parse_first_call(render_call(call))
        assert isinstance(parsed, ParsedCall)
        assert parsed.call.name == call.name
        assert normalize_params(parsed.call) == normalize_params(call)


_name_st = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True)
_value_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=18
)


@given(
    name=_name_st,
    params=st.lists(
        st.tuples(_name_st, _value_st), max_size=4, unique_by=lambda kv: kv[0]
    ),
)
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(name, params):
    call = ApiCall(name, tuple(params))
    parsed = parse_first_call(render_call(call))
    assert isinstance(parsed, ParsedCall)
    assert parsed.call.name == call.name
    assert normalize_params(parsed.call) == normalize_params(call)


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_totality_property(text):
    result = parse_first_call(text)
    assert isinstance(result, (ParsedCall, ParseFailure))


@given(
    prefix=st.text(
        alphabet=st.characters(blacklist_characters="[", blacklist_categories=("Cs",)),
        max_size=30,
    ),
)
@settings(max_examples=150, deadline=None)
def test_prefix_stability(prefix):
    call = ApiCall("Fetch", (("key", "value"),))
    rendered = render_call(call)
    base = parse_first_call(rendered)
    shifted = parse_first_call(prefix + rendered)
    assert isinstance(base, ParsedCall) and isinstance(shifted, ParsedCall)
    assert shifted.call == base.call
    assert shifted.span == (base.span[0] + len(prefix), base.span[1] + len(prefix))


def test_totality_on_seeded_noise():
    rng = random.Random(99)
    for _ in range(500):
        result = parse_first_call(random_text(rng))
        assert isinstance(result, (ParsedCall, ParseFailure))


def test_scanner_golden_digest():
    # Pins every reason, offset, span and value the scanner gives on a
    # fixed fuzz set; any drift in how a text is read changes the digest.
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for _ in range(20_000):
        digest.update(repr(parse_first_call(random_text(rng))).encode())
    assert digest.hexdigest() == (
        "e44683159c30b1e17916314c693f29750cb099065977bc7d340600713bac5b86"
    )


# Inputs on each side of the whole-call pattern's edges: zero parameters,
# empty quoted values, blank bare values (blank to str.strip but not scanner
# blanks too), repeated keys, backslashes, and a good call after a bad one.
_EDGE_CASES = [
    "[F()]", "[F( \t)]", "[F() ]", "[F()\t] tail", "[F ()]", "[F()", "[F())]",
    "[F(a='')]", '[F(a="")]', "[F(a='', b=\"\")]", "[F(a = '' , b=\"\" )]",
    "[F(a= )]", "[F(a=\t)]", "[F(a=\u00a0)]", "[F(a=\x1c)]", "[F(a=\n)]", "[F(a=\u00a0x)]",
    "[F(a=\nx)]", "[F(a=x\u00a0)]", "[F(a=x y \t)]", "[F(a=1,b=2)]", "[F(a=1 ,b=2)]",
    "[F(a=1, a=2)]", "[F(a='1', b='2', a='3')]", "[F(a=1, a=2)] [G(b=1)]",
    "[F(a='x\\'y')]", '[F(a="x\\"y")]', "[F(a='x\\\\')]", "[F(a=x\\y)]", "[F(a='x\\",
    "[F(a='x')\\]", "[F(a='x'y')]", "[F(a=x'y')]", "[F(a=[1])]", "[F(a=x]y)]",
    "[F(a='x'),]", "[F(a='x',)]", "[F(,a='x')]", "[F(a=='x')]", "[] [F(a='x')]",
    "[F(a=x] [G(b='y')]", "[F(a='1')] [G(b='2')]", "x [F(a='x, y)')] y",
]


def _roundtrip_texts():
    rng = random.Random(20_240_811)
    for _ in range(300):
        call = random_call(rng)
        yield render_call(call)
        yield "[{}({})]".format(call.name, ", ".join(f'{k}="{v}"' for k, v in call.params))


@pytest.mark.parametrize(
    "texts",
    [[case[0] for case in MALFORMED_CASES], _EDGE_CASES, list(_roundtrip_texts())],
    ids=["malformed", "edges", "roundtrip"],
)
def test_parse_equals_scanner_on_fixed_cases(texts):
    # Equal results carry the same span, or the same reason and offset; the
    # scoring view is declined or the scanner's name and normalized params.
    for text in texts:
        assert agrees_with_scanner(text), text


def test_parse_equals_scanner_on_seeded_strings():
    assert differential_mismatches(20261019, 100_000) == []
    # The strings reach both paths: many are whole calls the pattern reads,
    # many others parse only through the scanner. The scoring view both
    # matches and declines many, some of them calls the scanner parses.
    rng = random.Random(20261019)
    pattern = scanner_only = matched = declined = declined_calls = 0
    for _ in range(20_000):
        text = differential_text(rng)
        start = text.find("[")
        if start >= 0 and _CALL.match(text, start):
            pattern += 1
        elif isinstance(scanner_parse(text), ParsedCall):
            scanner_only += 1
        if scoring_view(text) is not None:
            matched += 1
        else:
            declined += 1
            declined_calls += isinstance(scanner_parse(text), ParsedCall)
    assert pattern > 1_000 and scanner_only > 1_000
    assert matched > 1_000 and declined > 1_000 and declined_calls > 1_000


@pytest.mark.parametrize(
    "text",
    [
        "[f(a=x" + " " * 50_000,
        "[f(a='x'" + " " * 50_000,
        "[f(a=" + " " * 50_000,
        "[f(a=x" + " \t" * 25_000,
        "[f(" + "a=b, " * 10_000,
    ],
    ids=["blanks-after-bare", "blanks-after-quoted", "blanks-after-equals", "blank-tab-run",
         "repeated-params"],
)
def test_failed_match_is_linear(text):
    # A pattern with two ways to split a blank run takes quadratic time here.
    start = time.perf_counter()
    result = parse_first_call(text)
    assert time.perf_counter() - start < 0.5
    assert isinstance(result, ParseFailure)
    assert result == scanner_parse(text)
