import random
import re
from importlib import resources

import pytest

from pneq import (
    Marking,
    ModelError,
    ParseError,
    THETA,
    corpus,
    lts_to_dot,
    parse_marking,
    parse_net,
    parse_relation,
    reach_lts,
)

LONG_DIGITS = "9" * 4301
ARABIC_INDIC_THREE = "\u0663"  # a Unicode decimal digit that is not ASCII
# Inputs whose error messages once repeated them in full (4,425, 8,680 and
# 10,057 characters through parse_marking).
UNBOUNDED_ECHOES = [LONG_DIGITS + "*s1", "0" * 4301 + "*s1", "s1+" + "x" * 5000]

GOOD = """
# demo net
net demo
place s1 s2
place s3
trans t1 : s1 + 2*s2 -> a -> s3   # weighted arc
trans t2 : s3 -> tau -> 0
marking m0 = s1 + 2*s2
marking empty = 0
"""


def test_parse_net_roundtrip():
    net = parse_net(GOOD)
    assert net.name == "demo"
    assert net.places == ("s1", "s2", "s3")
    t1 = net.transition_index["t1"]
    assert t1.pre == Marking({"s1": 1, "s2": 2})
    assert t1.label == "a"
    assert net.transition_index["t2"].post.size == 0
    assert net.named_markings["m0"] == Marking({"s1": 1, "s2": 2})
    assert net.named_markings["empty"].size == 0


@pytest.mark.parametrize(
    "line,err_line",
    [
        ("trans t1 : s1, -> a -> s3", 3),
        ("trans t1 : s1 -> a", 3),
        ("trans t1 : 0 -> a -> s3", 3),
        ("trans t1 : 0*s1 -> a -> s3", 3),
        ("trans t1 : s9 -> a -> s3", 3),
        ("place tau", 3),
        ("bogus directive", 3),
        (f"trans t1 : {LONG_DIGITS}*s1 -> a -> s3", 3),
        (f"trans t1 : {ARABIC_INDIC_THREE}*s1 -> a -> s3", 3),
    ],
)
def test_parse_errors_carry_line_numbers(line, err_line):
    text = f"net demo\nplace s1 s2 s3\n{line}\n"
    with pytest.raises(ParseError) as err:
        parse_net(text)
    assert err.value.line == err_line


def test_missing_header_rejected():
    with pytest.raises(ParseError):
        parse_net("place s1\n")


def test_duplicate_transition_reported():
    text = "net n\nplace s1\ntrans t : s1 -> a -> 0\ntrans t : s1 -> b -> 0\n"
    with pytest.raises(ParseError) as err:
        parse_net(text)
    assert err.value.line == 4


def test_parse_marking_expressions(nets):
    net = nets["handshake"]
    assert parse_marking("s1 + 2*s2", net) == Marking({"s1": 1, "s2": 2})
    assert parse_marking("s1+2*s2", net) == Marking({"s1": 1, "s2": 2})
    assert parse_marking("0", net).size == 0
    with pytest.raises(ModelError):
        parse_marking("s1 + nope", net)
    with pytest.raises(ModelError, match="multiplicity exceeds"):
        parse_marking(f"s1 + {LONG_DIGITS}*s2", net)
    with pytest.raises(ModelError):
        parse_marking(f"{ARABIC_INDIC_THREE}*s1", net)


@pytest.mark.parametrize("expr", UNBOUNDED_ECHOES, ids=["nines", "zeros", "name"])
def test_error_messages_clip_their_input(nets, expr):
    with pytest.raises(ModelError) as err:
        parse_marking(expr, nets["handshake"])
    assert len(str(err.value)) < 200
    with pytest.raises(ParseError) as err:
        parse_net(f"net n\nplace s1\ntrans t : {expr} -> a -> s1\n")
    assert len(str(err.value)) < 200 and err.value.line == 3


def test_parse_relation_with_theta(nets):
    net = nets["spawn_deadlock"]
    rel = parse_relation("relation r\npair 0 s5\npair s1 s4\n", net)
    assert (THETA, "s5") in rel.pairs
    assert rel.is_d_extended
    assert rel.name == "r"


def test_relation_rejects_double_theta(nets):
    with pytest.raises(ParseError):
        parse_relation("relation r\npair 0 0\n", nets["handshake"])


def test_relation_rejects_unknown_place(nets):
    with pytest.raises(ParseError) as err:
        parse_relation("relation r\npair s1 zz\n", nets["handshake"])
    assert err.value.line == 2


def test_dot_export_shape(nets):
    net = nets["latent_sync"]
    dot = lts_to_dot(reach_lts(net, [Marking(["s1"])]), net)
    assert dot.count("[shape=") == 3
    assert dot.count(" -> ") == 2
    assert "doublecircle" in dot


def test_dot_marks_silent_edges_dashed(nets):
    net = nets["silent_cells"]
    dot = lts_to_dot(reach_lts(net, [Marking(["s2"])]), net)
    assert "style=dashed" in dot


FUZZ_CHARS = "+*-> :=#0123456789\n\tsa_'\xff"
FUZZ_TOKENS = ("tau", "0", "->", "net", "place", "trans", "marking", "relation",
               "pair", "s1", LONG_DIGITS + "*", "0" * 4400, LONG_DIGITS)


def _mutate(rng, text: str) -> str:
    """One to four insertions, deletions or duplications of a character,
    a span or a whitespace-separated token."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 6))
        tokens = re.findall(r"\S+", text) or [""]
        op = rng.randrange(6)
        if op == 0:
            text = text[:i] + rng.choice(FUZZ_CHARS) + text[i:]
        elif op == 1:
            text = text[:i] + rng.choice(FUZZ_TOKENS) + text[i:]
        elif op == 2:
            text = text[:i] + text[j:]
        elif op == 3:
            text = text[:j] + text[i:j] + text[j:]
        elif op == 4:
            text = text.replace(rng.choice(tokens), "", 1)
        else:
            text = text[:i] + rng.choice(tokens) + " " + text[i:]
    return text


def test_fuzzed_inputs_give_a_value_or_a_parse_error():
    rng = random.Random(4301)
    data = resources.files("pneq").joinpath("corpus")
    cases = corpus.load_cases()
    nets = {case.net: corpus.load_net(case.net) for case in cases}
    for _ in range(1500):
        case = rng.choice(cases)
        net = nets[case.net]
        inputs = [
            (parse_net, _mutate(rng, data.joinpath(case.net).read_text())),
            (parse_marking, _mutate(rng, rng.choice((case.query["m1"], case.query["m2"]))), net),
        ]
        if "relation" in case.query:
            text = data.joinpath(case.query["relation"]).read_text()
            inputs.append((parse_relation, _mutate(rng, text), net))
        for parse, *args in inputs:
            try:
                parse(*args)
            except (ParseError, ModelError):
                pass
