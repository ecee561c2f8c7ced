"""libyaml against PyYAML's pure-Python loader.

``parse_scenario`` loads in one walk over libyaml's parse events inside a gate
(``scenario._load``, ``scenario._fast_load``). The pure-Python loader is the
reference. On a seeded corpus of mutated documents every outcome, a scenario
or a list of issues, must be the reference's, and the walk's data must be the
reference's to the type. The named cases are the divergences found by fuzzing
the two loaders: dropping any check of the gate fails one of them, and the
rest go through the fallback to the reference.
"""

import io
import random
import string
import sys
from pathlib import Path

import pytest
import yaml

from cloudperim import TEMPLATE_NAMES, parse_scenario
from cloudperim import scenario
from cloudperim.errors import ScenarioParseError
from cloudperim.scenario import ParseIssue
from cloudperim.templates import template_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import gen  # noqa: E402  (read-only: the benchmark's estate generator)

LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


@pytest.fixture(params=["libyaml", "masked"])
def loaders(request, monkeypatch):
    """Run the test with the module's libyaml selection as it is, and masked."""
    if request.param == "masked":
        monkeypatch.setattr(scenario, "_FAST_LOADER", None)
    return request.param


def _outcome(document: str) -> str:
    try:
        return repr(parse_scenario(document))
    except ScenarioParseError as e:
        return repr(e.issues)


def _reference(document: str) -> str:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_FAST_LOADER", None)
        return _outcome(document)


def _nested(depth: int) -> str:
    """A document nested ``depth`` levels deep, one flow level a line."""
    return "name: x\nhierarchy: " + "[\n  " * (depth - 1) + "]" * (depth - 1) + "\n"


FIG1 = template_text("fig1-lift-shift")

NAMED = {
    # libyaml accepts tabs as separators; the reference rejects them
    "tab-after-colon": FIG1.replace("name: ", "name:\t", 1),
    "tab-after-value": FIG1.replace("\n", "\t\n", 1),
    "tab-in-flow-mapping": FIG1.replace("{id: org, kind: organization}", "{id: org,\tkind: organization}"),
    # libyaml accepts ``?`` inside a flow-context plain scalar
    "question-in-flow-scalar": FIG1.replace("{id: org, kind: organization}", "{id: org?x, kind: organization}"),
    # libyaml ends a ``!`` tag at a comma in a flow collection, takes a
    # comment right after a block scalar's header, and does not resolve an
    # empty ``!``-tagged scalar; the reference reads on, rejects the comment,
    # and resolves the scalar to null
    "bang-tag-before-comma": FIG1.replace("cidrs: [10.1.0.0/16]", "cidrs: [!, 10.1.0.0/16]", 1),
    "comment-after-block-header": FIG1.replace("description: >\n", "description: >#why\n", 1),
    "comment-after-block-header-chomping": FIG1.replace("description: >\n", "description: >-#why\n", 1),
    "comment-after-tagged-block-header": FIG1.replace("description: >\n", "description: ! >#why\n", 1),
    "empty-bang-tag": FIG1.replace("name: fig1-lift-shift", "name: !", 1),
    # a mid-document byte-order mark: libyaml drops one at a line start, and
    # accepts one at the end of the document
    "bom-at-line-start": FIG1.replace("\n  firewall:", "\n\ufeff  firewall:", 1),
    "bom-at-end": FIG1 + "\ufeff",
    "bom-in-value": FIG1.replace("name: fig1", "name: fig\ufeff1", 1),
    # a lone surrogate: the reference rejects the raw character and reads the
    # escape; libyaml raises UnicodeEncodeError on one and rejects the other
    "raw-surrogate": FIG1.replace("name: fig1", "name: fig\ud8001", 1),
    "escaped-surrogate": FIG1.replace("name: fig1-lift-shift", 'name: "fig1\\ud800"', 1),
    "control-character": FIG1.replace("name: fig1", "name: fig\x011", 1),
    "nul-character": FIG1.replace("name: fig1", "name: fig\x001", 1),
    "delete-character": FIG1 + "\x7f",
    # an unknown directive: the reference ignores it, libyaml rejects it
    "unknown-directive": "%FOO bar\n---\n" + FIG1,
    "yaml-1.2-directive": "%YAML 1.2\n---\n" + FIG1,
    "yaml-2.0-directive": "%YAML 2.0\n---\n" + FIG1,
    "long-line": FIG1.replace("name: fig1-lift-shift", "name: " + "n" * 600, 1),
    "syntax-error": FIG1.replace("{id: org, kind: organization}", "{id: org, kind: organization"),
    "tagged-bool": FIG1.replace("name: fig1-lift-shift", "name: !!bool maybe", 1),
    "tagged-timestamp": FIG1.replace("name: fig1-lift-shift", "name: !!timestamp x", 1),
    "tagged-empty-int": FIG1.replace("name: fig1-lift-shift", "name: !!int ''", 1),
    "tagged-binary": FIG1.replace("name: fig1-lift-shift", "name: !!binary '!!!'", 1),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_divergence_gives_the_reference_outcome(loaders, name):
    document = NAMED[name]
    assert document != FIG1
    assert _outcome(document) == _reference(document)


@LIBYAML
def test_named_cases_reach_a_real_divergence():
    """The cases the gate keeps from libyaml are real divergences: libyaml's
    parser accepts each, and reads it otherwise than the reference's."""

    def events(document, loader):
        try:
            return [repr(event) for event in yaml.parse(document, Loader=loader)]
        except (yaml.YAMLError, ValueError) as e:
            return type(e).__name__

    for name in (
        "tab-after-colon",
        "question-in-flow-scalar",
        "bom-at-line-start",
        "bom-at-end",
        "bang-tag-before-comma",
        "comment-after-block-header",
        "comment-after-block-header-chomping",
        "comment-after-tagged-block-header",
        "empty-bang-tag",
    ):
        fast, reference = events(NAMED[name], yaml.CSafeLoader), events(NAMED[name], yaml.SafeLoader)
        assert fast != reference and isinstance(fast, list), name


@pytest.mark.parametrize(
    "encode", [str.encode, lambda text: text.encode("utf-16"), io.StringIO], ids=["utf-8", "utf-16", "stream"]
)
@pytest.mark.parametrize(
    "text", [FIG1, NAMED["control-character"], NAMED["tagged-bool"]], ids=["fig1", "control", "tagged"]
)
def test_bytes_and_streams_give_the_reference_outcome(loaders, yaml_parses, encode, text):
    """A document that is not text goes to the reference as it is, which
    decodes it; the one-pass load never sees it."""
    assert _outcome(encode(text)) == _reference(encode(text))
    assert yaml_parses == []
    if text is FIG1:
        assert _outcome(encode(text)) == _outcome(text)


_NESTING_STEP = {
    yaml.SequenceStartEvent: 1,
    yaml.MappingStartEvent: 1,
    yaml.SequenceEndEvent: -1,
    yaml.MappingEndEvent: -1,
}


@pytest.fixture
def yaml_parses(monkeypatch):
    """For every libyaml parser the one-pass load makes, its loader class and
    the deepest nesting among the events it took from it."""
    calls = []
    loader = scenario._FAST_LOADER
    if loader is None:
        return calls

    class Parser(loader):
        def __init__(self, stream):
            super().__init__(stream)
            self.call = {"Loader": loader, "depth": 0}
            self.nesting = 0
            calls.append(self.call)

        def get_event(self):
            event = super().get_event()
            self.nesting += _NESTING_STEP.get(type(event), 0)
            self.call["depth"] = max(self.call["depth"], self.nesting)
            return event

    monkeypatch.setattr(scenario, "_FAST_LOADER", Parser)
    return calls


@pytest.fixture
def yaml_loads(monkeypatch):
    """The Loader class of every ``yaml.load`` call."""
    calls = []
    load = yaml.load

    def spy(stream, Loader):
        calls.append(Loader)
        return load(stream, Loader)

    monkeypatch.setattr(yaml, "load", spy)
    return calls


@pytest.mark.parametrize(
    "document",
    ["hierarchy: " + "[\n  " * 30_000 + "]" * 30_000, "hierarchy:\n" + "- " * 30_000 + "x\n", _nested(600)],
    ids=["flow", "compact-block", "flow-600"],
)
def test_deep_nesting_is_one_syntax_issue(yaml_parses, yaml_loads, document):
    """Past the reference's recursion limit a document is one SYNTAX issue.
    The one-pass load stops one level past its gate, and only the reference
    loads the document."""
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(document)
    assert exc.value.issues == [ParseIssue("SYNTAX", "document", "nested too deeply to load")]
    if yaml.__with_libyaml__:
        assert yaml_parses == [{"Loader": yaml.CSafeLoader, "depth": scenario._FAST_LOAD_MAX_DEPTH + 1}]
    assert yaml_loads == [yaml.SafeLoader]


@pytest.mark.parametrize("depth", [scenario._FAST_LOAD_MAX_DEPTH, scenario._FAST_LOAD_MAX_DEPTH + 1, 450, 600])
def test_nesting_around_the_gate_gives_the_reference_outcome(loaders, depth):
    """The one-pass load decides documents up to the gate's depth and the
    reference the deeper ones; where the reference runs out of recursion, at
    about 490 levels, the walk would still build the document, so the gate
    keeps it."""
    document = _nested(depth)
    assert _outcome(document) == _reference(document)
    if loaders == "libyaml" and yaml.__with_libyaml__:
        assert (scenario._fast_load(document) is scenario._UNDECIDED) == (depth > scenario._FAST_LOAD_MAX_DEPTH)


TOKENS = (
    list(" \n:-#&*!|>'\"{}[],%@`\\/.~=<?\t")
    + ["\r", "\r\n", "\x0b", "\x0c", "\x00", "\x01", "\x7f", "\ufeff", "\xe9", "\u2028", "\x85", "\ud800"]
    + ["  ", "    ", ": ", "- ", "? ", "---\n", "...\n", "<<: ", "&a ", "*a", "# c\n", " #c"]
    + ["!!str ", "!!int ", "!!bool ", "!!float ", "!!timestamp ", "!!binary ", "!!set ", "!!omap ", "!foo "]
    + ["%YAML 1.1\n", "%TAG ! tag:x,2000:\n---\n", "%FOO bar\n", "|", "|-", ">+", "|2"]
    + ['"\\x41"', '"\\u00e9"', '"\\ud800"', '"\\N"', '"\\/"', '"\\\n  x"', "'a''b'"]
    + ["0x1F", "0o17", "1_000", "1:30", "1e3", ".inf", "yes", "~", "2001-12-14", "x" * 1100]
)


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        i = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.45:
            text = text[:i] + rng.choice(TOKENS) + text[i:]
        elif op < 0.6:
            text = text[:i] + text[i + rng.randint(1, 8):]
        elif op < 0.75:
            text = text[:i] + rng.choice(TOKENS) + text[i + rng.randint(1, 4):]
        else:
            lines = text.split("\n")
            j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
            change = rng.randrange(4)
            if change == 0:
                lines.insert(j, lines[k])
            elif change == 1:
                lines[j] = " " * rng.randint(1, 4) + lines[j]
            elif change == 2:
                lines[j] = lines[j].lstrip()
            else:
                lines[j], lines[k] = lines[k], lines[j]
            text = "\n".join(lines)
    return text


def _corpus(count: int, seed: int) -> list[str]:
    """Mutants of the templates and a 4-spoke estate. One in twenty is a whole
    document; the rest are windows of 4 to 24 lines from the start of a
    section, which reach the same tokens at a fraction of the reference
    loader's cost."""
    rng = random.Random(seed)
    bases = [template_text(n) for n in TEMPLATE_NAMES] + [gen.hub_and_spoke(4, seed=0).text()]
    out = []
    for k in range(count):
        base = rng.choice(bases)
        if k % 20:
            lines = base.split("\n")
            start = rng.choice([i for i, line in enumerate(lines) if line[:1].isalpha()])
            base = "\n".join(lines[start:start + rng.randint(4, 24)])
        out.append(_mutate(rng, base))
    return out


@LIBYAML
def test_mutation_corpus_gives_the_reference_outcome():
    corpus = _corpus(2000, seed=0)
    outcomes = [(_outcome(d), _reference(d)) for d in corpus]
    mismatches = [repr(d)[:300] for d, (got, want) in zip(corpus, outcomes) if got != want]
    assert not mismatches, mismatches[:3]
    # The corpus is not vacuous: the one-pass load decides a third or more of
    # the mutants, the reference the rest, and the outcomes span scenarios
    # and the issue codes.
    gated = [d for d in corpus if scenario._fast_load(d) is not scenario._UNDECIDED]
    assert len(corpus) / 3 < len(gated) < len(corpus)
    assert any(got.startswith("Scenario(") for got, _ in outcomes)
    for code in ("SYNTAX", "BAD_VALUE", "UNKNOWN_REF"):
        assert any(f"code='{code}'" in got for got, _ in outcomes), code


def _typed(data):
    """``data`` as a tree of (type, repr) pairs: ``True == 1 == 1.0``, so
    plain equality would hide a wrong scalar type."""
    if isinstance(data, dict):
        return ("dict", [(_typed(k), _typed(v)) for k, v in data.items()])
    if isinstance(data, list):
        return ("list", [_typed(item) for item in data])
    return (type(data).__name__, repr(data))


@LIBYAML
def test_one_pass_data_is_the_references_to_the_type():
    corpus = _corpus(2000, seed=0)
    decided = [(d, data) for d in corpus if (data := scenario._fast_load(d)) is not scenario._UNDECIDED]
    mismatches = [repr(d)[:300] for d, data in decided if _typed(data) != _typed(yaml.safe_load(d))]
    assert not mismatches, mismatches[:3]
    assert len(decided) > len(corpus) / 3


# Each YAML 1.1 corner the one-pass load meets, with whether it decides the
# document: where it does, its data must be the reference's to the type.
CORNERS = {
    "bools": ("[yes, On, NO, off, True, 'yes', y]", True),
    "ints": ("[0o17, 017, 0x1F, 0b101, 1_000, 1:30, -0, +12, '12']", True),
    "floats": ("[.inf, -.Inf, .NaN, 190:20:30.15, 1.0e+3, 1e3, 6.5]", True),
    "nulls": ("{a: ~, b: null, c: , d: ''}", True),
    "timestamp": ("d: 2001-12-14", False),
    "value-key": ("=: x", False),
    "value": ("x: =", False),
    "merge-key": ("base: &b {a: 1}\nchild: {<<: *b, c: 2}", False),
    "plain-merge-key": ("<<: {a: 1}", False),
    "quoted-merge-key": ("'<<': {a: 1}", True),
    "anchor": ("a: &a 1\nb: 2", False),
    "alias": ("a: &a 1\nb: *a", False),
    "undefined-alias": ("a: *x\nb: 1", False),
    "duplicate-anchor": ("a: &x 1\nb: &x 2", False),
    "flow-sequence-key": ("{[1]: x}", False),
    "flow-mapping-key": ("{{a: 1}: x}", False),
    "duplicate-keys": ("a: 1\nb: [2]\na: 3\nb: [4]\n1: x\ntrue: y\n1.0: z", True),
    "two-documents": ("--- 1\n--- 2", False),
    "empty": ("", True),
    "empty-document": ("---", True),
    "bang-tag": ("a: ! x\nb: ! 12\nc: ! [1]", True),
    "empty-bang-tag": ("a: !\nb: ! ''\nc: ! '1'", True),
    "bang-tag-in-flow": ("c: [! a, ! '1']", False),
    "str-tag": ("a: !!str 1", False),
    "bad-binary-int": ("a: 0b_", False),
}


@LIBYAML
@pytest.mark.parametrize("name", CORNERS)
def test_named_corners_give_the_references_data(name):
    document, decides = CORNERS[name]
    data = scenario._fast_load(document)
    assert (data is not scenario._UNDECIDED) == decides
    if decides:
        assert _typed(data) == _typed(yaml.safe_load(document))


# Every first character a plain scalar can start with in the ASCII text the
# gate lets through, times suffixes that meet each implicit resolver: a
# resolver missing from the walk's table, or one tried out of the reference's
# order, shows as a type.
SCALAR_FIRSTS = [c for c in string.printable if c not in string.whitespace]
SCALAR_SUFFIXES = ["", "0", ".5", "e3", ":30", "_1", "x"]


@LIBYAML
def test_one_pass_scalars_are_the_references_to_the_type():
    decided = 0
    for first in SCALAR_FIRSTS:
        for suffix in SCALAR_SUFFIXES:
            value = first + suffix
            for text in (value, "'" + value.replace("'", "''") + "'"):
                document = f"k: {text}"
                data = scenario._fast_load(document)
                if data is scenario._UNDECIDED:
                    continue
                decided += 1
                assert _typed(data) == _typed(yaml.safe_load(document)), document
    assert decided > 1.5 * len(SCALAR_FIRSTS) * len(SCALAR_SUFFIXES)


@LIBYAML
@pytest.mark.parametrize("seed", [0, 1])
def test_one_pass_data_of_a_200_spoke_estate_is_the_references_to_the_type(seed):
    document = gen.hub_and_spoke(200, seed=seed).text()
    data = scenario._fast_load(document)
    assert data is not scenario._UNDECIDED
    assert _typed(data) == _typed(yaml.safe_load(document))


# ---------------------------------------------------------------------------
# Guard: the fast path is really taken
# ---------------------------------------------------------------------------


@LIBYAML
def test_libyaml_loads_templates_and_estates(yaml_parses, yaml_loads):
    assert scenario._FAST_LOADER.__mro__[1] is yaml.CSafeLoader
    for text in [template_text(n) for n in TEMPLATE_NAMES] + [gen.hub_and_spoke(12, seed=0).text()]:
        yaml_parses.clear()
        parse_scenario(text)
        assert [call["Loader"] for call in yaml_parses] == [yaml.CSafeLoader]
        assert yaml_loads == []


@LIBYAML
def test_documents_outside_the_gate_take_the_reference_path(yaml_parses, yaml_loads):
    parse_scenario(FIG1.replace("name: fig1", "name: fig\xe91", 1))
    assert (yaml_parses, yaml_loads) == ([], [yaml.SafeLoader])
    yaml_loads.clear()
    with pytest.raises(ScenarioParseError):
        parse_scenario(FIG1.replace("name: fig1", "name: !!int x", 1))
    assert [call["Loader"] for call in yaml_parses] == [yaml.CSafeLoader]
    assert yaml_loads == [yaml.SafeLoader, scenario._ScalarErrorLoader]
    yaml_parses.clear()
    yaml_loads.clear()
    parse_scenario(NAMED["unknown-directive"])  # libyaml's parser rejects it
    assert [call["Loader"] for call in yaml_parses] == [yaml.CSafeLoader]
    assert yaml_loads == [yaml.SafeLoader]


def test_masked_libyaml_takes_the_reference_path(monkeypatch, yaml_parses, yaml_loads):
    monkeypatch.setattr(scenario, "_FAST_LOADER", None)
    parse_scenario(FIG1)
    assert (yaml_parses, yaml_loads) == ([], [yaml.SafeLoader])
