"""Address and CIDR intervals: equal to ``ipaddress`` on every input."""

import ast
import ipaddress
from itertools import combinations
from pathlib import Path

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudperim import TEMPLATE_NAMES, builtin_scenario, parse_scenario, template_text, validate_scenario
from cloudperim import prefix
from cloudperim.analysis import default_request_space
from cloudperim.engine import evaluate_flow

_BITS = {4: 32, 6: 128}


@st.composite
def _prefix_text(draw):
    """A v4 or v6 prefix of any length, host bits often set."""
    version = draw(st.sampled_from((4, 6)))
    bits = _BITS[version]
    length = draw(st.integers(0, bits))
    value = draw(st.integers(0, 2**bits - 1))
    if draw(st.booleans()):  # clear the host bits
        value &= ~((1 << (bits - length)) - 1)
    address = ipaddress.IPv4Address(value) if version == 4 else ipaddress.IPv6Address(value)
    return f"{address}/{length}"


@st.composite
def _address_text(draw):
    version = draw(st.sampled_from((4, 6)))
    value = draw(st.integers(0, 2 ** _BITS[version] - 1))
    return str(ipaddress.IPv4Address(value) if version == 4 else ipaddress.IPv6Address(value))


_MALFORMED = st.sampled_from(
    [
        "", "*", "ONPREM", "not-an-ip", "10.0.0.0/33", "10.0.0.256", "10.0.0.0/-1", "10.0.0/8",
        "::g", "2001:db8::/129", "10.0.0.1:443", "10.0.0.0 /8", "1e3.0.0.0/8", "fe80::1%",
    ]
) | st.text(max_size=12)
# valid forms that are easy to get wrong: netmasks, hostmasks, scopes, v4-mapped
_ODD = st.sampled_from(
    ["10.0.0.0/255.255.0.0", "10.1.2.3/0.0.255.255", "fe80::1%eth0", "fe80::/64", "::ffff:10.0.0.1",
     "::ffff:0:0/96", "0.0.0.0/0", "::/0", "10.0.0.1"]
)

_NETS = _prefix_text() | _address_text() | _ODD | _MALFORMED
_ADDRESSES = _address_text() | _ODD | _MALFORMED


def _ip_network(text):
    try:
        return ipaddress.ip_network(text, strict=False)
    except ValueError:
        return None


def _contains(address, cidr):
    try:
        return ipaddress.ip_address(address) in ipaddress.ip_network(cidr, strict=False)
    except ValueError:
        return False


def _meets(a, b):
    """``prefix`` overlap of two parsed texts; None meets nothing."""
    return b is not None and prefix.meets_any(a, [b])


@settings(max_examples=600, deadline=None)
@given(address=_ADDRESSES, cidr=_NETS)
def test_containment_equals_ipaddress(address, cidr):
    assert _meets(prefix.address(address), prefix.network(cidr)) == _contains(address, cidr)


@settings(max_examples=600, deadline=None)
@given(a=_NETS, b=_NETS)
def test_overlap_equals_ipaddress(a, b):
    x, y = _ip_network(a), _ip_network(b)
    expected = x is not None and y is not None and x.version == y.version and x.overlaps(y)
    assert _meets(prefix.network(a), prefix.network(b)) == expected
    assert _meets(prefix.network(b), prefix.network(a)) == expected


@settings(max_examples=300, deadline=None)
@given(groups=st.lists(st.lists(_prefix_text(), max_size=3), max_size=6))
def test_overlapping_pairs_equals_pairwise_scan(groups):
    nets = [[ipaddress.ip_network(c, strict=False) for c in g] for g in groups]
    expected = [
        (i, j)
        for i, j in combinations(range(len(groups)), 2)
        if any(x.version == y.version and x.overlaps(y) for x in nets[i] for y in nets[j])
    ]
    intervals = [[prefix.network(c) for c in g] for g in groups]
    assert prefix.overlapping_pairs(intervals) == expected


@settings(max_examples=200, deadline=None)
@given(cidr=_NETS)
def test_malformed_text_parses_to_none_and_host_bits_are_ignored(cidr):
    net = _ip_network(cidr)
    if net is None:
        assert prefix.network(cidr) is None
    else:
        assert prefix.network(cidr) == prefix.network(str(net))


def test_overlapping_pairs_at_interval_edges():
    nets = [prefix.network(c) for c in ("10.0.0.0/24", "10.0.0.255", "10.0.1.0/24", "::/0", "10.0.0.0")]
    groups = [[n] for n in nets]
    assert prefix.overlapping_pairs(groups) == [(0, 1), (0, 4)]
    assert prefix.overlapping_pairs([[nets[0], nets[1]]]) == []  # one group never pairs with itself


def test_host_bits_read_as_the_network():
    assert prefix.network("10.0.0.5/24") == prefix.network("10.0.0.0/24")
    assert prefix.first_host("10.0.0.5/24") == "10.0.0.1"
    # a one-address prefix's canonical address is its one address
    assert prefix.first_host("255.255.255.255/32") == "255.255.255.255"
    assert prefix.first_host("10.0.0.5/32") == "10.0.0.5"
    assert prefix.first_host("2001:db8::7/128") == "2001:db8::7"
    assert prefix.first_host("10.0.0.4/31") == "10.0.0.5"
    assert prefix.first_host("not-a-cidr") is None


def test_v4_never_meets_v6():
    assert not prefix.meets_any(prefix.address("0.0.0.1"), [prefix.network("::/0")])
    assert not prefix.meets_any(prefix.network("::ffff:0:0/96"), [prefix.network("0.0.0.0/0")])


def test_host_port():
    assert prefix.host_port("10.0.0.1") == (prefix.address("10.0.0.1"), None)
    assert prefix.host_port("10.0.0.1:443") == (prefix.address("10.0.0.1"), 443)
    assert prefix.host_port("10.0.0.1:0") is not None
    assert prefix.host_port("10.0.0.1:65535") is not None
    for bad in ("10.0.0.1:http", "10.0.0.1:", "10.0.0.1:65536", "10.0.0.1:-1", "not-an-ip", "host:80"):
        assert prefix.host_port(bad) is None, bad


def test_only_prefix_and_oracle_import_ipaddress():
    """Every other module reads addresses through ``prefix``; the oracle keeps
    its own helpers so that it stays independent of the engine."""
    package = Path(prefix.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(n.split(".")[0] == "ipaddress" for n in names):
                importers.add(path.name)
    assert importers == {"prefix.py", "oracle.py"}


# ---------------------------------------------------------------------------
# The parse memo
# ---------------------------------------------------------------------------

_A = (4, 1633837924, 1633837924)  # b"abcd" read as a packed v4 address
# (value, network, address, host_port, first_host), as parsed without a memo;
# an exception type is what the call raises
_NOT_STR = [
    (["10.0.0.1"], None, None, AttributeError, None),
    ({"10.0.0.1": 1}, None, None, AttributeError, None),
    (5, (4, 5, 5), (4, 5, 5), AttributeError, "0.0.0.5"),
    (True, (4, 1, 1), (4, 1, 1), AttributeError, "0.0.0.1"),
    (1.0, None, None, AttributeError, None),  # equal to True as a key, parsed apart
    (b"abcd", _A, _A, TypeError, "97.98.99.100"),
    (b"10.0.0.1", None, None, TypeError, None),
    (None, None, None, AttributeError, None),
]


def _outcome(parse, value):
    try:
        return parse(value)
    except Exception as e:  # noqa: BLE001 - the exception type is the outcome
        return type(e)


@pytest.mark.filterwarnings("ignore:__int__ returned non-int:DeprecationWarning")
@pytest.mark.parametrize("value, expected", [(row[0], list(row[1:])) for row in _NOT_STR], ids=repr)
def test_a_value_that_is_not_str_parses_as_without_a_memo(value, expected):
    parsers = (prefix.network, prefix.address, prefix.host_port, prefix.first_host)
    for _ in range(2):  # the second call would come from a memo if the first had filled it
        assert [_outcome(parse, value) for parse in parsers] == expected


def test_memo_stays_within_its_bound_under_a_stream_of_new_addresses():
    for i in range(20_000):
        text = str(ipaddress.IPv4Address(0x0A000000 + i))
        assert prefix.address(text) == (4, 0x0A000000 + i, 0x0A000000 + i)
        assert prefix.host_port(f"{text}:{i % 65536}") == (prefix.address(text), i % 65536)
    info = prefix._memo.cache_info()
    assert info.maxsize == prefix.MEMO_SIZE and info.currsize <= prefix.MEMO_SIZE


def test_a_second_index_over_the_same_texts_parses_nothing_again():
    def setup_and_query(name):
        s = parse_scenario(template_text(name))
        assert validate_scenario(s) == []
        for r in default_request_space(s)[:400]:
            evaluate_flow(s, r)
        return s

    first = {name: setup_and_query(name) for name in TEMPLATE_NAMES}
    misses = prefix._memo.cache_info().misses
    for name in TEMPLATE_NAMES:
        setup_and_query(name)
        dataclasses.replace(first[name]).index()
    assert prefix._memo.cache_info().misses == misses
