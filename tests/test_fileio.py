import json
import os
import subprocess
import sys

import pytest

from nodeflow import (Instance, ParseError, catalog, instance_hash,
                      load_instance, parse_instance, rat, save_instance,
                      serialize_instance)


def _file_fields(inst):
    """What an instance file holds of an instance."""
    return inst.network, inst.middlepoints, inst.designated


def test_round_trip_all_builtins():
    for b in catalog():
        again = parse_instance(serialize_instance(b))
        assert type(again) is Instance, b.name
        assert _file_fields(again) == _file_fields(b), b.name


def test_hash_stable_and_distinct():
    hashes = {}
    for b in catalog():
        h = instance_hash(b)
        assert h == instance_hash(parse_instance(serialize_instance(b)))
        hashes[b.name] = h
    # fig8 and fig8-undirected differ only in orientation but must not collide
    assert hashes["fig8"] != hashes["fig8-undirected"]


# Recorded before hashlib was imported lazily; the hash is a stable
# identifier, so it must not move.
PINNED_HASHES = {
    "augmenting-undirected": "bf08edffa39e69d3",
    "cycle-3": "e063c7e0dc36b3e6",
    "cycle-4": "6616cc43924dfa4f",
    "fig8": "4dad2f55234a1ac5",
    "fig8-undirected": "d6b536f0fb38c991",
    "figadd": "464a0f1f51794f0b",
    "remarks": "69d87ce1ddaa8bd7",
    "remarks-unit": "e4b7e932d47f2ae4",
    "wst-undirected": "007d00a09d9fc660",
}


def test_hash_pinned_on_builtins():
    assert {b.name: instance_hash(b) for b in catalog()} == PINNED_HASHES


def test_import_does_not_load_openssl():
    # hashlib pulls in OpenSSL's libcrypto, several MB of resident memory
    # that only instance_hash needs.
    code = "import sys, nodeflow; print('_hashlib' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_save_and_load(tmp_path):
    b = catalog()[0]
    path = tmp_path / "inst.json"
    save_instance(b, path)
    loaded = load_instance(path)
    assert _file_fields(loaded) == _file_fields(b)
    assert loaded == parse_instance(serialize_instance(b))


def test_unknown_top_level_key():
    with pytest.raises(ParseError, match="top level"):
        parse_instance('{"oops": 1}')


def test_unknown_edge_key_location():
    doc = {"orientation": "directed", "nodes": ["a", "b"],
           "edges": [{"tail": "a", "head": "b", "capacity": 1, "color": 3}],
           "commodities": []}
    with pytest.raises(ParseError, match=r"edges\[0\]"):
        parse_instance(json.dumps(doc))


def test_float_capacity_rejected():
    doc = {"orientation": "directed", "nodes": ["a", "b"],
           "edges": [{"tail": "a", "head": "b", "capacity": 1.5}],
           "commodities": []}
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


def test_nan_and_infinity_literals_rejected():
    doc = ('{"orientation": "directed", "nodes": ["a", "b"], "edges": '
           '[{"tail": "a", "head": "b", "capacity": NaN}], "commodities": []}')
    with pytest.raises(ParseError):
        parse_instance(doc)


@pytest.mark.parametrize("length", [0, -1, True, "2"])
def test_bad_length_location(length):
    doc = {"orientation": "directed", "nodes": ["a", "b", "c"],
           "edges": [{"tail": "a", "head": "b", "capacity": 1},
                     {"tail": "b", "head": "c", "capacity": 1,
                      "length": length}],
           "commodities": []}
    with pytest.raises(ParseError, match=r"edges\[1\]\.length"):
        parse_instance(json.dumps(doc))


def test_fraction_strings_accepted():
    doc = {"orientation": "directed", "nodes": ["a", "b"],
           "edges": [{"tail": "a", "head": "b", "capacity": "3/2"}],
           "commodities": [{"src": "a", "dst": "b", "demand": "inf"}]}
    inst = parse_instance(json.dumps(doc))
    assert inst.network.edges[0].capacity == rat(3, 2)
    assert inst.network.commodities[0].max_demand is None


def test_middlepoints_parse_to_a_tuple_or_none():
    doc = {"orientation": "directed", "nodes": ["a", "b"], "edges": [],
           "commodities": []}
    for listed, held in (([], None), (["b", "a"], ("b", "a"))):
        inst = parse_instance(json.dumps({**doc, "middlepoints": listed}))
        assert inst.middlepoints == held


def test_malformed_network_wrapped():
    doc = {"orientation": "directed", "nodes": ["a"],
           "edges": [{"tail": "a", "head": "a", "capacity": 1}],
           "commodities": []}
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("demands", [{"demand": -1}, {"min_demand": "-1/2"},
                                     {"demand": 1, "min_demand": 2}])
def test_negative_demand_and_floor_above_ceiling_rejected(demands):
    doc = {"orientation": "undirected", "nodes": ["s", "w", "t"],
           "edges": [{"tail": "s", "head": "w", "capacity": 1},
                     {"tail": "w", "head": "t", "capacity": 1}],
           "commodities": [{"src": "s", "dst": "t", **demands}]}
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("key", ["W", "group"])
def test_empty_designated_list_location(key):
    doc = {"orientation": "directed", "nodes": ["a", "b"],
           "edges": [{"tail": "a", "head": "b", "capacity": 1}],
           "commodities": [], "designated": {key: []}}
    with pytest.raises(ParseError, match=rf"designated\.{key}: .*nonempty"):
        parse_instance(json.dumps(doc))


def test_not_json_at_all():
    with pytest.raises(ParseError):
        parse_instance("orientation: directed")
