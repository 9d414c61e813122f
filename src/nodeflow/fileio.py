"""Instance files: a small JSON dialect with exact rationals.

Capacities and demands are integers or "p/q" strings; floats are rejected at
parse time so no value ever passes through binary floating point.  A demand
of "inf" means unbounded.  Unknown keys are rejected to catch typos early.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ParseError
from .network import FlowNetwork
from .rational import format_rational, rat

_TOP_KEYS = {"orientation", "nodes", "edges", "commodities", "middlepoints",
             "designated"}
_EDGE_KEYS = {"tail", "head", "capacity", "length"}
_COM_KEYS = {"src", "dst", "demand", "min_demand"}
_DESIGNATED_KEYS = {"w", "W", "group"}


@dataclass
class Instance:
    """A network plus its designations: an ordered middlepoint list (None
    when there is none) and the designated keys "w", "W" and "group"."""

    network: FlowNetwork
    middlepoints: tuple = None
    designated: dict = field(default_factory=dict)


def _reject_float(text):
    raise ParseError(f"float literal {text!r} not allowed; use an integer "
                     "or a \"p/q\" string")


def _rational(value, location, allow_inf=False):
    if isinstance(value, bool):
        raise ParseError("expected a rational, got a boolean", location)
    if isinstance(value, int):
        return rat(value)
    if isinstance(value, str):
        if allow_inf and value == "inf":
            return None
        try:
            return rat(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), location) from None
    raise ParseError(f"expected a rational, got {type(value).__name__}",
                     location)


def _check_keys(obj, allowed, location):
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}",
                         location)
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown key(s) {sorted(unknown)}", location)


def _string_list(value, location):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError("expected a list of strings", location)
    return value


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text, parse_float=_reject_float,
                         parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno} column {exc.colno}") from None
    _check_keys(doc, _TOP_KEYS, "top level")
    for key in ("orientation", "nodes", "edges", "commodities"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}", "top level")
    orientation = doc["orientation"]
    if orientation not in ("directed", "undirected"):
        raise ParseError(f"orientation must be 'directed' or 'undirected', "
                         f"got {orientation!r}", "orientation")
    nodes = _string_list(doc["nodes"], "nodes")

    edges = []
    if not isinstance(doc["edges"], list):
        raise ParseError("expected a list", "edges")
    for i, spec in enumerate(doc["edges"]):
        loc = f"edges[{i}]"
        _check_keys(spec, _EDGE_KEYS, loc)
        for key in ("tail", "head", "capacity"):
            if key not in spec:
                raise ParseError(f"missing required key {key!r}", loc)
        cap = _rational(spec["capacity"], f"{loc}.capacity")
        length = spec.get("length", 1)
        if isinstance(length, bool) or not isinstance(length, int) or length < 1:
            raise ParseError("length must be a positive integer",
                             f"{loc}.length")
        edges.append((spec["tail"], spec["head"], cap, length))

    commodities = []
    if not isinstance(doc["commodities"], list):
        raise ParseError("expected a list", "commodities")
    for i, spec in enumerate(doc["commodities"]):
        loc = f"commodities[{i}]"
        _check_keys(spec, _COM_KEYS, loc)
        for key in ("src", "dst"):
            if key not in spec:
                raise ParseError(f"missing required key {key!r}", loc)
        demand = None
        if "demand" in spec:
            demand = _rational(spec["demand"], f"{loc}.demand", allow_inf=True)
        min_demand = None
        if "min_demand" in spec:
            min_demand = _rational(spec["min_demand"], f"{loc}.min_demand")
        commodities.append((spec["src"], spec["dst"], demand, min_demand))

    middlepoints = None
    if "middlepoints" in doc:
        middlepoints = tuple(_string_list(doc["middlepoints"],
                                          "middlepoints")) or None
    designated = {}
    if "designated" in doc:
        _check_keys(doc["designated"], _DESIGNATED_KEYS, "designated")
        for key, value in doc["designated"].items():
            if key == "w":
                if not isinstance(value, str):
                    raise ParseError("expected a node id", "designated.w")
                designated["w"] = value
            else:
                listed = _string_list(value, f"designated.{key}")
                if not listed:
                    raise ParseError("expected a nonempty list of node ids",
                                     f"designated.{key}")
                designated[key] = tuple(listed)

    try:
        net = FlowNetwork.build(orientation, nodes, edges, commodities)
    except Exception as exc:
        raise ParseError(str(exc)) from None
    return Instance(net, middlepoints, designated)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _rational_out(value):
    text = format_rational(value)
    try:
        return int(text)
    except ValueError:
        return text


def instance_to_dict(instance: Instance) -> dict:
    net = instance.network
    doc = {
        "orientation": net.orientation,
        "nodes": list(net.nodes),
        "edges": [],
        "commodities": [],
    }
    for e in net.edges:
        rec = {"tail": e.tail, "head": e.head,
               "capacity": _rational_out(e.capacity)}
        if e.length != 1:
            rec["length"] = e.length
        doc["edges"].append(rec)
    for com in net.commodities:
        rec = {"src": com.source, "dst": com.sink}
        rec["demand"] = ("inf" if com.max_demand is None
                         else _rational_out(com.max_demand))
        if com.min_demand is not None:
            rec["min_demand"] = _rational_out(com.min_demand)
        doc["commodities"].append(rec)
    if instance.middlepoints:
        doc["middlepoints"] = list(instance.middlepoints)
    if instance.designated:
        designated = {}
        for key in ("w", "W", "group"):
            if key in instance.designated:
                value = instance.designated[key]
                designated[key] = value if key == "w" else list(value)
        doc["designated"] = designated
    return doc


def serialize_instance(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def save_instance(instance: Instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(instance))


def instance_hash(instance: Instance) -> str:
    # hashlib loads OpenSSL (some 3.5 MB of memory), so it is imported only
    # by the one caller that needs it.
    import hashlib

    canonical = json.dumps(instance_to_dict(instance), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
