import csv
import io
import json
import time

import pytest

from nodeflow import (catalog, disjoint_shortest_paths_gadget, get_builtin,
                      load_instance, max_coverage_gadget, network,
                      node_split_gadget, two_disjoint_paths_gadget,
                      unit_path_gadget)
from nodeflow.cli import main

from test_fileio import PINNED_HASHES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_w_flow_remarks(capsys):
    # set-flow reads the instance's designated w as the set {w}.
    code, out, _ = run(capsys, "set-flow", "--builtin", "remarks")
    assert code == 0
    assert "objective: 3\n" in out


def test_w_flow_remarks_unit(capsys):
    code, out, _ = run(capsys, "set-flow", "--builtin", "remarks-unit")
    assert code == 0
    assert "objective: 3/2" in out


def test_group_flow_fig8(capsys):
    # GF({s1,s2,s3}) = 3 by path enumeration and by the undirected transform.
    for name in ("fig8", "fig8-undirected"):
        code, out, _ = run(capsys, "set-flow", "--builtin", name,
                           "--set", "s1,s2,s3")
        assert code == 0, name
        assert "objective: 3\n" in out, name


@pytest.mark.parametrize("command,flag,key", [
    ("set-flow", "--set", "designated_set"),
])
def test_designated_set_echo_is_sorted_and_distinct(capsys, command, flag, key):
    # The solver reads W as a set; the echo shows the set it solved for.
    code, out, _ = run(capsys, command, "--builtin", "fig8", flag, "s2,s1,s1")
    assert code == 0
    assert f"\n{key}: s1,s2\n" in out
    assert "objective: 2\n" in out


def test_catalog_contents(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    fig8_line = next(line for line in out.splitlines()
                     if line.startswith("fig8:"))
    assert "non-submodularity counterexample" in fig8_line
    cycle_line = next(line for line in out.splitlines()
                      if line.startswith("cycle-3:"))
    assert "shared edge u1" in cycle_line and "u2" in cycle_line


def test_unknown_builtin_exit_2(capsys):
    code, _, err = run(capsys, "set-flow", "--builtin", "no-such-instance")
    assert code == 2
    assert "no builtin instance" in err


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": 3}')
    code, _, err = run(capsys, "te-mf", "--instance", str(path))
    assert code == 2


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "te-mf", "--instance", "/no/such/file.json")
    assert code == 2


def test_step_cap_exit_3(capsys, monkeypatch):
    # remarks' s->t search needs 13 steps.
    monkeypatch.setattr(network, "WALK_STEP_CAP", 12)
    code, out, err = run(capsys, "te-mf", "--builtin", "remarks")
    assert code == 3 and out == ""
    assert err.startswith("limit exceeded:") and "passed 12 steps" in err


def test_centrality_step_cap_exit_3(capsys, monkeypatch):
    # fig8's longest pair search through v1 needs 7 steps; the driver stops
    # at its first search past the cap.
    code, out, _ = run(capsys, "centrality", "--builtin", "fig8", "--w", "v1")
    assert code == 0
    assert "centrality: 24/67" in out.splitlines()
    monkeypatch.setattr(network, "WALK_STEP_CAP", 6)
    code, out, err = run(capsys, "centrality", "--builtin", "fig8", "--w", "v1")
    assert code == 3 and out == ""
    assert "passed 6 steps" in err


def test_missing_designation_exit_4(capsys):
    # cycle-3 designates middlepoints only: no W, group or w.
    code, _, err = run(capsys, "set-flow", "--builtin", "cycle-3")
    assert code == 4
    assert "designated" in err


def test_acyclic_check_decides_a_unit_grid(tmp_path, capsys):
    # 8 x 8 grid: 3,432 shortest paths out to v7_7 and 1,716 back, too
    # many to pair up, but the search's first path back fits.
    n = 8
    edges = [(f"v{i}_{j}", f"v{i}_{j + 1}") for i in range(n) for j in range(n - 1)]
    edges += [(f"v{i}_{j}", f"v{i + 1}_{j}") for i in range(n - 1) for j in range(n)]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "orientation": "undirected",
        "nodes": [f"v{i}_{j}" for i in range(n) for j in range(n)],
        "edges": [{"tail": a, "head": b, "capacity": 1} for a, b in edges],
        "commodities": [{"src": "v0_0", "dst": "v0_1"}],
        "middlepoints": ["v7_7"]}))
    code, out, err = run(capsys, "acyclic-check", "--instance", str(path))
    assert code == 0, err
    assert {"feasible: True", "steps_tried: 27"} <= set(out.splitlines())


def test_infeasible_is_still_exit_0(capsys):
    code, out, _ = run(capsys, "acyclic-check", "--builtin", "cycle-3")
    assert code == 0
    assert "feasible: False" in out


def test_csv_format(capsys):
    code, out, _ = run(capsys, "set-flow", "--builtin", "remarks",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    table = {r[0]: r[1] for r in rows if len(r) == 2}
    assert table["objective"] == "3"
    assert table["command"] == "set-flow"


def test_structured_format(capsys):
    code, out, _ = run(capsys, "set-flow", "--builtin", "remarks",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["fields"]["objective"] == "3"
    assert doc["hash"]


# The fields that carry a rational.  ResultRecord.add gives a Fraction its
# <key>_decimal twin and prints an int as it is, so an int leaking out of
# the solvers would drop the twin without any other sign.
RATIONAL_FIELDS = {"objective", "theta", "cut_value", "numerator",
                   "denominator", "centrality", "lhs", "residual"}
SOLVER_SUBCOMMANDS = {"te-mf": (), "te-lu": (), "set-flow": (),
                      "w-flow-augment": (), "cut": (), "sr-lu": (),
                      "sr-mf": (), "centrality": (), "ngroup": ("-n", "1"),
                      "eq25": ()}


@pytest.mark.parametrize("command, extra", SOLVER_SUBCOMMANDS.items(),
                         ids=list(SOLVER_SUBCOMMANDS))
def test_every_rational_field_has_its_decimal_twin(capsys, command, extra):
    answered = 0
    for inst in catalog():
        code, out, _ = run(capsys, command, "--builtin", inst.name,
                           "--format", "structured", *extra)
        if code != 0:   # a builtin without the designation this one needs
            continue
        answered += 1
        fields = json.loads(out)["fields"]
        rational = [key for key, value in fields.items()
                    if (key in RATIONAL_FIELDS or key.startswith("term_"))
                    and not key.endswith("_decimal")
                    and not str(value).startswith("undefined")]
        assert rational, (inst.name, fields)
        for key in rational:
            assert f"{key}_decimal" in fields, (inst.name, key)
    assert answered, command


def test_hash_present_in_table(capsys):
    _, out, _ = run(capsys, "set-flow", "--builtin", "remarks")
    header = out.splitlines()[1]
    assert header.startswith("instance:") and "[" in header


def test_gadget_output_round_trips(tmp_path, capsys):
    path = tmp_path / "gadget.json"
    code, out, _ = run(capsys, "gadget", "--builtin", "remarks",
                       "--kind", "unit-path", "--output", str(path))
    assert code == 0
    inst = load_instance(path)
    assert inst.designated.get("w") == "w"
    code, out, _ = run(capsys, "set-flow", "--instance", str(path))
    assert code == 0
    assert "objective: 1\n" in out


def test_undirected_w_flow_at_an_endpoint(capsys):
    for w in ("s", "t"):
        code, out, _ = run(capsys, "set-flow", "--builtin", "wst-undirected",
                           "--set", w)
        assert code == 0, w
        assert "objective: 1\n" in out


def test_no_repeat_flag(capsys):
    code, out, _ = run(capsys, "set-flow", "--builtin",
                       "augmenting-undirected", "--no-repeat")
    assert code == 0
    assert "objective: 3\n" in out


def test_set_flow_reads_w_on_the_w_s_t_chain(capsys):
    # The transform and the no-repeat family through the designated w.
    for flags, line in (((), "objective: 1/2"), (("--no-repeat",), "objective: 0")):
        code, out, err = run(capsys, "set-flow", "--builtin", "wst-undirected",
                             *flags)
        assert code == 0, err
        assert {"designated_set: w", line} <= set(out.splitlines()), flags


def test_no_repeat_on_a_directed_instance_exit_2(capsys):
    code, out, err = run(capsys, "set-flow", "--builtin", "remarks",
                         "--no-repeat")
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and "undirected" in err


def test_augment_with_w_an_endpoint_exit_1(capsys):
    code, out, err = run(capsys, "w-flow-augment", "--builtin", "remarks",
                         "--w", "s")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "endpoint" in err


def test_augment_with_an_unknown_w_exit_1(capsys):
    code, out, err = run(capsys, "w-flow-augment", "--builtin", "remarks",
                         "--w", "zz")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'zz'" in err


def test_augment_on_a_long_directed_chain(tmp_path, capsys):
    # One walk through a chain longer than the interpreter's recursion
    # limit: the walk search keeps its own stack.
    nodes = [f"v{i}" for i in range(1200)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "orientation": "directed", "nodes": nodes,
        "edges": [{"tail": a, "head": b, "capacity": 1}
                  for a, b in zip(nodes, nodes[1:])],
        "commodities": [{"src": "v0", "dst": "v1199"}]}))
    code, out, err = run(capsys, "w-flow-augment", "--instance", str(path),
                         "--w", "v600")
    assert code == 0, err
    assert "objective: 1" in out.splitlines()


def _k8_w(tmp_path):
    """An instance file: the complete digraph on v0..v7 and w, entered from
    v2 alone, with the commodity v0 -> v1."""
    nodes = [f"v{i}" for i in range(8)]
    path = tmp_path / "k8.json"
    path.write_text(json.dumps({
        "orientation": "directed", "nodes": nodes + ["w"],
        "edges": [{"tail": a, "head": b, "capacity": 1}
                  for a in nodes for b in nodes if a != b]
        + [{"tail": "v2", "head": "w", "capacity": 1}],
        "commodities": [{"src": "v0", "dst": "v1"}]}))
    return str(path)


def _unit_digraph(tmp_path, name, nodes, arcs, designated=None):
    """An instance file of unit-capacity directed arcs and the commodity
    s -> t."""
    doc = {"orientation": "directed", "nodes": nodes,
           "edges": [{"tail": x, "head": y, "capacity": 1} for x, y in arcs],
           "commodities": [{"src": "s", "dst": "t"}]}
    if designated:
        doc["designated"] = designated
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_augment_runaway_search_exit_3(tmp_path, capsys):
    # s -> w -> t, s -> k0, the complete digraph on k0..k4 and every k -> t:
    # the first round's search finds the one walk through w and runs on
    # through the digraph's trails until it passes its step cap.
    k = [f"k{i}" for i in range(5)]
    arcs = ([("s", "w"), ("w", "t"), ("s", "k0")]
            + [(x, y) for x in k for y in k if x != y] + [(x, "t") for x in k])
    path = _unit_digraph(tmp_path, "runaway-a.json", ["s", "w", "t"] + k, arcs)
    code, out, err = run(capsys, "w-flow-augment", "--instance", path, "--w", "w")
    assert code == 3 and out == ""
    assert err.startswith("limit exceeded:") and "steps" in err


def test_augment_with_no_walk_through_w(tmp_path, capsys):
    # w reaches no node, so reachability settles the search: 0 at once.
    start = time.perf_counter()
    code, out, err = run(capsys, "w-flow-augment", "--instance",
                         _k8_w(tmp_path), "--w", "w")
    assert time.perf_counter() - start < 1
    assert code == 0, err
    assert "objective: 0" in out.splitlines()


def test_set_flow_runaway_search_exit_3(tmp_path, capsys):
    # s -> a -> b, b -> k0, b -> w -> t, the complete digraph on k0..k4,
    # every k -> a and every k -> t: ten nodes, inside the node guard.  One
    # walk passes w, and the search for more runs through the trails of the
    # complete digraph, re-entered through a, until its step cap.
    k = [f"k{i}" for i in range(5)]
    arcs = ([("s", "a"), ("a", "b"), ("b", "k0"), ("b", "w"), ("w", "t")]
            + [(x, y) for x in k for y in k if x != y]
            + [(x, "a") for x in k] + [(x, "t") for x in k])
    path = _unit_digraph(tmp_path, "runaway.json", ["s", "a", "b", "w", "t"] + k,
                         arcs)
    start = time.perf_counter()
    code, out, err = run(capsys, "set-flow", "--instance", path, "--set", "w")
    assert time.perf_counter() - start < 10
    assert code == 3 and out == ""
    assert err.startswith("limit exceeded:") and "steps" in err


def test_cut_search_past_its_step_cap_exit_3(tmp_path, capsys, monkeypatch):
    # s -> a -> b -> w, w -> a, b -> t, s -> k0 and the complete digraph on
    # k0..k3: 18 edges, so the directed cut is exact by branch and bound.
    # s reaches w and w reaches t, but no s-w-t walk exists, so the cut is
    # empty; the search that shows it runs through the digraph's trails in
    # more than 1,000 steps.
    k = [f"k{i}" for i in range(4)]
    arcs = ([("s", "a"), ("a", "b"), ("b", "w"), ("w", "a"), ("b", "t"),
             ("s", "k0")] + [(x, y) for x in k for y in k if x != y])
    path = _unit_digraph(tmp_path, "cut.json", ["s", "a", "b", "w", "t"] + k,
                        arcs, {"w": "w"})
    code, out, err = run(capsys, "cut", "--instance", path)
    assert code == 0, err
    assert {"cut_value: 0", "exact: True"} <= set(out.splitlines())
    monkeypatch.setattr(network, "WALK_STEP_CAP", 1000)
    code, out, err = run(capsys, "cut", "--instance", path)
    assert code == 3 and out == ""
    assert err.startswith("limit exceeded:") and "passed 1000 steps" in err


def test_set_flow_with_no_walk_through_w(tmp_path, capsys):
    # w reaches no node, so the exact answer is 0, found without a search.
    code, out, err = run(capsys, "set-flow", "--instance", _k8_w(tmp_path),
                         "--set", "w")
    assert code == 0, err
    assert "objective: 0" in out.splitlines()


def test_sr_lu_cycle(capsys):
    code, out, _ = run(capsys, "sr-lu", "--builtin", "cycle-3")
    assert code == 0
    assert "theta:" in out


def test_ngroup(capsys):
    code, out, _ = run(capsys, "ngroup", "--builtin", "fig8", "-n", "1")
    assert code == 0
    assert "objective: 2\n" in out


def test_cut_without_commodities_or_s_exit_4(tmp_path, capsys):
    path = tmp_path / "no-commodities.json"
    path.write_text(json.dumps({
        "orientation": "directed", "nodes": ["a", "b", "c"],
        "edges": [{"tail": "a", "head": "b", "capacity": 1},
                  {"tail": "b", "head": "c", "capacity": 1}],
        "commodities": []}))
    code, _, err = run(capsys, "cut", "--instance", str(path), "--w", "b")
    assert code == 4
    assert "source" in err
    code, out, _ = run(capsys, "cut", "--instance", str(path), "--w", "b",
                       "--s", "a", "--t", "c")
    assert code == 0
    assert "cut_value: 1\n" in out


def test_negative_demand_is_a_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({
        "orientation": "undirected", "nodes": ["s", "w", "t"],
        "edges": [{"tail": "s", "head": "w", "capacity": 1},
                  {"tail": "w", "head": "t", "capacity": 1}],
        "commodities": [{"src": "s", "dst": "t", "demand": -1}]}))
    for argv in (["te-lu"], ["te-mf"], ["set-flow", "--set", "w"],
                 ["set-flow", "--set", "w", "--no-repeat"]):
        code, _, err = run(capsys, *argv, "--instance", str(path))
        assert code == 2, argv
        assert "0 <= min_demand <= demand" in err, argv


def test_solver_error_exit_1(capsys):
    # remarks has a commodity with no finite demand, which te-lu refuses.
    code, _, err = run(capsys, "te-lu", "--builtin", "remarks")
    assert code == 1
    assert err.startswith("error:")


def _chain(tmp_path, orientation, **commodity):
    """The 12-node chain v0 -> ... -> v11, one commodity from end to end:
    its one s-t walk is 11 arcs, so every walk search ends far inside the
    default step cap, whatever the node count."""
    nodes = [f"v{i}" for i in range(12)]
    path = tmp_path / f"{orientation}-chain.json"
    path.write_text(json.dumps({
        "orientation": orientation, "nodes": nodes,
        "edges": [{"tail": a, "head": b, "capacity": 1}
                  for a, b in zip(nodes, nodes[1:])],
        "commodities": [{"src": "v0", "dst": "v11", **commodity}]}))
    return str(path)


def _answers_then_caps(capsys, monkeypatch, path, argv, line=None):
    """argv answers on path, with line in its output, and exits 3 once the
    step cap is below the 11 arcs of the chain's one walk."""
    code, out, err = run(capsys, *argv, "--instance", path)
    assert code == 0, (argv, err)
    assert line is None or line in out.splitlines(), argv
    with monkeypatch.context() as patch:
        patch.setattr(network, "WALK_STEP_CAP", 5)
        code, out, err = run(capsys, *argv, "--instance", path)
    assert code == 3 and out == "", argv
    assert "passed 5 steps" in err, argv


def test_step_cap_on_directed_path_solvers_exit_3(tmp_path, capsys, monkeypatch):
    path = _chain(tmp_path, "directed")
    for argv, line in ((("set-flow", "--set", "v5", "--simple"), "objective: 1"),
                       (("set-flow", "--set", "v5"), "objective: 1"),
                       (("eq25", "--w", "v5"), "consistent: True"),
                       (("centrality", "--w", "v5", "--instance-demands"),
                        "centrality: 1")):
        _answers_then_caps(capsys, monkeypatch, path, argv, line)


def test_step_cap_on_undirected_walk_enumerators_exit_3(tmp_path, capsys,
                                                        monkeypatch):
    path = _chain(tmp_path, "undirected")
    for argv in (("set-flow", "--set", "v5", "--simple"),
                 ("set-flow", "--set", "v5", "--no-repeat")):
        _answers_then_caps(capsys, monkeypatch, path, argv, "objective: 1")
    # The polynomial undirected solvers search no walk, so no cap stops them.
    monkeypatch.setattr(network, "WALK_STEP_CAP", 1)
    for argv in (("set-flow", "--set", "v5"), ("centrality", "--w", "v5")):
        code, _, _ = run(capsys, *argv, "--instance", path)
        assert code == 0, argv


def test_step_cap_on_te_walk_enumerators_exit_3(tmp_path, capsys, monkeypatch):
    # te-mf and te-lu enumerate every s-t walk, on either kind of network.
    for orientation in ("directed", "undirected"):
        path = _chain(tmp_path, orientation, demand=1)
        for command in ("te-mf", "te-lu"):
            _answers_then_caps(capsys, monkeypatch, path, (command,),
                               "objective: 1")


def test_step_cap_on_group_solvers_exit_3(tmp_path, capsys, monkeypatch):
    for orientation in ("directed", "undirected"):
        path = _chain(tmp_path, orientation)
        searched = [("probe-submodularity", "--trials", "1")]
        if orientation == "directed":
            searched.append(("ngroup", "-n", "1"))
        for argv in searched:
            _answers_then_caps(capsys, monkeypatch, path, argv)
    # Group flow on an undirected network is the polynomial transform.
    monkeypatch.setattr(network, "WALK_STEP_CAP", 1)
    code, _, _ = run(capsys, "ngroup", "-n", "1", "--instance", path)
    assert code == 0


def _write(path, orientation, edges, **extra):
    path.write_text(json.dumps({
        "orientation": orientation, "nodes": ["s", "w", "t"],
        "edges": [{"tail": a, "head": b, "capacity": 1} for a, b in edges],
        "commodities": [], **extra}))
    return str(path)


# An unknown designated node, on the command line or in the file, on
# instances where no commodity or pair would reach it: every command still
# names it.
UNKNOWN_NODE = {
    "set-flow-one": ("directed", ("set-flow", "--set", "zz"), {}),
    "set-flow-file-w": ("directed", ("set-flow",), {"w": "zz"}),
    "set-flow-simple": ("directed", ("set-flow", "--set", "zz", "--simple"), {}),
    "set-flow": ("directed", ("set-flow", "--set", "zz,w"), {}),
    "centrality-instance-demands": (
        "directed", ("centrality", "--w", "zz", "--instance-demands"), {}),
    "centrality-undirected": ("undirected", ("centrality", "--w", "zz"), {}),
}


@pytest.mark.parametrize("orientation, argv, designated", UNKNOWN_NODE.values(),
                         ids=UNKNOWN_NODE.keys())
def test_unknown_designated_node_exit_1(tmp_path, capsys, orientation, argv,
                                        designated):
    edges = [("s", "w"), ("w", "t")] if orientation == "directed" else []
    path = _write(tmp_path / "net.json", orientation, edges,
                  designated=designated)
    code, out, err = run(capsys, *argv, "--instance", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'zz'" in err


@pytest.mark.parametrize("command, key", [("set-flow", "W"),
                                          ("set-flow", "group")])
def test_empty_designated_list_in_file_exit_2(tmp_path, capsys, command, key):
    path = _write(tmp_path / "net.json", "directed", [("s", "w"), ("w", "t")],
                  designated={key: []})
    code, out, err = run(capsys, command, "--instance", path)
    assert code == 2 and out == ""
    assert f"designated.{key}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["set-flow"])
@pytest.mark.parametrize("key", ["W", "group"])
def test_either_designated_set_key_serves_both_commands(tmp_path, capsys,
                                                        command, key):
    # The instance format's W and group name one list; set-flow reads either.
    path = _write(tmp_path / "net.json", "directed", [("s", "w"), ("w", "t")],
                  commodities=[{"src": "s", "dst": "t"}],
                  designated={key: ["w"]})
    code, out, _ = run(capsys, command, "--instance", path)
    assert code == 0 and "objective: 1\n" in out


def test_builtin_hash_is_the_hash_of_its_file(capsys):
    # A builtin's stamp is that of the instance file it serializes to.
    for b in catalog():
        code, out, _ = run(capsys, "cut", "--builtin", b.name,
                           "--w", b.network.nodes[1])
        assert code == 0, b.name
        assert f"[{PINNED_HASHES[b.name]}]" in out.splitlines()[1], b.name


def test_augment_without_commodity_exit_1(tmp_path, capsys):
    path = _write(tmp_path / "net.json", "directed", [("s", "w"), ("w", "t")])
    code, out, err = run(capsys, "w-flow-augment", "--instance", path,
                         "--w", "w")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "commodity" in err


def test_cut_unknown_w_exit_1(capsys):
    code, out, err = run(capsys, "cut", "--builtin", "remarks", "--w", "zz")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'zz'" in err


def test_cut_unknown_s_exit_1(capsys):
    code, out, err = run(capsys, "cut", "--builtin", "remarks", "--w", "w",
                         "--s", "nope")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'nope'" in err


def test_acyclic_check_unknown_middlepoint_exit_1(capsys):
    code, out, err = run(capsys, "acyclic-check", "--builtin", "remarks",
                         "--middlepoints", "zz")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'zz'" in err


def test_eq25_unknown_s_names_it_exit_1(capsys):
    code, out, err = run(capsys, "eq25", "--builtin", "fig8", "--w", "v1",
                         "--s", "v0")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'v0'" in err


def test_eq25_consistent_on_undirected_builtins(capsys):
    # The four-term sum counts both orders of the hat pair there.
    for name in ("wst-undirected", "augmenting-undirected"):
        code, out, err = run(capsys, "eq25", "--builtin", name)
        assert code == 0, err
        assert "residual: 0" in out.splitlines(), name
        assert "consistent: True" in out.splitlines(), name


def test_probe_verdict_on_fig8(capsys):
    # Seed 0 samples no violation, which refutes nothing; seed 1 finds one.
    code, out, _ = run(capsys, "probe-submodularity", "--builtin", "fig8")
    assert code == 0
    assert "submodular: not refuted (100 samples)" in out.splitlines()
    code, out, _ = run(capsys, "probe-submodularity", "--builtin", "fig8",
                       "--seed", "1")
    assert code == 0
    assert "submodular: False" in out.splitlines()
    assert "monotone: not refuted (100 samples)" in out.splitlines()


def test_centrality_honours_step_cap_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(network, "WALK_STEP_CAP", 1)
    for extra in ((), ("--instance-demands",)):
        code, _, err = run(capsys, "centrality", "--builtin", "remarks",
                           "--w", "w", *extra)
        assert code == 3, extra
        assert "limit" in err
    code, _, _ = run(capsys, "eq25", "--builtin", "remarks", "--w", "w")
    assert code == 3


# Every subcommand on a builtin, with the line that pins its value: the
# catalog's headline where it states one (remarks: w-flow 3, heuristic 2,
# cut 4; cycle-3: SR utilization 1; fig8: GF({s1,s2,s3}) = 3,
# GF({s1,s2}) = 2, best single group 2).
EVERY_SUBCOMMAND = [
    (("te-mf", "--builtin", "remarks"), "objective: 4"),
    (("te-lu", "--builtin", "cycle-3"), "theta: 1"),
    (("w-flow-augment", "--builtin", "remarks"), "objective: 2"),
    (("set-flow", "--builtin", "fig8", "--set", "s1,s2,s3"), "objective: 3"),
    (("cut", "--builtin", "remarks"), "cut_value: 4"),
    (("sr-lu", "--builtin", "cycle-3"), "theta: 1"),
    (("sr-mf", "--builtin", "cycle-3"), "objective: 1"),
    (("acyclic-check", "--builtin", "cycle-3"), "feasible: False"),
    (("centrality", "--builtin", "remarks", "--w", "w"), "centrality: 22/35"),
    (("ngroup", "--builtin", "fig8", "-n", "1"), "objective: 2"),
    (("probe-submodularity", "--builtin", "fig8"),
     "monotone: not refuted (100 samples)"),
    (("eq25", "--builtin", "remarks"), "consistent: True"),
    (("catalog",), "headline: w-flow 3; heuristic 2; min s-w-t cut 4"),
]

# Each gadget kind's flags, and the same gadget built by the library.
GADGETS = [
    ("two-disjoint-paths", ("--builtin", "fig8", "--nodes", "s1,t1,s2,t2"),
     lambda: two_disjoint_paths_gadget(get_builtin("fig8").network,
                                       "s1", "t1", "s2", "t2")),
    ("node-split", ("--builtin", "remarks"),
     lambda: node_split_gadget(get_builtin("remarks").network)),
    ("unit-path", ("--builtin", "remarks"),
     lambda: unit_path_gadget(get_builtin("remarks").network, "s", "t", "w")),
    ("max-coverage", ("--builtin", "remarks", "--sets", "a,b|b,c|c"),
     lambda: max_coverage_gadget(["a", "b", "c"],
                                 [("a", "b"), ("b", "c"), ("c",)])),
    ("disjoint-shortest-paths", ("--builtin", "fig8", "--nodes",
                                 "s1,t1,s2,t2"),
     lambda: disjoint_shortest_paths_gadget(get_builtin("fig8").network,
                                            [("s1", "t1"), ("s2", "t2")])),
]


# More questions set-flow answers, each id naming its quantity: the remarks
# headline's w-flow 3 through the designated w, and figadd's simple paths
# through w, of which there are none.
SET_FLOW_QUESTIONS = {
    "w-flow": (("set-flow", "--builtin", "remarks"), "objective: 3"),
    "set-flow-simple": (("set-flow", "--builtin", "figadd", "--simple"),
                        "objective: 0"),
}


@pytest.mark.parametrize("argv, line",
                         [*EVERY_SUBCOMMAND, *SET_FLOW_QUESTIONS.values()],
                         ids=[argv[0] for argv, _ in EVERY_SUBCOMMAND]
                         + list(SET_FLOW_QUESTIONS))
def test_every_subcommand_on_a_builtin(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert line in [text.strip() for text in out.splitlines()]


@pytest.mark.parametrize("kind, argv, build", GADGETS,
                         ids=[k for k, _, _ in GADGETS])
def test_every_gadget_kind_loads_back(tmp_path, capsys, kind, argv, build):
    path = tmp_path / f"{kind}.json"
    code, out, err = run(capsys, "gadget", "--kind", kind,
                         "--output", str(path), *argv)
    assert code == 0, err
    loaded, gadget = load_instance(path), build()
    assert (loaded.network, loaded.middlepoints, loaded.designated) == \
        (gadget.network, gadget.middlepoints, gadget.designated)
    assert f"nodes: {len(gadget.network.nodes)}" in out.splitlines()
    assert f"edges: {len(gadget.network.edges)}" in out.splitlines()


@pytest.mark.parametrize("pairs, feasible", [("s2,t2,s3,t3", "True"),
                                             ("s1,t1,s2,t2", "False")])
def test_relay_gadget_feeds_acyclic_check(tmp_path, capsys, pairs, feasible):
    # The relays are the file's middlepoints and the first commodity its
    # ends; fig8's shortest s1-t1 and s2-t2 paths share v1.
    path = str(tmp_path / "relays.json")
    run(capsys, "gadget", "--builtin", "fig8", "--kind",
        "disjoint-shortest-paths", "--nodes", pairs, "--output", path)
    code, out, err = run(capsys, "acyclic-check", "--instance", path,
                         "--mode", "simple_path")
    assert code == 0, err
    assert f"feasible: {feasible}" in out.splitlines()


def test_values_beyond_float_range(tmp_path, capsys):
    for capacity, decimal in ((10 ** 400, "1e+400"),
                              (f"1/{10 ** 400}", "1e-400")):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "orientation": "directed", "nodes": ["s", "w", "t"],
            "edges": [{"tail": "s", "head": "w", "capacity": capacity},
                      {"tail": "w", "head": "t", "capacity": capacity}],
            "commodities": [{"src": "s", "dst": "t"}]}))
        code, out, err = run(capsys, "set-flow", "--instance", str(path),
                             "--set", "w")
        assert code == 0, err
        assert f"objective: {capacity}" in out.splitlines()
        assert f"objective_decimal: {decimal}" in out.splitlines()


# Inputs the parser refuses, each with the start of its message.
PARSER_REJECTS = {
    "ngroup-n-0": (("ngroup", "--builtin", "fig8", "-n", "0"),
                   "argument -n: must be at least 1"),
    "empty-set": (("set-flow", "--builtin", "fig8", "--set", ","),
                  "argument --set: no node named"),
    "negative-max-segments": (("sr-lu", "--builtin", "cycle-3",
                               "--middlepoints", "w", "--max-segments", "-1"),
                              "argument --max-segments: must be at least 0"),
    "negative-trials": (("probe-submodularity", "--builtin", "fig8",
                         "--trials", "-1"),
                        "argument --trials: must be at least 0"),
}

# No subcommand takes a size flag or a path cap: every walk search stops at
# the library's one step cap.
PARSER_REJECTS.update({
    f"{command}-{flag[2:]}": ((command, *argv, flag, "1"), "unrecognized arguments")
    for command, argv in {
        "te-mf": ("--builtin", "remarks"),
        "te-lu": ("--builtin", "remarks"),
        "w-flow-augment": ("--builtin", "remarks"),
        "set-flow": ("--builtin", "remarks"),
        "cut": ("--builtin", "remarks"),
        "sr-lu": ("--builtin", "cycle-3"),
        "sr-mf": ("--builtin", "cycle-3"),
        "acyclic-check": ("--builtin", "cycle-3"),
        "centrality": ("--builtin", "fig8", "--w", "v1"),
        "ngroup": ("--builtin", "fig8", "-n", "1"),
        "probe-submodularity": ("--builtin", "fig8"),
        "eq25": ("--builtin", "fig8", "--w", "v1"),
        "gadget": ("--builtin", "remarks", "--kind", "node-split",
                   "--output", "gadget.json"),
    }.items()
    for flag in ("--max-paths", "--max-nodes-exact")})


@pytest.mark.parametrize("argv, message", PARSER_REJECTS.values(),
                         ids=PARSER_REJECTS.keys())
def test_parser_rejects_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert message in err and "Traceback" not in err


def test_repeated_middlepoint_exit_1(capsys):
    code, out, err = run(capsys, "sr-mf", "--builtin", "cycle-3",
                         "--middlepoints", "w,w", "--max-segments", "2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "distinct" in err
