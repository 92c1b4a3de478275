import json
import os
import random
import resource
import subprocess
import sys

import pytest

import strongodd
from strongodd import cli
from strongodd.cli import main
from strongodd.constructive import nordhaus_gaddum
from strongodd.graphs import (
    PRODUCT_KINDS, Graph, make_complete, make_complete_multipartite, make_cycle, make_path,
    make_star, product, save_json, to_json_dict)
from strongodd.planemaps import embed_cycle, map_to_json_dict, save_map
from strongodd.randgen import random_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_solve(tmp_path, capsys):
    code, out = run(capsys, "gen", "--family", "cycle", "--n", "7")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 7 and len(data["edges"]) == 7
    gpath = tmp_path / "c7.json"
    gpath.write_text(out)
    code, out = run(capsys, "solve", "--graph", str(gpath), "--param", "so")
    assert code == 0
    res = json.loads(out)
    assert res["value"] == 4 and res["optimal"]


def test_solve_decision_mode(tmp_path, capsys):
    gpath = tmp_path / "c5.json"
    save_json(make_cycle(5), gpath)
    code, out = run(capsys, "solve", "--graph", str(gpath), "--param", "so",
                    "--k", "4")
    assert code == 0
    assert json.loads(out)["status"] == "no"


def test_solve_decision_on_the_empty_graph(tmp_path, capsys):
    gpath = tmp_path / "empty.json"
    gpath.write_text(json.dumps({"n": 0, "edges": []}))
    code, out = run(capsys, "solve", "--graph", str(gpath), "--param", "so", "--k", "1")
    assert code == 0
    res = json.loads(out)
    assert (res["status"], res["witness"], res["nodes"]) == ("yes", [], 0)


def test_verify_exit_codes(tmp_path, capsys):
    gpath = tmp_path / "c4.json"
    save_json(make_cycle(4), gpath)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"colors": [0, 1, 2, 3]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"colors": [0, 1, 0, 1]}))
    code, out = run(capsys, "verify", "--graph", str(gpath),
                    "--coloring", str(good), "--require", "so")
    assert code == 0
    code, out = run(capsys, "verify", "--graph", str(gpath),
                    "--coloring", str(bad), "--require", "so")
    assert code == 1
    assert json.loads(out)["verdicts"]["proper"]["holds"]


# recorded from the dataclass records, which the named tuples must match
# byte for byte: a 4-cycle 0-1-2-3 with a pendant vertex 4 at 0, colored
# 0,1,0,1,0, so that every kind of violation occurs
_VERIFY_ROWS = {
    "proper": [("not_proper", 0, 0, 1), ("not_proper", 4, 0, 1)],
    "odd": [("not_proper", 0, 0, 1), ("not_proper", 4, 0, 1), ("no_odd_color", 1, None, None),
            ("no_odd_color", 2, None, None), ("no_odd_color", 3, None, None)],
    "so": [("not_proper", 0, 0, 1), ("not_proper", 4, 0, 1),
           ("even_color_in_neighborhood", 0, 1, 2), ("even_color_in_neighborhood", 1, 0, 2),
           ("even_color_in_neighborhood", 2, 1, 2), ("even_color_in_neighborhood", 3, 0, 2)],
    "square": [("not_proper", 0, 0, 1), ("not_proper", 4, 0, 1),
               ("distance2_clash", 0, 0, 1), ("distance2_clash", 1, 1, 1),
               ("distance2_clash", 2, 0, 1), ("distance2_clash", 3, 1, 1)],
}


def test_verify_json_rows_are_pinned(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 4]]}))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"colors": [0, 1, 0, 1, 0]}))
    code, out = run(capsys, "verify", "--graph", str(gpath), "--coloring", str(cpath),
                    "--format", "json")
    assert code == 1
    fields = ("kind", "vertex", "color", "count")
    expected = {"k": 2, "verdicts": {
        name: {"holds": False, "violations": [dict(zip(fields, row)) for row in rows]}
        for name, rows in _VERIFY_ROWS.items()
    }}
    assert out == json.dumps(expected, indent=2) + "\n"


def test_color_unicyclic_on_the_empty_graph_exits_2(tmp_path, capsys):
    gpath = tmp_path / "empty.json"
    gpath.write_text(json.dumps({"n": 0, "edges": []}))
    assert main(["color", "--method", "unicyclic", "--graph", str(gpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input is not a connected unicyclic graph\n"


def test_color_unicyclic_on_a_disconnected_graph_exits_2(tmp_path, capsys):
    # a dumbbell plus a disjoint edge: as many edges as vertices
    gpath = tmp_path / "dumbbell.json"
    gpath.write_text(json.dumps({"n": 11, "edges": [
        [0, 7], [5, 7], [1, 5], [2, 5], [1, 2], [0, 8], [6, 8], [3, 6], [4, 6], [3, 4], [9, 10]]}))
    assert main(["color", "--method", "unicyclic", "--graph", str(gpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input is not a connected unicyclic graph\n"


def test_color_methods(tmp_path, capsys):
    code, out = run(capsys, "color", "--method", "cycle", "--n", "9")
    assert code == 0
    data = json.loads(out)
    assert data["colors"] == [0, 1, 2] * 3
    assert data["provenance"]
    code, out = run(capsys, "color", "--method", "cycle", "--n", "1001")
    assert code == 0
    assert max(json.loads(out)["colors"]) + 1 == 4
    code, out = run(capsys, "color", "--method", "direct-complete",
                    "--p", "4", "--q", "3")
    assert code == 0
    assert max(json.loads(out)["colors"]) + 1 == 3
    code, out = run(capsys, "color", "--method", "ng", "--k", "1",
                    "--which", "H2")
    assert code == 0
    data = json.loads(out)
    assert len(data["colors"]) == 9 and len(data["complement_colors"]) == 9


_PROVENANCE_GRAPHS = {
    "p3": make_path(3),
    "star4": make_star(4),
    "c7": make_cycle(7),
    # a five-cycle with two pendants at 0, and with one at 2
    "c5a": Graph(7, make_cycle(5).edges | {(0, 5), (0, 6)}),
    "c5b": Graph(6, make_cycle(5).edges | {(2, 5)}),
    # a six-cycle with one pendant at 1 and two at 3
    "c6": Graph(9, make_cycle(6).edges | {(1, 6), (3, 7), (3, 8)}),
    "k2": make_complete(2),
    "k3": make_complete(3),
}


@pytest.mark.parametrize("argv, provenance", [
    (["--method", "tree", "--graph", "{p3}"],
     ["root 0: odd degree, monochromatic neighborhood"]),
    (["--method", "tree", "--graph", "{star4}"],
     ["root 0: even degree, one neighbor recolored"]),
    (["--method", "unicyclic", "--graph", "{c7}"], ["bare cycle of length 7"]),
    (["--method", "unicyclic", "--graph", "{c5a}"],
     ["cycle vertex 0: 2 pendant root(s), one in a fresh color"]),
    (["--method", "unicyclic", "--graph", "{c5b}"],
     ["cycle vertex 2: 1 pendant root(s), none in a fresh color"]),
    (["--method", "unicyclic", "--graph", "{c6}"],
     ["cycle vertex 1: 1 pendant root(s), one in a fresh color",
      "cycle vertex 3: 2 pendant root(s), none in a fresh color"]),
    (["--method", "cycle", "--n", "5"], ["cycle 5: 5 colors"]),
    (["--method", "cycle", "--n", "1001"], ["cycle 1001: 4 colors"]),
    (["--method", "c5box"], ["fixed 5-color grid assignment"]),
    (["--method", "direct-complete", "--p", "4", "--q", "3"],
     ["direct product of complete graphs on 4 and 3"]),
    (["--method", "ng", "--k", "1", "--which", "H2"],
     ["complementary-pair construction H2 at k=1"]),
    (["--method", "product", "--kind", "strong", "--left", "{k2}", "--right", "{k3}"],
     ["composed optimal factor colorings for the strong product"]),
    (["--method", "product", "--kind", "lexicographic", "--left", "{k3}", "--right", "{k2}"],
     ["composed optimal factor colorings for the lexicographic product"]),
])
def test_color_provenance_lines_are_pinned(tmp_path, capsys, argv, provenance):
    paths = {}
    for name, g in _PROVENANCE_GRAPHS.items():
        paths[name] = tmp_path / f"{name}.json"
        save_json(g, paths[name])
    code, out = run(capsys, "color", *[a.format(**paths) for a in argv])
    assert code == 0
    assert json.loads(out)["provenance"] == provenance


def test_table_format_prints_one_flat_list_per_line(tmp_path, capsys):
    code, out = run(capsys, "gen", "--family", "cycle", "--n", "3", "--format", "table")
    assert code == 0
    assert out == "n: 3\nedges:\n  [0, 1]\n  [0, 2]\n  [1, 2]\n"
    save_map(embed_cycle(3), tmp_path / "c3.json")
    code, out = run(capsys, "plane", "trace", "--map", str(tmp_path / "c3.json"),
                    "--format", "table")
    assert code == 0
    assert out == ("faces:\n  [0, 4, 3]\n  [1, 2, 5]\n"
                   "boundary_vertices:\n  [0, 1, 2]\n  [0, 1, 2]\n"
                   "walks:\n  [0, 1, 2]\n  [1, 0, 2]\n")
    save_json(make_cycle(7), tmp_path / "c7.json")
    code, out = run(capsys, "solve", "--graph", str(tmp_path / "c7.json"),
                    "--max-nodes", "1", "--format", "table")
    assert code == 1
    lines = out.splitlines()
    assert lines.pop(4).startswith("ms: ")  # the only line that is not deterministic
    # value and optimal printed Python's None and False before
    assert lines == ["value: null", "optimal: false", "witness: [0, 1, 2, 0, 1, 2, 3]",
                     "nodes: 2", "bracket: [3, 4]"]
    # a flat list of strings is spelled as in the JSON output
    save_json(make_path(3), tmp_path / "p3.json")
    code, out = run(capsys, "color", "--graph", str(tmp_path / "p3.json"), "--method", "tree",
                    "--format", "table")
    assert code == 0
    assert 'provenance: ["' in out and "'" not in out


def test_save_json_and_save_map_write_one_json_line(tmp_path):
    g, m = make_cycle(5), embed_cycle(4)
    save_json(g, tmp_path / "g.json")
    save_map(m, tmp_path / "m.json")
    assert (tmp_path / "g.json").read_text() == json.dumps(to_json_dict(g)) + "\n"
    assert (tmp_path / "m.json").read_text() == json.dumps(map_to_json_dict(m)) + "\n"


def test_color_product_exits_1_when_a_factor_solve_gives_up(tmp_path, capsys):
    gpath = tmp_path / "g26.json"
    save_json(random_graph(26, 0.3, random.Random(26)), gpath)
    code = main(["color", "--method", "product", "--kind", "cartesian",
                 "--left", str(gpath), "--right", str(gpath),
                 "--max-time", "0.001"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: left factor: budget exhausted")
    assert "chi_so in [" in captured.err


def test_product_command(tmp_path, capsys):
    a = tmp_path / "k2.json"
    a.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    code, out = run(capsys, "product", "--kind", "lexicographic",
                    "--left", str(a), "--right", str(a))
    assert code == 0
    assert len(json.loads(out)["edges"]) == 6


def test_plane_commands(tmp_path, capsys):
    mpath = tmp_path / "c4map.json"
    save_map(embed_cycle(4), mpath)
    code, out = run(capsys, "plane", "trace", "--map", str(mpath))
    assert code == 0
    assert len(json.loads(out)["faces"]) == 2
    code, out = run(capsys, "plane", "annihilate", "--map", str(mpath),
                    "--vertex", "2")
    assert code == 0
    assert json.loads(out)["n"] == 3
    cpath = tmp_path / "col.json"
    cpath.write_text(json.dumps({"colors": [0, 1, 0, 1]}))
    code, out = run(capsys, "plane", "pipeline", "--map", str(mpath),
                    "--coloring", str(cpath))
    assert code == 0
    assert len(json.loads(out)["colors"]) == 4


def _edges_without_id(data):
    data["edges"][0].pop("id")
    return data


def _dart_out_of_range(data):
    data["rotation"]["0"] = [2 * len(data["edges"])]
    return data


def _n_as_string(data):
    data["n"] = str(data["n"])
    return data


def _n_as_float(data):
    data["n"] = float(data["n"])
    return data


def _rotation_as_list(data):
    data["rotation"] = list(data["rotation"].values())
    return data


def _rotation_entry_as_int(data):
    data["rotation"]["0"] = 0
    return data


def _dart_as_string(data):
    data["rotation"]["0"] = [str(d) for d in data["rotation"]["0"]]
    return data


def _edge_id_as_string(data):
    data["edges"][0]["id"] = str(data["edges"][0]["id"])
    return data


def _ends_as_strings(data):
    data["edges"][0]["ends"] = [str(u) for u in data["edges"][0]["ends"]]
    return data


def _end_as_float(data):
    data["edges"][0]["ends"][0] = float(data["edges"][0]["ends"][0])
    return data


def _n_as_bool(data):
    # a one-vertex map would load with n = 1
    return {"n": True, "edges": [], "rotation": {}}


def _edge_id_as_bool(data):
    data["edges"][1]["id"] = True
    return data


def _with_regions(data):
    data["regions"] = [{"darts": sorted(darts), "isolated": []}
                       for darts, _ in embed_cycle(4).effective_regions()]
    return data


def _regions_as_object(data):
    data["regions"] = {"darts": [], "isolated": []}
    return data


def _region_without_isolated(data):
    del _with_regions(data)["regions"][0]["isolated"]
    return data


def _region_darts_as_int(data):
    _with_regions(data)["regions"][0]["darts"] = 0
    return data


def _region_dart_as_string(data):
    _with_regions(data)["regions"][0]["darts"][0] = "0"
    return data


def _region_dart_as_bool(data):
    # it replaces dart 1, which True equals, so only the type check rejects it
    second = _with_regions(data)["regions"][1]["darts"]
    second[second.index(1)] = True
    return data


def _regions_missing_a_dart(data):
    _with_regions(data)["regions"][0]["darts"].pop()
    return data


def _region_splits_an_orbit(data):
    first, second = _with_regions(data)["regions"]
    second["darts"].append(first["darts"].pop())
    return data


def _empty_region(data):
    _with_regions(data)["regions"].append({"darts": [], "isolated": []})
    return data


def _one_region_holds_both_orbits(data):
    # a union of orbits, but no plane embedding of a C4 has one face
    data["regions"] = [{"darts": list(range(8)), "isolated": []}]
    return data


@pytest.mark.parametrize("corrupt", [
    _edges_without_id, _dart_out_of_range, _n_as_string, _n_as_float,
    _rotation_as_list, _rotation_entry_as_int, _dart_as_string,
    _edge_id_as_string, _ends_as_strings, _end_as_float, _n_as_bool,
    _edge_id_as_bool, _regions_as_object, _region_without_isolated,
    _region_darts_as_int, _region_dart_as_string, _region_dart_as_bool,
    _regions_missing_a_dart, _region_splits_an_orbit, _empty_region,
    _one_region_holds_both_orbits,
])
def test_malformed_map_exits_2(tmp_path, capsys, corrupt):
    mpath = tmp_path / "bad.json"
    mpath.write_text(json.dumps(corrupt(map_to_json_dict(embed_cycle(4)))))
    assert main(["plane", "trace", "--map", str(mpath)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_graph_and_coloring_exit_2(tmp_path, capsys):
    gpath = tmp_path / "c4.json"
    save_json(make_cycle(4), gpath)
    truncated = tmp_path / "truncated.json"
    truncated.write_text(gpath.read_text()[:-5])
    assert main(["solve", "--graph", str(truncated)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    bad_graph = tmp_path / "bad_graph.json"
    for bad in ({"n": 4, "edges": None}, {"n": True, "edges": []},
                {"n": 3, "edges": [[0, True]]}):
        bad_graph.write_text(json.dumps(bad))
        assert main(["solve", "--graph", str(bad_graph)]) == 2
        assert capsys.readouterr().err.startswith("error:")
    cpath = tmp_path / "col.json"
    for bad in ({"colors": [0, 1, "2", 3]}, {"colors": None},
                {"colors": [True, False, True, False]}):
        cpath.write_text(json.dumps(bad))
        assert main(["verify", "--graph", str(gpath), "--coloring", str(cpath)]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_malformed_json_coloring_and_map_exit_2(tmp_path, capsys):
    gpath = tmp_path / "c4.json"
    save_json(make_cycle(4), gpath)
    cpath = tmp_path / "col.json"
    cpath.write_text('{"colors": [0, 1, 2, 3]')
    mpath = tmp_path / "map.json"
    save_map(embed_cycle(4), mpath)
    mpath.write_text(mpath.read_text()[:-5])
    for argv in (["verify", "--graph", str(gpath), "--coloring", str(cpath)],
                 ["plane", "trace", "--map", str(mpath)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed JSON: ")


@pytest.mark.parametrize("argv", [
    ["solve", "--graph", "{g}", "--max-nodes", "-1"],
    ["solve", "--graph", "{g}", "--max-time", "-1"],
    ["solve", "--graph", "{g}", "--k", "3", "--max-time", "-0.5"],
    ["color", "--method", "product", "--left", "{g}", "--right", "{g}",
     "--max-time", "-1"],
    ["plane", "pipeline", "--map", "{m}", "--coloring", "{c}", "--max-time", "-1"],
    ["gallery", "--max-nodes", "-1"],
    ["gallery", "--max-time", "-1"],
    ["solve", "--graph", "{g}", "--max-time", "nan"],
    ["plane", "trace", "--map", "{m}", "--max-time", "-1"],
    ["color", "--method", "cycle", "--n", "5", "--max-time", "-1"],
])
def test_negative_budget_exits_2(tmp_path, capsys, argv):
    paths = {"g": tmp_path / "c4.json", "m": tmp_path / "c4map.json",
             "c": tmp_path / "col.json"}
    save_json(make_cycle(4), paths["g"])
    save_map(embed_cycle(4), paths["m"])
    paths["c"].write_text(json.dumps({"colors": [0, 1, 0, 1]}))
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "must be nonnegative" in captured.err


@pytest.mark.parametrize("argv", [
    ["solve", "--graph", "{g}", "--param", "chi", "--k", "3"],
    ["color", "--method", "tree"],
    ["color", "--method", "product", "--left", "{g}"],
])
def test_usage_errors_exit_2(tmp_path, capsys, argv):
    # exit 1 is for a budget that ran out
    gpath = tmp_path / "c4.json"
    save_json(make_cycle(4), gpath)
    assert main([a.format(g=gpath) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("argv, message", [
    (["corpus", "--family", "tree", "--size", "1"], "--size must be at least 2 for --family tree"),
    (["corpus", "--family", "unicyclic", "--size", "2"],
     "--size must be at least 3 for --family unicyclic"),
    (["corpus", "--family", "planar_embedded", "--size", "3"],
     "--size must be at least 4 for --family planar_embedded"),
    (["corpus", "--family", "general", "--size", "0"],
     "--size must be at least 1 for --family general"),
    (["corpus", "--family", "tree", "--count", "-1"], "--count must be at least 0"),
    (["gen", "--family", "complete-bipartite", "--parts", "3"],
     "--parts must be 2 positive sizes, separated by commas"),
    (["gen", "--family", "complete-bipartite", "--parts", "2,x"],
     "--parts must be 2 positive sizes, separated by commas"),
    (["gen", "--family", "complete-multipartite", "--parts", ""],
     "--parts must be 1 or more positive sizes, separated by commas"),
    (["gen", "--family", "complete-multipartite", "--parts", "2,0"],
     "--parts must be 1 or more positive sizes, separated by commas"),
    (["gen", "--family", "star", "--n", "0"], "star needs at least one leaf"),
])
def test_usage_errors_name_the_flag(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _limited(argv):
    """Run the console entry point in a child capped at 1 GiB of address
    space and 10 s, so a size check that fails cannot exhaust the host."""
    cap = 1 << 30
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(strongodd.__file__)))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from strongodd.cli import main; sys.exit(main())", *argv],
        capture_output=True, text=True, env=env, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


@pytest.mark.parametrize("argv, flags, size", [
    (["color", "--method", "ng", "--k", "1000"], "--k", 4_008_005_001),
    (["color", "--method", "ng", "--k", "1000", "--which", "H2"], "--k", 8_012_006_001),
    (["color", "--method", "cycle", "--n", "1000001"], "--n", 1_000_001),
    (["color", "--method", "direct-complete", "--p", "1001", "--q", "1000"], "--p and --q", 1_001_000),
    (["gen", "--family", "complete", "--n", "100000"], "--n", 5_000_050_000),
    (["gen", "--family", "path", "--n", "500001"], "--n", 1_000_001),
    (["gen", "--family", "cycle", "--n", "500001"], "--n", 1_000_002),
    (["gen", "--family", "star", "--n", "500000"], "--n", 1_000_001),
    (["gen", "--family", "complete-multipartite", "--parts", "1000,1000,1000"], "--parts", 3_003_000),
    (["gen", "--family", "complete-bipartite", "--parts", "1,1000000"], "--parts", 2_000_001),
    (["product", "--kind", "cartesian", "--left", "{p}", "--right", "{k}"],
     "--left and --right", 10_299_900),
    (["color", "--method", "product", "--kind", "lexicographic", "--left", "{k}", "--right", "{p}"],
     "--left and --right", 19_800_399_900),
])
def test_sizes_above_the_limit_exit_2_before_building(tmp_path, argv, flags, size):
    save_json(make_path(2000), tmp_path / "p.json")
    save_json(make_complete(100), tmp_path / "k.json")
    proc = _limited([a.format(p=tmp_path / "p.json", k=tmp_path / "k.json") for a in argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: {flags} too large: {size:,} vertices and edges, above the limit of 1,000,000\n")


def test_the_size_limit_counts_exactly_what_is_built(tmp_path, capsys, monkeypatch):
    # each command is refused with the limit one below its size, the
    # vertices plus edges built (a coloring alone counts its vertices),
    # and runs with the limit at its size
    assert cli.MAX_SIZE >= 10 * (2 * 50_000 - 1)  # gen --family path --n 50000
    left, right = make_cycle(5), Graph(3, frozenset({(0, 1)}))
    save_json(left, tmp_path / "l.json")
    save_json(right, tmp_path / "r.json")
    files = ["--left", str(tmp_path / "l.json"), "--right", str(tmp_path / "r.json")]
    cases = [
        (["gen", "--family", "path", "--n", "7"], "--n", make_path(7)),
        (["gen", "--family", "cycle", "--n", "7"], "--n", make_cycle(7)),
        (["gen", "--family", "complete", "--n", "6"], "--n", make_complete(6)),
        (["gen", "--family", "star", "--n", "5"], "--n", make_star(5)),
        (["gen", "--family", "complete-multipartite", "--parts", "2,3,1"], "--parts",
         make_complete_multipartite([2, 3, 1])),
        (["gen", "--family", "complete-bipartite", "--parts", "2,4"], "--parts",
         make_complete_multipartite([2, 4])),
        (["color", "--method", "ng", "--k", "1"], "--k", nordhaus_gaddum(1, "H1")[0]),
        (["color", "--method", "ng", "--k", "2", "--which", "H2"], "--k",
         nordhaus_gaddum(2, "H2")[0]),
        (["color", "--method", "cycle", "--n", "9"], "--n", Graph(9, frozenset())),
        (["color", "--method", "direct-complete", "--p", "4", "--q", "3"], "--p and --q",
         Graph(12, frozenset())),
    ]
    for kind in PRODUCT_KINDS:
        cases.append((["product", "--kind", kind, *files], "--left and --right",
                      product(left, right, kind)))
        cases.append((["color", "--method", "product", "--kind", kind, *files],
                      "--left and --right", product(left, right, kind)))
    for argv, flags, g in cases:
        size = g.n + g.m
        monkeypatch.setattr(cli, "MAX_SIZE", size - 1)
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {flags} too large: {size:,} vertices and "
                                           f"edges, above the limit of {size - 1:,}\n")
        monkeypatch.setattr(cli, "MAX_SIZE", size)
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_gallery_out_of_budget_fails_without_a_traceback(capsys):
    code, out = run(capsys, "gallery", "--max-nodes", "1")
    assert code == 1
    data = json.loads(out)
    assert not data["pass"]
    assert {row["name"]: row["computed"]["chi_so"] for row in data["rows"]}["K_{2,3}"] is None


@pytest.mark.parametrize("action", ["claim1", "pipeline"])
def test_plane_action_without_coloring_exits_2(tmp_path, capsys, action):
    mpath = tmp_path / "c4map.json"
    save_map(embed_cycle(4), mpath)
    assert main(["plane", action, "--map", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--coloring" in err


@pytest.mark.parametrize("n", [3, 50000])
def test_closed_stdout_exits_141_without_a_message(n):
    # the reader is gone before the first write.  With stdout buffered, a
    # small output fails at main's flush and a large one (about 1.5 MB)
    # in the middle of print
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(strongodd.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from strongodd.cli import main; sys.exit(main())",
             "gen", "--family", "path", "--n", str(n)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_gen_unknown_gallery_name_exits_2(capsys):
    assert main(["gen", "--family", "gallery", "--name", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope" in err


def test_corpus_command(capsys):
    code, out = run(capsys, "corpus", "--family", "tree", "--seed", "1",
                    "--count", "15", "--size", "30")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and data["failures"] == []


def test_corpus_writes_files(tmp_path, capsys):
    code, _ = run(capsys, "corpus", "--family", "unicyclic", "--seed", "2",
                  "--count", "4", "--size", "12", "--out", str(tmp_path / "c"))
    assert code == 0
    files = sorted((tmp_path / "c").glob("*.json"))
    assert len(files) == 4
    payload = json.loads(files[0].read_text())
    assert "edges" in payload and "colors" in payload


def test_gallery_command_small_budget(capsys):
    code, out = run(capsys, "gallery", "--max-time", "120")
    assert code == 0
    data = json.loads(out)
    assert data["pass"]
    names = {row["name"] for row in data["rows"]}
    assert {"G7", "G12a", "G12b", "C5boxC5", "C5", "K_{2,3}"} <= names
