import json

import pytest

from strongodd.cli import main
from strongodd.colorings import coloring_to_json_dict
from strongodd.constructive import color_cycle
from strongodd.graphs import make_cycle, save_json, to_json_dict
from strongodd.planemaps import embed_cycle, map_to_json_dict, save_map


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


def test_color_methods(tmp_path, capsys):
    code, out = run(capsys, "color", "--method", "cycle", "--n", "9")
    assert code == 0
    data = json.loads(out)
    assert data["colors"] == [0, 1, 2] * 3
    assert data["provenance"]
    code, out = run(capsys, "color", "--method", "direct-complete",
                    "--p", "4", "--q", "3")
    assert code == 0
    assert max(json.loads(out)["colors"]) + 1 == 3
    code, out = run(capsys, "color", "--method", "ng", "--k", "1",
                    "--which", "H2")
    assert code == 0
    data = json.loads(out)
    assert len(data["colors"]) == 9 and len(data["complement_colors"]) == 9


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


@pytest.mark.parametrize("corrupt", [_edges_without_id, _dart_out_of_range])
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
    cpath = tmp_path / "col.json"
    cpath.write_text(json.dumps({"colors": [0, 1, "2", 3]}))
    assert main(["verify", "--graph", str(gpath), "--coloring", str(cpath)]) == 2
    assert capsys.readouterr().err.startswith("error:")


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
