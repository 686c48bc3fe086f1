import json
import os
import shutil
import subprocess
import sys

import pytest

from cgtkit import catalog
from cgtkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_cli_start_up_does_not_load_sympy():
    # sympy costs ~0.4 s to import; only the functions that factor pull it in
    probe = "import cgtkit, cgtkit.cli, sys; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_zsigmondy_json(capsys):
    code, out = run(capsys, "zsigmondy", "--q", "2", "--e", "6", "--json")
    assert code == 0
    assert json.loads(out) == {"q": 2, "e": 6, "phi_star": "1", "category": "one"}


def test_zsigmondy_scan_lines(capsys):
    code, out = run(capsys, "zsigmondy", "--scan", "3", "5")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert {"q": 2, "e": 4, "phi_star": "5", "category": "e_plus_1"} in lines


def test_na_m11(capsys):
    code, out = run(capsys, "na", "--group", "M11", "--class", "11a",
                    "--a", "1", "--json")
    assert code == 0 and json.loads(out)["count"] == 35


def test_cover(capsys):
    code, out = run(capsys, "cover", "--group", "A5", "--c1", "5a",
                    "--c2", "5b", "--json")
    assert code == 0 and json.loads(out)["covered"] is True


def test_triples_l27(capsys):
    code, out = run(capsys, "triples", "--group", "L2(7)", "--class", "7a",
                    "--a", "-2", "--classify", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["total_pairs"] == 9 and obj["generating_pairs"] == 7


def test_lemma42(capsys):
    code, out = run(capsys, "lemma42", "--n", "11", "--json")
    assert code == 0 and json.loads(out)["order"] == 19958400


def test_lemma42_usage_error(capsys):
    code, out = run(capsys, "lemma42", "--n", "12")
    assert code == 2


def test_traceimage(capsys):
    code, out = run(capsys, "traceimage", "--q", "13", "--json")
    assert code == 0 and json.loads(out)["full"] is True


def test_spread(capsys):
    code, out = run(capsys, "spread", "--group", "A5", "--class", "5a", "--json")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run(capsys, "spread", "--group", "A5", "--class", "2a", "--json")
    assert code == 1


def test_beauville_a5(capsys):
    code, out = run(capsys, "beauville", "--group", "A5", "--json")
    assert code == 0 and json.loads(out)["found"] is None


def test_neumann(capsys):
    code, out = run(capsys, "neumann", "--group", "A5", "--json")
    assert code == 0 and json.loads(out)["ok"] is True


def test_tensorpower(capsys):
    code, out = run(capsys, "tensorpower", "--base", "A5:5dim", "--m", "1",
                    "--json")
    assert code == 0
    assert json.loads(out)["min_ratio"] == "1/5"


@pytest.mark.parametrize("m", ["0", "-1"])
def test_tensorpower_below_one_exit_code(capsys, m):
    assert run(capsys, "tensorpower", "--base", "A5:5dim", "--m", m)[0] == 2


def test_macbeath(capsys):
    code, out = run(capsys, "macbeath", "--q", "11", "--order", "5", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and all(c["covered"] for c in obj["classes"])


def test_searchtriple_seed_echo(capsys):
    code, out = run(capsys, "searchtriple", "--group", "A5", "--class", "5a",
                    "--a", "1", "--seed", "5", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["seed"] == 5 and obj["witness"] is not None


def test_scott_cli(capsys):
    code, out = run(capsys, "scott", "--group", "A5", "--rep", "std4", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["seed"] == 0


def test_verify_paper_suite(capsys):
    code, out = run(capsys, "verify-paper", "--suite", "tensor", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "tensor" and obj["ok"]


def test_chartab_save(capsys, tmp_path):
    path = tmp_path / "a5.json"
    code, out = run(capsys, "chartab", "--group", "A5", "--save", str(path),
                    "--json")
    assert code == 0 and path.exists()
    obj = json.loads(path.read_text())
    assert obj["group"] == "A5" and obj["order"] == 60


def test_unknown_group_exit_code(capsys):
    code, _ = run(capsys, "na", "--group", "Nope", "--class", "1a", "--a", "1")
    assert code == 2


@pytest.mark.parametrize("name", ["A05", "S0", "S1"])
def test_chartab_refuses_names_outside_the_catalog(capsys, name):
    assert run(capsys, "chartab", "--group", name)[0] == 2


def test_zero_class_size_in_a_table_file_exit_code(capsys, tmp_path):
    obj = catalog.character_table("A5").to_json()
    for c in obj["classes"]:
        c["size"] = {"2+2+1": 0, "3+1+1": 35}.get(c["name"], c["size"])
    (tmp_path / "tables").mkdir()
    (tmp_path / "tables" / catalog._table_filename("A5")).write_text(json.dumps(obj))
    code = main(["na", "--group", "A5", "--class", "5a", "--a", "1",
                 "--data-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: class 2+2+1 has non-positive size 0")


def test_zero_class_order_in_a_table_file_exit_code(capsys, tmp_path):
    obj = catalog.character_table("A5").to_json()
    c = next(c for c in obj["classes"] if c["name"] == "2+2+1")
    c["rep_order"], c["power_map"] = 0, {}
    (tmp_path / "tables").mkdir()
    (tmp_path / "tables" / catalog._table_filename("A5")).write_text(json.dumps(obj))
    code = main(["na", "--group", "A5", "--class", "5a", "--a", "1",
                 "--data-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: class 2+2+1 has non-positive order 0")


@pytest.mark.parametrize("before", [None, "/no/such/dir"])
def test_data_dir_applies_to_one_command(capsys, tmp_path, monkeypatch, before):
    shutil.copytree(catalog.data_dir() / "groups", tmp_path / "groups")
    if before is None:
        monkeypatch.delenv("CGT_DATA_DIR", raising=False)
    else:
        monkeypatch.setenv("CGT_DATA_DIR", before)
    env = dict(os.environ)
    na = ["na", "--class", "11a", "--a", "1", "--data-dir"]
    assert run(capsys, *na, str(tmp_path), "--group", "M11")[0] == 0
    assert dict(os.environ) == env
    assert run(capsys, *na, str(tmp_path), "--group", "Monster")[0] == 2
    assert dict(os.environ) == env
    with pytest.raises(FileNotFoundError):  # no groups/ there: the load raises
        main([*na, str(tmp_path / "empty"), "--group", "M12"])
    assert dict(os.environ) == env
