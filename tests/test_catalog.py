import json
import shutil

import pytest

from cgtkit import catalog, symmchar
from cgtkit.perms import parse_perm


def test_load_group_reference_orders():
    assert catalog.load_group("A5")[1].order() == 60
    assert catalog.load_group("M22")[1].order() == 443520
    assert catalog.load_group("Sz8")[1].order() == 29120  # alias accepted
    assert catalog.load_group("Sz(8)")[0].name == "Sz(8)"
    assert catalog.load_group("S6")[1].order() == 720
    assert catalog.load_group("L2(11)")[1].order() == 660
    assert catalog.load_group("SL2(5)")[1].order() == 120


def test_unknown_group():
    with pytest.raises(KeyError):
        catalog.load_group("Monster")
    with pytest.raises(KeyError):
        catalog.load_group("A99")


def _plant_corrupt_m11(data):
    src = catalog.data_dir() / "groups" / "M11.perm"
    groups = data / "groups"
    groups.mkdir()
    text = src.read_text().splitlines()
    text[2] = "(1,2)"  # replace a generator: order assertion must fire
    (groups / "M11.perm").write_text("\n".join(text) + "\n")


def test_corrupt_data_detected(tmp_path):
    _plant_corrupt_m11(tmp_path)
    with pytest.raises(AssertionError):
        catalog.load_group("M11", data=tmp_path)


def test_corrupt_data_detected_after_a_packaged_load(tmp_path):
    # the session keys class systems by data directory as well as by name
    catalog.class_system("M11")
    _plant_corrupt_m11(tmp_path)
    with pytest.raises(AssertionError, match="declared"):
        catalog.class_system("M11", data=tmp_path)
    with pytest.raises(AssertionError, match="declared"):  # a failed load is not kept
        catalog.load_group("M11", data=tmp_path)


@pytest.mark.parametrize("name", ["A5", "L2(7)"])
def test_file_table_stays_with_its_directory(tmp_path, name):
    computed = catalog.character_table(name, use_file_cache=False).to_json()
    planted = dict(computed, characters=computed["characters"][::-1])
    (tmp_path / "tables").mkdir()
    (tmp_path / "tables" / catalog._table_filename(name)).write_text(json.dumps(planted))
    assert catalog.character_table(name, data=tmp_path).to_json() == planted
    for table in (catalog.character_table(name, data=tmp_path, use_file_cache=False),
                  catalog.character_table(name)):
        assert table.to_json() == computed


def test_session_shares_one_chain_per_group_and_directory():
    for name in ("M11", "L2(7)"):
        assert catalog.class_system(name).chain is catalog.load_group(name)[1]
    assert catalog.load_group("Sz8")[1] is catalog.load_group("Sz(8)")[1]
    assert catalog.class_system("Sz8") is catalog.class_system("Sz(8)")
    assert catalog.character_table("Sz8") is catalog.character_table("Sz(8)")


def test_class_count_integrity_m11():
    spec, chain = catalog.verify_integrity("M11")
    assert spec.known_class_count == 10


def test_table_roundtrip_and_perturbation(tmp_path):
    t = catalog.character_table("M11")
    path = tmp_path / "M11.json"
    catalog.save_table(t, path)
    t2 = catalog.load_table(path)
    assert t2.to_json() == t.to_json()
    # structural equality of the serialized forms (byte-stable round trip)
    catalog.save_table(t2, tmp_path / "M11b.json")
    assert (tmp_path / "M11.json").read_text() == (tmp_path / "M11b.json").read_text()
    obj = json.loads(path.read_text())
    obj["characters"][3][2]["coeffs"] = [[0, 5, 1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(Exception):
        catalog.load_table(bad)
    bad.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(ValueError):
        catalog.load_table(bad)


def test_data_dir_env_override(tmp_path, monkeypatch):
    shutil.copytree(catalog.data_dir() / "groups", tmp_path / "groups")
    monkeypatch.setenv("CGT_DATA_DIR", str(tmp_path))
    assert catalog.data_dir() == tmp_path
    assert catalog.load_group("M11")[1].order() == 7920


def test_maximal_subgroup_data_verified_on_load():
    for name in ("A5", "A6", "L2(7)"):
        maximals = catalog.maximal_subgroup_generators(name)
        assert maximals
    subs = catalog.sl32_transvection_cover_subgroups()
    assert len(subs) == 3


def test_catalog_names_cover_spec_list():
    names = catalog.catalog_names()
    for want in ("A5", "A20", "S18", "L2(32)", "SL2(32)", "M11", "M12",
                 "M22", "J1", "J2", "U3(3)", "Sz(8)", "SL3(2)"):
        assert want in names


def _loads(name):
    try:
        catalog.load_group(name)
    except KeyError:
        return False
    return True


def test_catalog_names_are_exactly_the_loadable_groups():
    # one scan per family, wider than its range on both sides
    scanned = [f"{family}{k}" for family in ("A", "S") for k in range(25)]
    scanned += [f"{family}({q})" for family in ("L2", "SL2") for q in range(40)]
    loadable = [name for name in scanned if _loads(name)]
    assert loadable + list(catalog.STORED_GROUPS) == catalog.catalog_names()
    assert {"A3", "A4", "S2"} <= set(loadable)


@pytest.mark.parametrize("name", ["L2(6)", "SL2(10)"])
def test_non_prime_power_q_is_unknown(name):
    # not a ValueError from the field constructor
    with pytest.raises(KeyError, match="unknown group"):
        catalog.load_group(name)


@pytest.mark.parametrize("name", ["A05", "S0", "S1"])
def test_tables_and_class_systems_refuse_names_outside_the_catalog(name):
    with pytest.raises(KeyError, match="unknown group"):
        catalog.character_table(name)
    with pytest.raises(KeyError, match="unknown group"):
        catalog.class_system(name)


def test_maximal_subgroup_generators_are_the_verified_ones(tmp_path, monkeypatch):
    checked = {}
    verified = catalog._verified

    def recording(spec):
        checked[spec.name] = spec.maximal_subgroups
        return verified(spec)

    monkeypatch.setattr(catalog, "_verified", recording)
    monkeypatch.setenv("CGT_DATA_DIR", str(tmp_path))  # a fresh session key
    for name in ("A5", "A6", "L2(7)"):
        maximals = catalog.maximal_subgroup_generators(name)
        degree = catalog.load_group(name)[0].degree
        assert maximals.keys() == catalog.MAXIMAL_SUBGROUPS[name].keys() == checked[name].keys()
        for sub, gens in maximals.items():
            assert gens is checked[name][sub]
            assert gens == [parse_perm(s, degree) for s in catalog.MAXIMAL_SUBGROUPS[name][sub]]


@pytest.mark.slow
def test_stored_sporadic_integrity():
    for name in ("M12", "U3(3)", "Sz(8)", "SL3(2)"):
        catalog.verify_integrity(name)


def test_large_alternating_class_system_is_the_shared_one():
    assert catalog.class_system("A10") is symmchar._an_class_system(10)
