"""Built-in group data: generators, orders, maximal subgroups, tables.

Groups are loaded by name: A3..A20 and S2..S18 (standard generators),
L2(q) and SL2(q) for prime powers 4 <= q <= 32 (constructed from
matrices), and the stored sporadic/classical permutation groups M11, M12,
M22, J1, J2, U3(3), Sz(8), SL3(2) (read from data/groups/NAME.perm); any
other name is a KeyError, and catalog_names lists exactly these.  Every
load verifies the declared order and the listed maximal subgroups;
conjugacy-class counts of the stored groups are integrity metadata checked
by verify_integrity.

The data directory defaults to the packaged data/ tree and can be
overridden per call or with the CGT_DATA_DIR environment variable.  The
process keeps one chain, one class system and one table per group and data
directory.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from pathlib import Path

from .chartab import CharacterTable, dixon_table
from .perms import parse_perm, parse_perm_file
from .permgroup import build_chain, conjugacy_classes
from .sl2 import _point_action, l2_order, projective_line_rep, sl2_order
from .zsigmondy import is_prime_power

__all__ = ["GroupSpec", "load_group", "character_table", "class_system",
           "save_table", "load_table", "maximal_subgroup_generators",
           "sl32_transvection_cover_subgroups", "known_class_count",
           "verify_integrity", "catalog_names", "data_dir"]

_PACKAGE_DATA = Path(__file__).parent / "data"

STORED_GROUPS = {
    # name: (file, declared order, known class count)
    "M11": ("M11.perm", 7920, 10),
    "M12": ("M12.perm", 95040, 15),
    "M22": ("M22.perm", 443520, 12),
    "J1": ("J1.perm", 175560, 15),
    "J2": ("J2.perm", 604800, 21),
    "U3(3)": ("U3_3.perm", 6048, 14),
    "Sz(8)": ("Sz8.perm", 29120, 11),
    "SL3(2)": ("SL3_2.perm", 168, 6),
}

_ALIASES = {
    "SZ8": "Sz(8)", "SZ(8)": "Sz(8)",
    "U33": "U3(3)", "U3(3)": "U3(3)", "G2(2)'": "U3(3)",
    "SL3(2)": "SL3(2)", "SL32": "SL3(2)",
}

# maximal subgroup generator lists (1-based cycle strings), verified at load
MAXIMAL_SUBGROUPS = {
    "A5": {
        "A4": ["(1,2,3)", "(2,3,4)"],
        "D10": ["(1,2,3,4,5)", "(2,5)(3,4)"],
        "S3": ["(1,2,3)", "(1,2)(4,5)"],
    },
    "A6": {
        "A5": ["(1,2,3)", "(3,4,5)"],
        "A5'": ["(1,2,3,4,5)", "(1,6)(2,5)"],
        "S4": ["(1,2,3,4)(5,6)", "(1,2)(5,6)"],
        "S4'": ["(1,4,3)(2,5,6)", "(1,2)(4,6)"],
        "3^2:4": ["(1,2,3)", "(4,5,6)", "(1,4,2,5)(3,6)"],
    },
    "L2(7)": {
        "S4": ["(1,5)(2,8)(3,6)(4,7)", "(1,3,7,4)(2,5,6,8)"],
        "S4'": ["(1,7,2)(4,5,8)", "(1,6,2,5)(3,8,7,4)"],
        "7:3": ["(2,6,7)(3,8,4)", "(2,8,6)(4,5,7)"],
    },
}

# stabilizers of the three points of a 2-space in the natural SL3(2)
# action: the classical three-subgroup cover of the transvection class
SL32_POINT_STABILIZERS = [
    ["(4,5)(6,7)", "(2,7)(3,6)", "(2,4,3,5)(6,7)"],
    ["(1,3)(5,7)", "(1,6)(3,4)", "(1,7,4)(3,5,6)"],
    ["(1,4,5)(2,7,6)", "(1,2)(5,6)", "(1,7,2,4)(5,6)"],
]


@dataclass
class GroupSpec:
    name: str
    degree: int
    generators: list
    declared_order: int
    maximal_subgroups: dict = field(default_factory=dict)  # name -> [Permutation]
    known_class_count: int | None = None


def data_dir(override: str | os.PathLike | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get("CGT_DATA_DIR")
    if env:
        return Path(env)
    return _PACKAGE_DATA


def _alternating(n: int):
    gens = [parse_perm("(1,2,3)", n)]
    if n > 3:  # the n-cycle for odd n, an (n-1)-cycle fixing 1 for even n
        gens.append(parse_perm("(" + ",".join(map(str, range(2 - n % 2, n + 1))) + ")", n))
    return n, gens, factorial(n) // 2


def _symmetric(n: int):
    gens = [parse_perm("(1,2)", n)]
    if n > 2:
        gens.append(parse_perm("(" + ",".join(map(str, range(1, n + 1))) + ")", n))
    return n, gens, factorial(n)


_PRIME_POWERS = [q for q in range(4, 33) if is_prime_power(q)]

# the families, each declared once: name pattern, parameters, and the
# (degree, generators, order) of a member
_FAMILIES = [
    ("A{}", range(3, 21), _alternating),
    ("S{}", range(2, 19), _symmetric),
    ("L2({})", _PRIME_POWERS, lambda q: (q + 1, projective_line_rep(q), l2_order(q))),
    ("SL2({})", _PRIME_POWERS, lambda q: (q * q - 1, _point_action(q), sl2_order(q))),
]
_MEMBERS = {pattern.format(k): (make, k)
            for pattern, ks, make in _FAMILIES for k in ks}


def catalog_names():
    return list(_MEMBERS) + list(STORED_GROUPS)


def _member(name: str):
    """(builder, parameter) of a family member, (None, None) for a stored
    group; any other name is a KeyError."""
    if name in _MEMBERS:
        return _MEMBERS[name]
    if name not in STORED_GROUPS:
        raise KeyError(f"unknown group {name!r}; known: {', '.join(catalog_names())}")
    return None, None


def _normalize(name: str) -> str:
    s = name.strip()
    key = s.upper().replace(" ", "")
    if key in _ALIASES:
        return _ALIASES[key]
    return s


def load_group(name: str, data: str | os.PathLike | None = None):
    """Return (GroupSpec, StabilizerChain), with the order assertion enforced."""
    return _load_group(_normalize(name), data_dir(data))


@lru_cache(maxsize=None)
def _load_group(name: str, directory: Path):
    make, k = _member(name)
    if make:
        degree, gens, order = make(k)
        nclasses = None
    else:
        fname, order, nclasses = STORED_GROUPS[name]
        degree, gens = parse_perm_file((directory / "groups" / fname).read_text())
    maximals = {sub: [parse_perm(s, degree) for s in strs]
                for sub, strs in MAXIMAL_SUBGROUPS.get(name, {}).items()}
    return _verified(GroupSpec(name, degree, gens, order, maximals, nclasses))


def _verified(spec: GroupSpec):
    chain = build_chain(spec.generators)
    if chain.order() != spec.declared_order:
        raise AssertionError(
            f"{spec.name}: computed order {chain.order()} != declared "
            f"{spec.declared_order} (corrupt data)")
    for sub_name, gens in spec.maximal_subgroups.items():
        sub = build_chain(gens)
        if sub.order() >= chain.order() or chain.order() % sub.order():
            raise AssertionError(
                f"{spec.name}: listed maximal subgroup {sub_name} fails the "
                "proper-subgroup check")
        for g in gens:
            if not chain.contains(g):
                raise AssertionError(
                    f"{spec.name}: {sub_name} generator outside the group")
    return spec, chain


def known_class_count(name: str):
    name = _normalize(name)
    if name in STORED_GROUPS:
        return STORED_GROUPS[name][2]
    return None


def verify_integrity(name: str, data=None):
    """Order assertion plus (for stored groups) the class-count check."""
    spec, chain = load_group(name, data)
    want = known_class_count(name)
    if want is not None:
        got = len(class_system(name, data).classes)
        if got != want:
            raise AssertionError(f"{name}: {got} classes, expected {want}")
    return spec, chain


# -- class systems and tables (session caches) --------------------------------
# Each cache is keyed by canonical name and data directory; a cached function
# reaches the other loaders through their public names, so wrappers see them.

def class_system(name: str, data=None):
    """GroupClasses (indexed) or AnClassSystem for large alternating groups."""
    return _class_system(_normalize(name), data_dir(data))


@lru_cache(maxsize=None)
def _class_system(name: str, directory: Path):
    make, k = _member(name)
    if make is _alternating and k >= 9:
        from .symmchar import _an_class_system
        return _an_class_system(k)
    return conjugacy_classes(load_group(name, directory)[1])


def character_table(name: str, data=None, use_file_cache: bool = True) -> CharacterTable:
    """Character table by the appropriate engine (symmchar for A_n/S_n,
    Dixon otherwise), optionally loading a verified file from data/tables."""
    name, directory = _normalize(name), data_dir(data)
    from_file = use_file_cache and (directory / "tables" / _table_filename(name)).exists()
    return _character_table(name, directory, from_file)


@lru_cache(maxsize=None)
def _character_table(name: str, directory: Path, from_file: bool) -> CharacterTable:
    make, k = _member(name)
    if from_file:
        path = directory / "tables" / _table_filename(name)
        table = load_table(path)
        if table.group_name != name:
            raise AssertionError(f"table file {path} holds {table.group_name}")
        return table
    if make is _alternating:
        from .symmchar import an_table
        return an_table(k)
    if make is _symmetric:
        from .symmchar import sn_table
        return sn_table(k)
    return dixon_table(class_system(name, directory), name)


def _table_filename(name: str) -> str:
    return re.sub(r"[()']", lambda m: {"(": "_", ")": "", "'": ""}[m.group(0)], name) + ".json"


def save_table(table: CharacterTable, path) -> None:
    Path(path).write_text(json.dumps(table.to_json()))


def load_table(path) -> CharacterTable:
    """Load and fully re-verify a table file (orthogonality and all)."""
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed table file {path}: {err}") from err
    for key in ("group", "order", "classes", "characters"):
        if key not in obj:
            raise ValueError(f"table file {path} missing field {key!r}")
    return CharacterTable.from_json(obj)


def maximal_subgroup_generators(name: str):
    """Verified maximal-subgroup generators for the tiny catalog groups."""
    spec = load_group(name)[0]
    if not spec.maximal_subgroups:
        raise KeyError(f"no maximal subgroup data stored for {spec.name}")
    return dict(spec.maximal_subgroups)


def sl32_transvection_cover_subgroups():
    """The three point stabilizers of a 2-space in SL3(2) (order 24 each)."""
    spec, chain = load_group("SL3(2)")
    subs = []
    for strs in SL32_POINT_STABILIZERS:
        gens = [parse_perm(s, 7) for s in strs]
        sub = build_chain(gens)
        if sub.order() != 24:
            raise AssertionError("point stabilizer data corrupt")
        subs.append(gens)
    return subs
