"""The lookups every class system and character table share."""

from math import lcm

import numpy as np
import pytest

from cgtkit import catalog
from cgtkit.chartab import ClassInfo
from cgtkit.permgroup import ClassSystem, class_letter
from cgtkit.symmchar import AnClassSystem, SnClassSystem, an_table

# name -> (builder, exponent)
SYSTEMS = {
    "GroupClasses": (lambda: catalog.class_system("A5"), 30),
    "SnClassSystem": (lambda: SnClassSystem(5), 60),
    "AnClassSystem": (lambda: AnClassSystem(5), 30),
    "CharacterTable": (lambda: an_table(5), 30),
}


@pytest.mark.parametrize("kind", list(SYSTEMS))
def test_class_system_lookups(kind):
    build, exponent = SYSTEMS[kind]
    cs = build()
    assert isinstance(cs, ClassSystem)
    k = len(cs.classes)
    assert cs.exponent() == lcm(*(c.rep_order for c in cs.classes)) == exponent
    for i in range(k):
        assert cs.inverse_class(i) == cs.power_class(i, -1)
        for a in range(-3, 8):
            for b in range(-3, 8):
                assert cs.power_class(cs.power_class(i, a), b) == cs.power_class(i, a * b)


@pytest.mark.parametrize("kind", list(SYSTEMS))
def test_class_named_with_order_letter_fallback(kind):
    cs = SYSTEMS[kind][0]()
    names = [c.name for c in cs.classes]
    for i, name in enumerate(names):
        assert cs.class_named(name) == i
    # "<order><letter>" is the letter-th class of that representative order
    # in canonical order, unless some class carries that name itself
    by_order: dict = {}
    for i, c in enumerate(cs.classes):
        by_order.setdefault(c.rep_order, []).append(i)
    for order, idx in by_order.items():
        for pos, i in enumerate(idx):
            name = f"{order}{chr(ord('a') + pos)}"
            want = names.index(name) if name in names else i
            assert cs.class_named(name) == want
    with pytest.raises(KeyError):
        cs.class_named(f"{max(by_order)}{chr(ord('a') + len(cs.classes))}")
    with pytest.raises(KeyError):
        cs.class_named("no such class")


def test_multi_letter_order_names_resolve():
    # S_18 has 48 classes of order 6 and 54 of order 12, so its order-letter
    # names run past "z" into class_letter's "aa", "ab", ...
    cs = SnClassSystem(18)
    by_order: dict = {}
    for i, c in enumerate(cs.classes):
        by_order.setdefault(c.rep_order, []).append(i)
    assert len(by_order[6]) == 48 and len(by_order[12]) == 54
    for order, idx in by_order.items():
        for pos, i in enumerate(idx):
            assert cs.class_named(f"{order}{class_letter(pos)}") == i
    with pytest.raises(KeyError):
        cs.class_named(f"6{class_letter(48)}")


@pytest.mark.parametrize("kind", list(SYSTEMS))
def test_class_index_takes_names_and_any_integer(kind):
    cs = SYSTEMS[kind][0]()
    for i, c in enumerate(cs.classes):
        got = [cs.class_index(spec) for spec in (c.name, i, np.int64(i), np.uint8(i))]
        assert got == [i] * 4 and all(type(k) is int for k in got)


def test_class_named_keeps_the_first_of_duplicate_names():
    cs = ClassSystem()
    cs.classes = [ClassInfo("1a", 1, 1, {0: 0}), ClassInfo("x", 1, 2, {0: 0, 1: 1}),
                  ClassInfo("x", 1, 2, {0: 0, 1: 2}), ClassInfo("y", 1, 2, {0: 0, 1: 3})]
    assert [cs.class_named(n) for n in ("x", "y", "1a", "2a", "2c")] == [1, 3, 0, 1, 3]
