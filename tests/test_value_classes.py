"""The value classes behave as the frozen dataclasses they replaced.

Each class compares field-wise and only with its own class, hashes as the
tuple of its fields, prints in the dataclass format and refuses assignment.
"""

import importlib
import pkgutil

import pytest

import mbl

from mbl.capacity import QuadraticValue
from mbl.errors import _Record
from mbl.lattice import LatticePolygon, ViannaTriangle, vianna_triangle
from mbl import capacity, ordering
from mbl.ordering import spectrum_rows
from mbl.suites import UnimodularMap

# (build a fresh instance, its field names, its repr)
CASES = {
    "SpectrumRow": (
        lambda: spectrum_rows(3, 2)[2], ("n", "m", "apex", "b", "ratios"),
        "SpectrumRow(n=3, m=5, apex=(5, 2, 1), b=13, "
        "ratios=((65, 194), (145, 433)))"),
    "LatticePolygon": (
        lambda: LatticePolygon(2, [(0, 0), (2, 0), (0, 2)]), ("scaled",),
        "LatticePolygon(scaled=(1, ((0, 0), (1, 0), (0, 1))))"),
    "UnimodularMap": (
        lambda: UnimodularMap(1, 1, 0, 1, (0, 1), (0, 1)),
        ("m00", "m01", "m10", "m11", "tx", "ty"),
        "UnimodularMap(m00=1, m01=1, m10=0, m11=1, tx=(0, 1), ty=(0, 1))"),
    "ViannaTriangle": (
        lambda: vianna_triangle((5, 2, 1)), ("triple", "u"),
        "ViannaTriangle(triple=(5, 2, 1), u=1)"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_semantics(name):
    build, fields, text = CASES[name]
    one, other = build(), build()
    assert type(one).__name__ == name and one is not other
    assert repr(one) == text
    assert one == other and not one != other
    assert one != tuple(getattr(one, field) for field in fields)
    assert hash(one) == hash(other) == hash(tuple(getattr(one, f) for f in fields))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(one, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(one, field)
    assert one == other


def test_unequal_fields_compare_unequal():
    assert vianna_triangle((2, 1, 1)) != vianna_triangle((5, 2, 1))
    assert len({vianna_triangle((5, 2, 1)), vianna_triangle((5, 2, 1)),
                vianna_triangle((13, 5, 1))}) == 2
    # equal field tuples, different classes
    class Triangle(_Record):
        triple: tuple[int, int, int]
        u: int

    assert vianna_triangle((5, 2, 1)) != Triangle((5, 2, 1), 1)


def test_fields_bind_by_position_only():
    shifted = UnimodularMap(1, 0, 0, 1, (0, 1), (1, 2))
    assert (shifted.tx, shifted.ty) == ((0, 1), (1, 2))
    for args, kwargs in [(((5, 2, 1),), {}), (((5, 2, 1), 1, 1), {}),
                         (((5, 2, 1), 1), {"d": 1}), (((5, 2, 1),), {"u": 1}),
                         ((), {"triple": (5, 2, 1), "u": 1})]:
        with pytest.raises(TypeError):
            ViannaTriangle(*args, **kwargs)
    with pytest.raises(TypeError):  # no field has a default
        UnimodularMap(1, 0, 0, 1)
    with pytest.raises(ValueError):  # __post_init__ still validates
        UnimodularMap(2, 0, 0, 1, (0, 1), (0, 1))


def test_no_field_has_a_class_level_value():
    # every field is given by position, so such a value would be silently unused
    for module in pkgutil.iter_modules(mbl.__path__):
        importlib.import_module(f"mbl.{module.name}")
    records = _Record.__subclasses__()
    assert {cls.__name__ for cls in records} >= set(CASES)
    for cls in records:
        assert not vars(cls).keys() & set(cls._fields), cls


def test_completeness_builds_no_limit(monkeypatch):
    def refuse(*args):
        raise AssertionError("a surd value built")

    monkeypatch.setattr(capacity, "lagrange_number", refuse)
    monkeypatch.setattr(QuadraticValue, "__init__", refuse)
    assert ordering.ordered_prefix_complete_above((7, 20), 60)["certified"] is True
