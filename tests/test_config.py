import pytest

from splicekit import conditions
from splicekit.errors import ValidationError


def test_defaults():
    assert conditions.solution_limit() == conditions.DEFAULT_SOLUTION_LIMIT
    assert conditions.solution_limit(7) == 7


def test_env_override(monkeypatch):
    monkeypatch.setenv("SPLICEKIT_ENUM_CAP", "123")
    assert conditions.solution_limit() == 123
    for bad in ("not-a-number", "-5", "0"):
        monkeypatch.setenv("SPLICEKIT_ENUM_CAP", bad)
        with pytest.raises(ValidationError):
            conditions.solution_limit()
    # an explicit override never reads the variable
    assert conditions.solution_limit(9) == 9


def test_env_cap_leaves_group_enumeration_alone(monkeypatch, g90):
    from splicekit.discriminant import leaf_generators
    from splicekit.errors import CapExceeded

    monkeypatch.setenv("SPLICEKIT_ENUM_CAP", "10")
    group = leaf_generators(g90)
    assert group.order == 90
    assert len(group.enumerate_elements()) == 90
    with pytest.raises(CapExceeded):
        group.enumerate_elements(cap=10)
    assert conditions.solution_limit() == 10
