import pytest

from splicekit import config
from splicekit.errors import ValidationError


def test_defaults():
    assert config.solution_limit() == config.DEFAULT_SOLUTION_LIMIT
    assert config.group_cap() == config.DEFAULT_GROUP_CAP
    assert config.solution_limit(7) == 7
    assert config.group_cap(9) == 9


def test_env_override(monkeypatch):
    monkeypatch.setenv("SPLICEKIT_ENUM_CAP", "123")
    assert config.solution_limit() == 123
    assert config.group_cap() == 123
    for bad in ("not-a-number", "-5", "0"):
        monkeypatch.setenv("SPLICEKIT_ENUM_CAP", bad)
        with pytest.raises(ValidationError):
            config.solution_limit()
        with pytest.raises(ValidationError):
            config.group_cap()
    # an explicit override never reads the variable
    assert config.group_cap(9) == 9


def test_env_cap_limits_group_enumeration(monkeypatch, g90):
    from splicekit.discriminant import leaf_generators
    from splicekit.errors import CapExceeded

    monkeypatch.setenv("SPLICEKIT_ENUM_CAP", "10")
    with pytest.raises(CapExceeded):
        leaf_generators(g90).enumerate_elements()
