"""Contract of the frozen record base: construction, immutability and the
value semantics a frozen dataclass gives, with validation on every copy."""

import dataclasses

import pytest

from qccsim._record import Record
from qccsim.errors import ValidationError
from qccsim.neutron import AbsorberConfig
from qccsim.qstate import StateVector


class Point(Record):
    x: float
    y: float = 0.0
    label: str = "p"


@dataclasses.dataclass(frozen=True)
class DataPoint:
    x: float
    y: float = 0.0
    label: str = "p"


def test_positional_keyword_and_default_construction():
    assert Point(1.0, 2.0, "a")._asdict() == {"x": 1.0, "y": 2.0, "label": "a"}
    assert Point(label="a", x=1.0)._asdict() == {"x": 1.0, "y": 0.0, "label": "a"}
    assert Point(1.0, label="b") == Point(1.0, 0.0, "b")
    assert Point._fields == ("x", "y", "label")


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "Point() is missing field(s) 'x'"),
        ((), {"y": 1.0}, "Point() is missing field(s) 'x'"),
        ((1.0,), {"z": 1.0}, "Point() got an unknown field 'z'"),
        ((1.0,), {"x": 2.0}, "Point() got a repeated field 'x'"),
        ((1.0, 2.0, "a", 3.0), {}, "Point() takes 3 fields but 4 were given"),
    ],
)
def test_missing_unknown_or_repeated_field_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError) as info:
        Point(*args, **kwargs)
    assert str(info.value) == message


def test_fields_are_read_only():
    p = Point(1.0)
    with pytest.raises(AttributeError):
        p.x = 2.0
    with pytest.raises(AttributeError):
        p.new = 2.0
    with pytest.raises(AttributeError):
        del p.x
    assert p.x == 1.0


@pytest.mark.parametrize("args", [(1.0,), (1.0, -2.5, "q"), (0.0, 0.0, "")])
def test_eq_hash_and_repr_match_a_frozen_dataclass(args):
    record, data = Point(*args), DataPoint(*args)
    assert repr(record) == repr(data).replace("DataPoint", "Point")
    assert hash(record) == hash(data)
    assert record == Point(*args)
    assert record != Point(9.0)
    assert record != data  # another class never compares equal, as for dataclasses
    assert Point(*args)._asdict() == dataclasses.asdict(data)


def test_asdict_is_in_field_order():
    assert list(Point(label="z", y=3.0, x=1.0)._asdict()) == ["x", "y", "label"]


def test_replace_changes_fields_and_validates_again():
    cfg = AbsorberConfig("II", 0.1)._replace(M=0.5)
    assert (cfg.M, cfg.arm) == (0.5, AbsorberConfig("II", 0.1).arm)
    with pytest.raises(ValidationError):
        AbsorberConfig("II", 0.1)._replace(M=-1.0)
    with pytest.raises(TypeError):
        AbsorberConfig("II", 0.1)._replace(no_such_field=1.0)


def test_post_init_is_looked_up_at_construction(monkeypatch):
    seen = []
    post_init = StateVector.__post_init__

    def counting(state):
        seen.append(state)
        post_init(state)

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    state = StateVector((2,), ("spin",), [1.0, 0.0])
    assert len(seen) == 1 and seen[0] is state
    assert state.amps.tolist() == [1 + 0j, 0j]  # the original normalization still ran
