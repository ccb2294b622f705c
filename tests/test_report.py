"""The wire format: `to_json` encodes report values by their exact type."""

from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import ClassVar

import pytest

from urskit.heights import Magnitude, ScaledLog
from urskit.report import to_json


def test_scalars_by_exact_type():
    assert to_json(None) is None
    assert to_json(True) is True
    assert to_json("text") == "text"
    # an int is a JSON number, a rational always a string, even when integral
    assert to_json(3) == 3
    assert to_json(F(3)) == "3"
    assert to_json(F(-1, 2)) == "-1/2"


def test_log_quantities_exact_plus_display():
    assert to_json(Magnitude(10), 3) == {"exact": "10", "log": "2.303"}
    assert to_json(ScaledLog(F(1, 2), Magnitude(10)), 2) == {
        "coefficient": "1/2",
        "base": {"exact": "10", "log": "2.30"},
        "log": "1.15",
    }


@dataclass(frozen=True)
class _Row:
    x: F
    detail: dict = field(default_factory=dict, metadata={"merge": True})

    derived_keys: ClassVar[tuple[str, ...]] = ("double",)

    @property
    def double(self) -> F:
        return 2 * self.x


def test_dataclass_fields_merge_and_derived_keys():
    row = _Row(F(1, 4), {"count": 2, "h": Magnitude(1)})
    assert to_json([row], 1) == [
        {"x": "1/4", "count": 2, "h": {"exact": "1", "log": "0.0"}, "double": "1/2"}
    ]


@pytest.mark.parametrize("value", [0.5, {1, 2}, object()])
def test_unknown_types_are_rejected(value):
    with pytest.raises(TypeError, match="no JSON encoding"):
        to_json(value)
