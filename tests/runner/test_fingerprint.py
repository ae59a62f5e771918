"""Canonical fingerprint unit tests."""

import enum
from dataclasses import dataclass

import pytest

from repro.hw.platform import PlatformSpec
from repro.runner import (
    FingerprintError,
    canonical_fingerprint,
    canonical_form,
)
from repro.traffic.distributions import FixedSize, IMIXSize
from repro.traffic.generator import TrafficSpec


@dataclass(frozen=True)
class Point:
    x: int
    y: float


@dataclass(frozen=True)
class OtherPoint:
    x: int
    y: float


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


def module_level_function():
    return None


class TestCanonicalForm:
    def test_primitives_pass_through(self):
        assert canonical_form(None) is None
        assert canonical_form(True) is True
        assert canonical_form(7) == 7
        assert canonical_form("x") == "x"

    def test_float_uses_shortest_repr(self):
        assert canonical_form(0.1) == {"__float__": "0.1"}
        assert canonical_form(0.1 + 0.2) == \
            {"__float__": "0.30000000000000004"}

    def test_bytes_hex(self):
        assert canonical_form(b"\x00\xff") == {"__bytes__": "00ff"}

    def test_enum_carries_class(self):
        form = canonical_form(Color.RED)
        assert form["__enum__"] == "Color"
        assert form["value"] == "red"

    def test_dataclass_carries_qualified_name(self):
        form = canonical_form(Point(1, 2.0))
        assert "Point" in form["__dataclass__"]
        assert form["fields"]["x"] == 1

    def test_mapping_key_order_irrelevant(self):
        a = canonical_fingerprint({"a": 1, "b": 2})
        b = canonical_fingerprint({"b": 2, "a": 1})
        assert a == b

    def test_set_order_irrelevant(self):
        assert canonical_fingerprint({3, 1, 2}) == \
            canonical_fingerprint({2, 3, 1})

    def test_list_order_matters(self):
        assert canonical_fingerprint([1, 2]) != \
            canonical_fingerprint([2, 1])

    def test_tuple_and_list_collide(self):
        # Deliberate: both are "a sequence" in JSON wire terms.
        assert canonical_fingerprint((1, 2)) == \
            canonical_fingerprint([1, 2])

    def test_module_level_callable(self):
        form = canonical_form(module_level_function)
        assert form["__callable__"].endswith("module_level_function")

    def test_lambda_rejected(self):
        with pytest.raises(FingerprintError):
            canonical_form(lambda: None)

    def test_local_function_rejected(self):
        def local():
            return None
        with pytest.raises(FingerprintError):
            canonical_form(local)

    def test_unknown_object_rejected(self):
        class Opaque:
            pass
        with pytest.raises(FingerprintError):
            canonical_form(Opaque())

    def test_fingerprint_hook(self):
        # EmpiricalSize is not a dataclass; the __fingerprint__ hook
        # gives it a canonical identity.
        form = canonical_form(IMIXSize())
        assert "IMIXSize" in form["__custom__"]
        assert canonical_fingerprint(IMIXSize()) == \
            canonical_fingerprint(IMIXSize())


class TestDistinctness:
    def test_same_fields_different_dataclass(self):
        assert canonical_fingerprint(Point(1, 2.0)) != \
            canonical_fingerprint(OtherPoint(1, 2.0))

    def test_int_float_distinct(self):
        assert canonical_fingerprint(1) != canonical_fingerprint(1.0)

    def test_bool_int_distinct(self):
        assert canonical_fingerprint(True) != canonical_fingerprint(1)

    def test_str_bytes_distinct(self):
        assert canonical_fingerprint("ff") != \
            canonical_fingerprint(b"\xff")


class TestDeploymentFingerprint:
    """The digest of a deployment under traffic: any single mutation to
    the chain, platform or traffic changes it."""

    def _args(self, **overrides):
        args = {
            "chain": ("firewall", "ids"),
            "platform": PlatformSpec(),
            "traffic": TrafficSpec(size_law=FixedSize(64),
                                   offered_gbps=40.0),
        }
        args.update(overrides)
        return args

    def test_stable_for_equal_inputs(self):
        assert canonical_fingerprint(self._args()) == \
            canonical_fingerprint(self._args())

    def test_chain_mutation_changes_key(self):
        assert canonical_fingerprint(self._args()) != \
            canonical_fingerprint(self._args(chain=("firewall", "nat")))

    def test_traffic_mutation_changes_key(self):
        mutated = TrafficSpec(size_law=FixedSize(128),
                              offered_gbps=40.0)
        assert canonical_fingerprint(self._args()) != \
            canonical_fingerprint(self._args(traffic=mutated))
