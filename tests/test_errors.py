"""Exception hierarchy contracts, and the key and field rules."""

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional

import pytest

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ConvergenceError,
    EstimationError,
    ExperimentError,
    GraphError,
    NodeNotFoundError,
    QueryBudgetExceededError,
    RateLimitExceededError,
    ReproError,
    check_field,
    check_fields,
    checked,
    checked_fields,
)
from repro.faults import FaultRule


def test_all_errors_derive_from_repro_error():
    for cls in (
        GraphError,
        NodeNotFoundError,
        QueryBudgetExceededError,
        RateLimitExceededError,
        ConfigurationError,
        EstimationError,
        ConvergenceError,
        ExperimentError,
    ):
        assert issubclass(cls, ReproError)


def test_node_not_found_is_key_error():
    # dict-style callers may catch KeyError; preserve that contract.
    assert issubclass(NodeNotFoundError, KeyError)
    err = NodeNotFoundError(42)
    assert err.node == 42
    assert "42" in str(err)


def test_configuration_error_is_value_error():
    assert issubclass(ConfigurationError, ValueError)


def test_budget_error_carries_accounting():
    err = QueryBudgetExceededError(budget=100, spent=100)
    assert err.budget == 100
    assert err.spent == 100
    assert "100" in str(err)


def test_rate_limit_error_carries_retry_after():
    err = RateLimitExceededError(retry_after=12.5)
    assert err.retry_after == 12.5


@dataclass(frozen=True)
class _Record:
    name: str = checked(str)
    count: int = checked(Integral, 1, default=1)
    rate: Optional[float] = checked(Real, 0, optional=True, default=None)
    mode: str = checked(("fast", "slow"), default="fast")


class TestKeyRule:
    def test_dataclass_keys_may_leave_out_defaults(self):
        assert checked_fields(_Record, {"name": "a"}) == {"name": "a"}
        missing = r"missing _Record keys: \['name'\]"
        with pytest.raises(ConfigurationError, match=missing):
            checked_fields(_Record, {"count": 2})
        with pytest.raises(ConfigurationError, match="unknown _Record keys"):
            checked_fields(_Record, {"name": "a", "size": 2})

    def test_named_document_carries_every_key(self):
        keys = ("a", "b")
        assert checked_fields("doc", {"a": 1, "b": 2}, keys) == {"a": 1, "b": 2}
        with pytest.raises(CheckpointError, match=r"missing doc keys: \['b'\]"):
            checked_fields("doc", {"a": 1}, keys, CheckpointError)
        with pytest.raises(CheckpointError, match="doc must be a mapping, got list"):
            checked_fields("doc", [1], keys, CheckpointError)

    def test_a_field_table_checks_the_fields_too(self):
        table = {"a": (Integral, 0), "b": ([str],)}
        assert checked_fields("doc", {"a": 0, "b": ["x"]}, table)
        with pytest.raises(ConfigurationError, match=r"doc 'b\[1\]' must be a str"):
            checked_fields("doc", {"a": 0, "b": ["x", 2]}, table)

    def test_a_rule_missing_its_kind_is_missing_its_key(self):
        # A rule's required field is a required key, so the document is
        # refused by name instead of by a constructor's TypeError.
        with pytest.raises(ConfigurationError, match="missing FaultRule keys"):
            FaultRule.from_dict({"delay": 1.0})


class TestFieldRule:
    @pytest.mark.parametrize(
        "value, kind, minimum, expected",
        [
            (True, Integral, None, "an integer"),
            (2.5, Integral, None, "an integer"),
            (1, bool, None, "a bool"),
            (float("nan"), Real, None, r"a number \(not NaN\)"),
            (float("nan"), Real, 0, r"a number \(not NaN\)"),
            (-1, Integral, 0, "at least 0"),
            ("3", Real, None, "a number"),
            ({}, list, None, "a list"),
        ],
    )
    def test_refusal_names_the_field(self, value, kind, minimum, expected):
        with pytest.raises(CheckpointError, match=f"owner 'field' must be {expected}"):
            check_field("owner", "field", value, kind, minimum, error=CheckpointError)

    def test_optional_lets_none_through(self):
        check_field("owner", "field", None, Integral, 1, optional=True)
        with pytest.raises(ConfigurationError, match="an integer or None"):
            check_field("owner", "field", "x", Integral, 1, optional=True)

    def test_choices_keep_the_unknown_wording(self):
        check_field("owner", "mode", "fast", ("fast", "slow"))
        refusal = "unknown mode 'x'; valid: fast, slow"
        with pytest.raises(ConfigurationError, match=refusal):
            check_field("owner", "mode", "x", ("fast", "slow"))

    def test_declared_rules_check_a_dataclass(self):
        record = _Record(name="a", count=3, rate=0.5)
        check_fields("_Record", vars(record), _Record)
        for bad in ({"count": 0}, {"rate": float("nan")}, {"mode": "odd"}):
            with pytest.raises(ConfigurationError, match=next(iter(bad))):
                check_fields("_Record", {**vars(record), **bad}, _Record)
