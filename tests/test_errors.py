"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    BenchmarkError,
    GraphError,
    HypergraphError,
    MatchingError,
    ParseError,
    PartitionError,
    ReproError,
    SpectralError,
    ValidationError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            BenchmarkError,
            GraphError,
            HypergraphError,
            MatchingError,
            ParseError,
            PartitionError,
            SpectralError,
            ValidationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_validation_is_hypergraph_error(self):
        assert issubclass(ValidationError, HypergraphError)

    def test_parse_error_line_prefix(self):
        err = ParseError("bad token", line=7)
        assert "line 7" in str(err)
        assert err.line == 7

    def test_parse_error_without_line(self):
        err = ParseError("bad token")
        assert str(err) == "bad token"
        assert err.line is None

    def test_catch_all_pattern(self):
        """Library consumers can catch ReproError alone."""
        from repro.hypergraph import Hypergraph

        with pytest.raises(ReproError):
            Hypergraph([[0, -5]])


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejected_with_typed_errors(self, bad):
        """A NaN or infinite area or weight fails where it enters —
        the constructor, the ``.net`` parser, the JSON reader, or a
        delta's validation — never later inside a partitioner."""
        from repro.delta import ModuleAdd, NetAdd, NetlistDelta
        from repro.errors import DeltaError
        from repro.hypergraph import Hypergraph, from_json, loads_net

        value = float(bad)
        nets = [[0, 1], [1, 2]]
        with pytest.raises(HypergraphError, match="module areas"):
            Hypergraph(nets, module_areas=[1.0, value, 1.0])
        with pytest.raises(HypergraphError, match="net weights"):
            Hypergraph(nets, net_weights=[value, 1.0])
        with pytest.raises(ParseError, match="line 1: bad module area"):
            loads_net(f"module a {bad}\nnet n a b\n")
        with pytest.raises(HypergraphError, match="module areas"):
            from_json(
                {
                    "format": "repro-hypergraph-v1",
                    "num_modules": 3,
                    "nets": nets,
                    "module_areas": [value, 1.0, 1.0],
                }
            )
        base = Hypergraph(nets)
        for delta in (
            NetlistDelta(set_module_areas={0: value}),
            NetlistDelta(set_net_weights={1: value}),
            NetlistDelta(add_modules=(ModuleAdd(area=value),)),
            NetlistDelta(add_nets=(NetAdd(pins=(0, 2), weight=value),)),
        ):
            with pytest.raises(DeltaError, match="finite"):
                delta.validate(base)
