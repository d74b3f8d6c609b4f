"""Unit tests for list edge coloring instances and slack bookkeeping."""

from __future__ import annotations

import pytest

from repro.core.slack import ListEdgeColoringInstance, degree_plus_one_instance, uniform_instance
from repro.graphs import generators
from repro.graphs.core import Graph


class TestInstanceBasics:
    def test_uniform_instance_is_degree_plus_one(self):
        graph = generators.random_regular_graph(20, 4, seed=1)
        instance = uniform_instance(graph)
        assert instance.color_space == 2 * graph.max_degree - 1
        assert instance.is_degree_plus_one()
        assert instance.min_slack() >= 1.0

    def test_uniform_instance_shares_one_palette(self):
        from repro.core.list_edge_coloring import list_edge_coloring
        from repro.verification.checkers import list_coloring_violations

        graph = generators.random_regular_graph(24, 6, seed=2)
        instance = uniform_instance(graph)
        palette = instance.lists[0]
        assert palette == tuple(range(instance.color_space))
        assert all(instance.lists[e] is palette for e in graph.edges())
        assert instance.list_masks() == dict.fromkeys(
            graph.edges(), (1 << instance.color_space) - 1
        )
        result = list_edge_coloring(graph, instance=instance)
        assert len(result.colors) == graph.num_edges
        assert list_coloring_violations(graph, result.colors, instance.lists) == []
        assert instance.lists[0] is palette

    def test_degree_plus_one_instance_default_lists(self):
        graph = generators.grid_graph(4, 4)
        instance = degree_plus_one_instance(graph)
        for e in graph.edges():
            assert len(instance.lists[e]) == min(instance.color_space, graph.edge_degree(e) + 1)

    def test_degree_plus_one_rejects_short_lists(self):
        graph = generators.complete_graph(4)
        with pytest.raises(ValueError):
            degree_plus_one_instance(graph, color_space=8, lists={e: [0] for e in graph.edges()})

    def test_validation_of_colors_and_missing_lists(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="outside the color space"):
            ListEdgeColoringInstance(graph, {0: [5], 1: [0]}, color_space=3)
        with pytest.raises(ValueError, match="no list"):
            ListEdgeColoringInstance(graph, {0: [0]}, color_space=3, edge_set={0, 1})


class TestDegreesAndSlack:
    def test_degrees_respect_edge_set(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        instance = ListEdgeColoringInstance(
            graph, {0: [0, 1], 2: [1, 2]}, color_space=3, edge_set={0, 2}
        )
        assert instance.edge_degree(0) == 0
        assert instance.max_edge_degree() == 0
        assert instance.slack(0) == float("inf")

    def test_slack_and_has_slack(self):
        graph = generators.star_graph(3)
        lists = {e: [0, 1, 2, 3, 4, 5] for e in graph.edges()}
        instance = ListEdgeColoringInstance(graph, lists, color_space=6)
        # Every edge has degree 2 and 6 colors: slack 3.
        assert instance.min_slack() == pytest.approx(3.0)
        assert instance.has_slack(2.5)
        assert not instance.has_slack(3.0)

    def test_availability_and_uncolored_degree(self):
        graph = generators.star_graph(3)
        lists = {e: [0, 1, 2] for e in graph.edges()}
        instance = ListEdgeColoringInstance(graph, lists, color_space=3)
        coloring = {0: 1}
        assert instance.available_colors(1, coloring) == [0, 2]
        assert instance.uncolored_degree(1, coloring) == 1
        assert instance.uncolored_degree(0, coloring) == 2

    def test_restricted_subinstance(self):
        graph = generators.cycle_graph(6)
        instance = uniform_instance(graph)
        sub = instance.restricted([0, 1])
        assert sub.edge_set == {0, 1}
        assert sub.max_edge_degree() == 1
