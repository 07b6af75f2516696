"""Tests for the §5.5 plan→pattern machinery."""

import pytest

from repro.core import parse_pattern, pattern_from_path
from repro.core.plan_pattern import (
    GlueCondition,
    expand_view,
    joint_embeddings,
    merged_patterns,
)
from repro.core.canonical import summary_embeddings, _strict_copy
from repro.summary import PathSummary


@pytest.fixture()
def summary():
    return PathSummary.from_paths(
        ["/site/regions/item/description/parlist/listitem", "/site/regions/item/name"]
    )


def renamed(text, prefix):
    pattern = parse_pattern(text)
    for node in pattern.nodes():
        node.name = prefix + node.name
    return pattern


class TestExpandView:
    def test_descendant_edges_expand_to_chains(self, summary):
        view = parse_pattern("//listitem[id:s]")
        embedding = summary_embeddings(_strict_copy(view), summary)[0]
        expanded = expand_view(view, embedding, summary)
        tags = [n.tag for n in expanded.nodes()]
        assert tags == ["site", "regions", "item", "description", "parlist", "listitem"]
        assert expanded.nodes()[-1].store_id == "s"

    def test_edge_semantics_lands_on_first_chain_edge(self, summary):
        view = parse_pattern("//item[id:s]{//o:listitem[id:s]}")
        embedding = summary_embeddings(_strict_copy(view), summary)[0]
        expanded = expand_view(view, embedding, summary)
        item = next(n for n in expanded.nodes() if n.tag == "item")
        description_edge = item.edges[0]
        assert description_edge.child.tag == "description"
        assert description_edge.optional
        # deeper chain edges are plain joins
        deeper = description_edge.child.edges[0]
        assert not deeper.optional


class TestJointEmbeddings:
    def test_eq_glue_requires_same_summary_node(self, summary):
        left = renamed("//item[id:s]", "u0:")
        right = renamed("//item[id:s]{/name[val]}", "u1:")
        combos = list(joint_embeddings(
            [left, right],
            [GlueCondition("eq", 0, "u0:e1", 1, "u1:e1")],
            summary,
        ))
        assert len(combos) == 1

    def test_structural_glue_checks_ancestry(self, summary):
        items = renamed("//item[id:s]", "u0:")
        names = renamed("//name[id:s]", "u1:")
        parent = list(joint_embeddings(
            [items, names], [GlueCondition("parent", 0, "u0:e1", 1, "u1:e1")], summary
        ))
        assert len(parent) == 1
        flipped = list(joint_embeddings(
            [names, items], [GlueCondition("parent", 0, "u1:e1", 1, "u0:e1")], summary
        ))
        assert flipped == []

    def test_unknown_glue_kind_rejected(self, summary):
        items = renamed("//item[id:s]", "u0:")
        with pytest.raises(ValueError):
            list(joint_embeddings(
                [items, items], [GlueCondition("sideways", 0, "u0:e1", 1, "u0:e1")],
                summary,
            ))


class TestMergedPatterns:
    def test_glued_nodes_share_one_merged_node(self, summary):
        left = renamed("//item[id:s]", "u0:")
        right = renamed("//item[id:s]{/name[id:s, val]}", "u1:")
        union = list(merged_patterns(
            [left, right], [GlueCondition("eq", 0, "u0:e1", 1, "u1:e1")], summary
        ))
        assert len(union) == 1
        pattern, aliases = union[0]
        assert aliases["u0:e1"] == aliases["u1:e1"]
        items = [n for n in pattern.nodes() if n.tag == "item"]
        assert len(items) == 1

    def test_off_spine_subtrees_keep_their_axes(self, summary):
        left = renamed("//item[id:s]{//o:listitem[id:s]}", "u0:")
        right = renamed("//item[id:s]", "u1:")
        union = list(merged_patterns(
            [left, right], [GlueCondition("eq", 0, "u0:e1", 1, "u1:e1")], summary
        ))
        pattern, _aliases = union[0]
        item = next(n for n in pattern.nodes() if n.tag == "item")
        li_edge = next(e for e in item.edges if e.child.tag == "listitem")
        # NOT expanded into the description/parlist chain: // preserved
        assert li_edge.axis == "//"
        assert li_edge.optional

    def test_ambiguous_paths_make_a_union(self):
        summary = PathSummary.from_paths(["/a/b/x/c", "/a/c/y/b"])
        left = renamed("//b[id:s]", "u0:")
        right = renamed("//c[id:s]", "u1:")
        union = list(merged_patterns(
            [left, right],
            [GlueCondition("ancestor", 0, "u0:e1", 1, "u1:e1")],
            summary,
        ))
        # only /a/b has a c below it
        assert len(union) == 1
        # without glue nothing is expanded: the plan is a plain product
        # and its pattern is the single two-branch pattern
        both_ways = list(merged_patterns([left, right], [], summary))
        assert len(both_ways) == 1
        assert both_ways[0][0].size() == 2

    def test_specs_merge_on_shared_nodes(self, summary):
        left = renamed("//item[id:s]", "u0:")
        right = renamed("//item[tag]{/name[val]}", "u1:")
        union = list(merged_patterns(
            [left, right], [GlueCondition("eq", 0, "u0:e1", 1, "u1:e1")], summary
        ))
        pattern, _ = union[0]
        item = next(n for n in pattern.nodes() if n.tag == "item")
        assert item.store_id == "s" and item.store_tag


#: (summary paths, view texts, glues) of the unions above, plus one whose
#: union has two members: both ``c`` paths below ``b`` qualify
UNIONS = [
    (
        ["/site/regions/item/description/parlist/listitem", "/site/regions/item/name"],
        ["//item[id:s]", "//item[id:s]{/name[id:s, val]}"],
        [GlueCondition("eq", 0, "u0:e1", 1, "u1:e1")],
    ),
    (
        ["/site/regions/item/description/parlist/listitem", "/site/regions/item/name"],
        ["//item[id:s]{//o:listitem[id:s]}", "//item[id:s]"],
        [GlueCondition("eq", 0, "u0:e1", 1, "u1:e1")],
    ),
    (
        ["/site/regions/item/description/parlist/listitem", "/site/regions/item/name"],
        ["//item[id:s]", "//name[id:s, val]"],
        [GlueCondition("parent", 0, "u0:e1", 1, "u1:e1")],
    ),
    (
        ["/a/b/x/c", "/a/c/y/b"],
        ["//b[id:s]", "//c[id:s]"],
        [GlueCondition("ancestor", 0, "u0:e1", 1, "u1:e1")],
    ),
    (["/a/b/x/c", "/a/c/y/b"], ["//b[id:s]", "//c[id:s]"], []),
    (
        ["/a/b/x/c", "/a/c/y/b", "/a/b/c"],
        ["//b[id:s]", "//c[id:s]"],
        [GlueCondition("ancestor", 0, "u0:e1", 1, "u1:e1")],
    ),
]


class TestMembersOnDemand:
    """``merged_patterns`` merges a member only when it is asked for, and
    yields what the eager construction of ``tests/reference.py`` lists."""

    @staticmethod
    def _union_args(paths, texts, glues):
        summary = PathSummary.from_paths(paths)
        views = [renamed(text, f"u{use}:") for use, text in enumerate(texts)]
        return views, glues, summary

    @pytest.mark.parametrize("case", range(len(UNIONS)))
    def test_same_members_in_the_same_order(self, case):
        from tests.reference import reference_merged_patterns

        args = self._union_args(*UNIONS[case])
        lazy = [(p.structure_key(), aliases) for p, aliases in merged_patterns(*args)]
        eager = [
            (p.structure_key(), aliases)
            for p, aliases in reference_merged_patterns(*args)
        ]
        assert lazy == eager

    def test_two_member_union_is_kept_whole(self):
        views, glues, summary = self._union_args(*UNIONS[-1])
        union = list(merged_patterns(views, glues, summary))
        # /a/b/x/c first, then /a/b/c
        assert [pattern.size() for pattern, _aliases in union] == [4, 3]

    def test_first_member_merges_one_combination(self, monkeypatch):
        from repro.core import plan_pattern

        calls = []
        real = plan_pattern._merge_combo

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(plan_pattern, "_merge_combo", counted)
        # four joint embeddings, all merging into one two-branch pattern
        views, glues, summary = self._union_args(*UNIONS[4])
        next(merged_patterns(views, glues, summary))
        assert len(calls) == 1
        calls.clear()
        assert len(list(merged_patterns(views, glues, summary))) == 1
        assert len(calls) == 4
