"""Tests for S-containment (thesis §4.4): the figure scenarios, all
pattern dialects, and a soundness property over concrete documents."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ContainmentError,
    evaluate_pattern,
    is_contained,
    is_equivalent,
    parse_pattern,
    pattern_from_path,
)
from repro.summary import PathSummary, build_enhanced_summary
from repro.workloads.random_patterns import GeneratorConfig, generate_pattern
from repro.xmldata import load


@pytest.fixture()
def chain_summary():
    return PathSummary.from_paths(["/a/b/c", "/a/d/c", "/a/b/e"])


class TestConjunctive:
    def test_reflexive(self, chain_summary):
        pattern = pattern_from_path("//a//c")
        assert is_equivalent(pattern, pattern, chain_summary)

    def test_specialization_contained_in_generalization(self, chain_summary):
        specific = pattern_from_path("//b/c")
        general = pattern_from_path("//a//c")
        assert is_contained(specific, general, chain_summary)
        assert not is_contained(general, specific, chain_summary)

    def test_summary_makes_syntactically_different_patterns_equivalent(self):
        # every listitem sits under description/parlist — the §5.2 scenario
        summary = PathSummary.from_paths(
            ["/site/item/description/parlist/listitem/keyword"]
        )
        via_item = pattern_from_path("//item//listitem")
        via_parlist = pattern_from_path("//description/parlist/listitem")
        assert is_equivalent(via_item, via_parlist, summary)

    def test_without_summary_paths_nothing_holds(self, chain_summary):
        assert not is_contained(
            pattern_from_path("//b/c"), pattern_from_path("//d/c"), chain_summary
        )

    def test_arity_mismatch_fails(self, chain_summary):
        one = pattern_from_path("//a//c")
        two = parse_pattern("//a[id:s]{//c[id:s]}")
        assert not is_contained(one, two, chain_summary)

    def test_empty_union_is_an_error(self, chain_summary):
        with pytest.raises(ContainmentError):
            is_contained(pattern_from_path("//a"), [], chain_summary)

    def test_unsatisfiable_pattern_vacuously_contained(self, chain_summary):
        ghost = pattern_from_path("//z")
        assert is_contained(ghost, pattern_from_path("//a"), chain_summary)


class TestUnions:
    def test_union_covers_what_members_cannot(self, chain_summary):
        query = pattern_from_path("//a//c")
        left = pattern_from_path("//b/c")
        right = pattern_from_path("//d/c")
        assert not is_contained(query, left, chain_summary)
        assert not is_contained(query, right, chain_summary)
        assert is_contained(query, [left, right], chain_summary)

    def test_partial_union_fails(self):
        summary = PathSummary.from_paths(["/a/b/c", "/a/d/c", "/a/e/c"])
        query = pattern_from_path("//a//c")
        views = [pattern_from_path("//b/c"), pattern_from_path("//d/c")]
        assert not is_contained(query, views, summary)


class TestDecorated:
    def test_point_in_interval(self, chain_summary):
        strict = pattern_from_path("//c", store=("ID",))
        strict.nodes()[-1].value_formula = parse_pattern("//c[val=3]").nodes()[0].value_formula
        loose = pattern_from_path("//c", store=("ID",))
        loose.nodes()[-1].value_formula = parse_pattern("//c[val>1]").nodes()[0].value_formula
        assert is_contained(strict, loose, chain_summary)
        assert not is_contained(loose, strict, chain_summary)

    def test_figure_4_9_union_splitting(self):
        """p_φ2 ⊑ p_φ1 ∪ p_φ3 ∪ p_φ4: no single member suffices, the value
        space splits across members."""
        summary = PathSummary.from_paths(["/a/b/c/d", "/a/b/e/f"])
        # query: //b//f with f.val > 0 … reachable both as (3) and (1)+(4)
        query = parse_pattern("//e{/f[id:s, val>0, val<8]}")
        low = parse_pattern("//e{/f[id:s, val>0, val<5]}")
        high = parse_pattern("//e{/f[id:s, val>=5, val<8]}")
        assert not is_contained(query, low, summary)
        assert not is_contained(query, high, summary)
        assert is_contained(query, [low, high], summary)

    def test_view_predicate_not_implied_fails(self, chain_summary):
        query = pattern_from_path("//c", store=("ID",))
        view = pattern_from_path("//c", store=("ID",))
        view.nodes()[-1].value_formula = parse_pattern("//c[val=1]").nodes()[0].value_formula
        assert not is_contained(query, view, chain_summary)
        assert is_contained(view, query, chain_summary)


class TestOptional:
    def test_optional_view_contains_strict_query(self, chain_summary):
        # p1 ⊑ p2 when p2 relaxes an edge to optional?  No: arity/⊥ rules.
        strict = parse_pattern("//b[id:s]{/c[id:s]}")
        optional = parse_pattern("//b[id:s]{/o:c[id:s]}")
        assert is_contained(strict, optional, chain_summary)
        assert not is_contained(optional, strict, chain_summary)

    def test_equal_optional_patterns(self, chain_summary):
        a = parse_pattern("//b[id:s]{/o:c[id:s], /o:e[val]}")
        assert is_equivalent(a, a.copy(), chain_summary)

    def test_strong_edge_closes_optional_gap(self):
        summary = PathSummary.from_paths(["/a/b"])
        for node in summary.nodes():
            node.edge_annotation = "+"
        strict = parse_pattern("//a[id:s]{/b[id:s]}")
        optional = parse_pattern("//a[id:s]{/o:b[id:s]}")
        # every a has a b ⇒ the optional never produces ⊥ ⇒ equivalent
        assert is_equivalent(strict, optional, summary)

    def test_without_strong_edges_gap_remains(self):
        summary = PathSummary.from_paths(["/a/b"])
        strict = parse_pattern("//a[id:s]{/b[id:s]}")
        optional = parse_pattern("//a[id:s]{/o:b[id:s]}")
        assert not is_contained(optional, strict, summary, use_strong_edges=False)


class TestAttributePatterns:
    def test_attrs_must_match_exactly(self, chain_summary):
        with_val = parse_pattern("//c[id:s, val]")
        id_only = parse_pattern("//c[id:s]")
        assert not is_contained(with_val, id_only, chain_summary)
        assert is_contained(with_val, with_val.copy(), chain_summary)

    def test_figure_4_11_style(self, chain_summary):
        p1 = parse_pattern("//b[id:s]{/c[id:s, val]}")
        p2 = parse_pattern("//a{//b[id:s]{/c[id:s, val]}}")
        assert is_contained(p1, p2, chain_summary)


class TestNestedPatterns:
    def test_same_nesting_is_equivalent(self, chain_summary):
        a = parse_pattern("//b[id:s]{/nj:c[id:s]}")
        assert is_equivalent(a, a.copy(), chain_summary)

    def test_nesting_depth_mismatch_fails(self, chain_summary):
        nested = parse_pattern("//b[id:s]{/nj:c[id:s]}")
        flat = parse_pattern("//b[id:s]{/c[id:s]}")
        assert not is_contained(nested, flat, chain_summary)
        assert not is_contained(flat, nested, chain_summary)

    def test_one_to_one_relaxation(self):
        # nesting under a vs under its 1-1 child b is interchangeable
        summary = PathSummary.from_paths(["/r/a/b/c"])
        for node in summary.nodes():
            node.edge_annotation = "1"
        under_a = parse_pattern("//a[id:s]{/b{/nj:c[id:s]}}")
        under_b = parse_pattern("//a[id:s]{/b{/nj:c[id:s]}}")
        # rebuild under_b with the nest edge one level up: a{nj:b{c}}
        under_b = parse_pattern("//a[id:s]{/nj:b{/c[id:s]}}")
        assert is_contained(under_a, under_b, summary, relax_one_to_one=True)
        assert not is_contained(under_a, under_b, summary, relax_one_to_one=False)


class TestSemijoinBranches:
    def test_filter_branch_restricts(self, auction_summary):
        filtered = parse_pattern("//item[id:s]{/s:mail}")
        unfiltered = parse_pattern("//item[id:s]")
        assert is_contained(filtered, unfiltered, auction_summary)
        # not every item is forced to have mail in a generic summary
        plain = PathSummary.from_paths(["/site/regions/item/mail", "/site/regions/item/name"])
        filtered2 = parse_pattern("//item[id:s]{/s:mail}")
        assert not is_contained(
            parse_pattern("//item[id:s]"), filtered2, plain, use_strong_edges=False
        )


# -- soundness property: containment implies result inclusion ----------------

_DOC = load(
    "<a><b><c>v1</c><e>x</e></b><b><c>v2</c></b><d><c>v1</c></d></a>"
)
_SUMMARY = build_enhanced_summary(_DOC)
_CONFIG = GeneratorConfig(
    return_labels=("c",), optional_probability=0.4, predicate_probability=0.3
)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_containment_sound_on_documents(seed):
    rng = random.Random(seed)
    p = generate_pattern(_SUMMARY, rng.randint(1, 4), 1, rng, _CONFIG)
    q = generate_pattern(_SUMMARY, rng.randint(1, 4), 1, rng, _CONFIG)
    # align attribute sets so containment is not trivially false
    for pattern in (p, q):
        node = pattern.return_nodes()[0]
        node.store_id = "s"
    if is_contained(p, q, _SUMMARY):
        p_result = {
            t.first(f"{p.return_nodes()[0].name}.ID")
            for t in evaluate_pattern(p, _DOC)
        }
        q_result = {
            t.first(f"{q.return_nodes()[0].name}.ID")
            for t in evaluate_pattern(q, _DOC)
        }
        assert p_result <= q_result


# -- target-directed matching ------------------------------------------------


def unpruned_assignments(view, tree, admits):
    """``containment._matching_assignments`` as it reads without target
    direction: the generic :func:`iter_embeddings` walk (no path or label
    pruning) under the same constrained and guaranteed admissions, and the
    same "⊥ only when no match exists" re-check."""
    from repro.core import containment
    from repro.core.embedding import iter_embeddings, subtree_embeddable

    targets = dict(zip(view.return_nodes, tree.return_nodes))
    children = containment._children

    def constrained(pattern_node, tree_node):
        if pattern_node in targets:
            return targets[pattern_node] is tree_node and admits(pattern_node, tree_node)
        return admits(pattern_node, tree_node)

    def guaranteed(pattern_node, tree_node):
        if pattern_node in targets and targets[pattern_node] is not tree_node:
            return False
        return containment._decorated_admits(pattern_node, tree_node)

    memo = {}
    for assignment in iter_embeddings(
        view.pattern, tree.root, children, constrained, guarantee=guaranteed
    ):
        valid = True
        for pattern_node, required in targets.items():
            if required is not None:
                continue
            walk = pattern_node
            while (
                walk.parent_edge is not None
                and assignment.get(walk.parent_edge.parent) is None
            ):
                walk = walk.parent_edge.parent
            if walk.parent_edge is None:
                continue
            anchor = assignment.get(walk.parent_edge.parent)
            if anchor is not None and subtree_embeddable(
                walk, anchor, children, guaranteed, memo
            ):
                valid = False
                break
        if valid:
            yield assignment


def recorded_matchings(monkeypatch, run):
    """Every distinct ``(view, tree, admits)`` that ``_matching_assignments``
    is asked for while ``run()`` runs."""
    from repro.core import containment

    calls = {}
    original = containment._matching_assignments

    def recording(view, tree, admits):
        calls.setdefault((id(view), id(tree), admits), (view, tree, admits))
        return original(view, tree, admits)

    monkeypatch.setattr(containment, "_matching_assignments", recording)
    run()
    monkeypatch.undo()
    return list(calls.values())


class TestTargetDirectedMatching:
    """Reading a pinned node's candidates off its target's root path must
    not change which assignments the containment test sees, nor their
    order: verdicts and ``psi_capped`` depend on both."""

    @staticmethod
    def assert_same_sequences(matchings):
        from itertools import islice

        from repro.core import containment

        # the ψ enumeration reads at most MAX_PSI_ASSIGNMENTS + 1 of them
        limit = containment.MAX_PSI_ASSIGNMENTS + 1
        for view, tree, admits in matchings:
            pruned = list(islice(containment._matching_assignments(view, tree, admits), limit))
            reference = list(islice(unpruned_assignments(view, tree, admits), limit))
            assert pruned == reference, (view.pattern.to_text(), view.return_names)

    def test_golden_battery_pairs(self, monkeypatch):
        from tests.rewrite_golden import answers

        matchings = recorded_matchings(monkeypatch, lambda: answers(0))
        assert len(matchings) > 10_000
        # q08/q09 validate members whose return order names one node twice
        assert any(
            len(set(view.return_nodes)) < len(view.return_nodes)
            for view, _tree, _admits in matchings
        )
        self.assert_same_sequences(matchings)

    def test_view_node_aligned_to_two_return_positions(self, monkeypatch):
        """``person{/name[val], /no:name[val]}`` over ``v_person``: the
        validation member names the view's one ``name`` node twice, and
        the last pairing decides its target, pruned or not."""
        from repro.core import parse_pattern, rewrite_pattern
        from repro.storage import Catalog

        summary = build_enhanced_summary(load(SELF_JOIN_DOCUMENT))
        catalog = Catalog()
        catalog.register("v_person", parse_pattern("//people/person[id:s]{/name[id:s, val]}"))
        query = parse_pattern("//people{/person[id:s]{/name[val], /no:name[val]}}")
        matchings = recorded_matchings(
            monkeypatch,
            lambda: rewrite_pattern(query, catalog, summary, max_results=None),
        )
        twice = [
            (view, tree, admits)
            for view, tree, admits in matchings
            if len(set(view.return_nodes)) < len(view.return_nodes)
        ]
        assert twice
        self.assert_same_sequences(matchings)

    @pytest.mark.parametrize(
        "contained, container, assignments",
        [
            # ``*`` takes both ``b`` on the target's path, top-down
            ("//a{/b{/b{/c[id:s]}}}", "//a{//*{//c[id:s]}}", 2),
            # ``d`` is above an optional edge, so it is not confined: the
            # ``d`` without an ``e`` offers the pinned ``e`` ⊥
            ("//a{/d, /d{/e[id:s]}}", "//a{/d{/o:e[id:s]}}", 2),
        ],
    )
    def test_order_and_optional_edges(self, monkeypatch, contained, container, assignments):
        summary = build_enhanced_summary(
            load("<r><a><b><b><c/></b></b><d/><d><e/></d></a></r>")
        )
        matchings = recorded_matchings(
            monkeypatch,
            lambda: is_contained(
                parse_pattern(contained), parse_pattern(container), summary
            ),
        )
        assert max(
            len(list(unpruned_assignments(*matching))) for matching in matchings
        ) == assignments
        self.assert_same_sequences(matchings)


#: one person with two names: a view node aligned to two return positions
#: is checked against the last one only (ROADMAP 1g)
SELF_JOIN_DOCUMENT = (
    "<site><people>"
    '<person id="p1"><name>Ann</name><name>Bob</name></person>'
    '<person id="p2"><name>Bob</name></person>'
    '<person id="p3"><name>Cy</name></person>'
    "</people></site>"
)
