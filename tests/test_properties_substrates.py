"""Hypothesis property tests on the substrate layers: B+-tree vs a
model sorted map, structural/Dewey ID axioms on random trees, and the
interval-normal-form formula algebra as a boolean algebra over points."""

import random

from hypothesis import given, settings, strategies as st

from repro.algebra.formulas import Formula
from repro.engine import BPlusTree
from repro.xmldata import Document, XMLNode, id_of, label_document
from repro.xmldata.node import DOCUMENT


# --------------------------------------------------------------------------
# B+-tree vs model
# --------------------------------------------------------------------------

_keys = st.lists(
    st.tuples(st.integers(min_value=-50, max_value=50), st.integers(0, 5)),
    min_size=0,
    max_size=120,
)


@given(_keys, st.integers(min_value=4, max_value=64))
@settings(max_examples=60, deadline=None)
def test_btree_matches_sorted_model(keys, order):
    tree = BPlusTree(order=order)
    model: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        tree.insert(key, i)
        model.setdefault(key, []).append(i)

    # lookups agree, including duplicates (in insertion order)
    for key, expected in model.items():
        assert tree.search(key) == expected
    assert tree.search((999, 999)) == []

    # full iteration is key-sorted and complete (duplicate keys yield
    # one (key, value) pair per stored entry)
    got_keys = [k for k, _ in tree.items()]
    assert got_keys == sorted(keys)
    assert sum(len(tree.search(k)) for k in model) == len(keys)


@given(_keys, st.tuples(st.integers(-50, 50), st.integers(0, 5)),
       st.tuples(st.integers(-50, 50), st.integers(0, 5)))
@settings(max_examples=60, deadline=None)
def test_btree_range_matches_filter(keys, low, high):
    if high < low:
        low, high = high, low
    tree = BPlusTree(order=8)
    for i, key in enumerate(keys):
        tree.insert(key, i)
    got = [k for k, _ in tree.range(low, high)]
    expected = sorted(k for k in keys if low <= k <= high)
    assert got == expected


@given(_keys)
@settings(max_examples=40, deadline=None)
def test_btree_len_counts_entries(keys):
    tree = BPlusTree(order=6)
    for i, key in enumerate(keys):
        tree.insert(key, i)
    assert len(tree) == len(keys)


# --------------------------------------------------------------------------
# ID axioms on random trees
# --------------------------------------------------------------------------

def _random_document(rng: random.Random, size: int, leaves: bool = False) -> Document:
    """A random element tree; with ``leaves``, elements also carry an
    ``@a`` attribute or interleaved text children at random."""
    root = XMLNode("element", "r")
    nodes = [root]
    for i in range(size):
        parent = rng.choice(nodes)
        child = XMLNode("element", f"t{i % 3}")
        parent.append(child)
        nodes.append(child)
        if leaves and rng.random() < 0.5:
            child.add_attribute("a", str(i % 3))
        if leaves and rng.random() < 0.5:
            parent.add_text(f"x{i % 2}")
    document_node = XMLNode(DOCUMENT, "#document")
    document_node.append(root)
    return label_document(Document(document_node, "rand.xml"))


@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 40))
@settings(max_examples=50, deadline=None)
def test_structural_ids_encode_exact_ancestry(seed, size):
    doc = _random_document(random.Random(seed), size)
    elements = list(doc.elements())
    sids = {id(n): id_of(n, "s") for n in elements}
    for a in elements:
        for b in elements:
            related = sids[id(a)].is_ancestor_of(sids[id(b)])
            assert related == (id(a) in {id(x) for x in b.ancestors()})


@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 40))
@settings(max_examples=50, deadline=None)
def test_dewey_parent_matches_tree_parent(seed, size):
    doc = _random_document(random.Random(seed), size)
    for node in doc.elements():
        parent = node.parent
        if parent is None or parent.kind == DOCUMENT:
            continue
        assert id_of(node, "p").parent() == id_of(parent, "p")


@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_pre_order_equals_document_order(seed, size):
    doc = _random_document(random.Random(seed), size)
    elements = list(doc.elements())
    pres = [id_of(n, "s").pre for n in elements]
    assert pres == sorted(pres)
    # depth really is the ancestor count
    for n in elements:
        assert id_of(n, "s").depth == len(list(n.ancestors()))


# --------------------------------------------------------------------------
# Formula algebra over sampled points
# --------------------------------------------------------------------------

_constants = st.integers(min_value=-5, max_value=5)
_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def _formulas(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return Formula.compare(draw(_ops), draw(_constants))
    left = draw(_formulas(depth=depth - 1))
    right = draw(_formulas(depth=depth - 1))
    combinator = draw(st.sampled_from(["and", "or", "not"]))
    if combinator == "and":
        return left & right
    if combinator == "or":
        return left | right
    return ~left


_POINTS = [x / 2 for x in range(-14, 15)]


def _truth_table(formula):
    return tuple(formula.evaluate(p) for p in _POINTS)


@given(_formulas(), _formulas())
@settings(max_examples=120, deadline=None)
def test_conjunction_is_pointwise_and(f, g):
    assert _truth_table(f & g) == tuple(
        a and b for a, b in zip(_truth_table(f), _truth_table(g))
    )


@given(_formulas(), _formulas())
@settings(max_examples=120, deadline=None)
def test_disjunction_is_pointwise_or(f, g):
    assert _truth_table(f | g) == tuple(
        a or b for a, b in zip(_truth_table(f), _truth_table(g))
    )


@given(_formulas())
@settings(max_examples=120, deadline=None)
def test_negation_is_pointwise_not(f):
    assert _truth_table(~f) == tuple(not a for a in _truth_table(f))
    assert _truth_table(~~f) == _truth_table(f)


@given(_formulas(), _formulas())
@settings(max_examples=120, deadline=None)
def test_implication_sound_on_points(f, g):
    if f.implies(g):
        for a, b in zip(_truth_table(f), _truth_table(g)):
            assert (not a) or b


@given(_formulas())
@settings(max_examples=120, deadline=None)
def test_unsatisfiable_iff_empty_truth_table(f):
    # interval normal form is exact over numeric points: is_false must
    # coincide with "no sampled integer point satisfies f" whenever the
    # formula only mentions the sampled constants
    if f.is_false:
        assert not any(_truth_table(f))
    if not f.satisfiable():
        assert f.is_false
