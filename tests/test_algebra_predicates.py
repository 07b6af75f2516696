"""Tests for predicates over nested tuples."""

import pytest

from repro.algebra import (
    ANCESTOR,
    PARENT,
    And,
    Attr,
    Compare,
    Const,
    IsNull,
    NestedTuple,
    Not,
    NotNull,
    Or,
)
from repro.xmldata import id_of, load


@pytest.fixture()
def doc():
    return load("<a><b><c/></b></a>")


def sid(doc, label):
    node = next(n for n in doc.elements() if n.label == label)
    return id_of(node, "s")


def test_compare_constant():
    t = NestedTuple({"x": 5})
    assert Compare(Attr("x"), "=", Const(5)).holds(t)
    assert Compare(Attr("x"), ">", Const(3)).holds(t)
    assert not Compare(Attr("x"), "<", Const(3)).holds(t)
    assert Compare(Attr("x"), "!=", Const(4)).holds(t)
    assert Compare(Attr("x"), "<=", Const(5)).holds(t)
    assert Compare(Attr("x"), ">=", Const(5)).holds(t)


def test_compare_two_attributes():
    t = NestedTuple({"x": 5, "y": 5})
    assert Compare(Attr("x"), "=", Attr("y")).holds(t)


def test_compare_across_join_sides():
    pred = Compare(Attr("x", 0), "=", Attr("y", 1))
    assert pred.holds(NestedTuple({"x": 1}), NestedTuple({"y": 1}))
    assert not pred.holds(NestedTuple({"x": 1}), NestedTuple({"y": 2}))


@pytest.mark.parametrize("op", ["=", "!=", "<", ">="])
@pytest.mark.parametrize(
    "pred_of",
    [
        lambda op: Compare(Attr("x", 0), op, Attr("c/v", 1)),  # hoisted
        lambda op: Compare(Attr("c/v", 1), op, Attr("x", 0)),  # sides swapped
        lambda op: Compare(Attr("x", 0), op, Const(3)),
        lambda op: And((Compare(Attr("x", 0), op, Attr("c/v", 1)),)),
    ],
)
def test_join_test_agrees_with_holds_on_every_pair(op, pred_of):
    """A join's pair test (operand values read once per row) decides every
    pair exactly as ``holds`` does: nested paths, ⊥, empty collections and
    string/number coercion included."""
    lefts = [NestedTuple({"x": x}) for x in (None, 3, "3", "abc", 7.5)]
    lefts.append(lefts[1])  # the same row twice
    rights = [
        NestedTuple({"c": [NestedTuple({"v": v}) for v in values]})
        for values in ([], [None], [3], ["3", 9], ["abc", 1], [7.5, None])
    ]
    pred = pred_of(op)
    test = pred.join_test(lefts, rights)
    for a in lefts:
        for b in rights:
            assert test(a, b) == pred.holds(a, b), (a, b)


def test_right_side_without_right_tuple_raises():
    pred = Compare(Attr("x", 0), "=", Attr("y", 1))
    with pytest.raises(ValueError):
        pred.holds(NestedTuple({"x": 1}))


def test_nested_existential_semantics():
    t = NestedTuple(
        {"c": [NestedTuple({"v": 1}), NestedTuple({"v": 5})]}
    )
    assert Compare(Attr("c/v"), "=", Const(5)).holds(t)
    assert not Compare(Attr("c/v"), "=", Const(9)).holds(t)


def test_null_never_compares():
    t = NestedTuple({"x": None})
    assert not Compare(Attr("x"), "=", Const(None)).holds(t)
    assert not Compare(Attr("x"), "<", Const(5)).holds(t)


def test_numeric_string_coercion():
    t = NestedTuple({"x": "1999"})
    assert Compare(Attr("x"), "=", Const(1999)).holds(t)
    assert Compare(Attr("x"), ">", Const(1000)).holds(t)
    assert not Compare(Attr("x"), ">", Const(2000)).holds(t)


def test_incomparable_types_are_false_not_error():
    t = NestedTuple({"x": "abc"})
    assert not Compare(Attr("x"), "<", Const(5)).holds(t)


def test_unknown_operator_rejected():
    with pytest.raises(ValueError):
        Compare(Attr("x"), "~~", Const(1))


def test_structural_parent_and_ancestor(doc):
    t = NestedTuple({"a": sid(doc, "a"), "b": sid(doc, "b"), "c": sid(doc, "c")})
    assert Compare(Attr("a"), PARENT, Attr("b")).holds(t)
    assert not Compare(Attr("a"), PARENT, Attr("c")).holds(t)
    assert Compare(Attr("a"), ANCESTOR, Attr("c")).holds(t)
    assert not Compare(Attr("c"), ANCESTOR, Attr("a")).holds(t)


def test_boolean_combinators():
    t = NestedTuple({"x": 5, "y": 1})
    gt3 = Compare(Attr("x"), ">", Const(3))
    eq9 = Compare(Attr("y"), "=", Const(9))
    assert And((gt3, Not(eq9))).holds(t)
    assert Or((eq9, gt3)).holds(t)
    assert not And((gt3, eq9)).holds(t)


def test_is_null_and_not_null():
    t = NestedTuple({"x": None, "y": 2, "c": []})
    assert IsNull(Attr("x")).holds(t)
    assert not IsNull(Attr("y")).holds(t)
    assert NotNull(Attr("y")).holds(t)
    assert not NotNull(Attr("x")).holds(t)
    # empty collection: nothing reachable ⇒ null
    assert IsNull(Attr("c/v")).holds(t)
    assert not NotNull(Attr("c/v")).holds(t)


def test_repr_is_informative():
    pred = Compare(Attr("a"), PARENT, Attr("b", 1))
    assert "≺" in repr(pred)
    assert "⊥" in repr(IsNull(Attr("x")))
