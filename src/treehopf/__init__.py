"""Exact computer algebra on planar binary trees: the propagator and charge
Hopf algebras, their renormalization coactions, truncated series groups, and
the order-by-order propagator renormalization pipeline."""

from .trees import (
    Tree,
    E,
    Y,
    graft,
    un_graft,
    over,
    under,
    v_wrap,
    decompose_over,
    decompose_under,
    enumerate_trees,
    iter_rendered,
    tree_unrank,
    parse,
    render,
    tree_name,
    catalan,
)
from .algebra import Element, Tag, TensorElement, embed_tree, from_word, tensor, unit, zero
from . import hopf, qed, series, renorm, checks

__all__ = [
    "Tree",
    "E",
    "Y",
    "graft",
    "un_graft",
    "over",
    "under",
    "v_wrap",
    "decompose_over",
    "decompose_under",
    "enumerate_trees",
    "iter_rendered",
    "tree_unrank",
    "parse",
    "render",
    "tree_name",
    "catalan",
    "Element",
    "Tag",
    "TensorElement",
    "embed_tree",
    "from_word",
    "tensor",
    "unit",
    "zero",
    "hopf",
    "qed",
    "series",
    "renorm",
    "checks",
]
