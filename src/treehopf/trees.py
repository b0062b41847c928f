"""Planar binary trees: construction, decomposition, enumeration, text encoding.

A tree is either the root tree ``e`` (zero internal vertices) or the graft
``l v r`` of two smaller trees.  Trees are interned, so structural equality
coincides with identity and hashing is cheap.  The over and under products
graft one tree onto the leftmost / rightmost branch of the other; ``e`` is a
two-sided unit for both and each product is associative.  Trees are totally
ordered by the key (order, rank) of :meth:`Tree.sort_key`, and ``Yn.k`` names
the k-th tree of order n in that order.
"""

from __future__ import annotations

import functools
import gc
import math
import re
from typing import Iterator, Optional, Sequence


class Tree:
    """Immutable planar binary tree.  Build via :data:`E` and :func:`graft`."""

    __slots__ = ("left", "right", "order", "_key")

    def __init__(self, left: Optional["Tree"], right: Optional["Tree"]):
        self.left = left
        self.right = right
        self.order = 0 if left is None else left.order + right.order + 1
        self._key = (0, 0) if left is None else None

    def sort_key(self) -> tuple[int, int]:
        """The canonical key (order, rank), rank the 0-based position in the level.

        In a level a larger left subtree comes first, then the left subtrees
        decide, then the right ones.  So rank(l v r) = A + rank(l) C(|r|) +
        rank(r), A the number of trees of its order m with left order above
        |l|: a sum of |r| terms C(k) C(m-1-k), or C(m) minus a sum of |l| + 1
        (Segner), whichever is shorter.  Computed on first read for the tree
        and its keyless subtrees, children first, from an explicit stack."""
        if self._key is None:
            cat = _catalan_table(self.order)
            stack = [self]
            while stack:
                s = stack[-1]
                l, r = s.left, s.right
                if l._key is None:
                    stack.append(l)
                elif r._key is None:
                    stack.append(r)
                else:
                    stack.pop()
                    m, a, b = s.order, l.order, r.order
                    # C(k) C(m-1-k) over k > a, or C(m) minus the terms k <= a.
                    if b <= a + 1:
                        above = sum(x * y for x, y in zip(cat[a + 1 : m], reversed(cat[:b])))
                    else:
                        above = cat[m] - sum(x * y for x, y in zip(cat[: a + 1], reversed(cat[b:m])))
                    s._key = (m, above + l._key[1] * cat[b] + r._key[1])
        return self._key

    def __repr__(self) -> str:
        return f"Tree({render(self)})"

    def __str__(self) -> str:
        return render(self)


E = Tree(None, None)

# Keyed by the subtrees themselves: a Tree hashes and compares by identity.
_pool: dict[tuple[Tree, Tree], Tree] = {}


def graft(left: Tree, right: Tree) -> Tree:
    """Join two trees under a new root.  order(l v r) = |l| + |r| + 1."""
    key = (left, right)
    t = _pool.get(key)
    if t is None:
        t = Tree(left, right)
        _pool[key] = t
    return t


def un_graft(t: Tree) -> tuple[Tree, Tree]:
    """Split a nonroot tree into its unique pair of grafted subtrees."""
    if t is E:
        raise ValueError("the root tree e does not decompose")
    return t.left, t.right


def v_wrap(t: Tree) -> Tree:
    """V(t) = e v t, the generators of the over product."""
    return graft(E, t)


def over(t: Tree, s: Tree) -> Tree:
    """t / s: graft t onto the leftmost branch of s."""
    if s is E:
        return t
    return graft(over(t, s.left), s.right)


def under(t: Tree, s: Tree) -> Tree:
    """t \\ s: graft s onto the rightmost branch of t."""
    if t is E:
        return s
    return graft(t.left, under(t.right, s))


def decompose_over(t: Tree) -> list[Tree]:
    """Arguments (u_1, ..., u_k) of the unique factorization t = V(u_1)/.../V(u_k)."""
    out: list[Tree] = []
    while t is not E:
        out.append(t.right)
        t = t.left
    out.reverse()
    return out


def decompose_under(t: Tree) -> list[Tree]:
    """Arguments (u_1, ..., u_k) of the unique factorization t = (u_1 v e)\\...\\(u_k v e)."""
    out: list[Tree] = []
    while t is not E:
        out.append(t.left)
        t = t.right
    return out


def compose_over(us: Sequence[Tree]) -> Tree:
    """V(u_1)/.../V(u_k), grafted letter by letter: t / V(u) = t v u."""
    return functools.reduce(graft, us, E)


def compose_under(us: Sequence[Tree]) -> Tree:
    """(u_1 v e)\\...\\(u_k v e), grafted from the last letter back: (u v e) \\ t = u v t."""
    t = E
    for u in reversed(us):
        t = graft(u, t)
    return t


def catalan(n: int) -> int:
    return math.factorial(2 * n) // (math.factorial(n) * math.factorial(n + 1))


_enum_cache: list[list[Tree]] = [[E]]


def _level(n: int) -> list[Tree]:
    """The cached list of all trees of order n; callers must not mutate it.

    The missing levels are built with the cyclic garbage collector paused.
    Interning allocates a tree and a pool key per tree, and each batch of
    allocations would start a collection that traverses the older trees
    again.  None of them can free anything: a tree refers only to smaller
    trees, so trees never form a cycle.  The collector is enabled again on
    the way out, even on an error, if and only if it was enabled on entry.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    if n < len(_enum_cache):
        return _enum_cache[n]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        while n >= len(_enum_cache):
            m = len(_enum_cache)
            # Left orders descend, and left then right subtrees come in canonical
            # order: this is already the order of Tree.sort_key, so no sort.
            _enum_cache.append(
                [
                    graft(l, r)
                    for k in range(m)
                    for l in _enum_cache[m - 1 - k]
                    for r in _enum_cache[k]
                ]
            )
    finally:
        if was_enabled:
            gc.enable()
    return _enum_cache[n]


def enumerate_trees(n: int) -> list[Tree]:
    """All trees of order n, in canonical order.  Length is the n-th Catalan number.

    A level is interned once, with the cyclic collector paused (see _level).
    """
    return list(_level(n))


def _joined(texts: list, m: int) -> Iterator[str]:
    """The texts of order m from those of orders < m, in the order of _level."""
    return (f"({l} v {r})" for k in range(m) for l in texts[m - 1 - k] for r in texts[k])


class _Regenerated:
    """The texts of order m, generated afresh on every pass instead of held."""

    def __init__(self, texts: list, m: int):
        self.texts, self.m = texts, m

    def __iter__(self) -> Iterator[str]:
        return _joined(self.texts, self.m)


def iter_rendered(n: int) -> Iterator[str]:
    """render(t) for every tree t of order n, in canonical order, building no tree.

    Only the texts of orders below n - 2 are held.  Orders n - 1 and n - 2,
    the two largest below n, meet only orders 0 and 1, one text each, so
    they are generated again on every pass instead of held; order n is
    generated.  A transient of the stream therefore stays small (0.7 MB at
    order 12) next to whatever the caller has already filled.  Each
    regenerated level holds only the lower texts, not the list that holds
    it, so no reference cycle forms and the held texts are freed as soon as
    the stream ends.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    texts: list = [["e"]]
    for m in range(1, n):
        texts.append(list(_joined(texts, m)) if m < n - 2 else _Regenerated(texts[:m], m))
    return _joined(texts, n) if n else iter(texts[0])


def all_trees_up_to(n: int) -> list[Tree]:
    out: list[Tree] = []
    for m in range(n + 1):
        out.extend(_level(m))
    return out


def _catalan_table(n: int) -> list[int]:
    """The Catalan numbers C(0), ..., C(n)."""
    cat = [1]
    for i in range(n):
        cat.append(cat[-1] * 2 * (2 * i + 1) // (i + 2))
    return cat


def tree_index(t: Tree) -> tuple[int, int]:
    """(n, k) such that t is the k-th tree (1-based) of order n in canonical order."""
    n, rank = t.sort_key()
    return n, rank + 1


# Most digits of a tree count that a one-line message quotes in full.
COUNT_DIGITS_MAX = 12


def number_text(n: int) -> str:
    """A nonnegative integer for a one-line message: the number when it has
    at most COUNT_DIGITS_MAX digits, else 'a D-digit number'.  The digits
    are counted from the bit length, since a long integer's ``str`` is slow
    and, past 4300 digits, refused."""
    if n < 10**COUNT_DIGITS_MAX:
        return str(n)
    digits = int((n.bit_length() - 1) * math.log10(2))
    while n >= 10**digits:
        digits += 1
    return f"a {digits}-digit number"


def _count_text(count: int) -> str:
    """A tree count for a one-line message: '5', or 'a 4811-digit number of'."""
    text = number_text(count)
    return text if count < 10**COUNT_DIGITS_MAX else f"{text} of"


def tree_unrank(n: int, k: int) -> Tree:
    """The k-th tree (1-based) of order n in canonical order, the inverse of
    tree_index: Tree.sort_key's rank read top-down, from an explicit stack.
    A level's blocks, left order m - 1 down to 0, are walked from its nearer
    end: the block sizes C(a) C(m-1-a) are symmetric, so a rank in the first
    half lies in a block of left order at least (m-1)/2, and each node costs
    min(|l|, |r|) + 1 products."""
    cat = _catalan_table(n)
    count = cat[n] if n >= 0 else 0
    if not 1 <= k <= count:
        raise ValueError(f"no tree named Y{n}.{k}: order {n} has {_count_text(count)} trees")
    built: list[Tree] = []
    todo: list[Optional[tuple[int, int]]] = [(n, k - 1)]
    while todo:
        task = todo.pop()
        if task is None:
            right = built.pop()
            built.append(graft(built.pop(), right))
            continue
        m, rank = task
        if m == 0:
            built.append(E)
            continue
        if 2 * rank < cat[m]:
            a = m - 1
            while rank >= (size := cat[a] * cat[m - 1 - a]):
                rank -= size
                a -= 1
        else:
            # rest: the trees from this one to the end of the level.
            a, rest = 0, cat[m] - rank
            while rest > (size := cat[a] * cat[m - 1 - a]):
                rest -= size
                a += 1
            rank = size - rest
        left_rank, right_rank = divmod(rank, cat[m - 1 - a])
        todo += [None, (m - 1 - a, right_rank), (a, left_rank)]
    return built[0]


def tree_name(t: Tree) -> str:
    n, k = tree_index(t)
    return f"Y{n}.{k}"


def render(t: Tree) -> str:
    """Canonical text: ``e`` or ``(l v r)`` with single spaces.  Built from an
    explicit stack of the trees and separators still to write."""
    out: list[str] = []
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s.__class__ is str:
            out.append(s)
        elif s is E:
            out.append("e")
        else:
            out.append("(")
            todo += (")", s.right, " v ", s.left)
    return "".join(out)


_NAME_RE = re.compile(r"Y(\d+)\.(\d+)$")

# Longest piece of an input text that an error message quotes.
ECHO_MAX = 60


def clip(text: str) -> str:
    """The text cut to ECHO_MAX characters, '...' marking a cut, for quoting
    input in a one-line error message."""
    return text if len(text) <= ECHO_MAX else text[: ECHO_MAX - 3] + "..."


def read_name(text: str) -> Optional[tuple[int, int]]:
    """(n, k) of a canonical name ``Yn.k``, or None for other text.  A name
    whose numbers have more digits than Python converts to an int (4300 by
    default) cannot be read, and is refused as no tree."""
    m = _NAME_RE.match(text)
    if m is None:
        return None
    try:
        return int(m.group(1)), int(m.group(2))
    except ValueError:
        raise ValueError(f"no tree named {clip(text)}: its numbers are too long to read") from None


def parse(text: str) -> Tree:
    """Parse the tree grammar; also accepts canonical names ``Yn.k``.

    A name is unranked directly, at a cost that grows with the square of
    its order: the Catalan numbers up to C(n) are held as big integers.
    ``parse("Y20000.1")`` takes about 0.14 s and raises a fresh process's
    peak RSS from 16 to 71 MB (2 CPUs, Python 3.11.7)."""
    s = text.strip()
    name = read_name(s)
    if name is not None:
        n, k = name
        count = catalan(n)
        if not 1 <= k <= count:
            # The name as written, e.g. with leading zeros.
            raise ValueError(f"no tree named {clip(s)}: order {n} has {_count_text(count)} trees")
        return tree_unrank(n, k)

    # One entry per open "(": None until its left subtree is parsed, then
    # that subtree.  An explicit stack, so the depth of a tree is not bounded
    # by the recursion limit.
    lefts: list[Optional[Tree]] = []
    pos = 0
    while True:
        pos = _skip_ws(s, pos)
        if pos >= len(s) or s[pos] != "e":
            pos = _expect(s, pos, "(", text)
            lefts.append(None)
            continue
        pos += 1
        t = E
        # t is whole: it is the right subtree of every open graft that has
        # its left one, innermost first.
        while lefts and lefts[-1] is not None:
            pos = _expect(s, pos, ")", text)
            t = graft(lefts.pop(), t)
        if not lefts:
            break
        lefts[-1] = t
        pos = _expect(s, pos, "v", text)
    pos = _skip_ws(s, pos)
    if pos != len(s):
        raise ValueError(f"trailing input at position {pos} in {clip(text)!r}")
    return t


def _skip_ws(s: str, pos: int) -> int:
    while pos < len(s) and s[pos].isspace():
        pos += 1
    return pos


def _expect(s: str, pos: int, ch: str, text: str) -> int:
    """The position after ch, which must come next in s after any blanks."""
    pos = _skip_ws(s, pos)
    if pos >= len(s) or s[pos] != ch:
        raise ValueError(f"expected {ch!r} at position {pos} in {clip(text)!r}")
    return pos + 1


# Named small trees, in the canonical display order of each level.
Y = graft(E, E)
DEUXUN = graft(Y, E)
DEUXDEUX = graft(E, Y)
TROISUN = graft(DEUXUN, E)
TROISDEUX = graft(DEUXDEUX, E)
TROISTROIS = graft(Y, Y)
TROISQUATRE = graft(E, DEUXUN)
TROISCINQ = graft(E, DEUXDEUX)
