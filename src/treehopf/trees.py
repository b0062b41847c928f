"""Planar binary trees: construction, decomposition, enumeration, text encoding.

A tree is either the root tree ``e`` (zero internal vertices) or the graft
``l v r`` of two smaller trees.  Trees are interned, so structural equality
coincides with identity and hashing is cheap.  Once an order is listed, its
level is its intern table, and grafting finds a tree of that order by rank;
only the trees of orders not yet listed are kept in a pool.  The over and
under products graft one tree onto the leftmost / rightmost branch of the
other; ``e`` is a two-sided unit for both and each product is associative.  Trees are totally
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

    __slots__ = ("left", "right", "order", "rank")

    def __init__(self, left: Optional["Tree"], right: Optional["Tree"], rank: Optional[int] = None):
        self.left = left
        self.right = right
        self.order = 0 if left is None else left.order + right.order + 1
        self.rank = 0 if left is None else rank

    def sort_key(self) -> tuple[int, int]:
        """The canonical key (order, rank), rank the 0-based position in the level.

        A tree of a listed order got its rank when its level was built (see
        _level).  For one of an order not yet listed the rank is computed on
        first read.  In a level a larger left subtree comes first, then the
        left subtrees decide, then the right ones.  So rank(l v r) = A +
        rank(l) C(|r|) + rank(r), A the number of trees of its order m with
        left order above |l|: a sum of |r| terms C(k) C(m-1-k), or C(m) minus
        a sum of |l| + 1 (Segner), whichever is shorter.  Computed for the
        tree and its unranked subtrees, children first, from an explicit
        stack."""
        if self.rank is None:
            cat = _catalan_table(self.order)
            stack = [self]
            while stack:
                s = stack[-1]
                l, r = s.left, s.right
                if l.rank is None:
                    stack.append(l)
                elif r.rank is None:
                    stack.append(r)
                else:
                    stack.pop()
                    m, a, b = s.order, l.order, r.order
                    # C(k) C(m-1-k) over k > a, or C(m) minus the terms k <= a.
                    if b <= a + 1:
                        above = sum(x * y for x, y in zip(cat[a + 1 : m], reversed(cat[:b])))
                    else:
                        above = cat[m] - sum(x * y for x, y in zip(cat[: a + 1], reversed(cat[b:m])))
                    s.rank = above + l.rank * cat[b] + r.rank
        return self.order, self.rank

    def __repr__(self) -> str:
        return f"Tree({render(self)})"

    def __str__(self) -> str:
        return render(self)


E = Tree(None, None)

# The listed levels: _enum_cache[m] holds every tree of order m, in
# canonical order, each at the index of its rank, and _offsets[m][a] is the
# index of the first tree of order m whose left subtree has order a.
_enum_cache: list[list[Tree]] = [[E]]
_offsets: list[list[int]] = [[]]

# The trees of orders not yet listed, keyed by their subtrees: a Tree hashes
# and compares by identity.
_pool: dict[tuple[Tree, Tree], Tree] = {}


def graft(left: Tree, right: Tree) -> Tree:
    """Join two trees under a new root.  order(l v r) = |l| + |r| + 1.

    A tree of a listed order is read from its level by rank: both subtrees
    have lower orders, so they are listed and ranked too.  A tree of any
    other order is interned in the pool."""
    m = left.order + right.order + 1
    if m < len(_enum_cache):
        if right is E:  # the first block of the level, left order m - 1
            return _enum_cache[m][left.rank]
        return _enum_cache[m][_offsets[m][left.order] + left.rank * len(_enum_cache[right.order]) + right.rank]
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


def _level(n: int) -> list[Tree]:
    """The cached list of all trees of order n; callers must not mutate it.

    A listed level is the intern table of its order.  It is built in
    canonical order, left orders descending, then left and right subtrees in
    their own levels' order, so each tree's rank is its index and no sort is
    needed; each tree is constructed with its rank.  A tree the pool already
    holds then takes the place of the one constructed at the rank its
    sort_key gives, so it is listed as itself.  Only once the level and its
    block offsets are appended are its trees dropped from the pool, so a
    build that raises leaves the pool and the cache as they were, apart from
    the levels already finished.

    The missing levels are built with the cyclic garbage collector paused.
    Each batch of allocations would start a collection that traverses the
    older trees again.  None of them can free anything: a tree refers only
    to smaller trees, so trees never form a cycle.  The collector is enabled
    again on the way out, even on an error, if and only if it was enabled on
    entry.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    if n < len(_enum_cache):
        return _enum_cache[n]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        pooled: dict[int, list[Tree]] = {}
        for t in _pool.values():
            if t.order <= n:
                pooled.setdefault(t.order, []).append(t)
        while n >= len(_enum_cache):
            m = len(_enum_cache)
            level: list[Tree] = []
            offsets = [0] * m
            for a in range(m - 1, -1, -1):
                offsets[a] = len(level)
                rights = _enum_cache[m - 1 - a]
                for l in _enum_cache[a]:
                    for r in rights:
                        level.append(Tree(l, r, len(level)))
            mine = pooled.get(m, ())
            for t in mine:
                level[t.sort_key()[1]] = t
            _enum_cache.append(level)
            _offsets.append(offsets)
            for t in mine:
                del _pool[t.left, t.right]
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
    """An integer for a one-line message: the number when it has at most
    COUNT_DIGITS_MAX digits, else 'a D-digit number' ('a negative D-digit
    number' below 0).  The digits are counted from the bit length, since a
    long integer's ``str`` is slow and, past 4300 digits, refused."""
    if abs(n) < 10**COUNT_DIGITS_MAX:
        return str(n)
    digits = int((n.bit_length() - 1) * math.log10(2))
    while abs(n) >= 10**digits:
        digits += 1
    return f"a {'negative ' if n < 0 else ''}{digits}-digit number"


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
        name = f"Y{number_text(n)}.{number_text(k)}"
        raise ValueError(f"no tree named {name}: order {number_text(n)} has {_count_text(count)} trees")
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
