"""The one union-find behind every connected-component count."""
from __future__ import annotations


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        """Hang a's root under b's root; callers that number classes by
        sorted root depend on this direction."""
        p = self.parent
        # find, inlined: unions dominate the surface and sweep passes
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        while p[b] != b:
            p[b] = p[p[b]]
            b = p[b]
        if a != b:
            p[a] = b

    def groups(self, items) -> list[list[int]]:
        """The classes met by items, in order of first appearance, each
        listing its items in the order given."""
        out: dict[int, list[int]] = {}
        for x in items:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())

    def roots(self) -> list[int]:
        """The root of every class, ascending."""
        return [x for x, p in enumerate(self.parent) if x == p]
