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
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self, items) -> list[list[int]]:
        """The classes met by items, in order of first appearance, each
        listing its items in the order given."""
        out: dict[int, list[int]] = {}
        for x in items:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())
