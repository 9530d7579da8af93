from hypothesis import given, settings, strategies as st

from reebforge.unionfind import UnionFind


def bfs_partition(n, edges):
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, parts = set(), []
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        part, queue = [], [s]
        while queue:
            x = queue.pop(0)
            part.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        parts.append(sorted(part))
    return parts


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 30))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=40))
    return n, edges


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_classes_equal_bfs_partition(case):
    n, edges = case
    uf = UnionFind(n)
    for a, b in edges:
        uf.union(a, b)
    assert uf.groups(range(n)) == bfs_partition(n, edges)


def test_union_hangs_first_root_under_second():
    uf = UnionFind(3)
    uf.union(0, 2)
    uf.union(2, 1)
    assert [uf.find(x) for x in range(3)] == [1, 1, 1]
