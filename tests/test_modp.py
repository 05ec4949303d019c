"""Prime-field linear algebra kernel: frozen cases plus random properties."""

from hypothesis import given, settings, strategies as st

from sackit.modp import Span, kernel_basis, rank, rref, sparse_kernel


def solve(rows, rhs, p):
    """One solution of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(aug, p)
    sol = [0] * ncols
    for row, pcol in zip(reduced, pivots):
        if pcol == ncols:
            return None  # pivot in the constant column
        sol[pcol] = row[ncols]
    return sol


def matmul_vec(rows, vec, p):
    return [sum(a * b for a, b in zip(row, vec)) % p for row in rows]


def test_rref_frozen():
    rows, pivots = rref([[2, 4], [1, 2]], 5)
    assert pivots == [0]
    assert rows == [[1, 2]]
    # singular over F_2 (row3 = row1 + row2) though invertible over Q
    rows, pivots = rref([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2)
    assert pivots == [0, 1]
    assert rows == [[1, 0, 1], [0, 1, 1]]
    rows, pivots = rref([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 5)
    assert pivots == [0, 1, 2]
    assert rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rref([], 7) == ([], [])
    assert rref([[0, 0]], 7) == ([], [])


def test_rref_is_fully_reduced():
    rows, pivots = rref([[1, 2, 3], [4, 5, 6], [7, 8, 10]], 11)
    for i, col in enumerate(pivots):
        for j, row in enumerate(rows):
            assert row[col] == (1 if i == j else 0)


def test_rank_frozen():
    assert rank([[1, 2], [2, 4]], 5) == 1
    assert rank([[1, 2], [2, 4]], 3) == 1
    assert rank([[1, 1], [1, 2]], 3) == 2
    assert rank([], 3) == 0


def test_kernel_basis_frozen():
    assert kernel_basis([[1, 0], [0, 1]], 2, 5) == []
    assert kernel_basis([[1, 2]], 2, 5) == [[3, 1]]  # -2 = 3 mod 5
    assert kernel_basis([], 3, 5) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    two = kernel_basis([[1, 1, 1]], 3, 7)
    assert len(two) == 2
    for v in two:
        assert matmul_vec([[1, 1, 1]], v, 7) == [0]
    assert sparse_kernel([], 7) == []
    assert sparse_kernel([{}], 7) == [{0: 1}]
    assert sparse_kernel([{2: 3}, {0: 1}, {2: 3}], 7) == [{0: 6, 2: 1}]


def test_solve_frozen():
    assert solve([[1, 2], [0, 1]], [5, 2], 7) == [1, 2]
    assert solve([[1, 1], [1, 1]], [1, 2], 7) is None
    assert solve([], [0], 7) is None
    assert solve([[2]], [1], 5) == [3]  # 2 * 3 = 6 = 1 mod 5


matrix = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        min_size=1,
        max_size=4,
    )
)


@settings(max_examples=60, deadline=None)
@given(matrix, st.sampled_from([2, 5, 7, 32003]))
def test_kernel_vectors_annihilate(rows, p):
    ncols = len(rows[0])
    basis = kernel_basis(rows, ncols, p)
    assert len(basis) == ncols - rank(rows, p)
    for vec in basis:
        assert matmul_vec(rows, vec, p) == [0] * len(rows)
    # rref does not change the row space
    reduced, _ = rref(rows, p)
    assert rank(reduced + rows, p) == rank(rows, p)


@settings(max_examples=60, deadline=None)
@given(matrix, st.data())
def test_solve_round_trip(rows, data):
    p = 7
    ncols = len(rows[0])
    x = [data.draw(st.integers(0, p - 1)) for _ in range(ncols)]
    rhs = matmul_vec(rows, x, p)
    got = solve(rows, rhs, p)
    assert got is not None
    assert matmul_vec(rows, got, p) == rhs


def as_dict(vec):
    return {i: x for i, x in enumerate(vec) if x}


@settings(max_examples=40, deadline=None)
@given(matrix, st.sampled_from([2, 7]))
def test_span_tracks_rank(rows, p):
    span = Span(p)
    current = []
    for row in rows:
        grew = span.add(as_dict(row))
        assert grew == (rank(current + [row], p) > rank(current, p))
        current.append(row)
        assert not span.reduce(as_dict(row))
    assert span.dim == rank(rows, p)
    assert not span.reduce({})


sparse_entries = st.sampled_from([0, 0, 0, 0, 1, 2, 6])
sparse_matrix = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda shape: st.lists(
        st.lists(sparse_entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@settings(max_examples=60, deadline=None)
@given(matrix, st.sampled_from([2, 7, 32003]), st.data())
def test_span_reduce_decides_membership(rows, p, data):
    span = Span(p)
    for row in rows:
        span.add(as_dict(row))
    assert span.dim == rank(rows, p)
    n = len(rows[0])
    probes = data.draw(st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                                max_size=4))
    for vec in rows + probes:
        rem = span.reduce(as_dict(vec))
        assert not rem.keys() & span.rows.keys()  # zero at every leading column
        assert (not rem) == (rank(rows + [vec], p) == rank(rows, p))


@settings(max_examples=80, deadline=None)
@given(sparse_matrix, st.sampled_from([2, 7, 32003]))
def test_sparse_kernel_is_the_canonical_kernel(rows, p):
    # columns that share no nonzero row fall into separate blocks
    ncols = len(rows[0])
    columns = [as_dict(col) for col in zip(*rows)]
    dense = kernel_basis(rows, ncols, p)
    assert sparse_kernel(columns, p) == [as_dict(v) for v in dense]
