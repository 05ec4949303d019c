"""Exact linear algebra over a prime field, dense and sparse.

Dense matrices are lists of rows of Python ints reduced into [0, p).  Sparse
vectors are dicts {position: coefficient} that hold only nonzero
coefficients; the syzygy engine works on them, because its k-matrices are
(rank·dim A)×(s·dim A) with a handful of nonzeros per column and fall apart
into many small independent blocks.  ``sparse_kernel`` takes a kernel per
connected block of the sparsity pattern with the dense ``kernel_basis``, and
``Span`` keeps sparse echelon rows.

Pivot selection is lexicographic (first usable column, first usable row), so
reduced forms, ranks, kernel bases and greedy span completions are
deterministic functions of the input.  Everything is arbitrary-precision
integer arithmetic; inverses come from pow(x, -1, p).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def rref(rows, p):
    """Reduced row echelon form.  Returns (reduced nonzero rows, pivot columns)."""
    mat = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat[:r], pivots


def rank(rows, p) -> int:
    return len(rref(rows, p)[1])


def kernel_basis(rows, ncols, p):
    """Canonical null-space basis of the matrix given by ``rows``.

    One basis vector per free column, in increasing free-column order; the
    vector has 1 at its free column and the negated reduced column at the
    pivot positions.
    """
    reduced, pivots = rref(rows, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, pcol in zip(reduced, pivots):
            if row[free]:
                vec[pcol] = (-row[free]) % p
        basis.append(vec)
    return basis


def connected_blocks(supports):
    """The indices of ``supports`` (a list of sets) grouped into connected
    blocks, two sets meeting when they share an element.  Blocks come in the
    order of their first index, and list their indices in increasing order."""
    parent = list(range(len(supports)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first: dict = {}  # element -> the first index whose set holds it
    for i, support in enumerate(supports):
        for key in support:
            a, b = find(i), find(first.setdefault(key, i))
            if a != b:
                parent[a] = b
    blocks: dict[int, list[int]] = {}
    for i in range(len(supports)):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def sparse_kernel(columns, p):
    """``kernel_basis`` of the matrix whose columns are the sparse vectors
    ``columns``, as sparse vectors over the column indices.

    The columns are grouped into the connected blocks of the sparsity pattern
    (two columns meet when they share a nonzero row) and each block gets its
    own dense ``kernel_basis``.  The reduced echelon form of a block diagonal
    matrix is the union of the blocks' forms, so the union of the block
    bases, ordered by free column, is the canonical basis of the whole
    matrix.  A canonical vector's free column is its largest position: its
    other nonzeros sit at pivots of rows that reach the free column.
    """
    basis = []
    for cols in connected_blocks(columns):
        support = sorted({r for c in cols for r in columns[c]})
        rows = {r: i for i, r in enumerate(support)}
        mat = [[0] * len(cols) for _ in rows]
        for j, c in enumerate(cols):
            for r, x in columns[c].items():
                mat[rows[r]][j] = x
        for vec in kernel_basis(mat, len(cols), p):
            basis.append({cols[j]: x for j, x in enumerate(vec) if x})
    basis.sort(key=max)
    return basis


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


class Span:
    """Incrementally built row space with membership tests.

    Rows are kept sparse, in echelon form indexed by leading column, and
    scaled to lead with 1.  A candidate, dense or sparse, is reduced along its
    own support in increasing column order, so the span is independent of
    insertion order while the add() return value reports growth.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict[int, int]] = {}

    def reduce(self, vec) -> dict[int, int]:
        """The remainder of vec modulo the span, sparse: the one vector of
        vec + span that is zero at every leading column."""
        p, rows = self.p, self.rows
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {i: x % p for i, x in items if x % p}
        heap = list(v)
        heapify(heap)
        while heap:
            lead = heappop(heap)
            f = v.get(lead)
            row = rows.get(lead)
            if not f or row is None:
                continue
            for col, x in row.items():
                y = v.get(col)
                if y is None:
                    heappush(heap, col)
                    y = 0
                y = (y - f * x) % p
                if y:
                    v[col] = y
                else:
                    del v[col]
        return v

    def add(self, vec) -> bool:
        """Insert vec; True when it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        lead = min(v)
        inv = pow(v[lead], -1, self.p)
        self.rows[lead] = {col: (x * inv) % self.p for col, x in v.items()}
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.rows)
