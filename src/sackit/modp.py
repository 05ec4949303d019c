"""Exact linear algebra over a prime field, on sparse vectors.

Vectors are dicts {position: coefficient} that hold only nonzero
coefficients; the syzygy engine works on them alone, because its k-matrices
are (rank·dim A)×(s·dim A) with a handful of nonzeros per column.  ``Span``
keeps sparse echelon rows, and ``sparse_kernel`` takes a kernel in one pass
of a ``Span``.  ``rref``, ``rank`` and ``kernel_basis`` take dense matrices,
lists of rows of Python ints reduced into [0, p); no library path calls
them, and they are the reference the tests check the sparse forms against.

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
    """The canonical kernel basis of the matrix whose columns are the sparse
    vectors ``columns``, as sparse vectors over the column indices: one
    vector per column dependent on the earlier ones, with 1 at that column
    and minus its coefficients on the earlier independent columns.

    One ``Span`` pass: column j is reduced together with a unit entry at
    shift + j, past every row index.  A remainder with a position below
    shift makes column j independent, and it joins the span; otherwise the
    remainder, shifted back, is column j's kernel vector.
    """
    shift = 1 + max((r for col in columns for r in col), default=-1)
    span, basis = Span(p), []
    for j, col in enumerate(columns):
        rem = span.reduce({**col, shift + j: 1})
        if min(rem) < shift:
            span.add(rem)
        else:
            basis.append({pos - shift: x for pos, x in rem.items()})
    return basis


class Span:
    """Incrementally built row space of sparse vectors.

    Rows are kept in echelon form indexed by leading column, and scaled to
    lead with 1.  A candidate is reduced along its own support in increasing
    column order, so the span is independent of insertion order while the
    add() return value reports growth; a vector lies in the span exactly
    when reduce() leaves nothing.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict[int, int]] = {}

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """The remainder of the sparse vector vec modulo the span: the one
        vector of vec + span that is zero at every leading column."""
        p, rows = self.p, self.rows
        v = {i: x % p for i, x in vec.items() if x % p}
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

    def add(self, vec: dict[int, int]) -> bool:
        """Insert the sparse vector vec; True when it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        lead = min(v)
        inv = pow(v[lead], -1, self.p)
        self.rows[lead] = {col: (x * inv) % self.p for col, x in v.items()}
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)
