"""Row reduction over F_p on plain integer rows (lists/tuples of ints)."""

from __future__ import annotations


def rref(rows, p):
    """Reduced row echelon form.

    Returns (rows, pivot_cols) where rows is a tuple of nonzero tuples with
    leading 1s, strictly increasing pivot columns and zeros above pivots.
    """
    mat = [list(r) for r in rows if any(c % p for c in r)]
    ncols = len(mat[0]) if mat else (len(rows[0]) if rows else 0)
    for row in mat:
        for j in range(ncols):
            row[j] %= p
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        if inv != 1:
            mat[r] = [(c * inv) % p for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    out = tuple(tuple(row) for row in mat[:r] if any(row))
    return out, tuple(pivots)


def right_nullspace(rows, p, ncols):
    """Basis (RREF) of {x : A x = 0} for the matrix with the given rows."""
    reduced, pivots = rref(rows, p)
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in zip(reduced, pivots):
            vec[pc] = (-r[fc]) % p
        basis.append(tuple(vec))
    return rref(basis, p)[0] if basis else ()


def span_intersect_coordinates(rref_rows, keep_cols, p, ncols):
    """Vectors of the span supported on ``keep_cols`` (RREF, full width).

    keep_cols must be sorted.  Row-reduce with the complement columns first;
    rows whose reduced form vanishes on the complement span the intersection.
    Those rows are zero off ``keep_cols`` and their keep parts are in RREF in
    keep_cols order, the original column order, so each row's keep part
    written back into place gives the RREF of the intersection.
    """
    if not rref_rows:
        return ()
    slot = {j: pos for pos, j in enumerate(keep_cols)}
    n_out = ncols - len(slot)
    order = [j for j in range(ncols) if j not in slot] + list(keep_cols)
    red, _ = rref([[row[j] for j in order] for row in rref_rows], p)
    return tuple(
        tuple(row[n_out + slot[j]] if j in slot else 0 for j in range(ncols))
        for row in red
        if not any(row[:n_out])
    )
