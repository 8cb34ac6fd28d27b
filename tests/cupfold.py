"""Products of linear combinations of Schubert classes, for the tests: a
fold over ring.row, the one product a ring defines on coset-table indices."""


def cup(ring, a, b):
    """The product of a = {index: c} and b = {index: c} in a ring with
    row(i, j) = {k: c^k_{i,j}}, zero coefficients left out."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            for k, c in ring.row(i, j).items():
                out[k] = out.get(k, 0) + x * y * c
    return {k: c for k, c in out.items() if c}
