"""Independent combinatorial oracle: Littlewood-Richardson numbers by direct
skew-tableau enumeration, partition dictionaries for Grassmannian and
Lagrangian-Grassmannian Schubert cells, and the multiplicity-one scaling
check c = 1  =>  c stays 1 under simultaneous stretching.  The Grassmannian
cell of a partition, which only the tests read, lives in `flagcalc.oracle`.

The tableau counter is deliberately free of any polynomial or
divided-difference machinery so it can certify the cup-product engine.
"""

from __future__ import annotations

from .roots import ExactnessError


def normalize(parts):
    """Weakly decreasing tuple with trailing zeros stripped."""
    p = tuple(int(x) for x in parts)
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"{parts!r} is not weakly decreasing")
    if any(x < 0 for x in p):
        raise ValueError(f"{parts!r} has negative parts")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def is_strict(parts):
    p = normalize(parts)
    return all(p[i] > p[i + 1] for i in range(len(p) - 1))


def partitions_in_box(rows, cols):
    """All partitions with at most `rows` parts, each at most `cols`."""
    if rows < 0 or cols < 0:
        raise ValueError(f"box sides must be at least 0, got {rows} x {cols}")
    out = []

    def rec(prefix, maxpart):
        out.append(normalize(prefix))
        if len(prefix) == rows:
            return
        for p in range(min(maxpart, cols), 0, -1):
            rec(prefix + (p,), p)

    rec((), cols)
    return sorted(set(out), key=lambda p: (sum(p), p))


def lr_coefficient(lam, mu, nu):
    """c^nu_{lam,mu}: number of LR skew tableaux of shape nu/lam, content mu
    (weakly increasing rows, strictly increasing columns, reverse reading
    word a lattice word)."""
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if len(lam) > len(nu) or any(lam[i] > nu[i] for i in range(len(lam))):
        return 0
    if not mu:
        return 1
    rows = len(nu)
    lam_full = lam + (0,) * (rows - len(lam))
    cells = []  # reverse reading order: top row to bottom, right to left
    for i in range(rows):
        for j in range(nu[i] - 1, lam_full[i] - 1, -1):
            cells.append((i, j))
    nvals = len(mu)
    filling = {}
    counts = [0] * (nvals + 1)
    total = 0

    def rec(pos):
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        i, j = cells[pos]
        right = filling.get((i, j + 1))
        above = filling.get((i - 1, j))  # None when the cell above sits in lam
        above_in_skew = i > 0 and j >= lam_full[i - 1]
        hi = right if right is not None else nvals
        lo = (above + 1) if (above_in_skew and above is not None) else 1
        for t in range(lo, hi + 1):
            if counts[t] >= mu[t - 1]:
                continue
            if t > 1 and counts[t - 1] <= counts[t]:
                continue
            filling[(i, j)] = t
            counts[t] += 1
            rec(pos + 1)
            counts[t] -= 1
        filling.pop((i, j), None)

    rec(0)
    return total


def fulton_check(lam, mu, nu, n_max):
    """If c^nu_{lam,mu} = 1, verify c^{n nu}_{n lam, n mu} = 1 up to n_max."""
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    c1 = lr_coefficient(lam, mu, nu)
    report = {"lam": lam, "mu": mu, "nu": nu, "c": c1,
              "applicable": c1 == 1, "scaled": {}, "violations": []}
    if c1 != 1:
        return report
    for n in range(2, n_max + 1):
        cn = lr_coefficient(tuple(n * x for x in lam), tuple(n * x for x in mu),
                            tuple(n * x for x in nu))
        report["scaled"][n] = cn
        if cn != 1:
            report["violations"].append(n)
    return report


def fulton_sweep(rows, cols, n_max):
    """Exhaustive scan of the box: every triple with c = 1 is stretch-checked."""
    box = partitions_in_box(rows, cols)
    checked = 0
    violations = []
    for lam in box:
        for mu in box:
            for nu in box:
                rep = fulton_check(lam, mu, nu, n_max)
                if rep["applicable"]:
                    checked += 1
                    if rep["violations"]:
                        violations.append(rep)
    return {"rows": rows, "cols": cols, "n_max": n_max,
            "box_size": len(box), "checked": checked, "violations": violations}


# ---------------------------------------------------------------------------
# Schubert-cell dictionaries


def grassmannian_partition(ct, w):
    """Inverse of oracle.grassmannian_bijection: the partition read off the
    one-line notation of the cell ct.dual[w], whose first r values are the
    ascending head[i - 1] = lam[r - i] + i of oracle.grassmannian_cell."""
    r = ct.parabolic.crossed[0]
    cell = ct.dual[ct.canonical(w)]
    oneline = list(range(1, ct.parabolic.system.rank + 2))
    for i in cell.word:  # (v s_i)(j) = v(s_i(j)): swap positions i and i + 1
        oneline[i - 1], oneline[i] = oneline[i], oneline[i - 1]
    lam = normalize(tuple(oneline[r - i] - (r + 1 - i) for i in range(1, r + 1)))
    if sum(lam) != cell.length:
        raise ExactnessError(f"cell {cell!r} of length {cell.length} reads as {lam!r}")
    return lam


def _negated_values(ct, w):
    """Indices j with w(e_j) a negative coordinate vector (type C)."""
    l = ct.parabolic.system.rank
    out = set()
    for i in range(1, l + 1):
        f = tuple((1 if t == i - 1 else 0) - (1 if t == i - 2 and i >= 2 else 0)
                  for t in range(l))
        img = ct.wg.act_weight(w, f)
        x = [sum(img[t] for t in range(m, l)) for m in range(l)]
        nz = [(m + 1, x[m]) for m in range(l) if x[m]]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            raise ExactnessError(f"{w!r} does not act as a signed permutation")
        if nz[0][1] < 0:
            out.add(nz[0][0])
    return frozenset(out)


def lagrangian_cell(ct, a):
    """The W^P element whose Schubert cell has dimension |a|.

    a is a strict partition with parts <= l; the cell is the coset whose
    negated coordinates are {l+1-a_i}.
    """
    l = ct.parabolic.system.rank
    a = normalize(a)
    if not is_strict(a) or (a and a[0] > l):
        raise ValueError(f"{a!r} is not a strict partition with parts <= {l}")
    want = frozenset(l + 1 - x for x in a)
    w = next((w for w in ct.elements if _negated_values(ct, w) == want), None)
    if w is None or w.length != sum(a):
        raise ExactnessError(f"no cell of length {sum(a)} for {a!r}")
    return w


def lagrangian_bijection(ct, a):
    """Strict partition -> the codimension-|a| Schubert basis index."""
    return ct.dual[lagrangian_cell(ct, a)]


def lagrangian_partition(ct, w):
    """Inverse of lagrangian_bijection: the strict partition {l+1-j} over the
    coordinates j that the cell ct.dual[w] negates."""
    l = ct.parabolic.system.rank
    cell = ct.dual[ct.canonical(w)]
    a = tuple(sorted((l + 1 - j for j in _negated_values(ct, cell)), reverse=True))
    if sum(a) != cell.length:
        raise ExactnessError(f"cell {cell!r} of length {cell.length} negates {a!r}")
    return a
