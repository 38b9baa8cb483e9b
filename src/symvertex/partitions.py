"""Integer partitions as plain tuples.

A partition is a tuple of weakly decreasing positive ints, () for the empty
partition.  Everything downstream (Schur ring, oracle, vertex chains) keys
dicts by these tuples, so they must stay hashable and canonical: no trailing
zeros, always sorted.
"""


def partition(parts):
    """Validate an iterable as a partition and return it as a tuple.

    Trailing zeros are stripped; anything else out of order or negative is an
    error.
    """
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for i, x in enumerate(p):
        if x <= 0:
            raise ValueError("partition parts must be positive: %r" % (p,))
        if i > 0 and p[i - 1] < x:
            raise ValueError("partition parts must be weakly decreasing: %r" % (p,))
    return p


def weight(p):
    """Sum of the parts."""
    return sum(p)


def conjugate(p):
    """Transpose of the Young diagram."""
    if not p:
        return ()
    cols = []
    for j in range(p[0]):
        cols.append(sum(1 for x in p if x > j))
    return tuple(cols)


def contains(outer, inner):
    """True if the diagram of inner fits inside the diagram of outer."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def partitions_of(n, max_part=None, max_length=None):
    """All partitions of n in reverse-lexicographic (descending tuple) order.

    Optional caps on the largest part and on the number of parts; a
    negative max_length admits no partition, not even the empty one.
    """
    if max_part is None:
        max_part = n
    if max_length is None:
        max_length = n
    if n < 0 or max_length < 0:
        return []
    if n == 0:
        return [()]
    if max_length == 0:
        return []
    out = []
    for k in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - k, max_part=k, max_length=max_length - 1):
            out.append((k,) + rest)
    return out


def partitions_up_to(max_weight, max_length=None):
    """Partitions of every weight 0..max_weight, grouped by ascending weight,
    reverse-lex within a weight."""
    out = []
    for n in range(max_weight + 1):
        out.extend(partitions_of(n, max_length=max_length))
    return out


def subpartitions(p):
    """All partitions whose diagram fits inside p, reverse-lex order."""
    out = set()

    def rec(prefix, row, cap):
        out.add(tuple(prefix))
        if row >= len(p):
            return
        for x in range(min(p[row], cap), 0, -1):
            rec(prefix + [x], row + 1, x)

    rec([], 0, p[0] if p else 0)
    return sorted(out, reverse=True)


def hooks_inside(p):
    """All hook-shaped partitions (a, 1, 1, ..., 1) contained in p."""
    out = []
    for a in range(1, (p[0] if p else 0) + 1):
        for b in range(len(p)):
            h = (a,) + (1,) * b
            if contains(p, h):
                out.append(h)
    return sorted(out, reverse=True)


def parse_partition(text):
    """Parse '[3,1,1]' (or '3,1,1', or '[]') into a partition tuple."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    return partition(int(tok) for tok in s.split(","))


def format_partition(p):
    """Inverse of parse_partition: () -> '[]', (3,1) -> '[3,1]'."""
    return "[" + ",".join(str(x) for x in p) + "]"
