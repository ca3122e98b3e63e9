"""Instance families the library's generators lack.

The pair builders give the natural labelling; `relabel` and
`clique_chain` take a `random.Random` derived from the benchmark seed and
return the pairs under a random vertex relabelling in a random order, so
each seed gives other incidence orders of the same structure.
"""


def relabel(n, pairs, rng):
    """(pairs, perm): pairs under a random permutation of 1..n, shuffled.

    perm[v] is the new label of old vertex v (perm[0] is unused).
    """
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    perm.insert(0, 0)
    out = [(perm[a], perm[b]) for a, b in pairs]
    rng.shuffle(out)
    return out, perm


def circulant_pairs(n, d):
    """Directed circulant C(n, d): edges i -> i+1, ..., i+d (mod n)."""
    return [(i, (i - 1 + j) % n + 1)
            for i in range(1, n + 1) for j in range(1, d + 1)]


def bidirected_clique_pairs(n):
    return [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
            if a != b]


def clique_chain(count, links, rng, size=6):
    """Undirected chain of `count` cliques on `size` vertices each.

    Consecutive cliques are joined by `links` vertex-disjoint edges whose
    endpoints are drawn from rng.  Returns (pairs, blocks) with blocks the
    clique vertex sets, both in the relabelled numbering.
    """
    if links > size:
        raise ValueError("links must not exceed the clique size")
    pairs = []
    for c in range(count):
        base = c * size
        pairs += [(base + i, base + j)
                  for i in range(1, size + 1) for j in range(i + 1, size + 1)]
        if c + 1 < count:
            tails = rng.sample(range(base + 1, base + size + 1), links)
            heads = rng.sample(range(base + size + 1, base + 2 * size + 1),
                               links)
            pairs += list(zip(tails, heads))
    n = count * size
    pairs, perm = relabel(n, pairs, rng)
    blocks = [frozenset(perm[c * size + i] for i in range(1, size + 1))
              for c in range(count)]
    return pairs, blocks
