"""Seeded input generators.

Words and walks are built from the graph tables alone, so the program under
test receives only finished inputs.  Cylinders are the exception: the
criterion-07 sampler draws trees and exclusions through the public
constructors (`lower_closure`, `canonicalize`, `branch_extensions`,
`make_cylinder`), because a cylinder is only defined by them.
"""

from __future__ import annotations


def _step(sg, graph, at, last, separated):
    """Letters leaving vertex `at` on the double graph, skipping the letter
    that cancels `last` and, when `separated`, a same-block e^-1 f turn."""
    Letter = sg.paths.Letter
    out = []
    for e in graph.out_edges[at]:
        if last is not None and last.inverse:
            if last.edge == e:
                continue
            if separated and graph.block_of[last.edge] is graph.block_of[e]:
                continue
        out.append((Letter(e, False), graph.range_of[e]))
    for e in graph.in_edges[at]:
        if last is not None and not last.inverse and last.edge == e:
            continue
        out.append((Letter(e, True), graph.source_of[e]))
    return out


def uniform_word(sg, graph, rng, n):
    """n letters drawn uniformly; most such words are not composable and
    denote zero, which exercises the engine's early exits."""
    Letter = sg.paths.Letter
    return [Letter(rng.choice(graph.edges)[0], rng.random() < 0.5) for _ in range(n)]


def walk_word(sg, graph, rng, n):
    """A composable word of n letters: a random walk on the double graph
    from a random vertex, backtracking allowed."""
    Letter = sg.paths.Letter
    start = rng.choice(graph.vertices)
    at, atoms = start, []
    for _ in range(n):
        options = [(Letter(e, False), graph.range_of[e]) for e in graph.out_edges[at]]
        options += [(Letter(e, True), graph.source_of[e]) for e in graph.in_edges[at]]
        if not options:
            break
        x, at = rng.choice(options)
        atoms.append(x)
    return atoms or [start]


def render_word(atoms):
    """The CLI token form of a word."""
    return " ".join(
        a if isinstance(a, str) else ("~" + a.edge if a.inverse else a.edge)
        for a in atoms
    )


def separated_paths(sg, graph, v, max_len):
    """Every reduced separated path from v of length <= max_len."""
    Path = sg.paths.Path
    out = [Path(v, ())]
    frontier = [(Path(v, ()), v)]
    for _ in range(max_len):
        nxt = []
        for p, at in frontier:
            last = p.letters[-1] if p.letters else None
            for x, end in _step(sg, graph, at, last, separated=True):
                q = Path(v, p.letters + (x,))
                out.append(q)
                nxt.append((q, end))
        frontier = nxt
    return out


def _random_separated_path(sg, graph, v, rng, max_len):
    Path = sg.paths.Path
    letters, at = (), v
    for _ in range(rng.randint(0, max_len)):
        options = _step(sg, graph, at, letters[-1] if letters else None, separated=True)
        if not options:
            break
        x, at = rng.choice(options)
        letters += (x,)
    return Path(v, letters)


def _random_lower_set(sg, graph, v, rng, max_len, tries=6):
    """A compatible lower set grown by rejection sampling."""
    paths, semilattice = sg.paths, sg.semilattice
    chosen = [paths.Path(v, ())]
    for _ in range(tries):
        closed = semilattice.lower_close_paths(
            [_random_separated_path(sg, graph, v, rng, max_len)]
        )
        if all(paths.compatible(graph, p, q) for p in closed for q in chosen):
            chosen.extend(closed)
    return semilattice.lower_closure(graph, chosen)


def sample_cylinders(sg, graph, rng, count, max_len=2):
    """The criterion-07 sampler: canonical trees of depth <= max_len at
    vertex v, each with up to two excluded one-step branch extensions."""
    out = []
    guard = 0
    while len(out) < count and guard < 100 * count:
        guard += 1
        tree = sg.semilattice.canonicalize(
            graph, _random_lower_set(sg, graph, "v", rng, max_len)
        )
        if max(len(p.letters) for p in tree.paths) > max_len:
            continue
        exts = sg.spectrum.branch_extensions(graph, tree, max_len + 1)
        excl = rng.sample(exts, min(len(exts), rng.randint(0, 2))) if exts else []
        out.append(sg.spectrum.make_cylinder(graph, tree, excl))
    return out
