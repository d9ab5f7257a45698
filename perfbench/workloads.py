"""The three workloads: what one operation does and how its answer is checked.

Every operation is a `Case`: `run()` is the timed call into the public API,
`reference()` computes what the answer must match by a route that does not
depend on the Munn-tree engine, and `check(answer, expected, corrupt)`
compares the two.  There are five routes:

* `string`   -- the string-peeling oracle `oracle.string_normal_form`;
* `cli`      -- the same oracle, rendered as the command line prints it;
* `fim`      -- the free-inverse-monoid value `oracle.fim_value`;
* `identity` -- two exact identities of the cylinder algebra;
* `basis`    -- basis sizes against a count made through the string oracle.

`corrupt` names one entry of CORRUPTIONS, or is None.  A check alters its
answer before comparing it when `corrupt` names it, so the self-test can show
that each comparison rejects a wrong answer.

Each workload draws a fresh batch of inputs for every pass from a generator
seeded by (workload, seed, pass), so no input is repeated within a run.
"""

from __future__ import annotations

import contextlib
import io
import itertools

from perfbench.inputs import (
    render_word,
    sample_cylinders,
    separated_paths,
    uniform_word,
    walk_word,
)

ALL_GRAPHS = ("rose1t", "rose2t", "rose2f", "fim2", "fim2inf", "mixed")


class Case:
    __slots__ = ("route", "run", "reference", "check")

    def __init__(self, route, run, reference, check):
        self.route = route
        self.run = run
        self.reference = reference
        self.check = check


def _nf_case(sg, graph, atoms, level):
    """evaluate + normal_form, checked against the string oracle.  The oracle
    computes the separated normal form, so this route also serves the
    toeplitz level on freely separated graphs, where the two coincide."""
    semigroup, oracle = sg.semigroup, sg.oracle

    def run():
        return semigroup.normal_form(graph, semigroup.evaluate(graph, atoms, level))

    def reference():
        return oracle.string_normal_form(graph, atoms)

    def check(nf, expected, corrupt):
        if corrupt == "string":
            nf += "?"
        return nf == expected

    return Case("string", run, reference, check)


def _fim_case(sg, graph, atoms):
    """Free-level evaluate + normal_form on a one-vertex rose, checked against
    the classic Munn value over the free group on the loops."""
    semigroup, oracle = sg.semigroup, sg.oracle
    gens = [name for name, _, _ in graph.edges]
    tokens = render_word(atoms).split()

    def signed(path):
        return tuple((x.edge, -1 if x.inverse else 1) for x in path.letters)

    def run():
        el = semigroup.evaluate(graph, atoms, semigroup.Level.FREE)
        semigroup.normal_form(graph, el)
        return el

    def reference():
        return oracle.fim_value(gens, tokens)

    def check(el, expected, corrupt):
        if el is semigroup.ZERO:
            return False
        tree = {signed(p) for p in el.tree.paths}
        if corrupt == "fim":
            tree.discard(max(tree, key=len))
        return (frozenset(tree), signed(el.carrier)) == expected

    return Case("fim", run, reference, check)


def _cli_case(sg, argv, reference):
    """An in-process `sgis` command; stdout must equal the oracle rendering."""

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sg.cli.main(argv)
        return code, out.getvalue()

    def check(answer, expected, corrupt):
        code, out = answer
        if corrupt == "cli":
            out += "?"
        return code == 0 and out == expected

    return Case("cli", run, reference, check)


def _cylinder_case(sg, graph, B1, B2):
    """Intersection and difference of two cylinders, then both sides of
    e(B1)e(B2) = e(B1 n B2) and e(B1) - e(B1)e(B2) = sum e(parts)."""
    spectrum, algebra, semigroup = sg.spectrum, sg.algebra, sg.semigroup

    def run():
        inter = spectrum.cylinder_intersect(graph, B1, B2)
        parts = spectrum.cylinder_difference(graph, B1, B2)
        e1 = algebra.cylinder_idempotent(graph, B1)
        prod = e1 * algebra.cylinder_idempotent(graph, B2)
        zero = algebra.AlgebraElement.zero(graph)
        e_inter = zero if inter is None else algebra.cylinder_idempotent(graph, inter)
        total = zero
        for part in parts:
            total = total + algebra.cylinder_idempotent(graph, part)
        return prod, e_inter, e1 - prod, total

    def check(answer, expected, corrupt):
        prod, e_inter, diff, total = answer
        if corrupt in ("product", "difference"):
            vertex = semigroup.from_letter(graph, "v", semigroup.Level.SEPARATED)
            wrong = algebra.AlgebraElement.of(graph, vertex)
            if corrupt == "product":
                prod = prod + wrong
            else:
                total = total + wrong
        return prod == e_inter and diff == total

    return Case("identity", run, lambda: None, check)


def _basis_case(sg, graph, count):
    def run():
        return len(sg.algebra.enumerate_basis(graph, 2))

    def check(found, expected, corrupt):
        return (found + 1 if corrupt == "basis" else found) == expected

    return Case("basis", run, lambda: count, check)


def _data_length(nf):
    factors, carrier = nf.split(" | ")
    longest = max(len(chunk.split()) for chunk in factors.strip("()").split(")("))
    return max(longest, len(carrier.split()))


def oracle_basis_count(sg, graph, max_len):
    """Distinct nonzero normal forms of data length <= max_len, counted by
    pushing every antichain-times-carrier word through the string oracle
    (the engine-free route of acceptance criterion 12)."""
    is_prefix, star = sg.paths.is_prefix, sg.paths.star
    seen = set()
    for v in graph.vertices:
        carriers = separated_paths(sg, graph, v, max_len)
        tips = [p for p in carriers if p.letters and not p.letters[-1].inverse]
        antichains = [()]
        for size in range(1, len(tips) + 1):
            for combo in itertools.combinations(tips, size):
                if not any(
                    is_prefix(p, q) or is_prefix(q, p)
                    for p, q in itertools.combinations(combo, 2)
                ):
                    antichains.append(combo)
        for tips_used in antichains:
            head = []
            for p in tips_used:
                head.extend(p.letters)
                head.extend(star(p.letters))
            for lam in carriers:
                nf = sg.oracle.string_normal_form(graph, head + list(lam.letters or [v]))
                if nf != "0" and _data_length(nf) <= max_len:
                    seen.add(nf)
    return len(seen)


class Workload:
    """Loads the graphs a workload needs; `cases(rng)` draws one pass."""

    graph_names: tuple[str, ...] = ()

    def __init__(self, sg, root):
        self.sg = sg
        self.graph_files = {n: root / "graphs" / f"{n}.sg" for n in self.graph_names}
        self.graphs = {
            n: sg.graph.parse_graph(path.read_text(encoding="utf-8"))
            for n, path in self.graph_files.items()
        }


class ShortWords(Workload):
    """Words of up to 12 letters over every bundled graph at the separated
    level: half uniform letters, half walks; every 40th operation goes
    through the command line instead."""

    graph_names = ALL_GRAPHS
    per_graph = 400
    cli_every = 40

    def cases(self, rng, per_graph=None):
        sg, level = self.sg, self.sg.semigroup.Level.SEPARATED
        words = []
        for name, graph in self.graphs.items():
            for i in range(per_graph or self.per_graph):
                make = uniform_word if i % 2 == 0 else walk_word
                words.append((name, make(sg, graph, rng, rng.randint(1, 12))))
        rng.shuffle(words)
        out = []
        for i, (name, atoms) in enumerate(words):
            graph = self.graphs[name]
            if i % self.cli_every == self.cli_every - 1:
                out.append(self._command_case(rng, name, atoms, i // self.cli_every))
            else:
                out.append(_nf_case(sg, graph, atoms, level))
        return out

    def warmup_cases(self, rng):
        return self.cases(rng, per_graph=20)

    def _command_case(self, rng, name, atoms, k):
        sg, graph, path = self.sg, self.graphs[name], str(self.graph_files[name])
        oracle = sg.oracle
        if k % 2 == 0:
            return _cli_case(
                sg,
                ["nf", path, "-w", render_word(atoms)],
                lambda: oracle.string_normal_form(graph, atoms) + "\n",
            )
        if k % 4 == 1 and not isinstance(atoms[-1], str):
            # x ~x x = x: an equal word of another spelling
            other = atoms + [~atoms[-1], atoms[-1]]
        else:
            other = walk_word(sg, graph, rng, rng.randint(1, 12))

        def expected():
            a = oracle.string_normal_form(graph, atoms)
            b = oracle.string_normal_form(graph, other)
            return f"{'EQUAL' if a == b else 'UNEQUAL'}\nA: {a}\nB: {b}\n"

        argv = ["eq", path, "-a", render_word(atoms), "-b", render_word(other)]
        return _cli_case(sg, argv, expected)


class LongWords(Workload):
    """Random walks of 30-80 letters, at evenly spaced lengths, plus the
    chains e^25 and e^50."""

    graph_names = ("rose2t", "rose2f", "fim2")
    per_category = 16
    min_len, max_len = 30, 80

    categories = (
        ("rose2f", "SEPARATED"),
        ("fim2", "SEPARATED"),
        ("rose2f", "TOEPLITZ"),
        ("rose2t", "FREE"),
    )

    def cases(self, rng, lengths=None, chains=(25, 50)):
        sg = self.sg
        if lengths is None:
            n, span = self.per_category, self.max_len - self.min_len
            lengths = [self.min_len + round(span * i / (n - 1)) for i in range(n)]
        out = []
        for name, level_name in self.categories:
            graph, level = self.graphs[name], sg.semigroup.Level[level_name]
            for length in lengths:
                atoms = walk_word(sg, graph, rng, length)
                if level is sg.semigroup.Level.FREE:
                    out.append(_fim_case(sg, graph, atoms))
                else:
                    out.append(_nf_case(sg, graph, atoms, level))
        rose2f = self.graphs["rose2f"]
        for k in chains:
            chain = [sg.paths.Letter("e", False)] * k
            out.append(_nf_case(sg, rose2f, chain, sg.semigroup.Level.SEPARATED))
        rng.shuffle(out)
        return out

    def warmup_cases(self, rng):
        return self.cases(rng, lengths=[self.min_len], chains=(5,))


class CylinderAlgebra(Workload):
    """Pairs of cylinders from the criterion-07 sampler on four graphs, plus
    one basis enumeration per graph of criterion 12 in every pass."""

    graph_names = ("rose2t", "rose2f", "fim2", "mixed")
    basis_graphs = ("rose2t", "rose2f", "fim2")
    cylinders_per_graph = 60
    pairs_per_graph = 60

    def __init__(self, sg, root):
        super().__init__(sg, root)
        self.basis_counts = {
            n: oracle_basis_count(sg, self.graphs[n], 2) for n in self.basis_graphs
        }

    def cases(self, rng, pairs_per_graph=None):
        sg = self.sg
        out = []
        for graph in self.graphs.values():
            pool = sample_cylinders(sg, graph, rng, self.cylinders_per_graph)
            for _ in range(pairs_per_graph or self.pairs_per_graph):
                out.append(_cylinder_case(sg, graph, rng.choice(pool), rng.choice(pool)))
        out += [
            _basis_case(sg, self.graphs[n], count)
            for n, count in self.basis_counts.items()
        ]
        rng.shuffle(out)
        return out

    def warmup_cases(self, rng):
        return self.cases(rng, pairs_per_graph=2)


WORKLOADS = {
    "short-words": ShortWords,
    "long-words": LongWords,
    "cylinder-algebra": CylinderAlgebra,
}

# corruption -> (the route whose check it falsifies, a workload with that
# route), for the self-test
CORRUPTIONS = {
    "string": ("string", "short-words"),
    "cli": ("cli", "short-words"),
    "fim": ("fim", "long-words"),
    "product": ("identity", "cylinder-algebra"),  # e(B1)e(B2) = e(B1 n B2)
    "difference": ("identity", "cylinder-algebra"),  # e(B1) - e(B1)e(B2) = sum
    "basis": ("basis", "cylinder-algebra"),
}
