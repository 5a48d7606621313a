"""Seeded random instance generators for the test and acceptance suites."""

import random
from itertools import product

from cftree import (
    DiscTree,
    Gap2Instance,
    InvolutiveAlphabet,
    PDfa,
    involutive_closure,
    is_reduced,
    reroot_along_word,
    trim,
)


def random_alphabet(rng: random.Random, max_base: int = 2) -> InvolutiveAlphabet:
    n = rng.randint(1, max_base)
    return involutive_closure([chr(ord("a") + i) for i in range(n)])


def _can_add(delta, in_letters, p, a, q, ainv):
    """Adding p -a-> q keeps the automaton reduced.

    Forbidden patterns: q already reads a^-1 (a then a^-1), or an a^-1-edge
    already enters p (a^-1 then a).  A self-inverse letter may not loop,
    which would read a a.
    """
    if (p, a) in delta or (p == q and a == ainv):
        return False
    if (q, ainv) in delta:
        return False
    if ainv in in_letters.get(p, ()):
        return False
    return True


def random_reduced_pdfa(
    rng: random.Random,
    n_states: int,
    alphabet: InvolutiveAlphabet | None = None,
    extra_density: float = 0.5,
) -> tuple[PDfa, str]:
    """A reduced pDFA with all states reachable from the returned root.

    A random spanning structure guarantees reachability; extra transitions
    are sprinkled in wherever they do not create a letter-inverse path.
    """
    if alphabet is None:
        alphabet = random_alphabet(rng)
    letters = alphabet.sorted_letters()
    states = [f"s{i}" for i in range(n_states)]
    delta: dict[tuple[str, str], str] = {}
    in_letters: dict[str, set[str]] = {s: set() for s in states}

    def add(p, a, q):
        delta[(p, a)] = q
        in_letters[q].add(a)

    for i in range(1, n_states):
        placed = False
        for _ in range(20):  # cheap random probes before a full scan
            p = states[rng.randrange(i)]
            a = rng.choice(letters)
            if _can_add(delta, in_letters, p, a, states[i], alphabet.inv(a)):
                add(p, a, states[i])
                placed = True
                break
        if not placed:
            candidates = [
                (states[j], a)
                for j in range(i)
                for a in letters
                if _can_add(delta, in_letters, states[j], a, states[i], alphabet.inv(a))
            ]
            if not candidates:
                # No legal edge can reach this state; drop it and every later one.
                states = states[:i]
                break
            p, a = rng.choice(candidates)
            add(p, a, states[i])

    n_extra = int(extra_density * len(states) * len(letters))
    for _ in range(n_extra):
        p = rng.choice(states)
        a = rng.choice(letters)
        q = rng.choice(states)
        if _can_add(delta, in_letters, p, a, q, alphabet.inv(a)):
            add(p, a, q)

    d = PDfa(states, alphabet, delta)
    assert is_reduced(d)
    return d, states[0]


def renamed_pdfa(rng: random.Random, d: PDfa, root: str) -> tuple[PDfa, str]:
    """``d`` with its states renamed r0.. in random order, and the new name
    of ``root``."""
    new = [f"r{i}" for i in range(len(d.states))]
    rng.shuffle(new)
    name = dict(zip(sorted(d.states), new))
    return PDfa(new, d.alphabet, {(name[p], x): name[q] for (p, x), q in d.delta.items()}), name[root]


def readable_word(rng: random.Random, d: PDfa, root: str, length: int) -> tuple[str, ...]:
    """A random word of at most ``length`` letters readable from ``root``;
    it stops early where nothing can be read."""
    word, state = [], root
    for _ in range(length):
        letters = sorted(d.out_set(state))
        if not letters:
            break
        word.append(rng.choice(letters))
        state = d.run(state, word[-1:])
    return tuple(word)


def nonrooted_families(rng: random.Random, sizes: tuple[int, ...]) -> list[tuple[int, PDfa, str]]:
    """``(family, pDFA, root)`` for four members of one family per size.

    A family's base is a random reduced pDFA over {a, b}^±1 of about that
    many states.  Its members are two renamed copies of it, whose rooted
    trees are equal, and two copies re-rooted along random readable words
    of up to 32 letters and then renamed.  Members of a family
    generate one non-rooted tree; bases of different sizes, in practice,
    do not.
    """
    out = []
    for family, n in enumerate(sizes):
        base, root = random_reduced_pdfa(rng, n, involutive_closure(["a", "b"]))
        for k in range(4):
            d, r = base, root
            if k >= 2:
                d, r = reroot_along_word(d, r, readable_word(rng, d, r, rng.randint(1, 32)))
            out.append((family, *renamed_pdfa(rng, d, r)))
    return out


def random_pdfa(
    rng: random.Random,
    n_states: int,
    alphabet: InvolutiveAlphabet | None = None,
    density: float = 0.4,
) -> tuple[PDfa, str]:
    """A pDFA with no reducedness guarantee, trimmed from its root."""
    if alphabet is None:
        alphabet = random_alphabet(rng)
    letters = alphabet.sorted_letters()
    states = [f"s{i}" for i in range(n_states)]
    delta: dict[tuple[str, str], str] = {}
    for i in range(1, n_states):
        delta[(states[rng.randrange(i)], rng.choice(letters))] = states[i]
    for p in states:
        for a in letters:
            if (p, a) not in delta and rng.random() < density:
                delta[(p, a)] = rng.choice(states)
    d = trim(PDfa(states, alphabet, delta), states[0])
    return d, states[0]


def two_tooth_lines(n: int) -> tuple[PDfa, str, PDfa, str]:
    """Two pDFAs over {a, b}^±1 whose trees are not non-rooted isomorphic,
    and their roots, on which a search over pairs of states queues a number
    of configurations quadratic in ``n``.

    The first has a root ``r`` with ``r -a-> R1`` and ``r -a^-1-> L1``,
    lines ``Ri -a-> Ri+1`` and ``Li -a^-1-> Li+1`` up to ``M = 2n + 4``
    that end in loops ``RM -a-> RM`` and ``LM -a^-1-> LM``, and teeth
    ``Ri -b-> ti`` at ``i = n`` and ``2n``: ``4n + 11`` states.  The second
    is the same with teeth at ``n`` and ``2n + 1``.  Every ``Li`` reads the
    same language, so configurations pairing any state with any ``Li`` pass
    the local checks.
    """
    m = 2 * n + 4
    alphabet = involutive_closure(["a", "b"])

    def lines(teeth: tuple[int, int]) -> PDfa:
        delta = {("r", "a"): "R1", ("r", "a^-1"): "L1", (f"R{m}", "a"): f"R{m}", (f"L{m}", "a^-1"): f"L{m}"}
        for i in range(1, m):
            delta[(f"R{i}", "a")] = f"R{i + 1}"
            delta[(f"L{i}", "a^-1")] = f"L{i + 1}"
        for i in teeth:
            delta[(f"R{i}", "b")] = f"t{i}"
        return PDfa({p for p, _ in delta} | set(delta.values()), alphabet, delta)

    return lines((n, 2 * n)), "r", lines((n, 2 * n + 1)), "r"


def hub_lines(n: int) -> tuple[PDfa, str, PDfa, str]:
    """Two minimal pDFAs over {x, y}^±1 whose trees are not non-rooted
    isomorphic, and their roots, on which the configuration search queues a
    number of configurations quadratic in ``n``, over pairs of classes as
    over pairs of states.

    The first has a root ``p`` with ``p -y^-1-> C``, ``C -y^-1-> C``, x-leaves
    at ``p`` and ``C``, and ``p -y-> A1``, then ``At -y-> At+1`` up to ``An``,
    each ``At`` with an x-leaf.  The second has a hub ``B`` with
    ``B -y^-1-> B`` and an x-leaf, and ``n`` more y^-1-predecessors
    ``Hm -y^-1-> B``, told apart by ``Hm -x-> Lm`` on a line
    ``Lm -x-> Lm+1`` that ends in ``Ln -y-> E``; its root ``G1`` reaches
    them along ``Gm -x-> Gm+1`` and ``Gm -y^-1-> Hm``.  One chain of passing
    configurations pairs each ``At`` with ``B``, and each step queues all
    ``n + 1`` predecessors of ``B``, of which only ``B`` itself passes.
    """
    alphabet = involutive_closure(["x", "y"])
    da = {("p", "y^-1"): "C", ("p", "x"): "e", ("p", "y"): "A1", ("C", "y^-1"): "C", ("C", "x"): "e"}
    db = {("B", "y^-1"): "B", ("B", "x"): "E", (f"L{n}", "y"): "E"}
    for t in range(1, n + 1):
        da[(f"A{t}", "x")] = "e"
        db[(f"G{t}", "y^-1")] = f"H{t}"
        db[(f"H{t}", "y^-1")] = "B"
        db[(f"H{t}", "x")] = f"L{t}"
        if t < n:
            da[(f"A{t}", "y")] = f"A{t + 1}"
            db[(f"G{t}", "x")] = f"G{t + 1}"
            db[(f"L{t}", "x")] = f"L{t + 1}"
    a = PDfa({p for p, _ in da} | set(da.values()), alphabet, da)
    b = PDfa({p for p, _ in db} | set(db.values()), alphabet, db)
    return a, "p", b, "G1"


def random_gap2(rng: random.Random, max_n: int = 32, n: int | None = None) -> Gap2Instance:
    """A directed graph of out-degree at most 2 on ``n`` nodes, by default
    a random number from 2 to ``max_n``."""
    n = rng.randint(2, max_n) if n is None else n
    edges = set()
    out = {i: 0 for i in range(n)}
    for _ in range(rng.randint(0, 2 * n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if out[u] < 2 and (u, v) not in edges:
            edges.add((u, v))
            out[u] += 1
    return Gap2Instance(n, frozenset(edges))


def random_involutive_tree(
    rng: random.Random,
    max_nodes: int = 50,
    alphabet: InvolutiveAlphabet | None = None,
) -> DiscTree:
    """A complete finite tree whose involutive closure is deterministic.

    Child letters at each node are drawn from the letters not yet used there
    and distinct from the inverse of the letter on the parent edge.
    """
    if alphabet is None:
        alphabet = random_alphabet(rng)
    letters = alphabet.sorted_letters()
    n_nodes = rng.randint(1, max_nodes)
    labels = {0: "t"}
    children: dict[int, list[tuple[str, int]]] = {}
    free_letters: dict[int, list[str]] = {0: list(letters)}
    open_nodes = [0]
    for v in range(1, n_nodes):
        candidates = [u for u in open_nodes if free_letters[u]]
        if not candidates:
            break
        u = rng.choice(candidates)
        a = rng.choice(free_letters[u])
        free_letters[u].remove(a)
        labels[v] = "t"
        children.setdefault(u, []).append((a, v))
        free_letters[v] = [x for x in letters if x != alphabet.inv(a)]
        open_nodes.append(v)
    kids = {u: tuple(sorted(cs)) for u, cs in children.items()}
    level = {0: 0}
    order = [0]
    for u in order:
        for _, c in kids.get(u, ()):
            level[c] = level[u] + 1
            order.append(c)
    radius = max(level.values())
    return DiscTree(radius, 0, labels, kids, alphabet)


def exhaustive_reduced_pdfa_pool(max_states: int = 2, alphabet: InvolutiveAlphabet | None = None):
    """Every reduced pDFA with at most ``max_states`` states over
    ``alphabet``, by default {a, b}^{+-1}.

    States are named s0.. and transitions range over all partial functions;
    non-reduced assignments are filtered out.
    """
    if alphabet is None:
        alphabet = involutive_closure(["a", "b"])
    letters = alphabet.sorted_letters()
    pool = []
    for n in range(1, max_states + 1):
        states = [f"s{i}" for i in range(n)]
        slots = [(p, a) for p in states for a in letters]
        for assignment in product([None, *range(n)], repeat=len(slots)):
            delta = {
                slot: states[t]
                for slot, t in zip(slots, assignment)
                if t is not None
            }
            d = PDfa(states, alphabet, delta)
            if is_reduced(d):
                pool.append(d)
    return pool


def random_labeled_disc(rng: random.Random, max_nodes: int = 12) -> DiscTree:
    """A finite tree of at most two children per node, often both on ``a``.

    Labels come from a pool of two to five names, so equal-shaped siblings
    frequently differ only in their labels below.  Unlike
    ``random_involutive_tree`` the involutive closure need not be
    deterministic.
    """
    alphabet = involutive_closure(["a", "b"])
    pool = [f"p{i}" for i in range(rng.randint(2, 5))]
    labels = {0: rng.choice(pool)}
    children: dict[int, list[tuple[str, int]]] = {}
    level = {0: 0}
    for v in range(1, rng.randint(1, max_nodes)):
        u = rng.choice([u for u in labels if len(children.get(u, ())) < 2])
        children.setdefault(u, []).append((rng.choice("aaaab"), v))
        labels[v] = rng.choice(pool)
        level[v] = level[u] + 1
    kids = {u: tuple(cs) for u, cs in children.items()}
    return DiscTree(max(level.values()), 0, labels, kids, alphabet)


def shuffled_relabeled_copy(rng: random.Random, t: DiscTree, perturb: bool = False) -> DiscTree:
    """The same tree with node ids renamed, every node's children listed in
    a random order and labels renamed through a random bijection.

    With ``perturb``, one random node then gets a different label, either
    another label of the copy or a fresh one.
    """
    order = list(t.labels)
    rng.shuffle(order)
    node = {v: f"y{i}" for i, v in enumerate(order)}
    names = sorted(set(t.labels.values()))
    renamed = [f"q{i}" for i in range(len(names))]
    rng.shuffle(renamed)
    beta = dict(zip(names, renamed))
    labels = {node[v]: beta[lab] for v, lab in t.labels.items()}
    children = {}
    for v, kids in t.children.items():
        kids = [(a, node[c]) for a, c in kids]
        rng.shuffle(kids)
        children[node[v]] = tuple(kids)
    if perturb:
        v = rng.choice(sorted(labels))
        labels[v] = rng.choice([lab for lab in [*renamed, "fresh"] if lab != labels[v]])
    return DiscTree(t.radius, node[t.root], labels, children, t.alphabet)
