"""SMILES parsing, randomized re-serialization, tokenization and vocabulary.

The parser covers the organic subset plus bracket atoms, ring closures
(including %nn), branches and dot-separated components. Stereo bond symbols
(/ and \\) and chirality tags are carried through as annotations without
geometric semantics.

``canonical_smiles`` is a deterministic canonical serialization used as the
isomorphism oracle in tests: neighborhood-refinement ranks with
individualization on ties. It is not a chemistry-grade canonicalizer (no
aromaticity perception, no valence model).
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .atomic import write_lines

ORGANIC_UPPER = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}
ORGANIC_AROMATIC = {"b", "c", "n", "o", "p", "s"}
BOND_CHARS = {"-": "single", "=": "double", "#": "triple", ":": "aromatic",
              "/": "single", "\\": "single"}

PAD, UNK, MASK, SEP = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<mask>", "<sep>")


class SmilesError(ValueError):
    """Parse/lex failure; carries the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class VocabularyError(ValueError):
    """A vocabulary file without the reserved header, or with a token twice."""


@dataclass(frozen=True)
class Atom:
    element: str
    aromatic: bool = False
    charge: int = 0
    h_count: Optional[int] = None  # None = implicit (non-bracket atom)
    isotope: Optional[int] = None
    chirality: str = ""
    bracket: bool = False

    def label(self):
        # sortable invariant tuple (None fields mapped to -1)
        return (self.element, self.aromatic, self.charge,
                -1 if self.h_count is None else self.h_count,
                -1 if self.isotope is None else self.isotope, self.chirality)


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: str  # single | double | triple | aromatic
    stereo: str = ""  # "/" or "\\" annotation, no geometric meaning


@dataclass
class MolecularGraph:
    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    components: list[int] = field(default_factory=list)  # per-atom component id

    def adjacency(self) -> list[list[tuple[int, int]]]:
        adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for i, bond in enumerate(self.bonds):
            adj[bond.a].append((bond.b, i))
            adj[bond.b].append((bond.a, i))
        return adj

    def n_components(self) -> int:
        return max(self.components) + 1 if self.components else 0


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\[[^\]]*\]|Cl|Br|%[0-9]{2}|.", re.S)

# The OpenSMILES bracket atom. Nothing is anchored: the match stops where
# the body stops conforming, and that is where an error is reported. The
# digit runs that become numbers are bounded, so int() never sees a long one,
# and a run of signs counts at most the 99 that write_smiles can write back.
_BRACKET = re.compile(r"""
    ([0-9]{0,3})                        # isotope
    (?:(se|as|[a-z]|[A-Z][a-gi-z]?)     # element, aromatic when lowercase
       (@@?)?                           # chirality
       (H[0-9]?)?                       # hydrogen count
       ([+-][0-9]{1,2}|\+{1,99}|-{1,99})?  # charge
       (:[0-9]*)?                       # atom class
    )?""", re.X)


def _lex(s: str):
    """Maximal-munch lexing into (offset, token) pairs: bracket atoms, Cl/Br
    and %nn closures are single tokens, everything else one character.

    Lazy, so a parser consuming it reports the first error in the string
    before a later unterminated bracket.
    """
    if not s:
        raise SmilesError("empty SMILES", 0)
    for m in _TOKEN.finditer(s):
        tok = m.group()
        if tok == "[":
            raise SmilesError("unterminated bracket atom", m.start())
        yield m.start(), tok


def _parse_bracket(tok: str, start: int) -> Atom:
    """Parse the bracket-atom token ``tok`` found at offset ``start``."""
    body = tok[1:-1]
    if not body:
        raise SmilesError("empty bracket atom", start)
    m = _BRACKET.match(body)
    isotope, element, chirality, h, charge, atom_class = m.groups()
    i = m.end()
    if element is None and i == len(body):
        raise SmilesError("bracket atom without element symbol", start + 1 + i)
    if atom_class == ":":  # a class is accepted and ignored, but needs digits
        raise SmilesError("atom class without digits", start + 1 + i)
    if i != len(body):
        raise SmilesError(f"unexpected character {body[i]!r} in bracket atom", start + 1 + i)
    charge = charge or ""
    return Atom(element.capitalize(), element.islower(),
                # "+2" states its magnitude; a run of signs such as "--" counts it
                int(charge) if charge.strip("+-") else charge.count("+") - charge.count("-"),
                int(h[1:] or 1) if h else 0, int(isotope) if isotope else None,
                chirality or "", bracket=True)


def parse_smiles(s: str) -> MolecularGraph:
    """Parse a SMILES string into a molecular graph."""
    g = MolecularGraph()
    adj_seen: set[tuple[int, int]] = set()

    def add_bond(a: int, b: int, order: str, stereo: str, offset: int):
        if a == b:
            raise SmilesError("self bond", offset)
        key = (min(a, b), max(a, b))
        if key in adj_seen:
            raise SmilesError("duplicate bond", offset)
        adj_seen.add(key)
        g.bonds.append(Bond(a, b, order, stereo))

    prev: Optional[int] = None
    pending: Optional[tuple[str, str]] = None  # (order, stereo)
    stack: list[int] = []
    rings: dict[int, tuple[int, Optional[tuple[str, str]], int]] = {}
    component = 0
    for i, tok in _lex(s):
        atom: Optional[Atom] = None
        if tok[0] == "[":
            atom = _parse_bracket(tok, i)
        elif tok in ORGANIC_UPPER:
            atom = Atom(tok)
        elif tok in ORGANIC_AROMATIC:
            atom = Atom(tok.upper(), aromatic=True)
        elif tok in BOND_CHARS:
            if pending is not None:
                raise SmilesError("two consecutive bond symbols", i)
            pending = (BOND_CHARS[tok], tok if tok in "/\\" else "")
        elif tok == "(":
            if prev is None:
                raise SmilesError("branch with no preceding atom", i)
            stack.append(prev)
        elif tok == ")":
            if not stack:
                raise SmilesError("unbalanced closing parenthesis", i)
            prev = stack.pop()
        elif tok == ".":
            if pending is not None:
                raise SmilesError("bond symbol before dot", i)
            prev = None
            component += 1
        elif tok[0] in "%0123456789":
            if prev is None:
                raise SmilesError("ring closure with no preceding atom", i)
            if tok == "%":
                raise SmilesError("%% ring closure needs two digits", i)
            num = int(tok.lstrip("%"))
            if num in rings:
                other, other_bond, opened_at = rings.pop(num)
                if other == prev:
                    raise SmilesError("ring closure to the same atom", i)
                spec = pending or other_bond
                if pending and other_bond and pending[0] != other_bond[0]:
                    raise SmilesError("conflicting ring-closure bond symbols", i)
                if spec is None:
                    both_arom = g.atoms[prev].aromatic and g.atoms[other].aromatic
                    spec = ("aromatic" if both_arom else "single", "")
                add_bond(other, prev, spec[0], "", i)
                pending = None
            else:
                rings[num] = (prev, pending, i)
                pending = None
        else:
            raise SmilesError(f"unknown symbol {tok!r}", i)

        if atom is not None:
            idx = len(g.atoms)
            g.atoms.append(atom)
            g.components.append(component)
            if prev is not None:
                order, stereo = pending if pending is not None else ("", "")
                if pending is None:
                    both_arom = g.atoms[prev].aromatic and atom.aromatic
                    order = "aromatic" if both_arom else "single"
                add_bond(prev, idx, order, stereo, i)
                pending = None
            elif pending is not None:
                raise SmilesError("dangling bond symbol", i)
            prev = idx
    if stack:
        raise SmilesError("unbalanced opening parenthesis", len(s))
    if rings:
        num, (_, _, offset) = next(iter(rings.items()))
        raise SmilesError(f"unmatched ring closure {num}", offset)
    if pending is not None:
        raise SmilesError("trailing bond symbol", len(s))
    if not g.atoms:
        raise SmilesError("no atom", 0)
    return g


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def _atom_token(a: Atom) -> str:
    sym = a.element.lower() if a.aromatic else a.element
    organic = (a.element in ORGANIC_UPPER if not a.aromatic
               else a.element.lower() in ORGANIC_AROMATIC)
    if not (a.bracket or a.charge or a.isotope is not None or a.chirality
            or a.h_count is not None or not organic):
        return sym
    h = "" if not a.h_count else ("H" if a.h_count == 1 else f"H{a.h_count}")
    if a.charge == 0:
        ch = ""
    elif a.charge in (1, -1):
        ch = "+" if a.charge == 1 else "-"
    else:
        ch = f"{a.charge:+d}"
    iso = "" if a.isotope is None else str(a.isotope)
    return f"[{iso}{sym}{a.chirality}{h}{ch}]"


def _bond_token(bond: Bond, g: MolecularGraph, ring_closure: bool) -> str:
    a, b = g.atoms[bond.a], g.atoms[bond.b]
    both_arom = a.aromatic and b.aromatic
    if bond.order == "single":
        if bond.stereo and not ring_closure:
            return bond.stereo
        return "-" if both_arom else ""
    if bond.order == "aromatic":
        return "" if both_arom else ":"
    return {"double": "=", "triple": "#"}[bond.order]


def _ring_digit(num: int) -> str:
    if num > 99:
        raise ValueError("more than 99 open ring closures")
    return str(num) if num < 10 else f"%{num:02d}"


def _serialize_component(g: MolecularGraph, adj, start: int, order_neighbors) -> str:
    """Depth-first serialization of the component containing ``start``.

    ``order_neighbors(u, items)`` fixes the traversal order; items are
    (neighbor, bond index) pairs.
    """
    visited = {start}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    ring_edges: list[tuple[int, int, int]] = []  # (open_atom, close_atom, bond idx)

    stack = [(start, iter(order_neighbors(start, adj[start])))]
    used: set[int] = set()
    while stack:
        u, it = stack[-1]
        for v, bi in it:
            if bi in used:
                continue
            used.add(bi)
            if v in visited:
                ring_edges.append((v, u, bi))
                continue
            visited.add(v)
            children[u].append((v, bi))
            stack.append((v, iter(order_neighbors(v, adj[v]))))
            break
        else:
            stack.pop()

    digits: dict[int, list[str]] = defaultdict(list)
    for num, (opener, closer, bi) in enumerate(ring_edges, start=1):
        d = _ring_digit(num)
        digits[opener].append(d)
        digits[closer].append(_bond_token(g.bonds[bi], g, ring_closure=True) + d)

    out: list[str] = []
    emit_stack: list[tuple[str, Optional[tuple[int, int]]]] = [("atom", (start, -1))]
    while emit_stack:
        kind, payload = emit_stack.pop()
        if kind == "text":
            out.append(payload)
            continue
        u, bond_idx = payload
        if bond_idx >= 0:
            out.append(_bond_token(g.bonds[bond_idx], g, ring_closure=False))
        out.append(_atom_token(g.atoms[u]))
        out.extend(digits.get(u, ()))
        kids = children.get(u, [])
        for i in range(len(kids) - 1, -1, -1):
            v, bi = kids[i]
            last = i == len(kids) - 1
            if not last:
                emit_stack.append(("text", ")"))
            emit_stack.append(("atom", (v, bi)))
            if not last:
                emit_stack.append(("text", "("))
    return "".join(out)


def write_smiles(g: MolecularGraph, start_atom: int = 0,
                 rng: Optional[np.random.Generator] = None) -> str:
    """Serialize a graph to SMILES, starting the DFS at ``start_atom``.

    With an rng, neighbor visit order is shuffled per atom; otherwise atoms
    are visited in index order. The component containing ``start_atom`` is
    written first, remaining components follow in component order.
    """
    if not g.atoms:
        raise ValueError("cannot serialize an empty graph")
    if not 0 <= start_atom < len(g.atoms):
        raise IndexError(f"start atom {start_atom} out of range")
    adj = g.adjacency()

    if rng is None:
        def order_neighbors(_u, items):
            return sorted(items)
    else:
        def order_neighbors(_u, items):
            items = list(items)
            rng.shuffle(items)
            return items

    comp_of_start = g.components[start_atom]
    pieces = []
    comp_order = [comp_of_start] + [c for c in range(g.n_components()) if c != comp_of_start]
    for comp in comp_order:
        members = [i for i, c in enumerate(g.components) if c == comp]
        if not members:
            continue
        if comp == comp_of_start:
            s0 = start_atom
        elif rng is not None:
            s0 = members[int(rng.integers(len(members)))]
        else:
            s0 = members[0]
        pieces.append(_serialize_component(g, adj, s0, order_neighbors))
    return ".".join(pieces)


def randomize_smiles(s: str, rng: np.random.Generator) -> str:
    """Emit an equivalent SMILES with a uniformly random start atom and
    shuffled branch order. Used as train-time augmentation only."""
    g = parse_smiles(s)
    start = int(rng.integers(len(g.atoms)))
    return write_smiles(g, start, rng)


# ---------------------------------------------------------------------------
# canonical serialization (test oracle)
# ---------------------------------------------------------------------------

_ORDER_RANK = {"single": 0, "double": 1, "triple": 2, "aromatic": 3}


def _refine(labels: dict[int, tuple], adj, members: list[int]) -> dict[int, int]:
    ranks = _densify(labels, members)
    while True:
        keys = {}
        for u in members:
            neigh = sorted((_ORDER_RANK[order], ranks[v]) for v, order in adj[u])
            keys[u] = (ranks[u], tuple(neigh))
        new = _densify(keys, members)
        if new == ranks:
            return ranks
        ranks = new


def _densify(keys: dict[int, tuple], members: list[int]) -> dict[int, int]:
    order = sorted(set(keys[u] for u in members))
    lookup = {k: i for i, k in enumerate(order)}
    return {u: lookup[keys[u]] for u in members}


def _canon_component(g: MolecularGraph, adj, members: list[int]) -> str:
    adj_orders: list[list[tuple[int, str]]] = [[] for _ in g.atoms]
    for u in members:
        for v, bi in adj[u]:
            adj_orders[u].append((v, g.bonds[bi].order))

    base = {u: (g.atoms[u].label(), len(adj[u])) for u in members}

    def search(seed_ranks: dict[int, tuple]) -> str:
        ranks = _refine(seed_ranks, adj_orders, members)
        by_rank = defaultdict(list)
        for u in members:
            by_rank[ranks[u]].append(u)
        ties = [r for r, us in sorted(by_rank.items()) if len(us) > 1]
        if not ties:
            final = {u: ranks[u] for u in members}

            def order_neighbors(_u, items):
                return sorted(items, key=lambda vb: final[vb[0]])

            start = min(members, key=lambda u: final[u])
            return _serialize_component(g, adj, start, order_neighbors)
        best = None
        for u in by_rank[ties[0]]:
            seeded = {w: (ranks[w], 1 if w == u else 0) for w in members}
            s = search(seeded)
            if best is None or s < best:
                best = s
        return best

    return search(base)


def canonical_smiles(g: MolecularGraph) -> str:
    """Deterministic canonical form: equal strings iff label-isomorphic graphs
    (stereo annotations excluded)."""
    stripped = MolecularGraph(g.atoms, [Bond(b.a, b.b, b.order) for b in g.bonds],
                              g.components)
    adj = stripped.adjacency()
    comps = defaultdict(list)
    for i, c in enumerate(g.components):
        comps[c].append(i)
    return ".".join(sorted(_canon_component(stripped, adj, members)
                           for members in comps.values()))


# ---------------------------------------------------------------------------
# tokenization and vocabulary
# ---------------------------------------------------------------------------

def tokenize(s: str) -> list[str]:
    """The tokens ``_lex`` yields; ``"".join(tokenize(s)) == s``."""
    return [tok for _, tok in _lex(s)]


class Vocabulary:
    """Token-to-id bijection with four fixed reserved ids (PAD/UNK/MASK/SEP)."""

    def __init__(self, tokens: list[str]):
        self.tokens = list(RESERVED_TOKENS) + list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise VocabularyError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.tokens)

    def encode_token(self, token: str) -> int:
        return self.index.get(token, UNK)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.encode_token(t) for t in tokens]

    @classmethod
    def build(cls, corpus: Iterable[str], min_count: int = 1) -> "Vocabulary":
        counts: Counter = Counter()
        n = 0
        for s in corpus:
            counts.update(tokenize(s))
            n += 1
        if n == 0:
            raise ValueError("empty corpus")
        kept = sorted((t for t, c in counts.items() if c >= min_count),
                      key=lambda t: (-counts[t], t))
        return cls(kept)

    def save(self, path):
        write_lines(path, self.tokens)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
        if tuple(lines[:4]) != RESERVED_TOKENS:
            raise VocabularyError(f"vocab file {path} lacks the 4-line reserved header")
        return cls(lines[4:])


@dataclass
class TokenSequence:
    """Fixed-length encoded pair: ids, segment ids, and a real-token mask."""

    ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    n_real: int
    truncated: bool = False


def encode_pair(a: str, b: str, vocab: Vocabulary, max_len: int = 500) -> TokenSequence:
    """tokens(a) + SEP + tokens(b), truncated from the right, padded to max_len.

    Segment 0 runs through the SEP, segment 1 after it; padding keeps the
    segment id of the last real segment.
    """
    ta = vocab.encode(tokenize(a))
    tb = vocab.encode(tokenize(b))
    ids = ta + [SEP] + tb
    segs = [0] * (len(ta) + 1) + [1] * len(tb)
    truncated = len(ids) > max_len
    ids = ids[:max_len]
    segs = segs[:max_len]
    n_real = len(ids)
    pad_n = max_len - n_real
    last_seg = segs[-1] if segs else 0
    ids = ids + [PAD] * pad_n
    segs = segs + [last_seg] * pad_n
    mask = [True] * n_real + [False] * pad_n
    return TokenSequence(
        ids=np.asarray(ids, dtype=np.int64),
        segment_ids=np.asarray(segs, dtype=np.int64),
        attention_mask=np.asarray(mask, dtype=bool),
        n_real=n_real,
        truncated=truncated,
    )
