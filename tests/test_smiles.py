"""Parser, writer, canonicalizer, tokenizer and vocabulary tests. The
round-trip oracle is canonical-form equality: a rewritten string must
re-parse to a graph with the same canonical SMILES as the source."""

import contextlib
import re

import numpy as np
import pytest
from hypothesis import example, given, reject, strategies as st

from ddikit.fixtures import random_molecule, random_smiles_corpus
from ddikit.smiles import (MASK, PAD, RESERVED_TOKENS, SEP, UNK, SmilesError,
                           Vocabulary, VocabularyError, canonical_smiles, encode_pair,
                           parse_smiles, randomize_smiles, tokenize,
                           write_smiles)

CURATED = [
    "CCO",                          # ethanol
    "C(C)(C)C",                     # branches
    "c1ccccc1",                     # benzene
    "c1ccc2ccccc2c1",               # naphthalene (fused rings)
    "C1CC1",                        # cyclopropane
    "[nH]1cccc1",                   # pyrrole with bracket aromatic N
    "CC(=O)Oc1ccccc1C(=O)O",        # aspirin
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C",   # caffeine
    "[Na+].[Cl-]",                  # disconnected ions
    "C/C=C/Cl",                     # trans stereo bond
    "N#Cc1ccccc1",                  # triple bond to ring
    "[13CH4]",                      # isotope
    "[C@@H](N)(C)O",                # tetrahedral chirality
    "O=C(O)C(N)Cc1c[nH]c2ccccc12",  # tryptophan
    "C%12CCCCC%12",                 # two-digit ring closure
    "S(=O)(=O)O",                   # sulfate-like
]


@pytest.mark.parametrize("s", CURATED)
def test_curated_roundtrip(s):
    g = parse_smiles(s)
    want = canonical_smiles(g)
    rng = np.random.default_rng(0)
    for _ in range(5):
        alt = randomize_smiles(s, rng)
        assert canonical_smiles(parse_smiles(alt)) == want


def test_parse_counts_atoms_and_bonds():
    g = parse_smiles("CC(=O)O")
    assert len(g.atoms) == 4
    assert len(g.bonds) == 3
    orders = sorted(b.order for b in g.bonds)
    assert orders == ["double", "single", "single"]


def test_parse_aromatic_flags():
    g = parse_smiles("c1ccccc1")
    assert all(a.aromatic for a in g.atoms)
    assert all(b.order == "aromatic" for b in g.bonds)


def test_parse_bracket_atom_fields():
    g = parse_smiles("[13C@H2+]")
    a = g.atoms[0]
    assert a.isotope == 13
    assert a.element == "C"
    assert a.h_count == 2
    assert a.charge == 1
    assert a.chirality == "@"


def test_parse_charge_runs():
    assert parse_smiles("[Fe++]").atoms[0].charge == 2
    assert parse_smiles("[O-2]").atoms[0].charge == -2


def test_parse_components():
    assert write_smiles(parse_smiles("CCO.CC.N")).count(".") == 2
    # a ring bond across a dot joins its two sides into one component
    assert write_smiles(parse_smiles("C1.C1")) == "CC"


@pytest.mark.parametrize("s,orders", [
    ("C=1CCC1", ["single", "single", "single", "double"]),
    ("C1CCC=1", ["single", "single", "single", "double"]),
    ("c1ccccc1", ["aromatic"] * 6),
    ("C1CCCCC1", ["single"] * 6),
])
def test_ring_closure_bond_order(s, orders):
    """A bond symbol on either digit sets the ring bond's order; with none,
    it is aromatic between two aromatic atoms and single otherwise."""
    g = parse_smiles(s)
    assert [b.order for b in g.bonds] == orders
    assert {g.bonds[-1].a, g.bonds[-1].b} == {0, len(g.atoms) - 1}


@pytest.mark.parametrize("bad,offset", [
    ("C(C", 3),          # unclosed branch, reported at end of input
    ("C)C", 1),          # stray close
    ("C1CC", 1),         # unclosed ring
    ("[CH4", 0),         # unterminated bracket
    ("CX", 1),           # unknown element
    ("C==C", 2),         # duplicate bond symbol
    ("", 0),             # empty
    ("C11", 2),          # self ring bond
    ("C)C[", 1),         # the first error wins over a later unterminated bracket
    ("C==C[", 2),
    ("CX[", 1),
    (".", 0),            # a dot with no atom before it in its chain
    ("..", 0),
    (".C", 0),
    ("C.", 1),           # a dot not followed directly by an atom
    ("C..C", 1),
    ("C(C.)C", 3),
    ("C\u00b2", 1),       # a superscript digit is not a ring closure, isotope,
    ("[\u00b2C]", 1),     # %nn closure, hydrogen count or charge
    ("C%\u00b2\u00b3", 1),
    ("[CH\u00b2]", 3),
    ("[C+\u00b2]", 3),
    ("[CH12]", 4),        # at most one hydrogen-count digit, two charge digits
    ("[C+123]", 5),       # and three isotope digits, so int() never sees a
    ("[1234C]", 4),       # run longer than it accepts
    pytest.param("[C+" + "1" * 5000 + "]", 5, id="charge-5000-digits"),
    pytest.param("[" + "1" * 5000 + "C]", 4, id="isotope-5000-digits"),
    pytest.param("[CH" + "1" * 5000 + "]", 4, id="hydrogen-count-5000-digits"),
    pytest.param("[C" + "+" * 100 + "]", 101, id="charge-100-signs"),  # written as +100
    ("C=1CC-1", 6),       # conflicting ring-closure bond symbols
    ("C=.C", 2),          # bond symbol before a dot
    ("[]", 0),            # empty bracket atom
    ("[13]", 3),          # bracket atom without an element
    ("[C:]", 3),          # atom class without digits
])
def test_parse_errors_carry_offsets(bad, offset):
    with pytest.raises(SmilesError) as exc:
        parse_smiles(bad)
    assert exc.value.offset == offset


# SMILES symbols mixed with non-ASCII characters that str.isdigit, islower
# or isupper accept: a superscript two, an Arabic-Indic three, e-acute.
SMILES_LIKE = st.text(st.sampled_from("CNcn[]()=#%+-@H:.12\u00b2\u0663\u00e9\u00c9"))


@example("C1.C1")  # dots that do not separate connected components
@example("C(.C)C")
@example("C(C.)C")
@given(st.text() | SMILES_LIKE)
def test_any_text_parses_or_raises_a_smiles_error(s):
    """Text parses or raises a SmilesError, and a parsed graph writes as
    SMILES that parses back to the same atoms, bonds and canonical form."""
    with contextlib.suppress(SmilesError):
        assert "".join(tokenize(s)) == s
    try:
        g = parse_smiles(s)
    except SmilesError:
        return
    try:
        h = parse_smiles(write_smiles(g))
    except ValueError as exc:
        assert "more than 99 ring bonds" in str(exc)
        reject()
    assert (len(h.atoms), len(h.bonds), canonical_smiles(h)) == \
        (len(g.atoms), len(g.bonds), canonical_smiles(g))


def test_write_smiles_deterministic_without_rng():
    g = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    assert write_smiles(g, 0) == write_smiles(g, 0)


def test_randomize_varies_start_atom():
    rng = np.random.default_rng(3)
    outs = {randomize_smiles("CC(=O)Oc1ccccc1C(=O)O", rng) for _ in range(30)}
    assert len(outs) > 5


def test_canonical_is_permutation_invariant():
    rng = np.random.default_rng(1)
    for s in CURATED:
        g = parse_smiles(s)
        forms = {canonical_smiles(parse_smiles(randomize_smiles(s, rng)))
                 for _ in range(8)}
        assert forms == {canonical_smiles(g)}


def test_canonical_separates_non_isomorphic():
    pairs = [("CCO", "CCN"), ("C1CC1", "CCC"), ("c1ccccc1", "C1CCCCC1"),
             ("CC(C)C", "CCCC"), ("[NH4+]", "N")]
    for a, b in pairs:
        assert canonical_smiles(parse_smiles(a)) != canonical_smiles(parse_smiles(b))


def test_synthetic_corpus_roundtrip():
    rng = np.random.default_rng(42)
    corpus = random_smiles_corpus(200, rng)
    wrng = np.random.default_rng(7)
    for s in corpus:
        want = canonical_smiles(parse_smiles(s))
        alt = randomize_smiles(s, wrng)
        assert canonical_smiles(parse_smiles(alt)) == want


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

def test_tokenize_oracle_cases():
    assert tokenize("CCl") == ["C", "Cl"]
    assert tokenize("CBr") == ["C", "Br"]
    assert tokenize("[nH]1cccc1") == ["[nH]", "1", "c", "c", "c", "c", "1"]
    assert tokenize("C%12CC%12") == ["C", "%12", "C", "C", "%12"]
    assert tokenize("C/C=C\\Cl") == ["C", "/", "C", "=", "C", "\\", "Cl"]
    assert tokenize("[13C@H2+]O") == ["[13C@H2+]", "O"]


@pytest.mark.parametrize("s", CURATED)
def test_tokenize_join_roundtrip(s):
    assert "".join(tokenize(s)) == s


def test_tokenize_join_roundtrip_synthetic():
    rng = np.random.default_rng(5)
    for s in random_smiles_corpus(100, rng):
        assert "".join(tokenize(s)) == s


# ---------------------------------------------------------------------------
# vocabulary and pair encoding
# ---------------------------------------------------------------------------

def test_vocab_reserved_ids():
    v = Vocabulary.build(["CCO"])
    assert (PAD, UNK, MASK, SEP) == (0, 1, 2, 3)
    for i, tok in enumerate(RESERVED_TOKENS):
        assert v.index[tok] == i


def test_vocab_order_freq_desc_then_token():
    v = Vocabulary.build(["CCO", "CCN"])  # C:4, O:1, N:1
    assert v.tokens[4:] == ["C", "N", "O"]


def test_vocab_min_count_filters():
    v = Vocabulary.build(["CCO"], min_count=2)
    assert "O" not in v.index
    assert v.encode_token("O") == UNK


def test_vocab_build_deterministic():
    corpus = random_smiles_corpus(50, np.random.default_rng(0))
    a = Vocabulary.build(corpus)
    b = Vocabulary.build(list(reversed(corpus)))
    assert a.tokens == b.tokens


def test_vocab_save_load_roundtrip(tmp_path):
    v = Vocabulary.build(["CC(=O)Oc1ccccc1C(=O)O", "CCO"])
    p = tmp_path / "vocab.txt"
    v.save(p)
    w = Vocabulary.load(p)
    assert w.tokens == v.tokens
    assert len(w) == len(v)


def test_vocab_load_rejects_missing_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("C\nO\n")
    with pytest.raises(ValueError):
        Vocabulary.load(p)


def test_vocab_load_names_the_line_of_the_first_repeated_token(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("\n".join(RESERVED_TOKENS + ("C", "O", "C", "")) + "\n")
    with pytest.raises(VocabularyError, match=f"^{re.escape(str(p))}:7: "):
        Vocabulary.load(p)


def test_encode_pair_layout():
    v = Vocabulary.build(["CCO", "CCN"])
    seq = encode_pair("CCO", "CN", v, max_len=10)
    c, n, o = v.index["C"], v.index["N"], v.index["O"]
    assert seq.ids.tolist() == [c, c, o, SEP, c, n, PAD, PAD, PAD, PAD]
    assert seq.segment_ids.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
    assert seq.attention_mask.tolist() == [True] * 6 + [False] * 4
    assert seq.n_real == 6
    assert not seq.truncated


def test_encode_pair_truncates_right():
    v = Vocabulary.build(["C"])
    seq = encode_pair("C" * 300, "C" * 300, v, max_len=500)
    assert seq.truncated
    assert seq.n_real == 500
    assert seq.ids[300] == SEP
    assert (seq.ids != PAD).all()
    assert seq.segment_ids[-1] == 1
    assert seq.attention_mask.all()


def test_encode_pair_unknown_token_maps_to_unk():
    v = Vocabulary.build(["CC"])
    seq = encode_pair("CO", "C", v, max_len=8)
    assert seq.ids[1] == UNK
