import re

import pytest

from cantoasr.lexicon import (
    LexiconEntry,
    LexiconError,
    check_merges,
    compile_lexicon,
    demo_lexicon_path,
    lexicon_stats,
    read_lexicon,
    write_phone_lexicon,
)
from cantoasr.phonology import (
    MergeRuleSet,
    apply_merge,
    default_inventory,
    parse_jyutping,
    to_phones,
)


@pytest.fixture(scope="module")
def inv():
    return default_inventory()


@pytest.fixture(scope="module")
def demo_entries():
    return read_lexicon(demo_lexicon_path())


def entry(word, *prons):
    return LexiconEntry(word, tuple(tuple(p.split()) for p in prons))


def test_compile_onc(inv):
    lex = compile_lexicon([entry("令狐", "ling4 wu4")], "onc", inv)
    (pron,) = lex.entries["令狐"]
    assert [p.label for p in pron] == ["l", "i4", "_ng4", "w", "u4"]


def test_compile_if(inv):
    lex = compile_lexicon([entry("令狐", "ling4 wu4")], "if", inv)
    (pron,) = lex.entries["令狐"]
    assert [p.label for p in pron] == ["l", "ing4", "w", "u4"]


def test_compile_empty(inv):
    lex = compile_lexicon([], "onc", inv)
    assert lex.entries == {} and lex.labels == ()


def test_compile_bad_syllable(inv):
    with pytest.raises(LexiconError, match="zzz9"):
        compile_lexicon([entry("壞", "zzz9")], "onc", inv)
    # a bad syllable shared by two words names the first word that uses it
    shared = [entry("天", "tin1"), entry("壞", "zzz9"), entry("爛", "zzz9")]
    with pytest.raises(LexiconError, match="word '壞': bad syllable 'zzz9'"):
        compile_lexicon(shared, "onc", inv)


def test_compile_rejects_a_repeated_word(inv):
    # read_lexicon merges a word's lines; compile_lexicon takes one entry per word
    entries = [entry("天", "tin1"), entry("地", "dei6"), entry("天", "tin2")]
    with pytest.raises(LexiconError, match="word '天' has more than one entry"):
        compile_lexicon(entries, "if", inv)


@pytest.mark.parametrize("scheme", ["if", "onc"])
@pytest.mark.parametrize("rules", [None, "t>k@aa,a,o;ng>n@aa,a,o"], ids=["plain", "merged"])
def test_compile_equals_a_per_syllable_expansion(inv, demo_entries, scheme, rules):
    merges = MergeRuleSet.parse(rules) if rules else None

    def syllable_phones(text):
        syl = parse_jyutping(text, inv)
        return to_phones(apply_merge(syl, merges) if merges else syl, scheme, inv)

    expected: dict[str, list] = {}
    for e in demo_entries:
        seqs = expected.setdefault(e.word, [])
        for pron in e.pronunciations:
            seq = tuple(p for text in pron for p in syllable_phones(text))
            if seq not in seqs:
                seqs.append(seq)
    lex = compile_lexicon(demo_entries, scheme, inv, merges)
    assert list(lex.entries.items()) == [(w, tuple(seqs)) for w, seqs in expected.items()]


def test_entry_length_mismatch():
    with pytest.raises(LexiconError, match="syllables"):
        entry("令狐", "ling4")


def test_stats(inv):
    lex = compile_lexicon([entry("天", "tin1")], "if", inv)
    st = lexicon_stats(lex)
    assert (st.entries, st.variants) == (1, 0)

    lex = compile_lexicon([entry("天", "tin1", "tin2", "tin4")], "if", inv)
    st = lexicon_stats(lex)
    assert (st.entries, st.variants) == (1, 2)
    assert str(st).startswith("entries=1 variants=2")


def test_merge_collision(inv):
    # coda merge makes 八 and 百 compile to identical sequences
    rules = MergeRuleSet.parse("t>k@aa,a,o")
    for scheme in ("if", "onc"):
        lex = compile_lexicon(
            [entry("八", "baat3"), entry("百", "baak3")], scheme, inv, merges=rules
        )
        assert lex.entries["八"] == lex.entries["百"]


@pytest.mark.parametrize("scheme", ["if", "onc"])
@pytest.mark.parametrize(
    "rules, message",
    [
        # a missing ';' makes one rule whose target is the rest of the text
        ("t>k,n>ng", "merge rule 't>k,n>ng' names unknown coda 'k,n>ng'"),
        ("x>k", "merge rule 'x>k' names unknown coda 'x'"),
        ("t>k@aa,zz", "merge rule 't>k@aa,zz' names unknown nucleus 'zz'"),
        ("ng>n;p>b@zz", "merge rule 'p>b@zz' names unknown coda 'b' and nucleus 'zz'"),
        # nucleus yu has only the finals yu, yun and yut
        ("ng>n@yu", "merge rule 'ng>n@yu' rewrites no final of the inventory"),
        # the earlier rule rewrites every final the later one names
        ("t>k;t>p", "merge rule 't>p' rewrites no final of the inventory"),
        ("t>k;t>k", "merge rule 't>k' rewrites no final of the inventory"),
        ("m>n@aa,a;m>ng@a", "merge rule 'm>ng@a' rewrites no final of the inventory"),
    ],
)
def test_merge_rule_outside_the_inventory_is_rejected(inv, scheme, rules, message):
    merges = MergeRuleSet.parse(rules)
    # the rules are checked before any syllable: the bad one is never reached
    entries = [entry("八", "baat3"), entry("壞", "zzz9")]
    with pytest.raises(LexiconError, match=re.escape(message)):
        compile_lexicon(entries, scheme, inv, merges=merges)


@pytest.mark.parametrize("rules", ["t>k", "ng>n", "t>k@aa,a,o", "t>k@aa,a,o;ng>n@aa,a,o"])
def test_merge_rules_in_use_are_legal(inv, rules):
    check_merges(MergeRuleSet.parse(rules), inv)


def test_merge_keeps_onc_structure(inv):
    rules = MergeRuleSet.parse("t>k@aa,a,o")
    lex = compile_lexicon(
        [entry("逼", "bik1"), entry("百", "baak3")], "onc", inv, merges=rules
    )
    (bik,) = lex.entries["逼"]
    (baak,) = lex.entries["百"]
    # the coda base symbol is shared across the ik / aak contexts
    assert bik[-1].kind == "coda" and baak[-1].kind == "coda"
    assert bik[-1].base == baak[-1].base == "k"
    # while the nucleus stays its own unit, distinct from any coda label
    assert bik[1].kind == "nucleus" and bik[1].base == "i"


def test_write_phone_lexicon_lines(tmp_path, inv):
    lex = compile_lexicon(
        [entry("令狐", "ling4 wu4"), entry("生", "sang1", "saang1")], "onc", inv
    )
    write_phone_lexicon(lex, tmp_path)
    assert (tmp_path / "lexicon.txt").read_text(encoding="utf-8").splitlines() == [
        "令狐\tl i4 _ng4 w u4",
        "生\ts a1 _ng1",
        "生\ts aa1 _ng1",
    ]


def test_write_deterministic(tmp_path, inv, demo_entries):
    lex = compile_lexicon(demo_entries, "onc", inv)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_phone_lexicon(lex, d1)
    write_phone_lexicon(lex, d2)
    for name in ("lexicon.txt", "phones.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_two_pronunciations_two_lines(tmp_path, inv):
    lex = compile_lexicon([entry("生", "sang1", "saang1")], "if", inv)
    write_phone_lexicon(lex, tmp_path)
    lines = (tmp_path / "lexicon.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and all(l.startswith("生\t") for l in lines)


def test_demo_lexicon_has_no_homophones(demo_entries):
    assert len(demo_entries) >= 200
    words_by_pron: dict[tuple[str, ...], set[str]] = {}
    for e in demo_entries:
        for pron in e.pronunciations:
            words_by_pron.setdefault(pron, set()).add(e.word)
    assert all(len(words) == 1 for words in words_by_pron.values())


def test_onc_alphabet_smaller_on_demo(inv, demo_entries):
    lex_if = compile_lexicon(demo_entries, "if", inv)
    lex_onc = compile_lexicon(demo_entries, "onc", inv)
    # enough coverage for the base-alphabet saving to show up
    final_tones = {
        (p.base, p.tone)
        for prons in lex_if.entries.values() for pron in prons for p in pron if p.kind == "final"
    }
    finals = {base for base, _ in final_tones}
    assert len(final_tones) >= 25 and len(finals) >= 10
    assert len(lex_onc.labels) <= len(lex_if.labels)


@pytest.mark.parametrize("scheme", ["if", "onc"])
def test_equal_phones_are_one_object(inv, demo_entries, scheme):
    lex = compile_lexicon(demo_entries, scheme, inv)
    phones = [p for prons in lex.entries.values() for pron in prons for p in pron]
    assert len({id(p) for p in phones}) == len(set(phones)) == len(lex.labels)
