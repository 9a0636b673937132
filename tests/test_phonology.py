import itertools
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from cantoasr import DataError
from cantoasr.phonology import (
    Inventory,
    InventoryError,
    JyutpingError,
    MergeRule,
    MergeRuleSet,
    Phone,
    Syllable,
    apply_merge,
    default_inventory,
    load_inventory,
    parse_jyutping,
    render,
    to_if,
    to_onc,
)

from oracles import parse_jyutping_reference


@pytest.fixture(scope="module")
def inv():
    return default_inventory()


def test_inventory_cardinalities(inv):
    assert len(inv.onsets) == 20  # including the null onset
    assert len(inv.nuclei) == 15
    assert len(inv.codas) == 9
    assert len(inv.finals) == 53


def test_onc_base_alphabet_smaller_than_if(inv):
    # nucleus + coda symbols form a 24-letter alphabet vs 53 whole finals
    assert len(inv.nuclei) + len(inv.codas) == 24 < len(inv.finals)


def test_inventory_bad_final_reference(tmp_path, inv):
    lines = ["#onsets"] + sorted(inv.onsets) + ["#nuclei"] + sorted(inv.nuclei)
    lines += ["#codas"] + sorted(inv.codas) + ["#finals"]
    for final, (nuc, coda) in sorted(inv.finals.items()):
        if final == "aak":
            nuc = "zz"
        lines.append(f"{final}\t{nuc}\t{coda or '-'}")
    p = tmp_path / "inv.tsv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(InventoryError, match="aak"):
        load_inventory(p)


def test_inventory_wrong_final_count(tmp_path, inv):
    lines = ["#onsets"] + sorted(inv.onsets) + ["#nuclei"] + sorted(inv.nuclei)
    lines += ["#codas"] + sorted(inv.codas) + ["#finals"]
    for final, (nuc, coda) in sorted(inv.finals.items()):
        if final != "aak":
            lines.append(f"{final}\t{nuc}\t{coda or '-'}")
    p = tmp_path / "inv.tsv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(InventoryError, match="finals"):
        load_inventory(p)


def test_parse_basic(inv):
    assert parse_jyutping("ling4", inv) == Syllable("l", "i", "ng", 4)
    assert parse_jyutping("aa1", inv) == Syllable(None, "aa", None, 1)
    assert parse_jyutping("baak3", inv) == Syllable("b", "aa", "k", 3)


def test_parse_syllabic_nasals(inv):
    assert parse_jyutping("m4", inv) == Syllable(None, "m", None, 4)
    assert parse_jyutping("ng5", inv) == Syllable(None, "ng", None, 5)
    # consonantal use of the same symbols
    assert parse_jyutping("ngo5", inv) == Syllable("ng", "o", None, 5)
    assert parse_jyutping("maa1", inv) == Syllable("m", "aa", None, 1)


def test_parse_errors(inv):
    with pytest.raises(JyutpingError) as e:
        parse_jyutping("xyz7", inv)
    assert e.value.reason == "invalid-tone"
    with pytest.raises(JyutpingError) as e:
        parse_jyutping("", inv)
    assert e.value.reason == "empty-input"
    with pytest.raises(JyutpingError) as e:
        parse_jyutping("xyz3", inv)
    assert e.value.reason == "unknown-syllable"
    with pytest.raises(JyutpingError) as e:
        parse_jyutping("ling", inv)
    assert e.value.reason == "invalid-tone"


def parse_outcome(parse, text, inv):
    try:
        return parse(text, inv)
    except JyutpingError as exc:
        return str(exc), exc.reason


def test_parse_matches_the_onset_scan_reference(inv):
    texts = [
        f"{'' if onset == '-' else onset}{final}{tone}"
        for onset, final, tone in itertools.product(
            sorted(inv.onsets), sorted(inv.finals), range(8)
        )
    ]
    texts += ["", "m4", "ng5", "ngo5", "gwaa3", "-aa1", "xyz3"]
    for text in texts:
        assert parse_outcome(parse_jyutping, text, inv) == parse_outcome(
            parse_jyutping_reference, text, inv
        ), text


def test_render_inverts_parse(inv):
    for s in ["ling4", "aa1", "baak3", "gwok3", "ng5", "m4", "heoi3", "syut3"]:
        assert render(parse_jyutping(s, inv), inv) == s


def test_round_trip_exhaustive(inv):
    # every onset x final x tone combination must round-trip exactly
    count = 0
    for onset, final, tone in itertools.product(
        sorted(inv.onsets), sorted(inv.finals), range(1, 7)
    ):
        nucleus, coda = inv.finals[final]
        syl = Syllable(None if onset == "-" else onset, nucleus, coda, tone)
        text = render(syl, inv)
        back = parse_jyutping(text, inv)
        assert back == syl, f"{text}: {back} != {syl}"
        assert render(back, inv) == text
        count += 1
    assert count == 20 * 53 * 6


def test_to_if(inv):
    phones = to_if(parse_jyutping("ling4", inv), inv)
    assert [p.label for p in phones] == ["l", "ing4"]
    assert phones[0].tone is None and phones[1].tone == 4

    phones = to_if(parse_jyutping("aa1", inv), inv)
    assert [p.label for p in phones] == ["aa1"]

    aat = to_if(parse_jyutping("baat3", inv), inv)
    aak = to_if(parse_jyutping("baak3", inv), inv)
    assert aat[0] == aak[0]
    assert aat[1].base == "aat" and aak[1].base == "aak"


def test_to_onc(inv):
    phones = to_onc(parse_jyutping("ling4", inv))
    assert [p.label for p in phones] == ["l", "i4", "_ng4"]
    assert phones[1].tone == 4 and phones[2].tone == 4

    assert [p.label for p in to_onc(parse_jyutping("aa1", inv))] == ["aa1"]
    assert [p.label for p in to_onc(parse_jyutping("wu4", inv))] == ["w", "u4"]


def test_scheme_consistency(inv):
    # the (nucleus, coda) pair of the onc split maps back to the if final
    for final, (nucleus, coda) in inv.finals.items():
        for tone in (1, 4):
            syl = Syllable(None, nucleus, coda, tone)
            if_final = to_if(syl, inv)[-1]
            assert if_final.base == final
            onc = to_onc(syl)
            assert onc[0].base == nucleus
            if coda is not None:
                assert onc[1].base == coda
            assert inv.final_for(nucleus, coda) == final


def test_phone_tone_rules():
    with pytest.raises(ValueError):
        Phone("initial", "l", 3)
    with pytest.raises(ValueError):
        Phone("nucleus", "aa")
    with pytest.raises(ValueError):
        Phone("coda", "k", 9)


def test_phone_label_is_fixed_at_construction():
    cases = [
        (("initial", "l"), "l"),
        (("final", "aak", 1), "aak1"),
        (("onset", "gw"), "gw"),
        (("nucleus", "aa", 6), "aa6"),
        (("coda", "k", 3), "_k3"),
    ]
    for args, label in cases:
        assert Phone(*args).label == label
    phone = Phone("coda", "k", 3)
    with pytest.raises(FrozenInstanceError):
        phone.label = "_t3"
    assert replace(phone, base="t").label == "_t3"


def test_phone_equality_hash_and_repr_leave_the_label_out():
    phone = Phone("coda", "k", 3)
    assert [f.name for f in fields(phone) if f.compare] == ["kind", "base", "tone"]
    assert phone == Phone("coda", "k", 3) != Phone("coda", "k", 4)
    assert hash(phone) == hash(("coda", "k", 3))
    assert repr(phone) == "Phone(kind='coda', base='k', tone=3)"


def test_apply_merge(inv):
    rules = MergeRuleSet.parse("t>k")
    merged = apply_merge(parse_jyutping("baat3", inv), rules)
    assert render(merged, inv) == "baak3"

    rules = MergeRuleSet.parse("ng>n")
    merged = apply_merge(parse_jyutping("sang1", inv), rules)
    assert render(merged, inv) == "san1"

    syl = parse_jyutping("ling4", inv)
    assert apply_merge(syl, MergeRuleSet()) == syl


def test_rule_for_is_the_first_matching_rule(inv):
    rules = MergeRuleSet.parse("t>k@aa;t>ng")
    first, second = rules.rules
    assert rules.rule_for("aa", "t") is first
    assert rules.rule_for("o", "t") is second
    assert rules.rule_for("aa", "k") is None and rules.rule_for("aa", None) is None
    # apply_merge follows it: baat3 is rewritten by the first rule alone
    assert render(apply_merge(parse_jyutping("baat3", inv), rules), inv) == "baak3"
    assert render(apply_merge(parse_jyutping("got3", inv), rules), inv) == "gong3"


def test_merge_nucleus_filter(inv):
    rules = MergeRuleSet.parse("t>k@aa,a,o")
    assert render(apply_merge(parse_jyutping("baat3", inv), rules), inv) == "baak3"
    # eot is outside the filter and stays put
    syl = parse_jyutping("ceot1", inv)
    assert apply_merge(syl, rules) == syl


def test_merge_idempotent(inv):
    rules = MergeRuleSet.parse("t>k@aa,a,o;ng>n@aa,a,o")
    for s in ["baat3", "sang1", "ling4", "got3", "laang5"]:
        once = apply_merge(parse_jyutping(s, inv), rules)
        assert apply_merge(once, rules) == once


def test_merge_preserves_tone_and_nucleus(inv):
    rules = MergeRuleSet.parse("t>k@aa,a,o")
    for s in ["baat3", "bat1", "got3", "ling4"]:
        syl = parse_jyutping(s, inv)
        merged = apply_merge(syl, rules)
        assert merged.tone == syl.tone and merged.nucleus == syl.nucleus
        assert merged.onset == syl.onset


def test_merge_rules_reject_identity():
    with pytest.raises(ValueError):
        MergeRuleSet.parse("t>t")


@pytest.mark.parametrize("text", ["t>k@", "t>k@,", "t>k@ , ", "ng>n@aa;t>k@"])
def test_merge_rules_reject_an_empty_nucleus_filter(text):
    with pytest.raises(DataError, match="bad merge rule"):
        MergeRuleSet.parse(text)


def test_merge_rule_rejects_an_empty_nucleus_set():
    with pytest.raises(DataError, match="empty nucleus filter"):
        MergeRule("t", "k", frozenset())


# every rule text of the merge tests above, and one with spaces
@pytest.mark.parametrize(
    "text", ["t>k", "ng>n", "t>k@aa,a,o", "t>k@aa,a,o;ng>n@aa,a,o", " t > k @ o , aa "]
)
def test_merge_rule_text_parses_back_to_the_rule(text):
    for rule in MergeRuleSet.parse(text).rules:
        assert MergeRuleSet.parse(str(rule)).rules == (rule,)


def test_tone_range():
    with pytest.raises(ValueError):
        Syllable("l", "i", "ng", 7)


def test_phone_cardinality_bound(inv):
    # distinct if phones over all (final, tone) pairs vs onc phones
    if_phones = {
        Phone("final", f, t).label for f in inv.finals for t in range(1, 7)
    }
    onc_phones = set()
    for f, (nuc, coda) in inv.finals.items():
        for t in range(1, 7):
            onc_phones.add(Phone("nucleus", nuc, t).label)
            if coda:
                onc_phones.add(Phone("coda", coda, t).label)
    assert len(if_phones) <= 53 * 6
    assert len(onc_phones) <= (15 + 9) * 6
    assert len(onc_phones) < len(if_phones)
