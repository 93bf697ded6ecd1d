import random
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from stoplab.textpipe import normalize, tokenize, tokenize_chunks

ALEF = "ا"
ALEF_MADDA = "آ"
ALEF_HAMZA_ABOVE = "أ"
ALEF_HAMZA_BELOW = "إ"
ALEF_MAQSURA = "ى"
TEH_MARBUTA = "ة"
YEH = "ي"
HEH = "ه"
TATWEEL = "ـ"
FATHA = "َ"
SHADDA = "ّ"


def random_strings(count, seed=0, max_len=60):
    rng = random.Random(seed)
    pools = [
        (0x0600, 0x06FF),   # Arabic block incl. diacritics and punctuation
        (0x0020, 0x007E),   # printable ASCII
        (0x00A0, 0x02FF),   # Latin supplements
        (0x4E00, 0x4E80),   # a little CJK
    ]
    for _ in range(count):
        n = rng.randint(0, max_len)
        chars = []
        for _ in range(n):
            lo, hi = rng.choice(pools)
            chars.append(chr(rng.randint(lo, hi)))
        yield "".join(chars)


class TestNormalize:
    def test_hamza_alef_folds_to_bare_alef(self):
        assert normalize("أخبار") == "اخبار"

    def test_all_alef_variants(self):
        for variant in (ALEF_MADDA, ALEF_HAMZA_ABOVE, ALEF_HAMZA_BELOW):
            assert normalize(variant) == ALEF

    def test_empty(self):
        assert normalize("") == ""

    def test_plain_ascii_unchanged(self):
        assert normalize("abc 123") == "abc 123"

    def test_diacritics_and_tatweel_removed(self):
        word = "ق" + FATHA + "ا" + TATWEEL + "ل" + SHADDA
        assert normalize(word) == "قال"

    def test_final_alef_maqsura_becomes_yeh(self):
        assert normalize("مستشف" + ALEF_MAQSURA) == (
            "مستشف" + YEH
        )

    def test_medial_alef_maqsura_untouched(self):
        # not word-final: followed by another Arabic letter
        word = ALEF_MAQSURA + "ب"
        assert normalize(word) == word

    def test_final_teh_marbuta_becomes_heh(self):
        assert normalize("مدرس" + TEH_MARBUTA) == (
            "مدرس" + HEH
        )

    def test_word_final_inside_sentence(self):
        text = "قص" + TEH_MARBUTA + " قصص"
        assert normalize(text) == "قص" + HEH + " قصص"

    def test_idempotent_on_random_unicode(self):
        for s in random_strings(2000, seed=7):
            once = normalize(s)
            assert normalize(once) == once

    def test_never_grows(self):
        for s in random_strings(2000, seed=8):
            assert len(normalize(s)) <= len(s)


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("قال الوزير") == [
            "قال",
            "الوزير",
        ]

    def test_hyphen_separates(self):
        assert tokenize("TREC-2001") == ["TREC", "2001"]

    def test_mixed_latin_digit_run_is_one_token(self):
        assert tokenize("TREC2001") == ["TREC2001"]

    def test_separator_only(self):
        assert tokenize("   ") == []
        assert tokenize(".,;!") == []

    def test_script_boundary_splits(self):
        assert tokenize("abcقال") == ["abc", "قال"]

    def test_no_empty_or_separator_tokens(self):
        for s in random_strings(2000, seed=9):
            for token in tokenize(normalize(s)):
                assert token
                assert not any(c.isspace() for c in token)
                assert TATWEEL not in token
                assert FATHA not in token

    def test_order_preserved_and_stable(self):
        text = "a ب c د e"
        assert tokenize(text) == tokenize(text) == ["a", "ب", "c", "د", "e"]

    def test_reserializing_tokens_preserves_them(self):
        # joining a token sequence with a separator and re-tokenizing is a
        # no-op, so token counts survive any such round trip
        for s in random_strings(1000, seed=10):
            tokens = tokenize(normalize(s))
            assert tokenize(" ".join(tokens)) == tokens


# Arabic letters; the alef, alef-maqsura and teh-marbuta variants, the
# marks and tatweel, which the rules rewrite; Latin letters, digits and
# punctuation; and every whitespace character below U+3001 (U+001C..U+001F,
# U+0085, U+00A0, U+2003, U+3000, ...).  Each group is drawn as often as the
# others, so a rewritten character next to a rare space comes up.
LOCALITY_GROUPS = [
    [chr(c) for c in range(0x0621, 0x064B)],
    [ALEF_MADDA, ALEF_HAMZA_ABOVE, ALEF_HAMZA_BELOW, ALEF_MAQSURA, TEH_MARBUTA, TATWEEL]
    + [chr(c) for c in range(0x064B, 0x0653)],
    list(string.ascii_letters + string.digits + string.punctuation),
    [chr(c) for c in range(0x3001) if chr(c).isspace()],
]
LOCALITY_TEXT = st.text(st.one_of([st.sampled_from(g) for g in LOCALITY_GROUPS]), max_size=40)


def assert_local(text):
    per_chunk = [tokenize(normalize(c)) for c in text.split()]
    assert tokenize(normalize(text)) == [t for ts in per_chunk for t in ts]
    tokens, ends = tokenize_chunks(text.split())
    assert [tokens[a:b] for a, b in zip([0, *ends], ends)] == per_chunk
    assert len(tokens) == (ends[-1] if ends else 0)


class TestChunkLocality:
    """Neither normalize nor tokenize looks across whitespace."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(text=LOCALITY_TEXT)
    def test_tokens_are_the_chunks_tokens(self, text):
        assert_local(text)

    def test_each_rewritten_character_beside_each_space(self):
        for space in LOCALITY_GROUPS[3]:
            for c in LOCALITY_GROUPS[1]:
                assert_local("ب%s%s%sب%s" % (c, space, c, space))
