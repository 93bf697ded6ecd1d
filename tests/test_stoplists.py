import io
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoplab.errors import ParseError
from stoplab.stoplists import (
    Stoplist,
    build_corpus_stoplist,
    combine,
    combined,
    corpus_based,
    general,
    load_stoplist,
    write_stoplist,
)
from stoplab.textpipe import normalize, tokenize

# Sizes of the curated bundled lists.  The source lists aimed at 1377 (GS)
# and 235 (CBS) with 83 words shared; the curated copies land nearby and the
# numbers below are frozen so silent edits to the data files fail loudly.
CURATED_GS = 945
CURATED_CBS = 230
CURATED_OVERLAP = 82
CURATED_UNION = 1093


class TestName:
    @pytest.mark.parametrize("name", ["", "my list", " GS", "GS\n", "a\tb"])
    def test_name_must_be_one_word(self, name):
        with pytest.raises(ValueError, match="^stoplist name .* is not one word"):
            Stoplist(name, frozenset())

    def test_every_constructor_checks_the_name(self):
        with pytest.raises(ValueError):
            load_stoplist(io.StringIO("في\n"), name="x y")
        with pytest.raises(ValueError):
            build_corpus_stoplist({"a": 3}, 1, name="x y")
        with pytest.raises(ValueError):
            combine(general(), corpus_based(), name="x y")


class TestLoad:
    def test_one_word_per_line(self):
        sl = load_stoplist(io.StringIO("في\nمن\n"), name="t")
        assert len(sl) == 2

    def test_empty_file(self):
        assert len(load_stoplist(io.StringIO(""), name="t")) == 0

    def test_duplicates_collapse(self):
        sl = load_stoplist(io.StringIO("في\nفي\n"), name="t")
        assert len(sl) == 1

    def test_entries_are_normalized(self):
        sl = load_stoplist(io.StringIO("أيضا\n"), name="t")
        assert "ايضا" in sl

    def test_marked_entries_load_bare(self):
        sl = load_stoplist(io.StringIO("كَتَبَ\nكـتـب\nكتب\n"), name="t")
        assert sl.words == {"كتب"}

    @pytest.mark.parametrize("line, word", [
        ("two words", "two words"), ("في-ال", "في-ال"), ("أ.", "ا."), ("ـَ", ""),
    ], ids=["space", "hyphen", "punctuation", "marks-only"])
    def test_entry_no_token_can_equal_is_refused(self, line, word):
        with pytest.raises(ParseError) as info:
            load_stoplist(io.StringIO("solo\n%s\n" % line), name="t")
        assert str(info.value) == "stoplist line 2: stopword %r is not one token" % word

    def test_invalid_utf8_names_line(self):
        stream = io.BytesIO("ok\n".encode("utf-8") + b"\xff\xfe\n")
        with pytest.raises(ParseError, match="line 2"):
            load_stoplist(stream, name="bad")

    def test_path_input(self, tmp_path):
        p = tmp_path / "sl.txt"
        p.write_text("في\n", encoding="utf-8")
        assert len(load_stoplist(p, name="t")) == 1


# normalized words that are one token each: Arabic letters with marks and
# tatweel (which normalize removes), or ASCII letters and digits
ONE_TOKEN_WORDS = (
    st.text(st.sampled_from([chr(c) for c in range(0x0621, 0x0653)]), min_size=1, max_size=8)
    | st.text(st.sampled_from(string.ascii_letters + string.digits), min_size=1, max_size=8)
).map(normalize).filter(lambda word: tokenize(word) == [word])


def written_and_loaded(stoplist: Stoplist) -> Stoplist:
    out = io.StringIO()
    write_stoplist(stoplist, out)
    out.seek(0)
    return load_stoplist(out, name=stoplist.name, provenance=stoplist.provenance)


class TestWrite:
    def test_format(self):
        out = io.StringIO()
        write_stoplist(Stoplist("L", frozenset({"من", "في"}), "combined"), out)
        assert out.getvalue() == (
            "# stoplist: L\n# provenance: combined\n# words: 2\nفي\nمن\n")

    @pytest.mark.parametrize("stoplist", [general, corpus_based, combined])
    def test_bundled_list_round_trips(self, stoplist):
        assert written_and_loaded(stoplist()) == stoplist()

    @settings(max_examples=100, deadline=None, database=None)
    @given(words=st.frozensets(ONE_TOKEN_WORDS, max_size=30))
    def test_drawn_list_round_trips(self, words):
        stoplist = Stoplist("drawn", words)
        assert written_and_loaded(stoplist).words == words


class TestBuildCorpusStoplist:
    def test_threshold_is_strict(self):
        sl = build_corpus_stoplist({"a": 10, "b": 3}, cutoff=5)
        assert sl.words == frozenset({"a"})
        assert sl.provenance == "corpus-based"

    def test_boundary_value_excluded(self):
        sl = build_corpus_stoplist({"a": 5, "b": 6}, cutoff=5)
        assert sl.words == frozenset({"b"})

    def test_exclusions_removed(self):
        sl = build_corpus_stoplist({"a": 10, "b": 10}, cutoff=5, exclusions={"b"})
        assert sl.words == frozenset({"a"})

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            build_corpus_stoplist({}, cutoff=-1)

    def test_monotone_in_cutoff(self):
        rng = random.Random(5)
        freqs = {"t%d" % i: rng.randint(0, 100) for i in range(200)}
        previous = None
        for cutoff in range(0, 110, 10):
            words = build_corpus_stoplist(freqs, cutoff).words
            if previous is not None:
                assert words <= previous
            previous = words

    def test_at_source_scale(self):
        # 359 terms above the cutoff, 124 hand exclusions leaves 235
        freqs = {"hi%03d" % i: 25001 + i for i in range(359)}
        freqs.update({"lo%03d" % i: 24999 for i in range(400)})
        sl = build_corpus_stoplist(freqs, cutoff=25000)
        assert len(sl) == 359
        excl = {"hi%03d" % i for i in range(124)}
        sl = build_corpus_stoplist(freqs, cutoff=25000, exclusions=excl)
        assert len(sl) == 235


class TestCombine:
    def test_union(self):
        a = Stoplist("a", frozenset({"x", "y"}))
        b = Stoplist("b", frozenset({"y", "z"}))
        c = combine(a, b)
        assert c.words == frozenset({"x", "y", "z"})
        assert c.provenance == "combined"

    def test_identity_element(self):
        a = Stoplist("a", frozenset({"x"}))
        assert combine(a, Stoplist("e", frozenset())).words == frozenset({"x"})

    def test_commutative_and_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            wa = frozenset("w%d" % rng.randint(0, 30) for _ in range(rng.randint(0, 20)))
            wb = frozenset("w%d" % rng.randint(0, 30) for _ in range(rng.randint(0, 20)))
            a, b = Stoplist("a", wa), Stoplist("b", wb)
            assert combine(a, b).words == combine(b, a).words
            assert combine(a, a).words == a.words

    def test_inclusion_exclusion_exact(self):
        rng = random.Random(12)
        for _ in range(100):
            wa = frozenset("w%d" % rng.randint(0, 40) for _ in range(rng.randint(0, 25)))
            wb = frozenset("w%d" % rng.randint(0, 40) for _ in range(rng.randint(0, 25)))
            a, b = Stoplist("a", wa), Stoplist("b", wb)
            assert len(combine(a, b)) == len(a) + len(b) - len(wa & wb)


class TestFilter:
    def test_single_removal(self):
        gs = Stoplist("GS", frozenset({"في"}))
        assert gs.filter(["في", "القاهرة"]) == ["القاهرة"]

    def test_total_removal(self):
        sl = Stoplist("s", frozenset({"a", "b"}))
        assert sl.filter(["a", "b", "a"]) == []

    def test_empty_list_is_identity(self):
        sl = Stoplist("e", frozenset())
        tokens = ["a", "b", "c"]
        assert sl.filter(tokens) == tokens

    def test_idempotent_and_order_preserving(self):
        rng = random.Random(13)
        sl = Stoplist("s", frozenset({"s1", "s2", "s3"}))
        for _ in range(200):
            tokens = [
                rng.choice(["s1", "s2", "s3", "a", "b", "c"])
                for _ in range(rng.randint(0, 30))
            ]
            once = sl.filter(tokens)
            assert sl.filter(once) == once
            assert len(once) <= len(tokens)
            it = iter(tokens)
            assert all(t in it for t in once)  # subsequence check


class TestBundledLists:
    def test_curated_sizes(self):
        assert len(general()) == CURATED_GS
        assert len(corpus_based()) == CURATED_CBS
        assert len(general().words & corpus_based().words) == CURATED_OVERLAP
        assert len(combined()) == CURATED_UNION

    def test_set_algebra_identity(self):
        gs, cbs, cs = general(), corpus_based(), combined()
        assert len(cs) == len(gs) + len(cbs) - len(gs.words & cbs.words)
        assert cs.words == gs.words | cbs.words

    def test_codes_and_provenance(self):
        assert general().name == "GS" and general().provenance == "general"
        assert corpus_based().name == "CBS" and corpus_based().provenance == "corpus-based"
        assert combined().name == "CS" and combined().provenance == "combined"

    def test_words_normalized_and_nonempty(self):
        for sl in (general(), corpus_based()):
            for w in sl.words:
                assert w
                assert normalize(w) == w
