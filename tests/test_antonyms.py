import pytest
from hypothesis import given, strategies as st

from crowdrank.antonyms import (AntonymQueryContext, MergeStats,
                                default_dictionary, merge_lists, save_dictionary,
                                suffix_pos_tags)


def write_list(path, lines):
    path.write_text("\n".join(lines) + "\n", "utf-8")
    return path


@pytest.fixture(scope="module")
def lexicon():
    return default_dictionary()


class TestMergeLists:
    def test_antonym_sets_union(self, tmp_path):
        a = write_list(tmp_path / "a.tsv", ["fill\tv\tempty"])
        b = write_list(tmp_path / "b.tsv", ["fill\tv\tdrain"])
        merged = merge_lists([a, b])
        assert merged.antonyms_of("fill") == {"empty", "drain"}

    def test_disjoint_words_sum(self, tmp_path):
        a = write_list(tmp_path / "a.tsv", ["hot\tn\t"])
        b = write_list(tmp_path / "b.tsv", ["cold\tn\t"])
        assert len(merge_lists([a, b])) == 2

    def test_empty_file_list(self):
        assert len(merge_lists([])) == 0

    def test_symmetric_closure(self, tmp_path):
        a = write_list(tmp_path / "a.tsv", ["fill\tv\tempty"])
        merged = merge_lists([a])
        assert merged.antonyms_of("empty") == {"fill"}

    def test_unparsable_line_skipped(self, tmp_path):
        a = write_list(tmp_path / "a.tsv", ["fill\tv\tempty", "bad flags\tq\tx", "# comment"])
        stats = MergeStats()
        merged = merge_lists([a], stats)
        assert stats.warnings == 1
        assert "fill" in merged

    def test_save_round_trip(self, tmp_path):
        a = write_list(tmp_path / "a.tsv", ["fill\tv\tempty,drain", "array\tn\t"])
        merged = merge_lists([a])
        out = tmp_path / "out.tsv"
        save_dictionary(merged, out)
        again = merge_lists([out])
        assert again.antonyms_of("fill") == merged.antonyms_of("fill")
        assert again.tags("array") == merged.tags("array")


class TestPosFilter:
    def test_noun_mode(self, lexicon):
        assert lexicon.pos_filter({"fill", "array"}, "NN") == {"array"}

    def test_empty_query(self, lexicon):
        assert lexicon.pos_filter(set(), "NN_VB") == set()

    def test_unknown_word_excluded(self, lexicon):
        assert lexicon.pos_filter({"zzzgibberish"}, "NN_VB") == set()

    def test_bad_mode(self, lexicon):
        with pytest.raises(ValueError):
            lexicon.pos_filter({"fill"}, "XX")

    def test_suffix_heuristic(self):
        assert suffix_pos_tags("parsing") == {"v"}
        assert suffix_pos_tags("creation") == {"n"}
        assert suffix_pos_tags("widget") == {"n", "v"}


class TestAntonymContext:
    def test_self_antonymous_query(self, lexicon):
        ctx = lexicon.context({"zip", "unzip", "file"}, "NN")
        assert ctx.self_antonymous
        assert ctx.score({"unzip", "zip", "anything"}) == 0

    def test_fill_array(self, lexicon):
        ctx = lexicon.context({"fill", "array"}, "NN_VB")
        assert "empty" in ctx.antonyms
        assert not ctx.self_antonymous

    def test_no_lexicon_hits(self, lexicon):
        ctx = lexicon.context({"qqfoo", "qqbar"}, "NN_VB")
        assert ctx.antonyms == frozenset()
        assert not ctx.self_antonymous

    def test_own_words_removed(self, lexicon):
        # "start" and "end" are mutual antonyms; both being query words makes
        # the query self-antonymous rather than penalizing candidates.
        ctx = lexicon.context({"start", "end"}, "NN_VB")
        assert ctx.self_antonymous


class TestAntonymsScore:
    def test_single_hit(self):
        ctx = AntonymQueryContext(antonyms=frozenset({"empty"}))
        assert ctx.score({"empty", "array", "code"}) == 1

    def test_self_antonymous_zero(self):
        ctx = AntonymQueryContext(antonyms=frozenset({"empty"}), self_antonymous=True)
        assert ctx.score({"empty"}) == 0

    def test_two_hits(self):
        ctx = AntonymQueryContext(antonyms=frozenset({"empty", "drain"}))
        assert ctx.score({"empty", "drain", "other"}) == 2

    @given(st.sets(st.sampled_from(["a", "b", "c", "d", "e"])),
           st.sets(st.sampled_from(["a", "b", "c", "d", "e"])))
    def test_monotone_and_bounded(self, small, extra):
        ctx = AntonymQueryContext(antonyms=frozenset({"a", "c", "e"}))
        assert ctx.score(small) <= ctx.score(small | extra)
        assert ctx.score(small | extra) <= len(ctx.antonyms)
