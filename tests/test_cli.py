import contextlib
import hashlib
import io
import json
import re
import shutil
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth
from crowdrank.artifacts import load_engine
from crowdrank.cli import EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE, main
from crowdrank.corpus import build_threads, load_dump, preprocess, separate_code
from crowdrank.documents import DOCS_ARRAYS, docs_file, encode_strings
from crowdrank.embeddings import cosine, fallback_embed, save_vectors, sentence_embed
from crowdrank.features import WeightConfig

# Text a file can hold: any code point but the surrogates.
TEXT_ST = st.text(st.characters(exclude_categories=("Cs",)), max_size=30)
CONFIG_VALUE_ST = st.one_of(
    TEXT_ST,
    st.floats().map(repr),
    st.integers(-3, 600).map(str),
    st.sampled_from(["true", "false", "NN", "VB", "NN_VB", "TR", "ANS", "TR_ANS"]))
CONFIG_LINE_ST = st.one_of(
    TEXT_ST,
    st.tuples(st.sampled_from(sorted(WeightConfig().to_flat())), CONFIG_VALUE_ST).map("=".join))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    posts, queries, relevant = synth.planted_corpus(n_threads=30, n_queries=3)
    corpus = root / "dump.jsonl"
    synth.write_jsonl(corpus, posts)
    truth = root / "truth.jsonl"
    with open(truth, "w") as fh:
        for query_id, text in queries.items():
            fh.write(json.dumps({"query_id": query_id, "query_text": text,
                                 "relevant_answer_ids": [relevant[query_id]]}) + "\n")
    index_dir = root / "index"
    assert main(["build-index", "--corpus", str(corpus), "--out", str(index_dir)]) == EXIT_OK
    return {"root": root, "corpus": corpus, "truth": truth,
            "index": index_dir, "queries": queries, "relevant": relevant}


def _add_stale_index_files(index_dir):
    """The thread store and thread index files that earlier builds wrote
    beside the document store."""
    (index_dir / "threads.jsonl").write_text('{"format": "crowdrank-threads", "version": 2}\n')
    (index_dir / "index.json").write_text('{"format": "crowdrank-index", "version": 2}')
    (index_dir / "index.header.json").write_text('{"format": "crowdrank-index", "version": 3}')
    for name in ("terms", "indptr", "rows", "tfs", "doc_ids"):
        (index_dir / f"index.{name}.npy").write_bytes(b"not an array")


def _search_outputs(workspace, capsys, index_dir=None):
    """The --json lines of every planted query searched in the index directory."""
    lines = []
    for query in workspace["queries"].values():
        assert main(["search", query, "--index-dir", str(index_dir or workspace["index"]),
                     "--json", "--explain"]) == EXIT_OK
        lines += capsys.readouterr().out.splitlines()
    assert lines
    return lines


class TestBuildIndex:
    def test_artifacts_written(self, workspace):
        assert sorted(p.name for p in workspace["index"].iterdir()) == sorted([
            "idf.json", "meta.json", *(f"docs.{name}.npy" for name in DOCS_ARRAYS)])

    def test_rebuild_in_place_leaves_no_index_files(self, workspace, tmp_path):
        out = tmp_path / "idx"
        shutil.copytree(workspace["index"], out)
        _add_stale_index_files(out)
        assert main(["build-index", "--corpus", str(workspace["corpus"]),
                     "--out", str(out)]) == EXIT_OK
        assert not list(out.glob("index.*")) and not (out / "threads.jsonl").exists()
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in workspace["index"].iterdir())

    def test_stale_index_files_are_not_read(self, workspace, tmp_path, capsys):
        out = tmp_path / "idx"
        shutil.copytree(workspace["index"], out)
        _add_stale_index_files(out)
        assert _search_outputs(workspace, capsys, out) == _search_outputs(workspace, capsys)

    def test_seed_is_not_a_build_option(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build-index", "--corpus", str(workspace["corpus"]),
                  "--out", str(tmp_path / "idx"), "--seed", "7"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["search", "q0alpha q0beta"], ["export-text"]])
    def test_an_idf_file_of_another_build_is_refused(self, tmp_path, capsys, command):
        # A 12-thread build's idf.json beside a 10-thread build's store and
        # meta.json: its ids fit the store, so only meta.json's stats tell.
        for n in (10, 12):
            synth.write_jsonl(tmp_path / f"dump{n}.jsonl", synth.planted_corpus(n, 2)[0])
            assert main(["build-index", "--corpus", str(tmp_path / f"dump{n}.jsonl"),
                         "--out", str(tmp_path / f"index{n}")]) == EXIT_OK
        meta = json.loads((tmp_path / "index10" / "meta.json").read_text())
        idf = json.loads((tmp_path / "index12" / "idf.json").read_text())
        assert meta["stats"]["threads"] == 10 and idf["doc_count"] == 12
        assert len(idf["df"]) > meta["stats"]["vocab"]
        shutil.copy(tmp_path / "index12" / "idf.json", tmp_path / "index10" / "idf.json")
        capsys.readouterr()
        args = ([str(tmp_path / "index10"), str(tmp_path / "text")] if command == ["export-text"]
                else ["--index-dir", str(tmp_path / "index10")])
        assert main(command + args) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'index10' / 'idf.json'}: {len(idf['df'])} "
                              f"words, but meta.json records {meta['stats']['vocab']}")
        assert len(err.splitlines()) == 1

    def test_an_empty_build_loads(self, tmp_path, capsys):
        (tmp_path / "dump.jsonl").write_text("")
        assert main(["build-index", "--corpus", str(tmp_path / "dump.jsonl"),
                     "--out", str(tmp_path / "index")]) == EXIT_OK
        meta = json.loads((tmp_path / "index" / "meta.json").read_text())
        idf = json.loads((tmp_path / "index" / "idf.json").read_text())
        assert meta["stats"] == {"threads": 0, "vocab": 0} and idf["doc_count"] == 1
        capsys.readouterr()
        assert main(["search", "anything", "--index-dir", str(tmp_path / "index"),
                     "--json"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_meta_with_a_seed_still_loads(self, workspace, tmp_path, capsys):
        out = tmp_path / "idx"
        shutil.copytree(workspace["index"], out)
        meta = json.loads((out / "meta.json").read_text())
        meta["embedding"]["seed"] = 7
        (out / "meta.json").write_text(json.dumps(meta))
        assert _search_outputs(workspace, capsys, out) == _search_outputs(workspace, capsys)

    @pytest.mark.parametrize("content, named", [
        (None, "No such file or directory: '{path}'"),
        (b"\xff\xfe stop", "{path}: not UTF-8"),
    ])
    def test_bad_stopword_file_is_one_error_line(self, workspace, tmp_path, capsys, content,
                                                 named):
        path = tmp_path / "stop.txt"
        if content is not None:
            path.write_bytes(content)
        assert main(["build-index", "--corpus", str(workspace["corpus"]),
                     "--out", str(tmp_path / "idx"), "--stopwords", str(path)]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named.format(path=path) in err
        assert len(err.splitlines()) == 1

    def test_missing_corpus(self, tmp_path, capsys):
        code = main(["build-index", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA_ERROR
        assert "error" in capsys.readouterr().err

    def test_non_utf8_dump_line_is_a_load_warning(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "dump.jsonl"
        corpus.write_bytes(workspace["corpus"].read_bytes()
                           + b'{"id": 9, "post_kind": "question", "title": "caf\xe9"}\n')
        assert main(["build-index", "--corpus", str(corpus),
                     "--out", str(tmp_path / "idx")]) == EXIT_OK
        captured = capsys.readouterr()
        assert "threads indexed: 30" in captured.out
        assert "load warnings: 1" in captured.out.splitlines()
        assert captured.err == f"warning: {corpus}:{_line_count(corpus)}: not UTF-8\n"

    # JSON reads 1e999 as an infinite float, which int() cannot take.
    @pytest.mark.parametrize("line", [
        '{"id": 9, "post_kind": "question", "title": "t", "body_html": "b", "score": 1e999}',
        '{"id": 9, "post_kind": "question", "title": "t", "body_html": "b", "score": -1e999}',
        '{"id": 1e999, "post_kind": "question", "title": "t", "body_html": "b", "score": 1}',
        '{"id": 9, "post_kind": "answer", "parent_id": 1e999, "body_html": "b", "score": 1}',
    ])
    def test_an_infinite_number_is_a_load_warning(self, workspace, tmp_path, capsys, line):
        field = next(k for k, v in json.loads(line).items() if isinstance(v, float))
        corpus = tmp_path / "dump.jsonl"
        corpus.write_bytes(workspace["corpus"].read_bytes() + f"{line}\n".encode())
        assert main(["build-index", "--corpus", str(corpus),
                     "--out", str(tmp_path / "idx")]) == EXIT_OK
        captured = capsys.readouterr()
        assert "threads indexed: 30" in captured.out
        assert "load warnings: 1" in captured.out.splitlines()
        assert captured.err == (f"warning: {corpus}:{_line_count(corpus)}: {field} must be an "
                                f"integer, not float\n")

    # Each line was loaded with a coerced field and no warning: a bool, a
    # numeric string or a float as an int, a non-string as text, a string's
    # characters as tags.
    @pytest.mark.parametrize("line", [
        '{"id": 9, "post_kind": "question", "title": "t", "body_html": "b", "score": true}',
        '{"id": 9, "post_kind": "question", "title": "t", "body_html": "b", "score": "7"}',
        '{"id": 9, "post_kind": "question", "title": "t", "body_html": "b", "score": 1.5}',
        '{"id": 9, "post_kind": "question", "title": "t", "body_html": "b", "score": 2.0}',
        '{"id": true, "post_kind": "question", "title": "t", "body_html": "b", "score": 1}',
        '{"id": "9", "post_kind": "question", "title": "t", "body_html": "b", "score": 1}',
        '{"id": 9, "post_kind": "answer", "parent_id": true, "body_html": "b", "score": 1}',
        '{"id": 9, "post_kind": "answer", "parent_id": 1.0, "body_html": "b", "score": 1}',
        '{"id": 9, "post_kind": "question", "title": "t", "body_html": "b", "score": 1,'
        ' "tags": "java"}',
        '{"id": 9, "post_kind": "question", "title": "t", "body_html": "b", "score": 1,'
        ' "tags": ["java", 7]}',
        '{"id": 9, "post_kind": "question", "title": null, "body_html": "b", "score": 1}',
        '{"id": 9, "post_kind": "question", "title": 5, "body_html": "b", "score": 1}',
        '{"id": 9, "post_kind": "question", "title": "t", "body_html": ["b"], "score": 1}',
    ])
    def test_a_field_of_the_wrong_type_is_a_load_warning(self, workspace, tmp_path, capsys,
                                                         line):
        corpus = tmp_path / "dump.jsonl"
        corpus.write_bytes(workspace["corpus"].read_bytes() + f"{line}\n".encode())
        assert main(["build-index", "--corpus", str(corpus),
                     "--out", str(tmp_path / "idx")]) == EXIT_OK
        captured = capsys.readouterr()
        assert "threads indexed: 30" in captured.out
        assert "load warnings: 1" in captured.out.splitlines()
        # One warning, on the appended line, that names the field.
        assert re.fullmatch(rf"warning: {re.escape(str(corpus))}:{_line_count(corpus)}: "
                            r"(id|score|parent_id|title|body_html|tags) must be [^\n]+\n",
                            captured.err)

    def test_a_bool_id_replaces_no_question(self, tmp_path, capsys):
        """`"id": true` was read as a second question 1, which replaced the
        real one."""
        posts = [synth.question(1, "alpha beta", "gamma", 3),
                 synth.answer(2, 1, "alpha <code>fetch(value)</code>", 2)]
        synth.write_jsonl(tmp_path / "dump.jsonl", [*posts, dict(posts[0], id=True, score=-1)])
        assert main(["build-index", "--corpus", str(tmp_path / "dump.jsonl"),
                     "--out", str(tmp_path / "idx")]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "threads indexed: 1"
        assert out[2:5] == ["load warnings: 1", "load questions: 1", "load answers: 1"]

    def test_a_repeated_answer_id_is_a_load_warning(self, tmp_path, capsys):
        """Answer 2 under questions 1 and 5 was kept in both threads: `search`
        printed it at ranks 1 and 2, with `load warnings: 0`. The first line
        with the id counts, and question 5, left without an answer, is
        dropped."""
        posts = [synth.question(1, "alpha beta", "gamma", 3),
                 synth.answer(2, 1, "alpha delta <code>foo.bar()</code>", 2),
                 synth.question(5, "alpha delta", "epsilon", 3),
                 synth.answer(2, 5, "delta alpha <code>baz.qux()</code>", 2),
                 synth.question(9, "zeta eta", "theta", 3),
                 synth.answer(10, 9, "zeta <code>qux.quux()</code>", 1)]
        synth.write_jsonl(tmp_path / "dump.jsonl", posts)
        assert main(["build-index", "--corpus", str(tmp_path / "dump.jsonl"),
                     "--out", str(tmp_path / "idx")]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "threads indexed: 2"
        assert out[2:5] == ["load warnings: 1", "load questions: 3", "load answers: 2"]
        assert "build dropped questions: 1" in out
        assert main(["search", "alpha delta", "--index-dir", str(tmp_path / "idx"),
                     "--json"]) == EXIT_OK
        found = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["answer_id"], r["thread_id"]) for r in found] == [(2, 1)]

    def test_a_repeated_question_id_is_a_load_warning(self, tmp_path, capsys):
        """A second question 1 replaced the first, and `load questions`
        counted both."""
        posts = [synth.question(1, "alpha beta", "gamma", 3),
                 synth.answer(2, 1, "alpha delta <code>foo.bar()</code>", 2),
                 synth.question(1, "other words", "here", 4),
                 synth.question(9, "zeta eta", "theta", 3),
                 synth.answer(10, 9, "zeta <code>qux.quux()</code>", 1)]
        synth.write_jsonl(tmp_path / "dump.jsonl", posts)
        assert main(["build-index", "--corpus", str(tmp_path / "dump.jsonl"),
                     "--out", str(tmp_path / "idx")]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "threads indexed: 2"
        assert out[2:5] == ["load warnings: 1", "load questions: 2", "load answers: 2"]
        assert main(["search", "alpha", "--index-dir", str(tmp_path / "idx"),
                     "--json"]) == EXIT_OK
        found = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["answer_id"], r["title"]) for r in found] == [(2, "alpha beta")]

    def test_warnings_past_the_first_ten_are_counted(self, tmp_path, capsys):
        # Twelve bad lines after a thread: the first ten are printed with
        # their line and cause, and the other two are counted.
        lines = [json.dumps(synth.question(1, "alpha", "beta", 3)),
                 json.dumps(synth.answer(2, 1, "<code>gamma()</code>", 2))]
        lines += ["[1]", "{broken"] * 6
        corpus = tmp_path / "dump.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        assert main(["build-index", "--corpus", str(corpus),
                     "--out", str(tmp_path / "idx")]) == EXIT_OK
        captured = capsys.readouterr()
        assert "load warnings: 12" in captured.out.splitlines()
        err = captured.err.splitlines()
        assert len(err) == 11 and err[-1] == "warning: ... and 2 more"
        assert err[0] == f"warning: {corpus}:3: not a JSON object"
        assert err[1].startswith(f"warning: {corpus}:4: not JSON: ")
        assert all(line.startswith(f"warning: {corpus}:{n}: ")
                   for n, line in zip(range(3, 13), err))

    def test_out_that_is_a_file_names_the_index_directory(self, workspace, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("")
        assert main(["build-index", "--corpus", str(workspace["corpus"]),
                     "--out", str(out)]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write index directory {out}: ")
        assert "File exists" in err and len(err.splitlines()) == 1

    def test_report_printed(self, workspace, tmp_path, capsys):
        code = main(["build-index", "--corpus", str(workspace["corpus"]),
                     "--out", str(tmp_path / "idx2")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "threads indexed: 30" in out
        assert "vocabulary size:" in out

    def test_report_prints_every_load_and_build_stat(self, tmp_path, capsys):
        corpus = tmp_path / "dump.jsonl"
        synth.write_jsonl(corpus, [
            synth.question(1, "parse json", "how", 5),
            synth.answer(2, 1, "use <code>parse(x)</code>", 3),
            synth.answer(3, 1, "no code here", 3),
            synth.question(4, "script", "how", 5, tags=("javascript",)),
            synth.answer(5, 4, "use <code>f(x)</code>", 3),
            synth.question(6, "negative", "how", -1),
        ])
        assert main(["build-index", "--corpus", str(corpus),
                     "--out", str(tmp_path / "idx")]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[2:] == ["load warnings: 0", "load questions: 2", "load answers: 2",
                             "load dropped questions: 1", "load dropped answers: 1",
                             "build orphan answers: 0", "build dropped questions: 1",
                             "build dropped answers: 1"]


class TestSearch:
    def test_text_output(self, workspace, capsys):
        query = workspace["queries"][1]
        code = main(["search", query, "--index-dir", str(workspace["index"])])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert f"answer={workspace['relevant'][1]}" in out.splitlines()[0]

    def test_json_output(self, workspace, capsys):
        query = workspace["queries"][1]
        code = main(["search", query, "--index-dir", str(workspace["index"]),
                     "--json", "--explain", "-n", "3"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) <= 3
        first = json.loads(lines[0])
        assert first["rank"] == 1
        assert first["answer_id"] == workspace["relevant"][1]
        assert "normalized" in first["features"]

    def test_a_given_title_vector_is_the_sentence_feature(self, workspace, tmp_path, capsys):
        """A one-entry sentence-vector file: the planted thread's title row takes
        that vector when the search first scores it, and `--explain` prints
        its cosine with the query's vector as the thread's sentence feature."""
        engine = load_engine(workspace["index"])
        query = workspace["queries"][1]
        given = fallback_embed("anything", dim=engine.store.dim)
        save_vectors({100000: given}, engine.store.dim, tmp_path / "title.vec")
        want = cosine(sentence_embed(preprocess(query, "query"), engine.store, engine.idf_map),
                      given)
        sentences = []
        for extra in ([], ["--sentence-vectors", str(tmp_path / "title.vec")]):
            assert main(["search", query, "--index-dir", str(workspace["index"]),
                         "--json", "--explain", *extra]) == EXIT_OK
            first = json.loads(capsys.readouterr().out.splitlines()[0])
            assert first["thread_id"] == 100000
            assert set(first["thread_features"]) == {
                "sentence", "asym_title", "asym_body", "tf", "answer_count",
                "total_answer_score", "question_score"}
            sentences.append(first["thread_features"]["sentence"])
        assert abs(sentences[1] - want) <= 1e-12 and abs(sentences[0] - want) > 1e-3

    def test_unknown_baseline(self, workspace, capsys):
        code = main(["search", "x", "--index-dir", str(workspace["index"]),
                     "--baseline", "bogus"])
        assert code == EXIT_USAGE
        assert "unknown baseline" in capsys.readouterr().err

    def test_missing_index_dir(self, tmp_path, capsys):
        code = main(["search", "x", "--index-dir", str(tmp_path / "void")])
        assert code == EXIT_DATA_ERROR

    def test_config_file_override(self, workspace, tmp_path, capsys):
        from crowdrank.features import WeightConfig
        config_path = tmp_path / "weights.cfg"
        WeightConfig().save(config_path)
        code = main(["search", workspace["queries"][1],
                     "--index-dir", str(workspace["index"]),
                     "--config", str(config_path)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("top, returned", [(None, 2), ("3", 3)])
    def test_config_final_n_applies_unless_n_is_given(self, workspace, tmp_path, capsys,
                                                      top, returned):
        config_path = tmp_path / "weights.cfg"
        WeightConfig(final_n=2).save(config_path)
        args = ["search", workspace["queries"][1], "--index-dir", str(workspace["index"]),
                "--config", str(config_path), "--json"]
        assert main(args + (["-n", top] if top else [])) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == returned

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_top_below_one_is_a_usage_error(self, workspace, capsys, top):
        code = main(["search", workspace["queries"][1], "--index-dir", str(workspace["index"]),
                     "-n", top])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and top in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("line, named", [
        ("thread_weight.tff=0.3", "'tff'"),
        ("antonym_pos_mode=XX", "'XX'"),
        ("thread_weight.sentence=nan", "'sentence'"),
        ("answer_weight.asym=inf", "'asym'"),
        ("answer_weight.asym=1e308\nanswer_weight.tfidf=1e308", "answer weights"),
        ("final_n=-5", "final_n"),
        ("antonym_enabled=yes", "weights.cfg:1: bad value for 'antonym_enabled'"),
        ("bm25_top=abc", "weights.cfg:1: bad value for 'bm25_top'"),
        ("thread_weight.tf=x", "weights.cfg:1: bad value for 'thread_weight.tf'"),
        (None, "No such file"),
    ])
    def test_bad_config_file_is_a_usage_error(self, workspace, tmp_path, capsys,
                                              line, named):
        config_path = tmp_path / "weights.cfg"
        if line is not None:
            config_path.write_text(line + "\n")
        code = main(["search", workspace["queries"][1],
                     "--index-dir", str(workspace["index"]),
                     "--config", str(config_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


class TestSearchProperties:
    """Any query and any config file: a result or one error, never a traceback."""

    @settings(max_examples=25, deadline=None)
    @given(query=TEXT_ST, planted=st.booleans(), lines=st.lists(CONFIG_LINE_ST, max_size=6))
    def test_exit_code_is_0_1_or_2(self, workspace, query, planted, lines):
        if planted:  # words that fill the funnel
            query = f"{workspace['queries'][1]} {query}"
        config_path = workspace["root"] / "property.cfg"
        config_path.write_text("\n".join(lines) + "\n", "utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["search", "--index-dir", str(workspace["index"]),
                         "--config", str(config_path), "--json", "--", query])
        assert code in (EXIT_OK, EXIT_DATA_ERROR, EXIT_USAGE)
        for line in out.getvalue().splitlines():  # strict JSON: no NaN or Infinity
            json.loads(line, parse_constant=_reject_constant)


# Values no id, parent id, score or post kind may take; the strings are valid
# text and "\ud800" (a lone surrogate) is not, and [] is valid tags.
HOSTILE = [float("inf"), float("-inf"), float("nan"), 1e300, 1.5, 2.0, 2**64, -2**63 - 1,
           True, False, None, "7", "java", "\ud800", [], [1], [["java"]], {"id": 1}]
BAD_FIELD_ST = st.tuples(st.sampled_from(["id", "post_kind", "score", "title", "body_html",
                                          "tags", "parent_id"]),
                         st.sampled_from(HOSTILE)).filter(
    lambda fv: not (fv[0] in ("title", "body_html") and fv[1] in ("7", "java"))
    and not (fv[0] == "tags" and fv[1] == []))


def _line_count(path):
    return len(path.read_bytes().splitlines())


def _index_bytes(index_dir):
    return {p.name: p.read_bytes() for p in sorted(index_dir.iterdir())}


class TestDumpProperties:
    """Any field of the wrong JSON type in a dump line, or a later line with a
    post id already read: a counted load warning that names its line, never
    a traceback, a coerced post or a post that replaces or repeats another."""

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("dump")
        posts = synth.planted_corpus(n_threads=6, n_queries=2)[0]
        synth.write_jsonl(root / "dump.jsonl", posts)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["build-index", "--corpus", str(root / "dump.jsonl"),
                         "--out", str(root / "index")]) == EXIT_OK
        return root, posts, _index_bytes(root / "index"), out.getvalue()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_each_bad_line_is_one_warning(self, small, data):
        root, posts, clean, report = small
        lines = [json.dumps(p) for p in posts]
        bad = data.draw(st.lists(st.tuples(st.integers(0, len(posts) - 1), BAD_FIELD_ST,
                                           st.integers(0, len(lines))), min_size=1, max_size=4))
        for source, (field, value), at in bad:
            post = posts[source]
            if field == "parent_id" and post["post_kind"] == "question" and value is None:
                field = "id"  # a question without a parent id is valid
            lines.insert(at, json.dumps({**post, field: value}))
        # Later lines that repeat a post's id with other text and score.
        repeats = data.draw(st.lists(st.tuples(st.integers(0, len(posts) - 1),
                                               st.integers(-5, 50)), max_size=2))
        repeated = {}  # a repeating line -> the id it repeats
        for source, score in repeats:
            after = lines.index(json.dumps(posts[source])) + 1
            line = json.dumps({**posts[source], "score": score,
                               "body_html": "again <code>x.y()</code>"})
            lines.insert(data.draw(st.integers(after, len(lines))), line)
            repeated[line] = posts[source]["id"]
        dump = root / "bad.jsonl"
        dump.write_text("\n".join(lines) + "\n", "utf-8")
        shutil.rmtree(root / "bad", ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["build-index", "--corpus", str(dump), "--out", str(root / "bad")])
        assert code == EXIT_OK
        # One warning line per bad line (at most six, all printed), in dump
        # order, naming its line; a repeat names the line that first held
        # the id.
        kept = {json.dumps(p) for p in posts}
        first_line = {p["id"]: lines.index(json.dumps(p)) + 1 for p in posts}
        warned = [(number, line) for number, line in enumerate(lines, start=1)
                  if line not in kept]
        assert len(warned) == len(bad) + len(repeats)
        printed = err.getvalue().splitlines()
        assert len(printed) == len(warned)
        for text, (number, line) in zip(printed, warned):
            assert text.startswith(f"warning: {dump}:{number}: ")
            if line in repeated:
                post_id = repeated[line]
                assert text.endswith(f": id {post_id} repeats line {first_line[post_id]}")
        assert out.getvalue() == report.replace("load warnings: 0",
                                                f"load warnings: {len(bad) + len(repeats)}")
        assert _index_bytes(root / "bad") == clean


def _json_index_only(payload):
    """Leave the directory as builds before the document store left it:
    index.json beside threads.jsonl, idf.json and meta.json."""
    def damage(index_dir):
        for path in index_dir.glob("docs.*.npy"):
            path.unlink()
        (index_dir / "index.json").write_text(json.dumps(payload))
    return damage


def _edit_json(name, edit):
    def damage(index_dir):
        path = index_dir / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return damage


def _save_array(name, edit):
    """Save a store array edited in its DOCS_ARRAYS dtype, which a build may
    have narrowed: a value the narrow dtype cannot hold stays as written."""
    def damage(index_dir):
        path = docs_file(index_dir, name)
        array = edit(np.load(path).astype(DOCS_ARRAYS[name]))
        with open(path, "wb") as fh:
            np.save(fh, array)
    return damage


def _set(position, value):
    def edit(array):
        array = array.copy()
        array[position] = value
        return array
    return edit


def _split_a_character(name):
    """Make the first string boundary within a text array's bytes fall
    inside a two-byte character: the bytes stay UTF-8."""
    def damage(index_dir):
        ptr = np.load(docs_file(index_dir, f"{name}_ptr"))
        at = int(ptr[ptr > 0][0])
        _save_array(name, _set(slice(at - 1, at + 1), list("é".encode())))(index_dir)
    return damage


def _old_format(index_dir):
    """The directory as builds wrote it before the posts moved into the
    store: a thread store, and none of the posts' arrays."""
    (index_dir / "threads.jsonl").write_text('{"format": "crowdrank-threads", "version": 2}\n')
    for name in ("question_ids", "question_score", "answer_score", "question_text",
                 "question_text_ptr", "answer_text", "answer_text_ptr", "answer_title_ptr",
                 "answer_title_ids", "answer_title_counts", "answer_title_words",
                 "answer_title_word_ptr"):
        docs_file(index_dir, name).unlink()


def _parent_layout(index_dir):
    """The directory as builds wrote it before the code text left the store:
    three strings a post (title, body and code text), every array in its
    DOCS_ARRAYS dtype, and meta.json version 1."""
    for name in ("question_text", "answer_text"):
        data, ptr = np.load(docs_file(index_dir, name)), np.load(docs_file(index_dir,
                                                                          f"{name}_ptr"))
        bounds = ptr.tolist()
        strings = [data[lo:hi].tobytes().decode() for lo, hi in zip(bounds, bounds[1:])]
        three = [(title, body, separate_code(body)[1])
                 for title, body in zip(strings[0::2], strings[1::2])]
        for array_name, array in zip((name, f"{name}_ptr"),
                                     encode_strings(list(chain.from_iterable(three)))):
            np.save(docs_file(index_dir, array_name), array)
    for name, dtype in DOCS_ARRAYS.items():
        np.save(docs_file(index_dir, name), np.load(docs_file(index_dir, name)).astype(dtype))
    _edit_json("meta.json", lambda m: dict(m, version=1))(index_dir)


def _other_thread_count(threads):
    """meta.json and idf.json of a build of `threads` threads, beside the store."""
    def damage(index_dir):
        _edit_json("meta.json", lambda m: dict(m, stats=dict(m["stats"], threads=threads)))(
            index_dir)
        _edit_json("idf.json", lambda i: dict(i, doc_count=threads))(index_dir)
    return damage


def _without(key):
    def edit(payload):
        del payload[key]
        return payload
    return edit


BAD_INDEX_DIRS = {
    # damage(index_dir), then what the one error line must name
    "json-index-v1": (_json_index_only({"format": "crowdrank-index", "version": 1}),
                      "docs.title_ptr.npy: missing; rerun `crowdrank build-index`"),
    "json-index-v2": (_json_index_only({"format": "crowdrank-index", "version": 2}),
                      "docs.title_ptr.npy: missing; rerun `crowdrank build-index`"),
    "header-version-0": (_edit_json("meta.json", lambda m: dict(m, version=0)),
                         "meta.json: unsupported index directory format; rerun "
                         "`crowdrank build-index`"),
    "parent-layout": (_parent_layout, "meta.json: unsupported index directory format; rerun "
                                      "`crowdrank build-index`"),
    "idf-lacks-df": (_edit_json("idf.json", _without("df")), "idf.json: df"),
    "idf-not-an-object": (_edit_json("idf.json", lambda _: [1]),
                          "idf.json: not a JSON object"),
    "meta-not-an-object": (_edit_json("meta.json", lambda _: [1]),
                           "meta.json: not a JSON object"),
    "meta-embedding-not-an-object": (_edit_json("meta.json", lambda m: dict(m, embedding=[1])),
                                     "meta.json: embedding dim"),
    "text-not-an-array": (lambda d: docs_file(d, "question_text").write_bytes(b"[1]"),
                          "docs.question_text.npy: not a readable .npy array"),
    "question-ids-short": (_save_array("question_ids", lambda a: a[:-1]),
                           "docs.question_ids.npy: 29 question ids for 30 threads"),
    "question-ids-not-ascending": (_save_array("question_ids", lambda a: np.append(a[1::-1],
                                                                                   a[2:])),
                                   "docs.question_ids.npy: question ids are not ascending"),
    "text-offsets-short": (_save_array("answer_text_ptr", _set(-1, 0)),
                           "docs.answer_text_ptr.npy: offsets do not cover"),
    "text-not-utf-8": (_save_array("question_text", _set(0, 0xFF)),
                       "docs.question_text.npy: the text is not UTF-8"),
    "text-offset-inside-a-character": (_split_a_character("answer_text"),
                                       "docs.answer_text_ptr.npy: an offset falls inside a "
                                       "character"),
    "score-float": (_save_array("question_score", lambda a: a.astype(np.float64)),
                    "docs.question_score.npy: holds a 1-d float64 array, not a 1-d int64 one"),
    "answer-title-offsets-long": (_save_array("answer_title_ptr", _set(-1, 1)),
                                  "docs.answer_title_ptr.npy: offsets do not cover"),
    "array-missing": (lambda d: docs_file(d, "answer_thread").unlink(),
                      "docs.answer_thread.npy: missing; rerun `crowdrank build-index`"),
    "array-wrong-dtype": (_save_array("method_ids", lambda a: a.astype(np.float64)),
                          "docs.method_ids.npy: holds a 1-d float64 array"),
    "array-wrong-ndim": (_save_array("answer_ids", lambda a: a[None, :]),
                         "docs.answer_ids.npy: holds a 2-d int64 array"),
    "indptr-not-monotone": (_save_array("answer_body_ptr", lambda a: np.where(
        np.arange(len(a)) == 1, a[-1], a)), "docs.answer_body_ptr.npy: offsets do not cover"),
    "indptr-short-of-postings": (_save_array("method_ptr", lambda a: np.append(a[:-1], a[-1] - 1)),
                                 "docs.method_ptr.npy: offsets do not cover"),
    "row-out-of-range": (_save_array("answer_thread", _set(0, -1)),
                         "docs.answer_thread.npy: a thread row is outside"),
    "term-count-off": (_save_array("title_counts", lambda a: np.append(a, a[-1])),
                       "docs.title_counts.npy: 256 counts for 255 ids"),
    "array-needs-pickle": (_save_array("answer_ids", lambda a: a.astype(object)),
                           "docs.answer_ids.npy: not a readable .npy array"),
    "docs-missing": (lambda d: docs_file(d, "code_ids").unlink(), "docs.code_ids.npy: missing"),
    # Integer arrays that do not cast safely to their DOCS_ARRAYS dtype.
    "docs-wrong-dtype": (_save_array("title_counts", lambda a: a.astype(np.int64)),
                         "docs.title_counts.npy: holds a 1-d int64 array, not a 1-d int32 one"),
    "thread-row-uint32": (_save_array("answer_thread", lambda a: a.astype(np.uint32)),
                          "docs.answer_thread.npy: holds a 1-d uint32 array, not a 1-d int32 "
                          "one"),
    "docs-wrong-ndim": (_save_array("tfidf_norm", lambda a: a[None, :]),
                        "docs.tfidf_norm.npy: holds a 2-d float64 array"),
    "docs-offsets-short": (_save_array("body_ptr", _set(-1, 0)),
                           "docs.body_ptr.npy: offsets do not cover"),
    "docs-offsets-empty": (_save_array("title_ptr", lambda a: a[:0]),
                           "docs.title_ptr.npy: offsets do not cover"),
    "docs-id-beyond-vocab": (_save_array("answer_body_ids", _set(-1, 10 ** 6)),
                             "docs.answer_body_ids.npy: a term id is outside"),
    "docs-ids-not-ascending": (_save_array("body_ids", lambda a: np.append(a[1::-1], a[2:])),
                               "docs.body_ids.npy: a row's term ids are not ascending"),
    "docs-count-below-1": (_save_array("code_counts", _set(0, 0)),
                           "docs.code_counts.npy: a count is below 1"),
    "docs-norm-not-finite": (_save_array("tfidf_norm", _set(0, np.nan)),
                             "docs.tfidf_norm.npy: not"),
    "docs-method-names-not-sorted": (_save_array("method_names", lambda a: a[::-1]),
                                     "docs.method_names.npy: method names are not sorted"),
    "docs-method-name-not-utf-8": (_save_array("method_names", _set(0, 0xFF)),
                                   "docs.method_names.npy: a method name is not UTF-8"),
    "docs-method-name-offsets-short": (_save_array("method_name_ptr", _set(-1, 0)),
                                       "docs.method_name_ptr.npy: method name offsets do not"),
    "docs-method-out-of-range": (_save_array("method_ids", _set(-1, 10 ** 6)),
                                 "docs.method_ids.npy: a method id is outside"),
    "docs-thread-row-out-of-range": (_save_array("answer_thread", _set(-1, 10 ** 6)),
                                     "docs.answer_thread.npy: a thread row is outside"),
    "question-scores-short": (_save_array("question_score", lambda a: a[:-1]),
                              "docs.question_score.npy: 29 scores for 30 threads"),
    "answer-scores-long": (_save_array("answer_score", lambda a: np.append(a, 1)),
                           "docs.answer_score.npy: 31 scores for 30 answers"),
    "old-format": (_old_format, "docs.question_ids.npy: missing; rerun `crowdrank build-index`"),
    # idf.json and the store must be those of the build meta.json records.
    "meta-stats-missing": (_edit_json("meta.json", _without("stats")),
                           "meta.json: stats must hold the thread and word counts"),
    "meta-vocab-not-a-count": (_edit_json("meta.json", lambda m: dict(
        m, stats=dict(m["stats"], vocab=True))), "meta.json: stats must hold"),
    "idf-word-added": (_edit_json("idf.json", lambda i: dict(i, df=dict(i["df"], zzzextra=1))),
                       "idf.json: 224 words, but meta.json records 223"),
    "idf-doc-count-differs": (_edit_json("idf.json", lambda i: dict(i, doc_count=31)),
                              "idf.json: 31 documents, but meta.json records 30"),
    "store-thread-count-differs": (_other_thread_count(29),
                                   "meta.json: 29 threads, but the document store "
                                   "holds 30"),
    "docs-question-code-missing": (lambda d: docs_file(d, "question_code_ids").unlink(),
                                   "docs.question_code_ids.npy: missing; rerun "
                                   "`crowdrank build-index`"),
}


@pytest.mark.parametrize("case", sorted(BAD_INDEX_DIRS))
@pytest.mark.parametrize("command", ["search", "evaluate", "export-text"])
def test_bad_index_file_is_one_error_line(workspace, tmp_path, capsys, case, command):
    damage, named = BAD_INDEX_DIRS[case]
    index_dir = tmp_path / "index"
    shutil.copytree(workspace["index"], index_dir)
    damage(index_dir)
    args = {"search": ["search", workspace["queries"][1], "--index-dir", str(index_dir)],
            "evaluate": ["evaluate", "--truth", str(workspace["truth"]),
                         "-o", str(tmp_path / "report.csv"), "--index-dir", str(index_dir)],
            "export-text": ["export-text", str(index_dir), str(tmp_path / "text")]}[command]
    assert main(args) == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command, flag, code", [
    ("search", "--config", EXIT_USAGE),
    ("search", "--word-vectors", EXIT_DATA_ERROR),
    ("search", "--sentence-vectors", EXIT_DATA_ERROR),
    ("evaluate", "--truth", EXIT_DATA_ERROR),
])
def test_non_utf8_file_is_named(workspace, tmp_path, capsys, command, flag, code):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    args = [command, "--index-dir", str(workspace["index"]), flag, str(bad)]
    if command == "search":
        args.insert(1, workspace["queries"][1])
    else:
        args += ["-o", str(tmp_path / "report.csv")]
    assert main(args) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and f"{bad}: not UTF-8" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("words, sentences, named", [
    (["q0alpha nan 0.5 0.25", "q0beta 1 0 0"], None, "words.vec:2:"),
    (["q0alpha 1 0 0", "q0beta 0.5 -inf 0"], None, "words.vec:3:"),
    (["q0alpha 1 0 0", "q0beta 0 1 0"], ["100000 inf 0 0"], "titles.vec:2:"),
])
def test_non_finite_vector_component_is_one_error_line(workspace, tmp_path, capsys, words,
                                                        sentences, named):
    # A NaN vector used to reach the scores, and `--json` printed "score": NaN.
    args = ["search", "q0alpha q0beta", "--index-dir", str(workspace["index"]), "--json"]
    for flag, name, lines in (("--word-vectors", "words.vec", words),
                              ("--sentence-vectors", "titles.vec", sentences)):
        if lines is not None:
            (tmp_path / name).write_text("\n".join([f"{len(lines)} 3"] + lines) + "\n")
            args += [flag, str(tmp_path / name)]
    assert main(args) == EXIT_DATA_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {tmp_path / named}") and "not finite" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--word-vectors", "--sentence-vectors"])
@pytest.mark.parametrize("header", ["0 0", "0 -1", "1 0"])
def test_vector_file_dim_below_one_is_one_error_line(workspace, tmp_path, capsys, flag, header):
    # A dim of 0 used to end in a traceback, and a negative one in numpy's
    # "negative dimensions are not allowed", which names no file.
    path = tmp_path / "bad.vec"
    path.write_text(f"{header}\n" + ("1\n" if header == "1 0" else ""))
    assert main(["search", "q0alpha q0beta", "--index-dir", str(workspace["index"]),
                 flag, str(path)]) == EXIT_DATA_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: ") and "dim" in err
    assert len(err.splitlines()) == 1


class TestEvaluate:
    def test_per_query_csv(self, workspace, tmp_path, capsys):
        per_query = tmp_path / "per_query.csv"
        code = main(["evaluate", "--index-dir", str(workspace["index"]),
                     "--truth", str(workspace["truth"]), "--baselines",
                     "crar,answer-top-method", "-k", "5", "-o", str(tmp_path / "report.csv"),
                     "--per-query", str(per_query)])
        assert code == EXIT_OK
        # answer-top-method ranks each planted answer 10th, past the cutoff.
        assert per_query.read_text() == (
            "baseline,query_id,hit,rr,ap,recall\n"
            "answer-top-method,1,0.000000,0.000000,0.000000,0.000000\n"
            "answer-top-method,2,0.000000,0.000000,0.000000,0.000000\n"
            "answer-top-method,3,0.000000,0.000000,0.000000,0.000000\n"
            "crar,1,1.000000,1.000000,1.000000,1.000000\n"
            "crar,2,1.000000,1.000000,1.000000,1.000000\n"
            "crar,3,1.000000,1.000000,1.000000,1.000000\n")
        assert f"per-query metrics written to {per_query}" in capsys.readouterr().out

    def test_report_csv(self, workspace, tmp_path, capsys):
        out_csv = tmp_path / "report.csv"
        code = main(["evaluate", "--index-dir", str(workspace["index"]),
                     "--truth", str(workspace["truth"]),
                     "--baselines", "template,crar", "-o", str(out_csv)])
        assert code == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "baseline,hit,mrr,map,mr"
        assert len(lines) == 3
        assert "crar:" in capsys.readouterr().out

    def test_bad_truth_file(self, workspace, tmp_path, capsys):
        bad = tmp_path / "truth.jsonl"
        bad.write_text("{broken\n")
        code = main(["evaluate", "--index-dir", str(workspace["index"]),
                     "--truth", str(bad)])
        assert code == EXIT_DATA_ERROR

    def test_unknown_baseline(self, workspace, capsys):
        code = main(["evaluate", "--index-dir", str(workspace["index"]),
                     "--truth", str(workspace["truth"]), "--baselines", "wat"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("baselines, named", [
        ("crar,crar", "'crar' repeats 'crar'"),
        ("template,crar,CRAR", "'CRAR' repeats 'crar'"),
        ("crar_without_tf,Crar Without TF", "'Crar Without TF' repeats 'crar_without_tf'"),
    ])
    def test_repeated_baseline(self, workspace, tmp_path, capsys, baselines, named):
        report = tmp_path / "report.csv"
        code = main(["evaluate", "--index-dir", str(workspace["index"]),
                     "--truth", str(workspace["truth"]), "--baselines", baselines,
                     "-o", str(report), "--per-query", str(tmp_path / "per_query.csv")])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: baseline {named}\n"
        assert not report.exists()

    @pytest.mark.parametrize("text, named", [
        (None, "No such file"),
        ('{"query_id": 1, "query_text": "q", "relevant_answer_ids": 5}', ":1:"),
        ('{"query_id": 1, "query_text": "q", "relevant_answer_ids": [1]}\n[1, 2]', ":2:"),
        ('{"query_id": 1, "relevant_answer_ids": [1]}', "query_text"),
        ('{"query_id": 1, "query_text": "q", "relevant_answer_ids": [null]}', ":1:"),
        ("\n", "no ground-truth entries"),
        ('{"query_id": 1, "query_text": "q", "relevant_answer_ids": [1]}\n{not json', ":2:"),
    ])
    def test_malformed_truth_file_is_a_data_error(self, workspace, tmp_path, capsys,
                                                  text, named):
        truth = tmp_path / "truth.jsonl"
        if text is not None:
            truth.write_text(text + "\n")
        code = main(["evaluate", "--index-dir", str(workspace["index"]),
                     "--truth", str(truth), "-o", str(tmp_path / "report.csv")])
        assert code == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_top_below_one_is_a_usage_error(self, workspace, tmp_path, capsys, top):
        code = main(["evaluate", "--index-dir", str(workspace["index"]),
                     "--truth", str(workspace["truth"]), "-n", top,
                     "-o", str(tmp_path / "report.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: -n") and top in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_cutoff_below_one_is_a_usage_error(self, workspace, tmp_path, capsys, k):
        code = main(["evaluate", "--index-dir", str(workspace["index"]),
                     "--truth", str(workspace["truth"]), "-k", k,
                     "-o", str(tmp_path / "report.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and k in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "report.csv").exists()


class TestMergeAntonyms:
    def test_merge(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        a.write_text("fill\tv\tempty\n")
        out = tmp_path / "merged.tsv"
        code = main(["merge-antonyms", str(a), "-o", str(out)])
        assert code == EXIT_OK
        assert "empty\tv\tfill" not in out.read_text()  # closure adds untagged entry
        assert "fill" in out.read_text()

    def test_missing_input(self, tmp_path, capsys):
        code = main(["merge-antonyms", str(tmp_path / "nope.tsv"),
                     "-o", str(tmp_path / "out.tsv")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("case", ["input-not-utf-8", "input-a-directory",
                                      "output-a-directory", "output-in-no-directory"])
    def test_bad_file_is_one_error_line(self, tmp_path, capsys, case):
        good, bad = tmp_path / "a.tsv", tmp_path / "bad"
        good.write_text("fill\tv\tempty\n")
        if case == "input-not-utf-8":
            bad.write_bytes(b"fill\tv\t\xff\n")
        elif case != "output-in-no-directory":
            bad.mkdir()
        named = bad / "out.tsv" if case == "output-in-no-directory" else bad
        args = ([bad, "-o", tmp_path / "out.tsv"] if case.startswith("input")
                else [good, "-o", named])
        assert main(["merge-antonyms", *map(str, args)]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(named) in err
        assert len(err.splitlines()) == 1


class TestExportText:
    # The planted workspace's titles.txt and contents.txt as exports wrote
    # them when threads.jsonl still held the bags (thread store version 1).
    PLANTED_SHA256 = {
        "titles.txt": "d64f532edc1d17981bdfdb432562f8f90a284dc7edddf5ea4a29147adc416c6c",
        "contents.txt": "d5dc2444fcb670731045a3f47cdfe08ef4cbbc80d895332a41ac1e531eefab79",
    }

    def test_the_planted_text_is_unchanged(self, workspace, tmp_path):
        out = tmp_path / "text"
        assert main(["export-text", str(workspace["index"]), str(out)]) == EXIT_OK
        built = build_threads(load_dump(workspace["corpus"]))
        want = {"titles.txt": [" ".join(sorted(t.question.title_bag.elements())) for t in built],
                "contents.txt": [" ".join(synth.thread_content_tokens(t)) for t in built]}
        for name, lines in want.items():
            data = (out / name).read_bytes()
            assert data == "".join(line + "\n" for line in lines).encode()
            assert hashlib.sha256(data).hexdigest() == self.PLANTED_SHA256[name]

    def test_writes_each_threads_preprocessed_text(self, tmp_path, capsys):
        corpus = tmp_path / "dump.jsonl"
        # Thread 3 sorts first by id; "qonlyword" is only in thread 5's
        # question code, which contents.txt holds although BM25 does not.
        synth.write_jsonl(corpus, [
            synth.question(5, "Parse JSON json", "see <code>qonlyword(x)</code>", 5),
            synth.answer(6, 5, "use jackson <code>mapper.read(json)</code>", 3),
            synth.question(3, "format date", "how to format", 5),
            synth.answer(4, 3, "use <code>fmt.format(d)</code>", 3),
        ])
        assert main(["build-index", "--corpus", str(corpus),
                     "--out", str(tmp_path / "index")]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "text"
        assert main(["export-text", str(tmp_path / "index"), str(out)]) == EXIT_OK
        assert f"of 2 threads to {out}" in capsys.readouterr().out
        assert (out / "titles.txt").read_bytes() == b"date format\njson json parse\n"
        assert (out / "contents.txt").read_bytes() == (
            b"date format format use fmt format\n"
            b"json json parse see qonlyword jackson use json mapper read\n")

    def test_missing_index_is_one_error_line(self, tmp_path, capsys):
        code = main(["export-text", str(tmp_path / "void"), str(tmp_path / "text")])
        assert code == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "idf.json" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "text").exists()
