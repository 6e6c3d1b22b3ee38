import contextlib
import hashlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth
from crowdrank.artifacts import thread_content_tokens
from crowdrank.cli import EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE, main
from crowdrank.corpus import build_threads, load_dump
from crowdrank.documents import DOCS_ARRAYS, docs_file
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
    def damage(index_dir):
        path = docs_file(index_dir, name)
        array = edit(np.load(path))
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
    "header-version-2": (_edit_json("meta.json", lambda m: dict(m, version=2)),
                         "meta.json: unsupported index directory format; rerun "
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
    "docs-wrong-dtype": (_save_array("title_counts", lambda a: a.astype(np.int64)),
                         "docs.title_counts.npy: holds a 1-d int64 array"),
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
    "docs-question-code-missing": (lambda d: docs_file(d, "question_code_ids").unlink(),
                                   "docs.question_code_ids.npy: missing; rerun "
                                   "`crowdrank build-index`"),
}


@pytest.mark.parametrize("case", sorted(BAD_INDEX_DIRS))
@pytest.mark.parametrize("command", ["search", "evaluate"])
def test_bad_index_file_is_one_error_line(workspace, tmp_path, capsys, case, command):
    damage, named = BAD_INDEX_DIRS[case]
    index_dir = tmp_path / "index"
    shutil.copytree(workspace["index"], index_dir)
    damage(index_dir)
    args = (["search", workspace["queries"][1]] if command == "search"
            else ["evaluate", "--truth", str(workspace["truth"]),
                  "-o", str(tmp_path / "report.csv")])
    assert main(args + ["--index-dir", str(index_dir)]) == EXIT_DATA_ERROR
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
                "contents.txt": [" ".join(thread_content_tokens(t)) for t in built]}
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
