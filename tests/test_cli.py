import contextlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth
from crowdrank.cli import EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE, main
from crowdrank.features import WeightConfig
from crowdrank.index import INDEX_ARRAYS, INDEX_HEADER, index_file, load_index

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


class TestBuildIndex:
    def test_artifacts_written(self, workspace):
        assert sorted(p.name for p in workspace["index"].iterdir()) == sorted([
            "threads.jsonl", "idf.json", "titles.txt", "contents.txt", "meta.json",
            "index.header.json", "index.terms.npy", "index.term_ptr.npy",
            "index.indptr.npy", "index.rows.npy", "index.tfs.npy", "index.doc_ids.npy",
            "index.doc_len.npy", "index.doc_sumsq.npy"])
        assert not (workspace["index"] / "index.json").exists()

    def test_rebuild_replaces_a_json_index(self, workspace, tmp_path):
        out = tmp_path / "idx"
        shutil.copytree(workspace["index"], out)
        (out / "index.json").write_text('{"format": "crowdrank-index", "version": 2}')
        assert main(["build-index", "--corpus", str(workspace["corpus"]),
                     "--out", str(out)]) == EXIT_OK
        assert not (out / "index.json").exists()

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
        assert out[2:10] == ["load warnings: 0", "load questions: 2", "load answers: 2",
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


def _json_index_only(index_dir, payload):
    """Leave the directory as builds before the arrays left it: index.json alone."""
    for name in INDEX_ARRAYS:
        index_file(index_dir, name).unlink()
    (index_dir / INDEX_HEADER).unlink()
    (index_dir / "index.json").write_text(json.dumps(payload))


def _complete_json_index(index_dir):
    """A complete version-2 index.json of the directory's own index."""
    index = load_index(index_dir)
    return {"format": "crowdrank-index", "version": 2, "k": 1.2, "b": 0.9, "meta": {},
            "doc_len": {str(d): n for d, n in zip(index.doc_ids.tolist(),
                                                  index.doc_len.tolist())},
            "doc_sumsq": {str(d): n for d, n in zip(index.doc_ids.tolist(),
                                                    index.doc_sumsq.tolist())},
            "postings": {t: index.postings(t) for t in index.terms}}


def _edit_json(name, edit):
    def damage(index_dir):
        path = index_dir / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return damage


def _save_array(name, edit):
    def damage(index_dir):
        path = index_file(index_dir, name)
        array = edit(np.load(path))
        with open(path, "wb") as fh:
            np.save(fh, array)
    return damage


def _thread_store_line(lineno, text):
    def damage(index_dir):
        path = index_dir / "threads.jsonl"
        lines = path.read_text("utf-8").splitlines()
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n", "utf-8")
    return damage


def _without(key):
    def edit(payload):
        del payload[key]
        return payload
    return edit


BAD_INDEX_DIRS = {
    # damage(index_dir), then what the one error line must name
    "json-index-v1": (lambda d: _json_index_only(d, {"format": "crowdrank-index", "version": 1}),
                      "index.json: an index of an older format; rerun `crowdrank build-index`"),
    "json-index-v2": (lambda d: _json_index_only(d, _complete_json_index(d)),
                      "index.json: an index of an older format; rerun `crowdrank build-index`"),
    "header-version-2": (_edit_json(INDEX_HEADER, lambda h: dict(h, version=2)),
                         "rerun `crowdrank build-index`"),
    "header-lacks-k": (_edit_json(INDEX_HEADER, _without("k")), INDEX_HEADER),
    "idf-lacks-df": (_edit_json("idf.json", _without("df")), "idf.json: df"),
    "idf-not-an-object": (_edit_json("idf.json", lambda _: [1]),
                          "idf.json: not a JSON object"),
    "meta-not-an-object": (_edit_json("meta.json", lambda _: [1]),
                           "meta.json: not a JSON object"),
    "meta-embedding-not-an-object": (_edit_json("meta.json", lambda m: dict(m, embedding=[1])),
                                     "meta.json: embedding dim"),
    "array-missing": (lambda d: index_file(d, "rows").unlink(), "index.rows.npy: missing"),
    "array-needs-pickle": (_save_array("doc_ids", lambda a: a.astype(object)),
                           "index.doc_ids.npy: not a readable .npy array"),
    "array-wrong-dtype": (_save_array("tfs", lambda a: a.astype(np.float64)),
                          "index.tfs.npy: holds a 1-d float64 array"),
    "array-wrong-ndim": (_save_array("doc_len", lambda a: a[None, :]),
                         "index.doc_len.npy: holds a 2-d int64 array"),
    "indptr-not-monotone": (_save_array("indptr", lambda a: np.where(
        np.arange(len(a)) == 1, a[-1], a)), "index.indptr.npy: offsets do not run"),
    "indptr-short-of-postings": (_save_array("indptr", lambda a: np.append(a[:-1], a[-1] - 1)),
                                 "index.indptr.npy: offsets do not run"),
    "row-out-of-range": (_save_array("rows", lambda a: np.append(a[:-1], 10 ** 6).astype(
        np.int32)), "index.rows.npy: a document row is outside"),
    "term-count-off": (_save_array("indptr", lambda a: np.append(a, a[-1])),
                       "index.indptr.npy: term count"),
    "threads-header-not-an-object": (_thread_store_line(1, "[1]"), "threads.jsonl:1:"),
    "thread-lacks-id": (_thread_store_line(3, '{"question": {}}'), "threads.jsonl:3:"),
    "thread-not-json": (_thread_store_line(2, "{not json"), "threads.jsonl:2:"),
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
