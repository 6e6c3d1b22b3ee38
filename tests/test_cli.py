import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

import synth
from crowdrank.cli import EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE, main
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


class TestBuildIndex:
    def test_artifacts_written(self, workspace):
        for name in ("threads.jsonl", "index.json", "idf.json", "titles.txt",
                     "contents.txt", "meta.json"):
            assert (workspace["index"] / name).exists()

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

    @pytest.mark.parametrize("line, named", [
        ("thread_weight.tff=0.3", "'tff'"),
        ("antonym_pos_mode=XX", "'XX'"),
        ("thread_weight.sentence=nan", "'sentence'"),
        ("answer_weight.asym=inf", "'asym'"),
        ("answer_weight.asym=1e308\nanswer_weight.tfidf=1e308", "answer weights"),
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


@pytest.mark.parametrize("payload, named", [
    ({"format": "crowdrank-index", "version": 1}, "build-index"),
    (None, "build-index"),  # a complete version-1 file
    ({"format": "crowdrank-index", "version": 2}, "lacks k, b, doc_len, doc_sumsq, postings"),
    ({"format": "crowdrank-index", "version": 2, "k": 1.2, "b": 0.9, "doc_len": {},
      "postings": {}}, "lacks doc_sumsq"),
])
@pytest.mark.parametrize("command", ["search", "evaluate"])
def test_bad_index_file_is_one_error_line(workspace, tmp_path, capsys, payload, named,
                                          command):
    index_dir = tmp_path / "index"
    shutil.copytree(workspace["index"], index_dir)
    if payload is None:
        payload = json.loads((index_dir / "index.json").read_text())
        payload["version"] = 1
        del payload["doc_sumsq"]
    (index_dir / "index.json").write_text(json.dumps(payload))
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
