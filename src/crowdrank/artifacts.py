"""Offline artifact construction and loading.

``build_artifacts`` turns a JSONL dump into an index directory: the
document store and the document frequencies are made in one streamed pass
over the dump's threads (`documents.build_store`) before any file is
written, and ``write_index`` writes them:

    docs.*.npy          thread document store (`documents.DOCS_ARRAYS`): each
                        thread's title, question body and question code and
                        each answer's body and code as term ids (over the
                        sorted idf.json words) and counts in CSR form; per
                        answer its id, its thread's row, its tf-idf norm and
                        its method calls; and the posts: question ids, scores,
                        title and body as UTF-8 bytes with offsets (a post's
                        code text is taken from its body), and the answers'
                        title bags over their own words. Each integer array
                        is saved in the narrowest integer dtype that holds
                        its values (`documents.narrowest`).
    idf.json            document frequencies + doc count (IDF derives from these)
    meta.json           format version, embedding config, corpus stats

``load_engine`` validates the version tags and assembles a SearchEngine from
the arrays alone, each widened to its `documents.DOCS_ARRAYS` dtype: the
thread BM25 index is made from the document store, and the engine's threads
are built from it when read (`documents.ThreadMap`). A damaged meta.json,
idf.json or document store file is a ValueError that names it; a directory of
an earlier layout fails on its meta.json version (version 1 stored three
strings a post, each post's code text too, in fixed dtypes) or, before
meta.json had one, on its first missing array. ``export_text`` writes the
preprocessed text of an index directory for training an external embedder:

    titles.txt          preprocessed question titles, one per line
    contents.txt        one preprocessed thread per line (title+body+code of Q&A)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .antonyms import AntonymDictionary, default_dictionary, merge_lists
from .corpus import (BuildStats, LoadStats, TagFilter, load_dump, read_json_object,
                     PREPROCESS_VERSION)
from .documents import DocumentStore, TextPart, build_store, load_documents, save_documents
from .embeddings import (DEFAULT_DIM, DEFAULT_SEED, EmbeddingStore, IdfMap,
                         load_sentence_vectors, load_word_vectors)
from .pipeline import SearchEngine

META_FORMAT = "crowdrank-meta"
META_VERSION = 2


@dataclass
class BuildReport:
    thread_count: int
    vocab_size: int
    load_stats: LoadStats
    build_stats: BuildStats


def build_artifacts(corpus_path: str | Path, out_dir: str | Path,
                    tag_filter: TagFilter | None = None,
                    stopwords: frozenset[str] | None = None) -> BuildReport:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    load_stats = LoadStats()
    build_stats = BuildStats()
    # The store is made before any file is touched, so that a build that
    # fails in it leaves the directory as it was.
    idf, docs = build_store(load_dump(corpus_path, tag_filter, load_stats), stopwords,
                            build_stats)
    write_index(out, idf, docs)
    return BuildReport(thread_count=docs.n_threads, vocab_size=len(idf.df),
                       load_stats=load_stats, build_stats=build_stats)


def write_index(out_dir: str | Path, idf: IdfMap, docs: DocumentStore) -> None:
    """Write an index directory's files: idf.json, the document store and
    meta.json."""
    out = Path(out_dir)
    # Earlier versions wrote a thread store and the thread index beside the
    # document store; a rebuild in place removes those files, which nothing
    # reads.
    for stale in [out / "threads.jsonl", out / "index.json", out / "index.header.json",
                  *out.glob("index.*.npy")]:
        stale.unlink(missing_ok=True)

    idf_payload = {"format": "crowdrank-idf", "version": 1,
                   "doc_count": idf.doc_count,
                   "df": {w: idf.df[w] for w in sorted(idf.df)}}
    (out / "idf.json").write_text(
        json.dumps(idf_payload, sort_keys=True, separators=(",", ":")) + "\n", "utf-8")
    save_documents(docs, out)

    meta = {
        "format": META_FORMAT,
        "version": META_VERSION,
        "preprocess_version": PREPROCESS_VERSION,
        "embedding": {"dim": DEFAULT_DIM},
        "stats": {"threads": docs.n_threads, "vocab": len(idf.df)},
    }
    (out / "meta.json").write_text(
        json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n", "utf-8")


def export_text(index_dir: str | Path, out_dir: str | Path) -> int:
    """Write titles.txt and contents.txt of an index directory's threads into
    `out_dir`, by ascending question id; returns the thread count. Each line
    is made from the document store's part rows, whose term ids ascend: the
    sorted words of each bag, each repeated by its count, so that no post's
    text is read."""
    idf, docs, _ = load_corpus(index_dir)
    words = sorted(idf.df)
    titles, bodies, codes, answer_bodies, answer_codes = (
        _row_text(docs.parts[name], words)
        for name in ("title", "body", "question_code", "answer_body", "code"))
    answers = docs.answer_ptr.tolist()
    contents = []
    for r in range(docs.n_threads):
        texts = [titles[r], bodies[r], codes[r]]
        for a in range(answers[r], answers[r + 1]):
            texts += (answer_bodies[a], answer_codes[a])
        contents.append(" ".join(filter(None, texts)))  # an empty bag adds no space
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "titles.txt").write_text("\n".join(titles) + ("\n" if titles else ""), "utf-8")
    (out / "contents.txt").write_text("\n".join(contents) + ("\n" if contents else ""), "utf-8")
    return docs.n_threads


def _row_text(part: TextPart, words: list[str]) -> list[str]:
    """Each row of a part as its words, ascending, each repeated by its
    count and joined by spaces."""
    tokens = list(map(words.__getitem__, np.repeat(part.ids, part.counts).tolist()))
    ends = np.zeros(len(part.counts) + 1, dtype=np.int64)
    np.cumsum(part.counts, out=ends[1:])
    bounds = ends[part.ptr].tolist()
    return [" ".join(tokens[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _is_count(value, least: int = 1) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def load_idf(path: str | Path) -> IdfMap:
    """Read idf.json; ValueError names the file when it is not a valid one."""
    payload = read_json_object(path)
    if payload.get("format") != "crowdrank-idf" or payload.get("version") != 1:
        raise ValueError(f"not a supported idf file: {path}")
    df, doc_count = payload.get("df"), payload.get("doc_count")
    if not isinstance(df, dict) or not all(map(_is_count, df.values())):
        raise ValueError(f"{path}: df must be an object of positive integer counts")
    if not _is_count(doc_count):
        raise ValueError(f"{path}: doc_count must be a positive integer, got {doc_count!r}")
    return IdfMap(df, doc_count)


def load_corpus(index_dir: str | Path) -> tuple[IdfMap, DocumentStore, int]:
    """An index directory's idf.json, its document store, which holds its
    threads, and the embedding dim of its meta.json; ValueError names the
    file at fault. The idf map and the store must be of the build meta.json
    records: the term ids of another build's vocabulary would name the wrong
    words."""
    root, rebuild = Path(index_dir), "; rerun `crowdrank build-index`"
    meta_path, idf_path = root / "meta.json", root / "idf.json"
    idf = load_idf(idf_path)
    meta = read_json_object(meta_path)
    if meta.get("format") != META_FORMAT or meta.get("version") != META_VERSION:
        raise ValueError(f"{meta_path}: unsupported index directory format{rebuild}")
    if meta.get("preprocess_version") != PREPROCESS_VERSION:
        raise ValueError("index was built with an incompatible preprocessing version")
    embedding, stats = meta.get("embedding", {}), meta.get("stats")
    dim = embedding.get("dim", DEFAULT_DIM) if isinstance(embedding, dict) else None
    if not _is_count(dim):
        raise ValueError(f"{meta_path}: embedding dim must be a positive integer, got {dim!r}")
    threads, words = (stats.get(key) if isinstance(stats, dict) else None
                      for key in ("threads", "vocab"))
    if not (_is_count(threads, 0) and _is_count(words, 0)):
        raise ValueError(f"{meta_path}: stats must hold the thread and word counts")
    for got, recorded, what in ((len(idf.df), words, "words"),
                                (idf.doc_count, max(threads, 1), "documents")):
        if got != recorded:
            raise ValueError(f"{idf_path}: {got} {what}, but {meta_path.name} "
                             f"records {recorded}{rebuild}")
    docs = load_documents(root, len(idf.df))
    if docs.n_threads != threads:
        raise ValueError(f"{meta_path}: {threads} threads, but the document store holds "
                         f"{docs.n_threads}{rebuild}")
    return idf, docs, dim


def load_engine(index_dir: str | Path,
                word_vectors: str | Path | None = None,
                sentence_vectors: str | Path | None = None,
                antonym_path: str | Path | None = None,
                stopwords: frozenset[str] | None = None,
                seed: int = DEFAULT_SEED) -> SearchEngine:
    idf, docs, dim = load_corpus(index_dir)

    if word_vectors is not None:
        store = load_word_vectors(word_vectors, fallback=False, seed=seed)
    else:
        store = EmbeddingStore(dim=dim, fallback=True, seed=seed)
    if sentence_vectors is not None:
        load_sentence_vectors(sentence_vectors, store)

    if antonym_path is not None:
        antonym_dict = merge_lists([antonym_path])
    else:
        antonym_dict = default_dictionary()

    return SearchEngine(docs, store, idf, antonym_dict, stopwords=stopwords)
