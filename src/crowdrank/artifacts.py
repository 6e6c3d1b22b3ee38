"""Offline artifact construction and loading.

``build_artifacts`` turns a JSONL dump into an index directory:

    docs.*.npy          thread document store (`documents.DOCS_ARRAYS`): each
                        thread's title, question body and question code and
                        each answer's body and code as term ids (over the
                        sorted idf.json words) and counts in CSR form; per
                        answer its id, its thread's row, its tf-idf norm and
                        its method calls; and the posts: question ids, scores,
                        display text as UTF-8 bytes with offsets, and the
                        answers' title bags over their own words
    idf.json            document frequencies + doc count (IDF derives from these)
    meta.json           format version, embedding config, corpus stats

``load_engine`` validates the version tags and assembles a SearchEngine from
fixed-dtype arrays alone: the thread BM25 index is made from the document
store, and the engine's threads are built from it when read
(`documents.ThreadMap`). A damaged meta.json, idf.json or document store
file is a ValueError that names it; a directory built before the current
store fails on its first missing array. ``export_text`` writes the
preprocessed text of an index directory for training an external embedder:

    titles.txt          preprocessed question titles, one per line
    contents.txt        one preprocessed thread per line (title+body+code of Q&A)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .antonyms import AntonymDictionary, default_dictionary, merge_lists
from .corpus import (BuildStats, LoadStats, TagFilter, Thread, build_threads, load_dump,
                     read_json_object, PREPROCESS_VERSION)
from .documents import DocumentStore, ThreadMap, build_documents, load_documents, save_documents
from .embeddings import (DEFAULT_DIM, DEFAULT_SEED, EmbeddingConfig, EmbeddingStore,
                         IdfMap, load_sentence_vectors, load_word_vectors)
from .pipeline import SearchEngine

META_FORMAT = "crowdrank-meta"
META_VERSION = 1


def _bag_tokens(bag) -> list[str]:
    out: list[str] = []
    for word in sorted(bag):
        out.extend([word] * bag[word])
    return out


def thread_content_tokens(thread: Thread) -> list[str]:
    """Words of a thread for idf.json and contents.txt, question code included.

    The thread's indexed text (BM25 and tf) is its parts
    `documents.THREAD_PARTS + ANSWER_PARTS`, which leave question code out;
    the BM25 and tf oracles in `perfbench/checks.py` assume this split.
    """
    tokens = _bag_tokens(thread.question.title_bag)
    tokens += _bag_tokens(thread.question.body_bag)
    tokens += _bag_tokens(thread.question.code_bag)
    for answer in thread.answers:
        tokens += _bag_tokens(answer.body_bag)
        tokens += _bag_tokens(answer.code_bag)
    return tokens


def build_idf(threads: list[Thread]) -> IdfMap:
    return IdfMap.from_documents(thread_content_tokens(t) for t in threads)


@dataclass
class BuildReport:
    thread_count: int
    vocab_size: int
    load_stats: LoadStats
    build_stats: BuildStats


def build_artifacts(corpus_path: str | Path, out_dir: str | Path,
                    tag_filter: TagFilter | None = None,
                    stopwords: frozenset[str] | None = None,
                    embedding_config: EmbeddingConfig | None = None) -> BuildReport:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    embedding_config = embedding_config or EmbeddingConfig()

    load_stats = LoadStats()
    build_stats = BuildStats()
    # The raw posts are not kept past the threads made of them.
    threads = build_threads(load_dump(corpus_path, tag_filter, load_stats), stopwords,
                            build_stats)

    # Earlier versions wrote a thread store and the thread index beside the
    # document store; a rebuild in place removes those files, which nothing
    # reads.
    for stale in [out / "threads.jsonl", out / "index.json", out / "index.header.json",
                  *out.glob("index.*.npy")]:
        stale.unlink(missing_ok=True)

    idf = build_idf(threads) if threads else IdfMap({}, 1)
    idf_payload = {"format": "crowdrank-idf", "version": 1,
                   "doc_count": idf.doc_count,
                   "df": {w: idf.df[w] for w in sorted(idf.df)}}
    (out / "idf.json").write_text(
        json.dumps(idf_payload, sort_keys=True, separators=(",", ":")) + "\n", "utf-8")
    save_documents(build_documents(threads, idf), out)

    meta = {
        "format": META_FORMAT,
        "version": META_VERSION,
        "preprocess_version": PREPROCESS_VERSION,
        "embedding": embedding_config.to_json(),
        "stats": {"threads": len(threads), "vocab": len(idf.df)},
    }
    (out / "meta.json").write_text(
        json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n", "utf-8")

    return BuildReport(thread_count=len(threads), vocab_size=len(idf.df),
                       load_stats=load_stats, build_stats=build_stats)


def export_text(index_dir: str | Path, out_dir: str | Path) -> int:
    """Write titles.txt and contents.txt of an index directory's threads into
    `out_dir`, by ascending question id; returns the thread count. The bags
    are read from the document store."""
    idf, docs = load_corpus(index_dir)
    ordered = list(ThreadMap(docs, sorted(idf.df)).values())
    titles = [" ".join(_bag_tokens(t.question.title_bag)) for t in ordered]
    contents = [" ".join(thread_content_tokens(t)) for t in ordered]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "titles.txt").write_text("\n".join(titles) + ("\n" if titles else ""), "utf-8")
    (out / "contents.txt").write_text("\n".join(contents) + ("\n" if contents else ""), "utf-8")
    return len(ordered)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


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


def load_corpus(index_dir: str | Path) -> tuple[IdfMap, DocumentStore]:
    """An index directory's idf.json and document store, which holds its
    threads; ValueError names the file at fault."""
    root = Path(index_dir)
    idf = load_idf(root / "idf.json")
    return idf, load_documents(root, len(idf.df))


def load_engine(index_dir: str | Path,
                word_vectors: str | Path | None = None,
                sentence_vectors: str | Path | None = None,
                antonym_path: str | Path | None = None,
                stopwords: frozenset[str] | None = None,
                seed: int = DEFAULT_SEED) -> SearchEngine:
    root = Path(index_dir)
    meta_path = root / "meta.json"
    meta = read_json_object(meta_path)
    if meta.get("format") != META_FORMAT or meta.get("version") != META_VERSION:
        raise ValueError(f"{meta_path}: unsupported index directory format; "
                         f"rerun `crowdrank build-index`")
    if meta.get("preprocess_version") != PREPROCESS_VERSION:
        raise ValueError("index was built with an incompatible preprocessing version")
    embedding = meta.get("embedding", {})
    dim = embedding.get("dim", DEFAULT_DIM) if isinstance(embedding, dict) else None
    if not _is_count(dim):
        raise ValueError(f"{meta_path}: embedding dim must be a positive integer, got {dim!r}")

    idf, docs = load_corpus(root)

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

    return SearchEngine((), store, idf, antonym_dict, stopwords=stopwords, docs=docs)
