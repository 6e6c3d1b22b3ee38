"""Synthetic corpora and independent oracles shared by the test modules.

Oracles here are deliberately naive re-implementations (plain loops over the
written formulas) so they stay independent of the library code paths they
check.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import numpy as np

WORDS = [f"w{i:03d}term" for i in range(400)]


def write_jsonl(path, objects):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj) + "\n")


def question(qid, title, body, score, tags=("java",)):
    return {"id": qid, "post_kind": "question", "title": title,
            "body_html": body, "score": score, "tags": list(tags)}


def answer(aid, parent, body, score):
    return {"id": aid, "post_kind": "answer", "parent_id": parent,
            "body_html": body, "score": score}


def planted_corpus(n_threads=200, n_queries=20, seed=7):
    """Corpus with one planted perfect answer per query.

    Returns (posts, queries, relevant) where queries is {query_id: text} and
    relevant is {query_id: answer_id}. Distractor threads each share exactly
    one term with one query so no query term saturates the ephemeral answer
    collection's document frequencies.
    """
    rng = random.Random(seed)
    posts, queries, relevant = [], {}, {}
    terms_by_query = {}
    for j in range(n_queries):
        terms = [f"q{j}alpha", f"q{j}beta", f"q{j}gamma", f"q{j}delta"]
        terms_by_query[j] = terms
        queries[j + 1] = " ".join(terms)
        qid = 100000 + j * 10
        aid = qid + 1
        text = " ".join(terms)
        posts.append(question(qid, text, f"need help {text}", 600))
        posts.append(answer(aid, qid,
                            f"solution {text} <code>Helper.process(x)</code>", 1000))
        relevant[j + 1] = aid

    n_distractors = n_threads - n_queries
    for i in range(n_distractors):
        j = i % n_queries
        shared = terms_by_query[j][i % 4]
        filler = " ".join(rng.sample(WORDS, 8))
        qid = 1000 + i * 10
        posts.append(question(qid, f"{shared} {filler}", f"{filler} details", rng.randint(1, 5)))
        posts.append(answer(qid + 1, qid,
                            f"{filler} <code>m{i}x(y)</code>", rng.randint(1, 3)))
    return posts, queries, relevant


def funnel_corpus(n_threads=800, seed=3):
    """Threads that all hold one query word, so that a search fills the
    default funnel (500 threads, 250, 100, 150 answers, 10) as the benchmark's
    5k-thread searches do, and the query's other words, drawn from WORDS.
    Titles draw on a part of WORDS only, so that the targets of a first
    search hold words the titles do not.

    Returns (posts, query text).
    """
    rng = random.Random(seed)
    query = ["funnelword", *rng.sample(WORDS, 4)]
    posts = []
    for i in range(n_threads):
        qid = 10 * (i + 1)
        title = " ".join(rng.sample(WORDS[:150], rng.randint(4, 8)) + ["funnelword"])
        body = " ".join(rng.choices(WORDS + query, k=rng.randint(15, 40)))
        posts.append(question(qid, title, body, rng.randint(1, 50)))
        for j in range(rng.randint(1, 4)):
            prose = " ".join(rng.choices(WORDS, k=rng.randint(12, 35)))
            code = " ".join(f"{w}.m{rng.randint(0, 60)}(x);" for w in rng.sample(WORDS, 3))
            posts.append(answer(qid + 1 + j, qid, f"{prose} <code>{code}</code>",
                                rng.randint(1, 30)))
    return posts, " ".join(query)


def social_corpus(n_queries=5, distractors=12, seed=11):
    """Relevance planted to correlate with social counters.

    Per query: one relevant thread with maximal counters plus `distractors`
    threads with byte-identical text but minimal counters and smaller answer
    ids, so with social features disabled the relevant answer ties and loses
    every tie-break. A one-term partial thread keeps ephemeral document
    frequencies below the collection size.
    """
    posts, queries, relevant = [], {}, {}
    for j in range(n_queries):
        terms = [f"s{j}xray", f"s{j}yolk", f"s{j}zest"]
        queries[j + 1] = " ".join(terms)
        text = " ".join(terms)
        rel_qid = 500000 + j * 100
        rel_aid = rel_qid + 1
        posts.append(question(rel_qid, text, f"please {text}", 400))
        posts.append(answer(rel_aid, rel_qid, f"{text} <code>Fix.run(a)</code>", 500))
        relevant[j + 1] = rel_aid
        for d in range(distractors):
            qid = 10000 + j * 1000 + d * 10
            posts.append(question(qid, text, f"please {text}", 1))
            posts.append(answer(qid + 1, qid, f"{text} <code>Fix.run(a)</code>", 1))
        pqid = 800000 + j * 10
        posts.append(question(pqid, f"{terms[0]} unrelated topic", "other matter", 1))
        posts.append(answer(pqid + 1, pqid, "different thing <code>Other.go(b)</code>", 1))
    return posts, queries, relevant


ANTONYM_TRIPLES = [("zip", "unzip"), ("lock", "unlock"), ("upload", "download")]


def antonym_corpus():
    """Distractor answers carry an antonym of the query's noun in their code.

    The distractor thread has maximal social counters so it outranks the
    relevant answer unless the answer-level antonym filter removes it.
    """
    posts, queries, relevant = [], {}, {}
    for j, (word, opposite) in enumerate(ANTONYM_TRIPLES):
        terms = [word, f"av{j}doc", f"av{j}blob"]
        queries[j + 1] = " ".join(terms)
        text = " ".join(terms)

        rel_qid = 600000 + j * 100
        posts.append(question(rel_qid, text, f"question about {text}", 10))
        posts.append(answer(rel_qid + 1, rel_qid, f"{text} <code>Util.call(x)</code>", 5))
        relevant[j + 1] = rel_qid + 1

        bad_qid = 20000 + j * 100
        posts.append(question(bad_qid, text, f"question about {text}", 600))
        posts.append(answer(bad_qid + 1, bad_qid,
                            f"{text} <code>Util.call(x) {opposite}</code>", 1000))

        pqid = 30000 + j * 100
        posts.append(question(pqid, f"{word} something else", "other", 1))
        posts.append(answer(pqid + 1, pqid, "misc <code>Misc.go(b)</code>", 1))
    return posts, queries, relevant


def antonym_filter_corpus():
    """`antonym_corpus` plus threads that carry an antonym of a query word in
    each text part the filters read: a thread's title or question body (the
    thread filter), and an answer's body or code (the answer filter). "open"
    and "close" are verbs only, so the POS modes filter differently."""
    posts, queries, relevant = antonym_corpus()
    planted = [
        ("av0doc unzip", "about av0doc", "av0doc <code>Zip.run(a)</code>"),
        ("av0doc av0blob", "question av0doc with download", "av0doc <code>Io.get(a)</code>"),
        ("av1doc notes", "about av1doc", "av1doc unlock here <code>Lock.set(b)</code>"),
        ("av0doc close", "av0doc question", "av0doc <code>Io.put(c)</code>"),
        ("av0doc files", "av0doc question", "av0doc answer <code>Io.put(c) close</code>"),
    ]
    for i, (title, body, answer_text) in enumerate(planted):
        qid = 700000 + i * 100
        posts.append(question(qid, title, body, 50 + i))
        posts.append(answer(qid + 1, qid, "av0doc av1doc " + answer_text, 20))
        posts.append(answer(qid + 2, qid, "other av0doc <code>Misc.go(b)</code>", 2))
    return posts, queries, relevant


ANTONYM_FILTER_QUERIES = (
    "zip av0doc av0blob",         # a noun and verb of the lexicon
    "open av0doc",                # a verb only
    "lock upload av1doc av0doc",  # two lexicon words
    "zip unzip lock av1doc",      # self-antonymous: not even lock's antonym counts
    "av0doc av0blob av1doc",      # no lexicon word
)


# ---------------------------------------------------------------------------
# bag-walking references of the document store's gathers


def antonym_free_reference(ctx, threads, rows, answers):
    """Whether each candidate's words hold none of the query's antonyms,
    `ctx.score(words) == 0`. The candidates are thread rows (threads by
    ascending question id), whose words are the title and question body, or
    with `answers` answer rows (answers thread after thread), whose words are
    the thread's title and the answer's body and code."""
    threads = sorted(threads, key=lambda t: t.question.id)
    if answers:
        pairs = [(t, a) for t in threads for a in t.answers]
        words = [pairs[r][0].question.title_bag.keys() | pairs[r][1].body_bag.keys()
                 | pairs[r][1].code_bag.keys() for r in rows]
    else:
        words = [threads[r].question.title_bag.keys() | threads[r].question.body_bag.keys()
                 for r in rows]
    return np.array([ctx.score(w) == 0 for w in words], dtype=bool)


def thread_document_bag(thread):
    """Indexed text of a thread: title, question body, answers' bodies and
    answers' code. Question code is left out (it counts for idf only)."""
    bag = Counter(thread.question.title_bag)
    bag.update(thread.question.body_bag)
    for answer in thread.answers:
        bag.update(answer.body_bag)
        bag.update(answer.code_bag)
    return bag


INDEX_ARRAYS = ("indptr", "rows", "tfs", "doc_ids", "doc_len", "doc_sumsq", "impacts")


def index_differences(got, want):
    """The names of the arrays (and `terms`) in which two InvertedIndexes
    differ, by `np.array_equal` and dtype."""
    names = [] if got.terms == want.terms else ["terms"]
    return names + [name for name in INDEX_ARRAYS
                    if not np.array_equal(getattr(got, name), getattr(want, name))
                    or getattr(got, name).dtype != getattr(want, name).dtype]


def answer_document_bag(thread, answer):
    """Indexed text of an answer: parent title, parent body, its body, its code."""
    bag = Counter(thread.question.title_bag)
    for part in (thread.question.body_bag, answer.body_bag, answer.code_bag):
        bag.update(part)
    return bag


def segments_reference(docs, vocab):
    """Each doc's distinct word ids, sorted, as a flat list and offsets; a doc
    is a list of word bags, `vocab` the sorted vocabulary."""
    word_id = {w: i for i, w in enumerate(vocab)}
    flat, ptr = [], [0]
    for parts in docs:
        flat += sorted({word_id[w] for bag in parts for w in bag})
        ptr.append(len(flat))
    return flat, ptr


def answer_index_reference(threads, terms):
    """(doc ids, doc lengths, N, avgdl, postings) of the answer BM25 index over
    the threads' answers, in ascending answer id, holding only `terms`."""
    docs = {a.id: answer_document_bag(t, a) for t in threads for a in t.answers}
    doc_ids = sorted(docs)
    doc_len = [sum(docs[d].values()) for d in doc_ids]
    postings = {}
    for term in sorted(set(terms)):
        plist = [(d, docs[d][term]) for d in doc_ids if docs[d].get(term, 0)]
        if plist:
            postings[term] = plist
    avgdl = sum(doc_len) / len(doc_ids) if doc_ids else 0.0
    return doc_ids, doc_len, len(doc_ids), avgdl, postings


def top_method_reference(code_texts, extract, scale=10.0):
    """Each answer's top-method score: log2(f)/scale if its code calls the
    method called most often over all of them (ties: the smallest name)."""
    per_answer = [extract(code) for code in code_texts]
    freq = Counter(m for methods in per_answer for m in methods)
    if not freq:
        return [0.0] * len(code_texts)
    top = min(freq, key=lambda m: (-freq[m], m))
    return [math.log2(freq[top]) / scale if top in methods else 0.0 for methods in per_answer]


# ---------------------------------------------------------------------------
# oracles


def bm25_oracle(docs, query_terms, k, b):
    """Scalar evaluation of the saturating-tf ranking formula per (doc, query)."""
    n = len(docs)
    if n == 0:
        return {}
    avgdl = sum(sum(bag.values()) for bag in docs.values()) / n
    df = Counter()
    for bag in docs.values():
        df.update(set(bag))
    scores = {}
    for doc_id, bag in docs.items():
        dl = sum(bag.values())
        total = 0.0
        for term in sorted(set(query_terms)):
            tf = bag.get(term, 0)
            if tf == 0:
                continue
            idf = math.log10(n / df[term])
            total += idf * tf * (k + 1) / (tf + k * (1 - b + b * dl / avgdl))
        scores[doc_id] = total
    return scores


def cosine_oracle(v1, v2):
    dot = sum(a * b for a, b in zip(v1, v2))
    n1 = math.sqrt(sum(a * a for a in v1))
    n2 = math.sqrt(sum(b * b for b in v2))
    if n1 == 0 or n2 == 0:
        return 0.0
    return dot / (n1 * n2)


def asym_oracle(query, target, vectors, idf, clamp=True):
    query, target = set(query), set(target)
    if not query:
        return 0.0
    num = den = 0.0
    for w in sorted(query):
        best = 0.0
        for t in target:
            if t == w:
                best = 1.0
                break
            if w in vectors and t in vectors:
                c = cosine_oracle(vectors[w], vectors[t])
                if clamp:
                    c = max(c, 0.0)
                best = max(best, c)
        if w not in vectors:
            best = 0.0
        num += best * idf(w)
        den += idf(w)
    return num / den if den else 0.0


def tf_oracle(bag_q, bag_t):
    if not bag_q or not bag_t:
        return 0.0
    terms = set(bag_q) | set(bag_t)
    dot = sum(bag_q.get(t, 0) * bag_t.get(t, 0) for t in terms)
    nq = math.sqrt(sum(v * v for v in bag_q.values()))
    nt = math.sqrt(sum(v * v for v in bag_t.values()))
    return dot / (nq * nt)


def tfidf_oracle(bag_q, bag_a, idf):
    if not bag_q or not bag_a:
        return 0.0
    terms = set(bag_q) | set(bag_a)
    wq = {t: bag_q.get(t, 0) * idf(t) for t in terms}
    wa = {t: bag_a.get(t, 0) * idf(t) for t in terms}
    dot = sum(wq[t] * wa[t] for t in terms)
    nq = math.sqrt(sum(v * v for v in wq.values()))
    na = math.sqrt(sum(v * v for v in wa.values()))
    if nq == 0 or na == 0:
        return 0.0
    return dot / (nq * na)


def metrics_oracle(ranked, relevant, k):
    top = ranked[: k] if not math.isinf(k) else list(ranked)
    hit = 1.0 if any(a in relevant for a in top) else 0.0
    rr = 0.0
    for i, a in enumerate(top, 1):
        if a in relevant:
            rr = 1.0 / i
            break
    precisions = []
    seen = 0
    for i, a in enumerate(top, 1):
        if a in relevant:
            seen += 1
            precisions.append(seen / i)
    denom = len(relevant) if math.isinf(k) else min(len(relevant), int(k))
    ap = sum(precisions) / denom if denom else 0.0
    recall = len(set(top) & set(relevant)) / len(relevant)
    return hit, rr, ap, recall
