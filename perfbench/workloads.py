"""Seeded request generators for the three benchmark workloads.

Every generator takes the workload seed and nothing else that varies, so a
seed fixes the request stream.  Each request carries, next to what is sent,
the *gold* subjective dimensions it asks for (used only for NDCG@10).

* :func:`utterance_stream` — distinct search utterances in the paper's
  Short/Medium/Long shapes (1–6 dimension tags), with intensifiers, several
  lead-ins and an optional city slot;
* :func:`conversation_transcripts` — bench-conv's six-turn archetypes
  (:func:`repro.conversation.bench.build_conv_workload`), with the gold
  dimensions of each turn;
* :class:`TagQueryStream` — tag queries drawn Zipf from an indexed pool and
  an unindexed (intensified or paraphrased) pool, a fixed share carrying a
  never-seen lexicon aspect×opinion tag, and a reindex after every
  :data:`REINDEX_EVERY` searches.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Section 6.2's difficulty levels: tags per query.
SHAPES = {"Short": (1, 2), "Medium": (3, 4), "Long": (5, 6)}
INTENSIFIERS = ("", "", "very", "really", "extremely", "quite", "super")
LEAD_INS = (
    "i want a restaurant{city} where",
    "find me a place{city} where",
    "i am looking for a restaurant{city} where",
    "can you find a restaurant{city} where",
    "we need a table somewhere{city} where",
    "looking for dinner{city} at a place where",
)
#: every generated entity is in this city; other cities would empty the
#: objective pre-filter and leave nothing to rank.
CITY = "montreal"

#: pool of each search in a repeating cycle: one query in twelve carries a
#: never-seen aspect×opinion tag, the others alternate between the pools.
POOL_CYCLE = ("indexed", "unindexed") * 5 + ("indexed", "novel")
NOVEL_SHARE = POOL_CYCLE.count("novel") / len(POOL_CYCLE)
#: searches between two background reindexes.
REINDEX_EVERY = 100
#: Zipf exponent over each query pool.
ZIPF_S = 1.1
POOL_QUERIES = 160


def _dimensions():
    from repro.data import restaurant_dimensions

    return restaurant_dimensions()


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream) so streams never share draws."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode("utf-8"))])


# ------------------------------------------------------------ utterance-search


@dataclass(frozen=True)
class Utterance:
    text: str
    gold: Tuple[str, ...]
    shape: str


def _clause(rng: np.random.Generator, dimension) -> str:
    aspect = dimension.name.split()[-1]
    opinion = str(rng.choice(dimension.positive_opinions))
    intensifier = str(rng.choice(INTENSIFIERS))
    words = ["the", aspect, "is"] + ([intensifier] if intensifier else []) + [opinion]
    return " ".join(words)


def utterance_stream(seed: int, count: int) -> List[Utterance]:
    """``count`` distinct subjective search utterances.

    Tag counts cycle 1, 2, ..., 6, so every run holds the three shapes in
    equal thirds; which dimensions, opinions, intensifiers, lead-in and
    city slot an utterance gets is drawn from the seed.
    """
    rng = _rng(seed, "utterance")
    dimensions = _dimensions()
    shape_of = {size: shape for shape, (low, high) in SHAPES.items() for size in (low, high)}
    seen = set()
    out: List[Utterance] = []
    while len(out) < count:
        size = len(out) % 6 + 1
        chosen = sorted(int(i) for i in rng.choice(len(dimensions), size=size, replace=False))
        clauses = [_clause(rng, dimensions[i]) for i in chosen]
        body = clauses[0] if size == 1 else ", ".join(clauses[:-1]) + " and " + clauses[-1]
        city = f" in {CITY}" if rng.random() < 0.5 else ""
        lead = str(rng.choice(LEAD_INS)).format(city=city)
        text = f"{lead} {body}"
        if text in seen:
            continue
        seen.add(text)
        out.append(Utterance(text, tuple(dimensions[i].name for i in chosen), shape_of[size]))
    return out


# ----------------------------------------------------------------- conversation

#: gold dimensions per archetype turn of ``repro.conversation.bench``
#: (``None``: the turn asks for nothing subjective yet).
ARCHETYPE_GOLD: Tuple[Tuple[Optional[Tuple[str, ...]], ...], ...] = (
    (
        ("delicious food",),
        ("delicious food", "generous portions"),
        ("delicious food", "generous portions"),
        ("delicious food", "generous portions"),
        ("romantic ambiance",),
        ("romantic ambiance",),
    ),
    (
        None,
        ("nice staff",),
        ("nice staff",),
        ("nice staff",),
        ("nice staff",),
        ("nice staff",),
    ),
    (
        None,
        ("beautiful view",),
        ("beautiful view", "quiet atmosphere"),
        ("beautiful view", "quiet atmosphere"),
        ("beautiful view", "quiet atmosphere"),
        ("beautiful view", "quiet atmosphere"),
    ),
)


@dataclass(frozen=True)
class Transcript:
    session_id: str
    turns: Tuple[str, ...]
    gold: Tuple[Optional[Tuple[str, ...]], ...]


def conversation_transcripts(seed: int, count: int, stream: str = "measure") -> List[Transcript]:
    """``count`` six-turn transcripts, each under a fresh session id."""
    from repro.conversation.bench import build_conv_workload

    workload = build_conv_workload(_rng(seed, "conversation-" + stream), count, 6)
    return [
        Transcript(
            session_id=f"{stream}-{seed}-{index}",
            turns=tuple(turns),
            gold=ARCHETYPE_GOLD[index % len(ARCHETYPE_GOLD)],
        )
        for index, turns in enumerate(workload)
    ]


# ----------------------------------------------------------- tag-search-reindex


@dataclass(frozen=True)
class TagQuery:
    """One stream item: a search (``tags``) or a reindex (``tags == ()``)."""

    tags: Tuple[str, ...]
    gold: Tuple[str, ...]
    pool: str  # "indexed", "unindexed", "novel" or "reindex"


def unindexed_tags() -> Dict[str, str]:
    """Intensified and paraphrased dimension tags → their dimension."""
    dimensions = _dimensions()
    names = {d.name for d in dimensions}
    out: Dict[str, str] = {}
    for dimension in dimensions:
        aspect = dimension.name.split()[-1]
        for intensifier in ("very", "really", "extremely"):
            out[f"{intensifier} {dimension.name}"] = dimension.name
        for opinion in dimension.positive_opinions:
            text = f"{opinion} {aspect}"
            if " " not in opinion and text not in names:
                out.setdefault(text, dimension.name)
    return out


def novel_tags(seed: int) -> List[str]:
    """Lexicon aspect×opinion tags in a seeded order, none in either pool."""
    from repro.text import restaurant_lexicon

    lexicon = restaurant_lexicon()
    known = {d.name for d in _dimensions()} | set(unindexed_tags())
    aspects = sorted(s for s in lexicon.aspect_surface_index() if " " not in s)
    opinions = sorted(s for s in lexicon.opinion_index() if " " not in s)
    tags = [f"{o} {a}" for a in aspects for o in opinions if f"{o} {a}" not in known]
    order = _rng(seed, "novel").permutation(len(tags))
    return [tags[i] for i in order]


def _query_pool(rng: np.random.Generator, tags: Sequence[str], gold_of, must: Sequence[str]):
    pool = []
    for _ in range(POOL_QUERIES):
        size = int(rng.integers(1, 4))
        first = str(rng.choice(must))
        rest = [str(t) for t in rng.choice(tags, size=size - 1, replace=False)] if size > 1 else []
        query = tuple(dict.fromkeys([first] + rest))
        gold = tuple(dict.fromkeys(gold_of[t] for t in query if t in gold_of))
        pool.append((query, gold))
    return pool


class TagQueryStream:
    """Endless seeded stream of tag searches with periodic reindexes."""

    def __init__(self, seed: int):
        self._rng = _rng(seed, "tags")
        dimensions = [d.name for d in _dimensions()]
        unindexed = unindexed_tags()
        gold_of = {name: name for name in dimensions}
        gold_of.update(unindexed)
        self._gold_of = gold_of
        #: (tags, gold) queries over indexed tags only; also the warm-up set.
        self.indexed_pool = _query_pool(self._rng, dimensions, gold_of, dimensions)
        self._unindexed = _query_pool(
            self._rng, dimensions + sorted(unindexed), gold_of, sorted(unindexed)
        )
        ranks = np.arange(1, POOL_QUERIES + 1, dtype=np.float64)
        weights = ranks**-ZIPF_S
        self._weights = weights / weights.sum()
        self._novel = iter(novel_tags(seed))
        self._dimensions = dimensions
        self._searches = 0
        self._reindex_due = False

    def __iter__(self) -> Iterator[TagQuery]:
        return self

    def __next__(self) -> TagQuery:
        if self._reindex_due:
            self._reindex_due = False
            return TagQuery((), (), "reindex")
        pool = POOL_CYCLE[self._searches % len(POOL_CYCLE)]
        self._searches += 1
        if self._searches % REINDEX_EVERY == 0:
            self._reindex_due = True
        if pool == "novel":
            tags: Tuple[str, ...] = (next(self._novel),)
            if self._rng.random() < 0.5:
                tags += (str(self._rng.choice(self._dimensions)),)
            gold = tuple(t for t in tags if t in self._gold_of)
            return TagQuery(tags, gold, pool)
        queries = self.indexed_pool if pool == "indexed" else self._unindexed
        tags, gold = queries[int(self._rng.choice(POOL_QUERIES, p=self._weights))]
        return TagQuery(tags, gold, pool)
