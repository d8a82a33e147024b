"""The subjective-tag extraction pipeline (Figure 2): tagging then pairing.

An extractor turns token sequences into :class:`SubjectiveTag` sets.  The
two stages are pluggable:

* **tagging** — a trained :class:`~repro.core.tagger.SequenceTagger`, or the
  gold labels (``OracleExtractor``) for experiments that isolate indexing
  quality from extraction quality;
* **pairing** — any pairer: a single heuristic, the union of heuristics, or
  the trained discriminative classifier.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Sequence, Set, Tuple

from repro.core.heuristics import PairingHeuristic
from repro.core.pairing import PairingClassifier, PairingInstance
from repro.core.tagger import SequenceTagger
from repro.core.tags import SubjectiveTag
from repro.data.schema import LabeledSentence, Review, Span
from repro.obs import tracing as obs
from repro.text.labels import labels_to_spans

__all__ = [
    "Pairer",
    "HeuristicPairer",
    "ClassifierPairer",
    "TagExtractor",
    "OracleExtractor",
    "review_tags",
]

Pair = Tuple[Span, Span]


class Pairer:
    """Interface: select pairs among the cross product of extracted spans."""

    def pair(
        self,
        tokens: Sequence[str],
        aspect_spans: Sequence[Span],
        opinion_spans: Sequence[Span],
    ) -> Set[Pair]:
        raise NotImplementedError


class HeuristicPairer(Pairer):
    """Union of one or more heuristics' proposals."""

    def __init__(self, heuristics: Sequence[PairingHeuristic]):
        if not heuristics:
            raise ValueError("need at least one heuristic")
        self.heuristics = list(heuristics)

    def pair(self, tokens, aspect_spans, opinion_spans):
        out: Set[Pair] = set()
        for heuristic in self.heuristics:
            out |= heuristic.pairs(tokens, aspect_spans, opinion_spans)
        return out


class ClassifierPairer(Pairer):
    """The trained discriminative classifier as a pairer.

    Classifies every candidate in the cross product; if it rejects all
    candidates for an aspect, the aspect stays unpaired (matching the
    classifier semantics of Section 5.2).
    """

    def __init__(self, classifier: PairingClassifier, threshold: float = 0.5):
        self.classifier = classifier
        self.threshold = threshold

    def pair(self, tokens, aspect_spans, opinion_spans):
        if not aspect_spans or not opinion_spans:
            return set()
        candidates = [
            PairingInstance(
                tokens=tuple(tokens),
                aspect_spans=tuple(aspect_spans),
                opinion_spans=tuple(opinion_spans),
                candidate=(a, o),
            )
            for a in aspect_spans
            for o in opinion_spans
        ]
        probs = self.classifier.predict_proba(candidates)
        return {
            candidate.candidate
            for candidate, prob in zip(candidates, probs)
            if prob >= self.threshold
        }


class TagExtractor:
    """Tagger + pairer → subjective tags."""

    def __init__(self, tagger: SequenceTagger, pairer: Pairer):
        self.tagger = tagger
        self.pairer = pairer

    # ------------------------------------------------------------- extraction

    def extract(self, tokens: Sequence[str]) -> List[SubjectiveTag]:
        """Subjective tags of one tokenised sentence/utterance."""
        return self.extract_batch([list(tokens)])[0]

    def extract_batch(self, sentences: Sequence[Sequence[str]]) -> List[List[SubjectiveTag]]:
        """Batched extraction: one tagger forward, then pairing per sentence.

        The tagger opens ``extract.encode`` / ``extract.decode`` and the
        pairing loop opens ``extract.pair`` in the active trace.
        """
        if not sentences:
            return []
        labels = self.tagger.predict([list(s) for s in sentences])
        with obs.span("extract.pair"):
            out: List[List[SubjectiveTag]] = []
            for tokens, label_seq in zip(sentences, labels):
                aspect_spans, opinion_spans = labels_to_spans(label_seq)
                out.append(
                    _pairs_to_tags(tokens, self.pairer.pair(tokens, aspect_spans, opinion_spans))
                )
            return out

    def extract_review(self, review: Review) -> List[SubjectiveTag]:
        """All tags across a review's sentences (deduplicated, order-stable).

        One tagger call per review: the reference the bucketed
        :class:`~repro.core.extraction_engine.ExtractionEngine` is tested
        against.
        """
        return review_tags(self.extract_batch([s.tokens for s in review.sentences]))


class OracleExtractor:
    """Gold-label extractor: reads the generator's own annotations.

    Used to isolate indexing/filtering quality from extraction quality (and
    as the upper bound in ablations).  Only works on
    :class:`LabeledSentence` inputs — arbitrary token lists have no gold.
    """

    def extract_sentence(self, sentence: LabeledSentence) -> List[SubjectiveTag]:
        tags = []
        for aspect_text, opinion_text in sentence.pair_phrases():
            tags.append(SubjectiveTag(aspect=aspect_text, opinion=opinion_text))
        return tags

    def extract_review(self, review: Review) -> List[SubjectiveTag]:
        return review_tags(self.extract_sentence(sentence) for sentence in review.sentences)


def review_tags(per_sentence: Iterable[Iterable[SubjectiveTag]]) -> List[SubjectiveTag]:
    """A review's tags from its per-sentence tags: sentence order, first
    occurrence kept."""
    return list(dict.fromkeys(chain.from_iterable(per_sentence)))


def _pairs_to_tags(tokens: Sequence[str], pairs: Iterable[Pair]) -> List[SubjectiveTag]:
    tags: List[SubjectiveTag] = []
    seen = set()
    for (a_start, a_end), (o_start, o_end) in sorted(pairs):
        aspect = " ".join(tokens[a_start:a_end])
        opinion = " ".join(tokens[o_start:o_end])
        if not aspect or not opinion:
            continue
        tag = SubjectiveTag(aspect=aspect, opinion=opinion)
        if tag not in seen:
            seen.add(tag)
            tags.append(tag)
    return tags
