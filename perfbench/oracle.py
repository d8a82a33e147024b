"""The load generator's oracle: the same system, built in-process.

:class:`Oracle` builds SACCS with :func:`system.build_saccs` — the seeds the
server uses — and recomputes every served answer after the measured phase:

* utterance searches against :meth:`Saccs.answer`;
* tag searches against :meth:`Saccs.answer_tags`, in index-generation
  order, after replaying the tags each reindex reported as ``adopted``;
* session turns against a fresh :class:`ConversationSession` replay.

A served answer counts as correct only when it is *equal* to the oracle's:
same entities, same order, same float scores.  It also scores every served
ranking with NDCG@10 against the world's noise-free ``true_sat``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import system


def _ranking(results) -> List[Tuple[str, float]]:
    return [(str(entity_id), float(score)) for entity_id, score in results]


class Oracle:
    def __init__(self, workload: str):
        self.saccs, self.world, _ = system.build_saccs(system.WORKLOAD_WORLD[workload])
        self.entity_ids = [entity.entity_id for entity in self.world.entities]
        by_id = self.world.entity_index
        #: ``World.true_sat`` without its per-call rebuild of the id index.
        self.true_sat = lambda dimension, entity_id: by_id[entity_id].quality_of(dimension)
        self._initial_generation = self.saccs.index_generation

    def ndcg(self, gold: Optional[Sequence[str]], ranking: Sequence[Tuple[str, float]]):
        """NDCG@10 of a served ranking, or ``None`` when there is nothing to score."""
        from repro.ir import ndcg

        if not gold or not ranking:
            return None
        return ndcg(list(gold), [e for e, _ in ranking], self.true_sat, self.entity_ids)

    # ------------------------------------------------------------ utterances

    def check_utterances(self, records) -> None:
        """Set ``correct`` and ``ndcg`` on each utterance-search record."""
        for record in records:
            if record.body is None:
                continue
            served = _ranking(record.body["results"])
            record.correct = served == _ranking(self.saccs.answer(record.item.text))
            record.ndcg = self.ndcg(record.item.gold, served)

    # --------------------------------------------------------------- sessions

    def check_sessions(self, records) -> None:
        """Replay each transcript's sent prefix through a fresh session."""
        from repro.conversation.stage import ConversationStage
        from repro.core.session import ConversationSession

        by_session: Dict[str, list] = defaultdict(list)
        for record in records:
            by_session[record.item[0].session_id].append(record)
        lexicon = self.saccs.similarity.lexicon
        for session_records in by_session.values():
            session = ConversationSession(
                self.saccs, top_k=10, stage=ConversationStage(lexicon=lexicon)
            )
            failed = False
            for record in sorted(session_records, key=lambda r: r.item[1]):
                transcript, turn_index = record.item
                turn = session.say(transcript.turns[turn_index])
                body = record.body
                if body is None or failed:
                    failed = True  # later turns depend on the failed one's state
                    continue
                served = _ranking(body["results"])
                record.correct = (
                    served == _ranking(turn.results)
                    and body["added_tags"] == [t.text for t in turn.added_tags]
                    and body["removed_tags"] == [t.text for t in turn.removed_tags]
                    and body["route"] == turn.route
                    and body["resolved"] == turn.resolved
                    and body["slots"] == turn.slots
                )
                record.ndcg = self.ndcg(transcript.gold[turn_index], served)

    # ------------------------------------------------------------ tag queries

    def check_tags(self, records, reindexes) -> Dict[str, float]:
        """Replay reindex adoptions in generation order; check each request.

        Returns the measured unknown-tag share: query tags absent from the
        index at the generation the search was answered under.
        """
        from repro.core import SubjectiveTag

        adopted_at = {}
        for record in reindexes:
            if record.body is not None:
                adopted_at[int(record.body["generation"])] = record
        by_generation: Dict[int, list] = defaultdict(list)
        for record in records:
            if record.body is not None:
                by_generation[int(record.body["generation"])].append(record)
        queried = {text for record in records for text in record.item.tags}
        unknown = total = 0
        generation = self._initial_generation
        last = max([generation, *by_generation, *adopted_at])
        while True:
            for record in by_generation.get(generation, ()):
                tags = [SubjectiveTag.from_text(text) for text in record.item.tags]
                total += len(tags)
                unknown += sum(tag not in self.saccs.index for tag in tags)
                served = _ranking(record.body["results"])
                record.correct = served == _ranking(self.saccs.answer_tags(tags))
                record.ndcg = self.ndcg(record.item.gold, served)
            generation += 1
            if generation > last:
                break
            if generation not in adopted_at:
                # No reindex response reports this generation's adoptions,
                # so no later answer can be replayed: none counts as correct.
                break
            # A reindex may adopt only tags some search sent that the index
            # does not hold yet; the replay then adds them in the same order.
            reindex = adopted_at[generation]
            adopted = [SubjectiveTag.from_text(text) for text in reindex.body["adopted"]]
            reindex.correct = all(
                text in queried and tag not in self.saccs.index
                for text, tag in zip(reindex.body["adopted"], adopted)
            )
            for tag in adopted:
                self.saccs.index.add_tag(tag)
        return {"unknown_tag_share": unknown / total if total else 0.0}
