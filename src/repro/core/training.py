"""Tagger training, including FGSM adversarial training (Section 4.3).

The adversarial objective (Eq. 6) mixes the clean loss with the loss on a
worst-case perturbation of the input embeddings:

    min_θ [ α·l(h_θ(x), y) + (1-α)·max_{‖δ‖∞<ε} l(h_θ(x+δ), y) ]

The inner maximisation is approximated with the Fast Gradient Sign Method
(Eq. 9): δ* = ε·sign(∇_x l).  Implementation detail: the clean backward pass
is scaled by α so the parameter gradients of both loss terms accumulate with
the correct mixture weights in a single optimisation step, while the input
gradient's *sign* (all FGSM needs) is unaffected by the positive scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.evaluation import SpanF1, span_f1
from repro.core.tagger import SequenceTagger
from repro.data.schema import LabeledSentence
from repro.nn import Adam, clip_grad_norm
from repro.nn.tensor import Tensor

__all__ = ["AdversarialConfig", "TaggerTrainingConfig", "TaggerTrainer", "evaluate_tagger"]


@dataclass(frozen=True)
class AdversarialConfig:
    """FGSM parameters (Eqs. 6–9)."""

    enabled: bool = False
    epsilon: float = 0.2
    alpha: float = 0.5  # weight of the clean loss

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")


@dataclass
class TaggerTrainingConfig:
    """Optimisation parameters (paper: 15 epochs, α=0.5)."""

    epochs: int = 15
    batch_size: int = 16
    learning_rate: float = 1.5e-3
    max_grad_norm: float = 5.0
    adversarial: AdversarialConfig = field(default_factory=AdversarialConfig)
    seed: int = 0


class TaggerTrainer:
    """Mini-batch trainer for :class:`SequenceTagger`."""

    def __init__(self, tagger: SequenceTagger, config: Optional[TaggerTrainingConfig] = None):
        self.tagger = tagger
        self.config = config or TaggerTrainingConfig()
        self.optimizer = Adam(tagger.parameters(), lr=self.config.learning_rate)
        self.history: List[float] = []

    # ----------------------------------------------------------------- fitting

    def fit(self, sentences: Sequence[LabeledSentence]) -> List[float]:
        """Train for ``epochs`` epochs; returns mean loss per epoch."""
        sentences = [s for s in sentences if s.tokens]
        if not sentences:
            raise ValueError("no training sentences")
        rng = np.random.default_rng(self.config.seed)
        batches = self._length_buckets(sentences)
        self.tagger.train()
        try:
            for _ in range(self.config.epochs):
                order = rng.permutation(len(batches))
                epoch_losses = []
                for index in order:
                    epoch_losses.append(self._step(batches[index], rng))
                self.history.append(float(np.mean(epoch_losses)))
        finally:
            # An exception mid-epoch must not leave the tagger in train mode
            # (dropout would silently perturb every later predict call).
            self.tagger.eval()
        return self.history

    def _length_buckets(self, sentences: Sequence[LabeledSentence]) -> List[List[LabeledSentence]]:
        """Group length-sorted sentences to minimise padding waste."""
        ordered = sorted(sentences, key=lambda s: len(s.tokens))
        size = self.config.batch_size
        return [list(ordered[i : i + size]) for i in range(0, len(ordered), size)]

    # ------------------------------------------------------------------- steps

    def _step(self, batch: List[LabeledSentence], rng: np.random.Generator) -> float:
        tokens = [s.tokens for s in batch]
        label_ids = SequenceTagger.encode_labels([s.labels for s in batch])
        if self.config.adversarial.enabled:
            return self._adversarial_step(tokens, label_ids)
        loss = self.tagger.loss(tokens, label_ids)
        self.optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.tagger.parameters(), self.config.max_grad_norm)
        self.optimizer.step()
        return loss.item()

    def _adversarial_step(self, tokens: List[List[str]], label_ids: np.ndarray) -> float:
        adv = self.config.adversarial
        batch = self.tagger.encoder.batch(tokens)
        self.optimizer.zero_grad()

        # Clean pass on a differentiable copy of the input embeddings;
        # backward scaled by α gives α-weighted parameter grads AND ∇_x l.
        embeddings = Tensor(self.tagger.encoder.word_embeddings(batch).data.copy(), requires_grad=True)
        clean_loss = self.tagger.loss(tokens, label_ids, batch=batch, input_embeddings=embeddings)
        clean_loss.backward(np.asarray(adv.alpha))
        gradient = embeddings.grad
        if gradient is None:  # α == 0: recover the input gradient separately
            embeddings.zero_grad()
            probe_loss = self.tagger.loss(tokens, label_ids, batch=batch, input_embeddings=embeddings)
            probe_loss.backward()
            gradient = embeddings.grad
            self.optimizer.zero_grad()

        # FGSM perturbation (Eq. 9), confined to real (non-padding) words.
        delta = adv.epsilon * np.sign(gradient)
        delta *= batch.word_mask[..., None]
        perturbed = Tensor(embeddings.data + delta)
        adversarial_loss = self.tagger.loss(tokens, label_ids, batch=batch, input_embeddings=perturbed)
        adversarial_loss.backward(np.asarray(1.0 - adv.alpha))

        clip_grad_norm(self.tagger.parameters(), self.config.max_grad_norm)
        self.optimizer.step()
        return adv.alpha * clean_loss.item() + (1 - adv.alpha) * adversarial_loss.item()


def evaluate_tagger(tagger: SequenceTagger, sentences: Sequence[LabeledSentence]) -> SpanF1:
    """Exact-span micro F1 of a tagger on labelled sentences."""
    gold = [s.labels for s in sentences]
    batch_size = 64
    predicted: List[List[str]] = []
    items = [s.tokens for s in sentences]
    for start in range(0, len(items), batch_size):
        predicted.extend(tagger.predict(items[start : start + batch_size]))
    return span_f1(gold, predicted)
