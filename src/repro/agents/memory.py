"""Per-agent persistent-memory accounting.

Memory complexity in the paper is "the number of bits stored at any agent over
one CCM cycle to the next"; temporary memory used during the Compute phase is
free.  To make memory complexity a *measured* quantity rather than a claim, every
algorithm in this reproduction stores its persistent per-agent state through an
:class:`AgentMemory`, which

* maps each named field to a :class:`FieldKind` describing how many bits it
  costs under the paper's accounting convention (an agent ID costs
  ``ceil(log2 k_max)`` bits, a port-valued field ``ceil(log2 (Δ+1))`` bits, a
  counter bounded by ``k`` costs ``ceil(log2 (k+1))`` bits, a flag 1 bit, ...),
* tracks the *peak* total bits ever held simultaneously, which is what the
  ``O(log(k + Δ))`` claims of Theorems 6.1/7.1/8.1/8.2 bound.

The accounting is deliberately conservative: a field is charged from the moment
it is first written until it is explicitly cleared, and list-valued fields are
charged per element.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["FieldKind", "MemoryModel", "AgentMemory"]


class FieldKind(enum.Enum):
    """How a persistent field is charged, in bits."""

    ID = "id"            # agent identifier: ceil(log2 max_id)
    PORT = "port"        # a port number in [1, Δ] or ⊥: ceil(log2 (Δ + 2))
    COUNTER_K = "counter_k"  # a counter bounded by k: ceil(log2 (k + 1))
    COUNTER_DELTA = "counter_delta"  # a counter bounded by Δ: ceil(log2 (Δ + 1))
    DEPTH = "depth"      # a tree depth (bounded by k): ceil(log2 (k + 1))
    LABEL = "label"      # a tree label (bounded by number of roots <= k)
    FLAG = "flag"        # one bit
    SMALL = "small"      # O(1) bits; charged as 3 bits (a small constant)


@dataclass(frozen=True)
class MemoryModel:
    """The parameters that fix field costs: ``k`` agents, maximum degree ``Δ``.

    ``max_id`` defaults to ``k`` (the paper assumes IDs in ``[1, k^{O(1)}]``; with
    polynomial IDs the ID cost is still ``O(log k)``).
    """

    k: int
    max_degree: int
    max_id: Optional[int] = None

    def bits(self, kind: FieldKind) -> int:
        """Bit cost of one field of the given kind."""
        k = max(2, self.k)
        delta = max(2, self.max_degree)
        max_id = self.max_id if self.max_id is not None else k
        max_id = max(2, max_id)
        if kind is FieldKind.ID:
            return math.ceil(math.log2(max_id + 1))
        if kind is FieldKind.PORT:
            return math.ceil(math.log2(delta + 2))
        if kind is FieldKind.COUNTER_K:
            return math.ceil(math.log2(k + 1))
        if kind is FieldKind.COUNTER_DELTA:
            return math.ceil(math.log2(delta + 1))
        if kind is FieldKind.DEPTH:
            return math.ceil(math.log2(k + 1))
        if kind is FieldKind.LABEL:
            return math.ceil(math.log2(k + 1))
        if kind is FieldKind.FLAG:
            return 1
        if kind is FieldKind.SMALL:
            return 3
        raise ValueError(f"unknown field kind {kind}")

    def log_k_plus_delta_bits(self) -> float:
        """``log2(k + Δ)`` -- the unit in which Theorems 6.1–8.2 state memory."""
        return math.log2(max(2, self.k + self.max_degree))


class AgentMemory:
    """Persistent per-agent memory with bit accounting.

    Fields are accessed like a mapping but must be *declared* with a
    :class:`FieldKind` on first write so their bit cost is known.  Writing
    ``None`` to a field clears it (it stops being charged); the paper's ``⊥``
    value for port fields is represented by the integer ``0`` so that a field
    holding ``⊥`` is still charged (the agent must remember that it is ``⊥``).
    """

    __slots__ = ("_model", "_values", "_kinds", "_peak_bits", "_current_bits")

    def __init__(self, model: MemoryModel) -> None:
        self._model = model
        self._values: Dict[str, object] = {}
        self._kinds: Dict[str, FieldKind] = {}
        self._current_bits = 0
        self._peak_bits = 0

    # ------------------------------------------------------------------ core
    def declare(self, name: str, kind: FieldKind) -> None:
        """Declare a field's kind without writing a value."""
        existing = self._kinds.get(name)
        if existing is not None and existing is not kind:
            raise ValueError(f"field {name!r} re-declared with a different kind")
        self._kinds[name] = kind

    def write(self, name: str, value: object, kind: Optional[FieldKind] = None) -> None:
        """Write a persistent field (charging its bits while it is set)."""
        values = self._values
        if value is not None and name in values and (kind is None or kind is self._kinds[name]):
            # Overwriting a set field with its declared kind: its bits are
            # already charged, so neither the total nor the peak can move.
            values[name] = value
            return
        if kind is not None:
            self.declare(name, kind)
        if name not in self._kinds:
            raise KeyError(f"field {name!r} was never declared with a kind")
        was_set = name in self._values
        if value is None:
            if was_set:
                del self._values[name]
                self._current_bits -= self._model.bits(self._kinds[name])
            return
        if not was_set:
            self._current_bits += self._model.bits(self._kinds[name])
        self._values[name] = value
        self._peak_bits = max(self._peak_bits, self._current_bits)

    def read(self, name: str, default: object = None) -> object:
        """Read a field (``default`` when unset)."""
        return self._values.get(name, default)

    def clear(self, name: str) -> None:
        """Clear a field so it is no longer charged."""
        self.write(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    # ------------------------------------------------------------ accounting
    @property
    def current_bits(self) -> int:
        """Bits currently held."""
        return self._current_bits

    @property
    def peak_bits(self) -> int:
        """Maximum bits ever held simultaneously."""
        return self._peak_bits

    @property
    def model(self) -> MemoryModel:
        return self._model

    def peak_in_log_units(self) -> float:
        """Peak bits divided by ``log2(k + Δ)``.

        The Theorems claim this ratio is bounded by a constant independent of
        ``k`` and ``Δ``; benchmarks report it directly.
        """
        return self._peak_bits / self._model.log_k_plus_delta_bits()

    def snapshot(self) -> Dict[str, object]:
        """Copy of the current field values (for tests/debugging)."""
        return dict(self._values)
