"""Common-substring machinery built on a suffix automaton.

Signature generation needs, repeatedly: "which (maximal) substrings of
string A also occur in string B?"  A suffix automaton of B answers the
longest-match-ending-at-each-position query for the whole of A in a single
linear walk, which keeps token extraction fast even for kilobyte POST
bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(slots=True)
class _State:
    length: int
    link: int
    transitions: dict[str, int] = field(default_factory=dict)


class SuffixAutomaton:
    """Suffix automaton over one string (online construction, O(n) states).

    :param text: the string whose substring set the automaton recognizes.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self._states: list[_State] = [_State(length=0, link=-1)]
        self._last = 0
        for ch in text:
            self._extend(ch)

    def _extend(self, ch: str) -> None:
        states = self._states
        current = len(states)
        states.append(_State(length=states[self._last].length + 1, link=-1))
        p = self._last
        while p != -1 and ch not in states[p].transitions:
            states[p].transitions[ch] = current
            p = states[p].link
        if p == -1:
            states[current].link = 0
        else:
            q = states[p].transitions[ch]
            if states[p].length + 1 == states[q].length:
                states[current].link = q
            else:
                clone = len(states)
                states.append(
                    _State(
                        length=states[p].length + 1,
                        link=states[q].link,
                        transitions=dict(states[q].transitions),
                    )
                )
                while p != -1 and states[p].transitions.get(ch) == q:
                    states[p].transitions[ch] = clone
                    p = states[p].link
                states[q].link = clone
                states[current].link = clone
        self._last = current

    def contains(self, needle: str) -> bool:
        """Whether ``needle`` is a substring of the indexed text."""
        state = 0
        for ch in needle:
            next_state = self._states[state].transitions.get(ch)
            if next_state is None:
                return False
            state = next_state
        return True

    def match_lengths(self, query: str) -> list[int]:
        """For each position ``i`` of ``query``, the length of the longest
        substring of the indexed text ending at ``query[i]``.

        The classic matching walk: follow transitions when possible,
        otherwise chase suffix links shortening the current match.
        """
        lengths = [0] * len(query)
        state = 0
        length = 0
        states = self._states
        for i, ch in enumerate(query):
            while state != 0 and ch not in states[state].transitions:
                state = states[state].link
                length = states[state].length
            if ch in states[state].transitions:
                state = states[state].transitions[ch]
                length += 1
            else:
                state = 0
                length = 0
            lengths[i] = length
        return lengths


def longest_common_substring(a: str, b: str) -> str:
    """The longest common substring of two strings (leftmost in ``a`` on ties).

    >>> longest_common_substring("udid=abc123&x=1", "y=9&udid=abc123")
    'udid=abc123'
    """
    if not a or not b:
        return ""
    automaton = SuffixAutomaton(b)
    lengths = automaton.match_lengths(a)
    best_len = 0
    best_end = 0
    for i, length in enumerate(lengths):
        if length > best_len:
            best_len = length
            best_end = i
    return a[best_end - best_len + 1 : best_end + 1] if best_len else ""


@dataclass(frozen=True, slots=True)
class Span:
    """A half-open span ``[start, end)`` inside a reference string."""

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


def maximal_common_spans(reference: str, other: str, min_length: int = 1) -> list[Span]:
    """Maximal spans of ``reference`` whose text occurs in ``other``.

    "Maximal" means not contained in a longer qualifying span.  The result
    is sorted by start offset; spans shorter than ``min_length`` are
    dropped.  This is the workhorse of invariant-token refinement: each
    candidate token is intersected against the next cluster member by
    taking its maximal common spans.
    """
    if not reference or not other or min_length < 1:
        return []
    lengths = SuffixAutomaton(other).match_lengths(reference)
    return [Span(start, end) for start, end in maximal_spans(matched_spans(lengths, min_length))]


def matched_spans(lengths: list[int], min_length: int, offset: int = 0) -> list[tuple[int, int]]:
    """The span ending at each position whose match length is at least
    ``min_length``, shifted by ``offset`` (``lengths`` as produced by
    :meth:`SuffixAutomaton.match_lengths`)."""
    return [
        (offset + i - length + 1, offset + i + 1)
        for i, length in enumerate(lengths)
        if length >= min_length
    ]


def maximal_spans(spans: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Half-open spans not contained in another one, deduplicated and
    sorted by start offset.

    Generic containment filter, O(k log k): ordered by start and then by
    decreasing end, a span is covered exactly when an earlier one reaches
    at least as far.
    """
    kept: list[tuple[int, int]] = []
    best_end = -1
    for start, end in sorted(set(spans), key=lambda span: (span[0], -span[1])):
        if end > best_end:
            kept.append((start, end))
            best_end = end
    return kept
