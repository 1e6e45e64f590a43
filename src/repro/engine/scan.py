"""Segmented prefix scans over finite-state automata.

The vectorized engine reduces saturating-counter evolution to this
problem: given a sequence of input symbols partitioned into independent
segments (one segment per pattern-history-table entry), compute the
automaton state *before* each step, where every segment starts from the
same initial state and each input applies a fixed state-transition
function.

Because function composition is associative, the prefix compositions
can be computed with a Hillis–Steele doubling scan: O(n log n) work,
~log2(n) vectorized passes, no Python-level per-step loop.  For the
4-state 2-bit counters of the paper this is ~100× faster than stepping
in Python.

Both scans accept the initial state either as a scalar (every segment
starts there — the cold-start case) or as a per-element array whose
value is constant within each segment (each segment resumes from its
own carried state) — the hook the streaming engines
(:mod:`repro.engine.streaming`) use to continue counter evolution
across chunk boundaries bit-exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "counter_step_table",
    "segmented_automaton_scan",
    "segmented_saturating_scan",
    "stable_key_order",
]


def stable_key_order(keys: np.ndarray, key_bits: int) -> np.ndarray:
    """Stable argsort of non-negative integer keys below ``2**key_bits``.

    numpy's stable argsort only uses a radix sort for dtypes of at most
    16 bits; wider integer keys fall back to an O(n log n) mergesort.
    Grouping keys (PHT indices, BHT slots, stacked sweep keys) are
    small bounded integers, so sorting them as one or two explicit
    16-bit radix passes is several times faster — and exactly
    equivalent, since LSD radix passes compose stably.
    """
    if key_bits <= 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if key_bits <= 32:
        order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
        high = (keys >> 16).astype(np.uint16)
        return order[np.argsort(high[order], kind="stable")]
    return np.argsort(keys, kind="stable")


def counter_step_table(bits: int) -> np.ndarray:
    """Transition table of an n-bit saturating counter.

    Returns an array of shape ``(2, 2**bits)``: row 0 is the
    "not-taken" (decrement) mapping, row 1 the "taken" (increment)
    mapping, each mapping old state to new state with saturation.
    """
    if not 1 <= bits <= 6:
        raise ConfigurationError(f"counter bits must be in [1, 6], got {bits}")
    states = np.arange(1 << bits, dtype=np.uint8)
    dec = np.maximum(states.astype(np.int64) - 1, 0).astype(np.uint8)
    inc = np.minimum(states.astype(np.int64) + 1, (1 << bits) - 1).astype(np.uint8)
    return np.stack([dec, inc])


def segmented_automaton_scan(
    step_table: np.ndarray,
    inputs: np.ndarray,
    segment_starts: np.ndarray,
    initial_state: int,
) -> np.ndarray:
    """State of the automaton *before* each step, per segment.

    Parameters
    ----------
    step_table:
        ``(num_symbols, num_states)`` array; ``step_table[sym, s]`` is
        the state after consuming ``sym`` in state ``s``.
    inputs:
        ``(n,)`` integer array of input symbols, already grouped so that
        each segment is a contiguous run (e.g. sorted by PHT index with
        a stable sort preserving time order within the segment).
    segment_starts:
        ``(n,)`` boolean array, True where a new segment begins.
        Position 0 must be a segment start for nonempty input.
    initial_state:
        State every segment starts in; or a ``(n,)`` array of initial
        states, constant within each segment (each segment starts from
        its own value).

    Returns
    -------
    ``(n,)`` uint8 array: the automaton state immediately before each
    step was applied.
    """
    step_table = np.asarray(step_table, dtype=np.uint8)
    if step_table.ndim != 2:
        raise ConfigurationError("step_table must be 2-D (symbols x states)")
    num_states = step_table.shape[1]
    initial_state = _check_initial(initial_state, num_states - 1, len(inputs))

    n = len(inputs)
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    segment_starts = np.asarray(segment_starts, dtype=bool)
    if len(segment_starts) != n:
        raise ConfigurationError("segment_starts must align with inputs")
    if not segment_starts[0]:
        raise ConfigurationError("position 0 must start a segment")

    # compositions[i] maps "state at segment start" -> "state after step i",
    # initially covering the single step i and doubled outward each pass.
    compositions = step_table[np.asarray(inputs, dtype=np.int64)]

    # done[i] = True once compositions[i] can never change again: it
    # reaches back to its segment start, or it collapsed into a
    # *constant* mapping — constants absorb nothing further left, and a
    # window that absorbs a constant becomes constant itself, so the
    # stored mapping already equals that of every longer window.
    done = segment_starts | np.all(compositions == compositions[:, :1], axis=1)
    active = np.flatnonzero(~done)

    offset = 1
    while offset < n and active.size:
        # Windows at positions < offset have no predecessor window to
        # absorb; drop them from the working set for good.
        idx = active[active >= offset]
        if idx.size == 0:
            break
        prev = idx - offset

        # Snapshot the earlier windows before writing (Hillis–Steele
        # reads must all see the previous pass's values), then compose:
        # first apply the earlier window, then the current one.
        prev_comp = compositions[prev]
        prev_done = done[prev]
        new_comp = np.take_along_axis(compositions[idx], prev_comp, axis=1)
        compositions[idx] = new_comp
        done[idx] = prev_done | np.all(new_comp == new_comp[:, :1], axis=1)
        offset <<= 1
        active = idx[~done[idx]]

    # State after step i = compositions[i][initial]; state before step i is
    # the state after step i-1, or the initial state at a segment start.
    if isinstance(initial_state, np.ndarray):
        state_after = np.take_along_axis(
            compositions, initial_state[:, None].astype(np.int64), axis=1
        )[:, 0]
    else:
        state_after = compositions[:, initial_state]
    return _states_before(state_after, segment_starts, initial_state)


def segmented_saturating_scan(
    taken: np.ndarray,
    segment_starts: np.ndarray,
    initial_state: int,
    max_state: int,
) -> np.ndarray:
    """Specialized scan for saturating up/down counters.

    Semantically identical to :func:`segmented_automaton_scan` with
    ``counter_step_table`` inputs, but several times faster: a
    saturating-counter step is the clamp function
    ``x -> min(max(x + a, b), c)``, and clamp functions are closed under
    composition with a three-scalar closed form, so each doubling pass
    is a handful of elementwise int32 operations instead of per-state
    gathers.

    Parameters
    ----------
    taken:
        ``(n,)`` 0/1 array (1 increments the counter, 0 decrements),
        grouped so each segment is contiguous and in time order.
    segment_starts:
        ``(n,)`` boolean array, True where a new counter begins.
    initial_state, max_state:
        Counter start value and saturation ceiling (floor is 0).  The
        start value may also be a ``(n,)`` array, constant within each
        segment (each counter resumes from its own value).

    Returns
    -------
    ``(n,)`` uint8 array of counter values immediately before each step.
    """
    n = len(taken)
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    initial_state = _check_initial(initial_state, max_state, n)
    segment_starts = np.asarray(segment_starts, dtype=bool)
    if len(segment_starts) != n:
        raise ConfigurationError("segment_starts must align with inputs")
    if not segment_starts[0]:
        raise ConfigurationError("position 0 must start a segment")

    if max_state <= _MAX_TABLED_STATE:
        # Narrow counters (every predictor in the paper): compose clamp
        # functions as interned ids through a precomputed table — one
        # gather per element per pass instead of the arithmetic below.
        return _saturating_scan_tabled(taken, segment_starts, initial_state, max_state)

    # Window at position i is the clamp x -> min(max(x + add, lo), hi)
    # composed from the steps the window covers; initially just step i.
    add = np.where(np.asarray(taken, dtype=bool), 1, -1).astype(np.int32)
    lo = np.zeros(n, dtype=np.int32)
    hi = np.full(n, max_state, dtype=np.int32)

    # done[i] = True once window i can never change again: it reached its
    # segment start, or it saturated into a *constant* function
    # (lo >= hi).  Constants absorb nothing further left, and any later
    # window that absorbs a constant becomes constant itself, so the
    # stored function already equals the function of every longer
    # window — marking it done early is exact.  For b-bit counters this
    # caps the effective pass count near log2(2**b) regardless of
    # segment length.
    done = segment_starts.copy()
    active = np.flatnonzero(~done)

    offset = 1
    while offset < n and active.size:
        # Windows at positions < offset can never have a predecessor
        # window to absorb; drop them from the working set for good.
        idx = active[active >= offset]
        if idx.size == 0:
            break
        prev = idx - offset

        # Snapshot both operands before writing (Hillis–Steele reads
        # must all see the previous pass's values).
        prev_add, prev_lo, prev_hi = add[prev], lo[prev], hi[prev]
        prev_done = done[prev]
        cur_add, cur_lo, cur_hi = add[idx], lo[idx], hi[idx]

        # Compose: apply the earlier window first, then the current one.
        new_lo = np.maximum(prev_lo + cur_add, cur_lo)
        new_hi = np.minimum(np.maximum(prev_hi + cur_add, cur_lo), cur_hi)
        add[idx] = prev_add + cur_add
        lo[idx] = new_lo
        hi[idx] = new_hi
        done[idx] = prev_done | (new_lo >= new_hi)
        offset <<= 1
        active = idx[~done[idx]]

    init = (
        initial_state.astype(np.int32)
        if isinstance(initial_state, np.ndarray)
        else initial_state
    )
    state_after = np.minimum(np.maximum(init + add, lo), hi).astype(np.uint8)
    return _states_before(state_after, segment_starts, initial_state)


# The clamp functions reachable by composing saturating steps form a
# small monoid for narrow counters (2 functions for 1-bit, 17 for
# 2-bit, 147 for 3-bit — it grows ~cubically after that, so wider
# counters use the arithmetic path above).
_MAX_TABLED_STATE = 7


class ClampMonoid(NamedTuple):
    """Interned clamp-function monoid of a bounded saturating counter.

    * ``step_ids[sym]`` — function id of the decrement (0) / increment
      (1) step,
    * ``compose[cur, prev]`` — id of "apply ``prev`` first, then
      ``cur``",
    * ``values[id, state]`` — the function's value table,
    * ``constant[id]`` — True when the function is constant (its window
      can never change by extending further left).
    """

    step_ids: np.ndarray
    compose: np.ndarray
    values: np.ndarray
    constant: np.ndarray


@lru_cache(maxsize=None)
def _clamp_monoid(max_state: int) -> ClampMonoid:
    states = range(max_state + 1)
    dec = tuple(max(x - 1, 0) for x in states)
    inc = tuple(min(x + 1, max_state) for x in states)

    # BFS closure under left-composition with the generators; every
    # inc/dec word is reachable this way, and the word set is closed
    # under arbitrary composition.
    ids: dict[tuple[int, ...], int] = {dec: 0, inc: 1}
    frontier = [dec, inc]
    while frontier:
        fresh = []
        for func in frontier:
            for gen in (dec, inc):
                composed = tuple(gen[x] for x in func)
                if composed not in ids:
                    ids[composed] = len(ids)
                    fresh.append(composed)
        frontier = fresh

    functions = sorted(ids, key=ids.get)
    size = len(functions)
    compose = np.empty((size, size), dtype=np.uint8)
    for prev_tuple, prev_id in ids.items():
        for cur_tuple, cur_id in ids.items():
            compose[cur_id, prev_id] = ids[tuple(cur_tuple[x] for x in prev_tuple)]
    values = np.array(functions, dtype=np.uint8)
    constant = (values == values[:, :1]).all(axis=1)
    step_ids = np.array([ids[dec], ids[inc]], dtype=np.uint8)
    return ClampMonoid(step_ids, compose, values, constant)


def _monoid_after_ids(
    taken: np.ndarray, segment_starts: np.ndarray, max_state: int
) -> np.ndarray:
    """Doubling scan over interned clamp-function ids: ``result[i]`` is
    the id of the composition of its segment's steps up to and
    *including* step ``i``."""
    n = len(taken)
    monoid = _clamp_monoid(max_state)
    step_ids, compose, constant = monoid.step_ids, monoid.compose, monoid.constant

    ids = step_ids[np.asarray(taken, dtype=np.uint8)]
    if constant[step_ids].any():  # 1-bit counters: single steps saturate
        done = segment_starts | constant[ids]
    else:
        done = segment_starts.copy()

    # First doubling pass, specialized: nearly every element is active,
    # so shifted whole-array operations beat gathering through an index
    # vector.  Operand snapshots keep the overlapping views read-safe.
    if n > 1:
        composed = compose[ids[1:], ids[:-1]]
        prev_done = done[:-1].copy()
        extend = ~done[1:]
        ids[1:] = np.where(extend, composed, ids[1:])
        done[1:] |= extend & (prev_done | constant[composed])
    active = np.flatnonzero(~done)

    offset = 2
    while offset < n and active.size:
        idx = active[active >= offset]
        if idx.size == 0:
            break
        prev = idx - offset
        prev_done = done[prev]
        new_ids = compose[ids[idx], ids[prev]]
        ids[idx] = new_ids
        finished = prev_done | constant[new_ids]
        done[idx] = finished
        offset <<= 1
        active = idx[~finished]
    return ids


def _saturating_scan_tabled(
    taken: np.ndarray,
    segment_starts: np.ndarray,
    initial_state: int,
    max_state: int,
) -> np.ndarray:
    """Doubling scan over interned clamp-function ids (narrow counters)."""
    ids = _monoid_after_ids(taken, segment_starts, max_state)
    values = _clamp_monoid(max_state).values
    if isinstance(initial_state, np.ndarray):
        state_after = values[ids, initial_state.astype(np.int64)]
    else:
        state_after = values[:, initial_state][ids]
    return _states_before(state_after, segment_starts, initial_state)


def _check_initial(initial_state, max_state: int, n: int):
    """Validate a scalar or per-element-array initial state."""
    if isinstance(initial_state, np.ndarray):
        if initial_state.shape != (n,):
            raise ConfigurationError(
                f"initial-state array must have shape ({n},), got {initial_state.shape}"
            )
        if len(initial_state) and not (
            0 <= int(initial_state.min()) and int(initial_state.max()) <= max_state
        ):
            raise ConfigurationError("initial-state array value out of range")
        return initial_state
    if not 0 <= initial_state <= max_state:
        raise ConfigurationError(f"initial_state {initial_state} out of range")
    return initial_state


def _states_before(
    state_after: np.ndarray, segment_starts: np.ndarray, initial_state
) -> np.ndarray:
    """Shift after-states to before-states, reinitializing at segment starts."""
    n = len(state_after)
    state_before = np.empty(n, dtype=np.uint8)
    state_before[1:] = state_after[:-1]
    if isinstance(initial_state, np.ndarray):
        state_before[0] = initial_state[0]
        state_before[segment_starts] = initial_state[segment_starts]
    else:
        state_before[0] = initial_state
        state_before[segment_starts] = initial_state
    return state_before
