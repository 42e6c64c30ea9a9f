"""Columnar (struct-of-arrays) counter store and its vectorized batch kernel.

:class:`ColumnarCounterStore` is the one counter store behind Unbiased and
Deterministic Space Saving.  It holds the ``(label, count)`` bins in plain
contiguous arrays rather than one Python object per bin, so the collapsed
``update_batch`` path never walks per-bin objects:

* ``_counts`` — ``float64[capacity]`` counter values (free slots hold
  ``+inf`` so they never win a minimum scan);
* ``_prio`` — ``float64[capacity]`` random *tie-break priorities*
  (see below);
* ``_labels`` / ``_index`` — a slot-indexed label list and the
  dict-to-index map ``label -> slot``;
* ``_free`` — the recycled-slot stack;
* optionally ``_errors`` — ``float64[capacity]`` per-bin acquisition
  errors, maintained for Deterministic Space Saving.

Randomized tie-breaking
-----------------------
The paper's analysis assumes ties among minimum bins are broken uniformly
at random.  Drawing a uniform pick over the tied labels at query time
(``rng.choice``) would consume a data-dependent number of random draws —
a shape that cannot be vectorized or pre-drawn.  The store uses an
equivalent *priority* discipline instead: every count change also assigns
the bin a fresh uniform priority, and the minimum bin is the
lexicographic minimum of ``(count, priority, slot)``.  Because every bin
entering a tie carries a fresh independent uniform priority, the winner
of each minimum contest is uniform over the tied bins — the same
distribution as ``rng.choice`` — while the number of draws per operation
is a constant, so a whole batch's randomness can be drawn in one bulk
``Generator.random(n)`` call (bit-identical to drawing lazily one scalar
at a time, a documented PCG64 property this package's equivalence suite
pins).

Draw accounting (the *kernel discipline*, shared by every kernel):

* increment of a present label — 1 draw (the new priority);
* insert into a free slot — 1 draw;
* min-replacement contest — 2 draws for Unbiased Space Saving (the new
  priority ``r``, then the acceptance variate ``u``: the label is
  replaced iff ``u * new_count < weight``), 1 draw (just ``r``) for
  Deterministic Space Saving, whose replacement is unconditional.

Batched application order
-------------------------
:meth:`ColumnarCounterStore.apply_batch` applies one collapsed batch in
three phases: (A) scatter-add all *present* items in first-occurrence
order, then insert absent items into free slots in first-occurrence
order, then run every remaining absent item through a min-replacement
contest, again in first-occurrence order.  Phasing reorders updates
relative to the scalar one-row-at-a-time loop, but each item's applied
weight is fixed and each contest is an exact §5.3 pairwise PPS reduction
against the then-minimum bin, so per-item unbiasedness — and therefore
subset-sum unbiasedness — is preserved (the same conditional-expectation
induction that justifies collapsing the batch in the first place).  A
batch of one item is exactly one scalar update, so the scalar ``update``
path is the ``k = 1`` special case of the kernel.

The replacement phase is computed by a *level sweep*: the current minimum
count ``L`` defines the tied slot set; because every contest targets a
minimum bin and weights are positive, all slots tied at ``L`` are
consumed (in priority order) before the minimum can move, for arbitrary
per-contest weights.  Each sweep iteration therefore retires an entire
level set with a handful of numpy operations instead of one Python loop
iteration per contest.

Kernels and the ``REPRO_KERNEL`` flag
-------------------------------------
Two interchangeable sweep kernels implement the discipline above:

* ``numpy`` (default) — the vectorized level sweep;
* ``reference`` — an intentionally naive pure-Python per-contest loop
  (linear minimum scans, one contest at a time) that serves as the
  executable specification, selected with ``REPRO_KERNEL=reference``.
  The equivalence suite drives identical seeded workloads through both
  kernels and asserts bit-identical states.

Both kernels consume the same pre-drawn randomness block, so their
outputs are bit-identical, not merely distributionally equal.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._typing import Item
from repro.core.batching import int_column
from repro.errors import EmptySketchError, InvalidParameterError, SerializationError
from repro.io.codec import decode_item, encode_item, generator_from_state

__all__ = [
    "ColumnarCounterStore",
    "available_kernels",
    "resolve_kernel_name",
]

#: Sentinel count held by unoccupied slots; never the minimum of a
#: non-empty store and never equal to a real counter.
FREE_SLOT = np.inf

#: The kernel names ``REPRO_KERNEL`` accepts.
_KERNELS = ("numpy", "reference")


def available_kernels() -> Tuple[str, ...]:
    """Kernel names accepted by ``REPRO_KERNEL`` / the ``kernel`` argument."""
    return _KERNELS


def resolve_kernel_name(requested: Optional[str] = None) -> str:
    """Resolve the active kernel name.

    Precedence: the explicit ``requested`` argument, then the
    ``REPRO_KERNEL`` environment variable, then ``"numpy"``.  Any other
    name raises :class:`~repro.errors.InvalidParameterError`.
    """
    name = requested or os.environ.get("REPRO_KERNEL", "").strip() or "numpy"
    if name not in _KERNELS:
        raise InvalidParameterError(
            f"unknown kernel {name!r}; expected one of {_KERNELS}"
        )
    return name


# ----------------------------------------------------------------------
# Sweep kernels
# ----------------------------------------------------------------------
def _sweep_numpy(counts, prio, step_weights, r_draws, u_draws, always_replace):
    """Vectorized level sweep over the min-replacement contests.

    Mutates ``counts`` / ``prio`` in place and returns per-contest
    ``(slots, accepted, levels)`` arrays, where ``levels[t]`` is the
    minimum count the contest ``t`` winner held *before* its increment
    (the acquisition error of an accepted replacement).

    Correctness of the wholesale level retirement: contests always target
    the lexicographic ``(count, priority, slot)`` minimum, weights are
    positive, and a winning slot leaves the current level upward — so
    while any slot remains at level ``L``, the minimum stays ``L`` and
    the next winner is the remaining tied slot with the smallest
    priority.  Sorting the tied set once by priority therefore yields the
    exact per-contest winner sequence of the scalar reference kernel.

    One finite-precision caveat: when a count is so large that adding the
    weight is absorbed (``level + weight == level`` in float64), the
    winner does *not* leave the level, and the reference kernel re-selects
    it on the next contest under its freshly drawn priority.  The sweep
    detects absorption and truncates the retirement at that contest, so
    the tied set — now including the absorbed slot's new priority — is
    re-derived exactly as the reference would.
    """
    kr = step_weights.shape[0]
    slots = np.empty(kr, dtype=np.int64)
    accepted = np.empty(kr, dtype=bool)
    levels = np.empty(kr, dtype=np.float64)
    done = 0
    while done < kr:
        level = counts.min()
        tied = np.nonzero(counts == level)[0]
        winners = tied[np.argsort(prio[tied], kind="stable")]
        take = winners.shape[0]
        if take > kr - done:
            take = kr - done
            winners = winners[:take]
        step = step_weights[done : done + take]
        new_counts = level + step
        absorbed = np.nonzero(new_counts <= level)[0]
        if absorbed.size:
            take = int(absorbed[0]) + 1
            winners = winners[:take]
            step = step[:take]
            new_counts = new_counts[:take]
        counts[winners] = new_counts
        prio[winners] = r_draws[done : done + take]
        slots[done : done + take] = winners
        levels[done : done + take] = level
        if always_replace:
            accepted[done : done + take] = True
        else:
            accepted[done : done + take] = u_draws[done : done + take] * new_counts < step
        done += take
    return slots, accepted, levels


def _sweep_reference(counts, prio, step_weights, r_draws, u_draws, always_replace):
    """The executable specification: one contest at a time, linear min scans.

    Deliberately naive — every contest rescans the full count array for
    the lexicographic ``(count, priority, slot)`` minimum — so that the
    equivalence suite can check the fast kernels against an
    implementation whose correctness is obvious by inspection.
    """
    kr = step_weights.shape[0]
    m = counts.shape[0]
    slots = np.empty(kr, dtype=np.int64)
    accepted = np.empty(kr, dtype=bool)
    levels = np.empty(kr, dtype=np.float64)
    for t in range(kr):
        best = 0
        best_count = counts[0]
        best_prio = prio[0]
        for s in range(1, m):
            c = counts[s]
            if c < best_count or (c == best_count and prio[s] < best_prio):
                best = s
                best_count = c
                best_prio = prio[s]
        weight = step_weights[t]
        new_count = best_count + weight
        counts[best] = new_count
        prio[best] = r_draws[t]
        slots[t] = best
        levels[t] = best_count
        if always_replace:
            accepted[t] = True
        else:
            accepted[t] = u_draws[t] * new_count < weight
    return slots, accepted, levels


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ColumnarCounterStore:
    """Struct-of-arrays bin store with a vectorized batch-apply kernel.

    Parameters
    ----------
    capacity:
        Fixed number of slots; the arrays are allocated once.
    generator:
        The ``numpy.random.Generator`` supplying every priority and
        acceptance draw.  The owning sketch passes its own generator so
        that serialization can carry the kernel RNG state.
    kernel:
        Optional explicit kernel name (``numpy`` / ``reference``);
        defaults to the ``REPRO_KERNEL`` resolution of
        :func:`resolve_kernel_name`.
    track_errors:
        When true the store maintains a per-slot acquisition-error array
        (used by Deterministic Space Saving).
    """

    def __init__(
        self,
        capacity: int,
        *,
        generator: Optional[np.random.Generator] = None,
        kernel: Optional[str] = None,
        track_errors: bool = False,
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError("capacity must be a positive integer")
        self._capacity = int(capacity)
        self._generator = generator if generator is not None else np.random.Generator(
            np.random.PCG64()
        )
        reference = resolve_kernel_name(kernel) == "reference"
        self._sweep = _sweep_reference if reference else _sweep_numpy
        self._counts = np.full(self._capacity, FREE_SLOT, dtype=np.float64)
        self._prio = np.zeros(self._capacity, dtype=np.float64)
        self._errors: Optional[np.ndarray] = (
            np.zeros(self._capacity, dtype=np.float64) if track_errors else None
        )
        self._labels: List[Optional[Item]] = [None] * self._capacity
        self._index: Dict[Item, int] = {}
        # Popping yields ascending slot numbers first, so a fresh store
        # fills slots 0, 1, 2, ... in arrival order.
        self._free: List[int] = list(range(self._capacity - 1, -1, -1))
        # True while every stored label is a Python int — the guard for
        # the sorted-searchsorted membership fast path.
        self._int_labels = True

    # -- bins ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def get(self, item: Item, default: float = 0.0) -> float:
        slot = self._index.get(item)
        if slot is None:
            return default
        return float(self._counts[slot])

    def min_count(self) -> float:
        if not self._index:
            raise EmptySketchError("bin store is empty")
        return float(self._counts.min())

    def items(self) -> Iterator[Tuple[Item, float]]:
        return iter(self.counts().items())

    def counts(self) -> Dict[Item, float]:
        """Snapshot of all bins as a plain dictionary."""
        return dict(zip(self._index, self._counts[self._slots()].tolist()))

    def load(
        self,
        labels: Sequence[Item],
        counts: Union[Sequence[float], np.ndarray],
        priorities: Optional[Union[Sequence[float], np.ndarray]] = None,
        errors: Optional[Union[Sequence[float], np.ndarray]] = None,
    ) -> None:
        """Fill an empty store with ``len(labels)`` bins in one call.

        The bulk loader behind ``from_bins`` and :meth:`load_frame`.
        Bins take slots ``0..n-1`` in the given order, so reloading a
        store's bins in ``items()`` order with their priorities (and,
        where tracked, errors) preserves relative slot order — the only
        slot property the kernel observes — and a restored seeded
        sketch continues its stream bit-identically.  When
        ``priorities`` is ``None`` fresh ones come from one
        ``generator.random(n)`` call; ``errors`` default to zero.

        Raises
        ------
        InvalidParameterError
            If the store is not empty, the columns are misaligned, there
            are more bins than slots, a label repeats, or a count is
            negative or not finite.
        """
        if self._index:
            raise InvalidParameterError("load() needs an empty store")
        labels = list(labels)
        label_types = set(map(type, labels))
        if any(issubclass(kind, np.generic) for kind in label_types):
            labels = [self._as_label(label) for label in labels]
        elif label_types - {int}:
            self._int_labels = False
        n = len(labels)
        columns = {}
        for name, column in (
            ("counts", counts), ("priorities", priorities), ("errors", errors)
        ):
            if column is None:
                continue
            column = np.asarray(column, dtype=np.float64)
            if column.shape != (n,):
                raise InvalidParameterError(
                    f"{name} has shape {column.shape}; expected ({n},) to "
                    "align with the labels"
                )
            columns[name] = column
        if n > self._capacity:
            raise InvalidParameterError(
                f"cannot place {n} bins into a capacity-{self._capacity} store"
            )
        counts = columns["counts"]
        if not (np.isfinite(counts) & (counts >= 0)).all():
            raise InvalidParameterError("bin counts must be finite and non-negative")
        index = dict(zip(labels, range(n)))
        if len(index) != n:
            raise InvalidParameterError("bin labels must be distinct")
        if "errors" in columns and self._errors is None:
            raise InvalidParameterError("this store does not track acquisition errors")
        self._counts[:n] = counts
        if "priorities" in columns:
            self._prio[:n] = columns["priorities"]
        else:
            self._prio[:n] = self._generator.random(n)
        if self._errors is not None:
            self._errors[:n] = columns.get("errors", 0.0)
        self._labels[:n] = labels
        self._index = index
        self._free = list(range(self._capacity - 1, n - 1, -1))

    def scale(self, factor: float) -> None:
        """Multiply every bin count (and tracked error) by ``factor`` >= 0.

        Labels, slots and priorities stay put, so a minimum contest picks
        the same bin before and after a common rescale.
        """
        slots = self._slots()
        self._counts[slots] *= factor
        if self._errors is not None:
            self._errors[slots] *= factor

    # -- acquisition errors (Deterministic Space Saving) ------------------
    def acquisition_error(self, item: Item) -> float:
        """The tracked acquisition error for ``item`` (0 when absent)."""
        if self._errors is None:
            return 0.0
        slot = self._index.get(item)
        if slot is None:
            return 0.0
        return float(self._errors[slot])

    # -- scalar kernel (the k = 1 case of apply_batch) --------------------
    def apply_one(self, item: Item, weight: float, *, always_replace: bool = False) -> int:
        """Apply one weighted row under the kernel discipline.

        Returns the number of label replacements performed (0 or 1).
        Draw-for-draw identical to ``apply_batch([item], [weight])``.
        """
        index = self._index
        slot = index.get(item)
        gen = self._generator
        if slot is not None:
            self._counts[slot] += weight
            self._prio[slot] = gen.random()
            return 0
        item = self._as_label(item)
        if self._free:
            slot = self._free.pop()
            self._counts[slot] = weight
            self._prio[slot] = gen.random()
            if self._errors is not None:
                self._errors[slot] = 0.0
            self._labels[slot] = item
            index[item] = slot
            return 0
        slot, level = self._min_slot()
        new_count = level + weight
        self._counts[slot] = new_count
        self._prio[slot] = gen.random()
        if always_replace or gen.random() * new_count < weight:
            old = self._labels[slot]
            del index[old]
            index[item] = slot
            self._labels[slot] = item
            if self._errors is not None:
                self._errors[slot] = level
            return 1
        return 0

    # -- the batch kernel --------------------------------------------------
    def apply_batch(
        self,
        unique: Union[Sequence[Item], np.ndarray],
        weights: Union[Sequence[float], np.ndarray],
        *,
        always_replace: bool = False,
    ) -> int:
        """Apply one collapsed batch (distinct items, positive weights).

        ``unique`` may be a Python sequence of hashable labels or a 1-d
        non-object numpy array (labels are lowered to Python scalars only
        where they enter the label map).  Returns the number of label
        replacements performed.  See the module docstring for the phased
        application order and draw accounting.
        """
        k = len(unique)
        if k == 0:
            return 0
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        counts = self._counts
        prio = self._prio
        gen = self._generator
        slots = self._member_slots(unique)
        present = slots >= 0
        n_present = int(present.sum())
        if n_present == k:
            # Steady state: a pure scatter-add plus priority refresh.
            counts[slots] += weights
            prio[slots] = gen.random(k)
            return 0
        absent_idx = np.nonzero(~present)[0]
        n_insert = min(k - n_present, len(self._free))
        insert_idx = absent_idx[:n_insert]
        contest_idx = absent_idx[n_insert:]
        kr = int(contest_idx.size)
        draws = gen.random(n_present + n_insert + (1 if always_replace else 2) * kr)
        position = 0
        if n_present:
            present_slots = slots[present]
            counts[present_slots] += weights[present]
            prio[present_slots] = draws[:n_present]
            position = n_present
        if n_insert:
            free = self._free
            labels = self._labels
            index = self._index
            errors = self._errors
            for i in insert_idx.tolist():
                item = self._as_label(unique[i])
                slot = free.pop()
                counts[slot] = weights[i]
                prio[slot] = draws[position]
                position += 1
                labels[slot] = item
                index[item] = slot
                if errors is not None:
                    errors[slot] = 0.0
        if kr == 0:
            return 0
        step_weights = np.ascontiguousarray(weights[contest_idx])
        if always_replace:
            r_draws = np.ascontiguousarray(draws[position:])
            u_draws = r_draws  # unread by the kernels when always_replace
        else:
            r_draws = np.ascontiguousarray(draws[position::2])
            u_draws = np.ascontiguousarray(draws[position + 1 :: 2])
        contest_slots, accepted, levels = self._sweep(
            counts, prio, step_weights, r_draws, u_draws, always_replace
        )
        accepted_steps = np.nonzero(accepted)[0]
        replacements = int(accepted_steps.size)
        if replacements:
            labels = self._labels
            index = self._index
            errors = self._errors
            contest_items = contest_idx[accepted_steps]
            for j, i in zip(accepted_steps.tolist(), contest_items.tolist()):
                slot = int(contest_slots[j])
                item = self._as_label(unique[i])
                old = labels[slot]
                del index[old]
                index[item] = slot
                labels[slot] = item
                if errors is not None:
                    errors[slot] = levels[j]
        return replacements

    # -- frames --------------------------------------------------------------
    def frame(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """The bins as :mod:`repro.io` frame metadata and arrays.

        Rows come in ``items()`` order with their exact counts,
        tie-break priorities and (where tracked) acquisition errors,
        plus the kernel generator state; :meth:`load_frame` rebuilds an
        identical store from them.
        """
        slots = self._slots()
        meta = {
            "labels": [encode_item(label) for label in self._index],
            "kernel_rng_state": self._generator.bit_generator.state,
        }
        arrays = {"counts": self._counts[slots], "priorities": self._prio[slots]}
        if self._errors is not None:
            arrays["acquisition_errors"] = self._errors[slots]
        return meta, arrays

    def load_frame(self, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> None:
        """Load the bins of a frame written by :meth:`frame` into this store.

        Frames of the retired scalar stores carry no ``priorities`` and
        no kernel generator state.  For those the generator comes from
        the frame's Mersenne Twister state through
        :func:`~repro.io.codec.generator_from_state` and the priorities are
        drawn fresh, so loading stays deterministic: every count, label
        and error restores exactly, and continuation is unbiased though
        not draw-identical to the writer.  Bins that :meth:`load` refuses
        raise :class:`~repro.errors.SerializationError`.
        """
        priorities = arrays.get("priorities")
        state = meta["rng_state"] if priorities is None else meta["kernel_rng_state"]
        self._generator.bit_generator.state = generator_from_state(state).bit_generator.state
        try:
            self.load(
                [decode_item(label) for label in meta["labels"]],
                arrays["counts"],
                priorities,
                arrays.get("acquisition_errors"),
            )
        except InvalidParameterError as exc:
            raise SerializationError(f"frame holds invalid bins: {exc}") from exc

    # -- internals ---------------------------------------------------------
    def _as_label(self, item: Item) -> Item:
        """Lower numpy scalars and maintain the int-only label flag."""
        if isinstance(item, np.generic):
            item = item.item()
        if type(item) is not int:
            self._int_labels = False
        return item

    def _slots(self) -> np.ndarray:
        """Slot indices in ``items()`` order."""
        return np.fromiter(self._index.values(), dtype=np.int64, count=len(self._index))

    def _min_slot(self) -> Tuple[int, float]:
        """The lexicographic ``(count, priority, slot)`` minimum."""
        counts = self._counts
        if not self._index:
            raise EmptySketchError("bin store is empty")
        level = counts.min()
        tied = np.nonzero(counts == level)[0]
        if tied.size == 1:
            return int(tied[0]), float(level)
        # np.argmin returns the first minimum, so equal priorities fall
        # back to slot order — the same rule every kernel applies.
        return int(tied[np.argmin(self._prio[tied])]), float(level)

    def _member_slots(self, unique) -> np.ndarray:
        """Slot per batch item (-1 when absent), vectorized when possible."""
        index = self._index
        if index and self._int_labels:
            if isinstance(unique, np.ndarray):
                arr = unique if unique.dtype.kind in "iu" else None
            else:
                arr = int_column(unique)
            if arr is not None:
                slots = self._member_slots_sorted(arr)
                if slots is not None:
                    return slots
        get = index.get
        return np.fromiter(
            (get(item, -1) for item in unique), dtype=np.int64, count=len(unique)
        )

    def _member_slots_sorted(self, unique: np.ndarray) -> Optional[np.ndarray]:
        """Sorted-searchsorted membership for integer-labeled stores."""
        try:
            labels = np.fromiter(
                self._index.keys(), dtype=np.int64, count=len(self._index)
            )
        except (TypeError, ValueError, OverflowError):
            return None
        slots = np.fromiter(
            self._index.values(), dtype=np.int64, count=len(self._index)
        )
        order = np.argsort(labels, kind="stable")
        labels = labels[order]
        slots = slots[order]
        positions = np.searchsorted(labels, unique)
        clipped = np.minimum(positions, labels.size - 1)
        hits = labels[clipped] == unique
        return np.where(hits, slots[clipped], np.int64(-1))
