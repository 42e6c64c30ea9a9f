"""Shared type aliases and small helper protocols used across the package.

The sketches in this package are deliberately agnostic about what an "item"
is: anything hashable (an ad id, a ``(user, ad)`` tuple, an IP-pair string,
an integer drawn from a synthetic distribution) can be used as a key.  These
aliases keep signatures readable without forcing a concrete key type.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

#: Any hashable key identifying the unit of analysis (user, ad, IP pair, ...).
Item = Hashable

#: A predicate over items used to express arbitrary subset-sum filters.
ItemPredicate = Callable[[Item], bool]

#: A mapping from item to its (estimated or exact) aggregate value.
CountMapping = Mapping[Item, float]

#: A single ``(item, weight)`` pair in a weighted row stream.
WeightedRow = Tuple[Item, float]

#: An iterable of raw stream rows (one row per event, disaggregated).
RowStream = Iterable[Item]

#: An iterable of weighted rows.
WeightedRowStream = Iterable[WeightedRow]

#: An ``int`` seed, a generator used as it is, or ``None`` for fresh entropy.
Seed = Optional[Union[int, np.random.Generator]]
