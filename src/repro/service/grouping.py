"""Per-tick fleet grouping: one pure, tested implementation for every path.

Each batch tick the runner fuses the due work of compatible campaigns — RF
refits through :func:`~repro.core.surrogate.random_forest.fit_forest_fleet`,
GP refits through :class:`~repro.core.surrogate.gaussian_process.GPFleet`,
prior-refresh VAE refits through :class:`~repro.core.vae.tvae.VAEFleet`, the
asks through :func:`~repro.core.optimizer.prepare_ask_fleet` and RF
candidate-pool scoring through
:func:`~repro.core.surrogate.random_forest.predict_forest_fleet`.  All of
those share the same grouping rule:

* members are grouped by a *compatibility key* (hyperparameters + shapes);
* a group only takes the fused path when it has at least ``min_fused``
  members **and** every member brings a distinct underlying object (a
  degenerate setup sharing one surrogate instance must fall back to the
  sequential path — a fused pass would fit the same object twice);
* groups are returned in first-appearance order and members keep their
  arrival order inside each group, so the fused passes are deterministic
  for a given active set.

The rule used to live inline in four runner methods; with the elastic runner
re-forming groups from a *changing* active set every tick, it is extracted
here as :func:`plan_tick_groups` so the fixed and the elastic runner share
one implementation with its own unit tests
(``tests/service/test_grouping.py``).  A tick plans its groups over its
whole active set; with ``CampaignRunner(processes=N)`` each child process
plans over its own shard of campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, TypeVar

__all__ = ["TickGroup", "plan_tick_groups"]

T = TypeVar("T")


@dataclass
class TickGroup:
    """One compatibility group of a tick's due work items.

    Attributes
    ----------
    key:
        The compatibility key shared by every member.
    members:
        The items of the group, in arrival order.
    fused:
        Whether the group qualifies for the fused fleet pass (enough
        members, all distinct).  Unfused groups take the caller's solo path.
    """

    key: Hashable
    members: List
    fused: bool


def plan_tick_groups(
    items: Sequence[T],
    key_of: Callable[[T], Hashable],
    identity_of: Optional[Callable[[T], int]] = None,
    min_fused: int = 2,
) -> List[TickGroup]:
    """Group one tick's due items for fused fleet passes.

    Parameters
    ----------
    items:
        The tick's due work items (executions, ``(execution, X, y)`` tuples,
        prepared refreshes, ...), in the order the tick discovered them.
    key_of:
        Maps an item to its hashable compatibility key (e.g.
        :func:`~repro.core.surrogate.random_forest.fleet_compatibility_key`,
        :func:`~repro.core.surrogate.gaussian_process.gp_fleet_key`,
        :func:`~repro.core.vae.tvae.vae_fleet_key`).
    identity_of:
        Optional map from an item to the identity of its underlying mutable
        object (typically ``id(surrogate)``).  A group containing duplicate
        identities is never fused — fitting one object twice in a fleet pass
        would corrupt it.  ``None`` skips the distinctness requirement
        (read-only passes over stateless inputs).
    min_fused:
        Minimum group size for the fused path (2: a fleet of one is the solo
        fit).

    Returns
    -------
    Groups in first-appearance order of their keys; every input item appears
    in exactly one group.
    """
    by_key: Dict[Hashable, List[T]] = {}
    order: List[Hashable] = []
    for item in items:
        key = key_of(item)
        if key not in by_key:
            by_key[key] = []
            order.append(key)
        by_key[key].append(item)
    groups: List[TickGroup] = []
    for key in order:
        members = by_key[key]
        fused = len(members) >= min_fused
        if fused and identity_of is not None:
            identities = {identity_of(member) for member in members}
            fused = len(identities) == len(members)
        groups.append(TickGroup(key=key, members=members, fused=fused))
    return groups
