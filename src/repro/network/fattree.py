"""A fat-tree routing network with concentrator up-links.

The paper's research context (the same MIT group and report) routes
messages on fat-trees built from constant-size switches; concentrators
are the natural up-link elements: at each internal node, the messages
ascending from a node's subtree contend for the node's limited up-link
*channel capacity*, and an n-to-m concentrator picks the winners.

This module implements a binary fat-tree of height h over
``2^h`` leaf processors:

* each level-d internal node (d = 1 at the leaves' parents) has an
  **up-link capacity** ``cap(d)`` given by a capacity profile;
* a message from leaf ``src`` to leaf ``dst`` ascends to the lowest
  common ancestor (concentrating at every hop) and then descends —
  descent is non-blocking in this model (the classic fat-tree
  bottleneck is the up path);
* at every ascent hop, the contending messages enter a concentrator
  switch built by a pluggable factory (perfect by default, or any of
  the paper's partial concentrators), and losers are dropped and
  counted.

The simulation routes one *round* (a batch of messages, at most one
per leaf) and reports per-level contention — enough to study how the
capacity profile and the concentrator quality shape delivery, which is
exactly the role Section 1 casts concentrators in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.messages.message import Message
from repro.switches.base import ConcentratorSwitch
from repro.switches.perfect import PerfectConcentrator


@dataclass(frozen=True)
class Routed:
    """A message with its fat-tree addressing."""

    message: Message
    src: int
    dst: int


@dataclass
class FatTreeStats:
    """Per-round accounting."""

    offered: int = 0
    delivered: int = 0
    dropped_per_level: dict[int, int] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        return sum(self.dropped_per_level.values())

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.offered if self.offered else 1.0


def lca_level(src, dst):
    """Height of the lowest common ancestor of two leaves (1 = their
    shared parent, 0 for the same leaf); elementwise on arrays.

    It is the bit length of ``src ^ dst``, read off as the binary
    exponent ``frexp`` returns (exact for fewer than 2**53 leaves).
    """
    return np.frexp(np.bitwise_xor(src, dst).astype(np.float64))[1]


class FatTree:
    """A binary fat-tree with concentrator up-links.

    Parameters
    ----------
    height:
        Tree height h; ``2^h`` leaves.
    capacity_profile:
        ``cap(d)`` = up-link channel capacity out of a level-d node
        (d = 1..h−1; the root has no up-link).  A *universal*-style
        profile grows toward the root; a thin tree keeps it constant.
    concentrator_factory:
        Builds the n-to-m concentrator used at each ascent hop.
    """

    def __init__(
        self,
        height: int,
        capacity_profile: Callable[[int], int],
        concentrator_factory: Callable[[int, int], ConcentratorSwitch] | None = None,
    ):
        if height < 1:
            raise ConfigurationError(f"height must be >= 1, got {height}")
        self.height = height
        self.leaves = 1 << height
        self.capacity = {
            d: int(capacity_profile(d)) for d in range(1, height)
        }
        for d, cap in self.capacity.items():
            if cap < 1:
                raise ConfigurationError(f"capacity at level {d} must be >= 1")
        self._factory = concentrator_factory or PerfectConcentrator
        self._switch_cache: dict[tuple[int, int], ConcentratorSwitch] = {}

    def _switch(self, n: int, m: int) -> ConcentratorSwitch:
        key = (n, m)
        if key not in self._switch_cache:
            if m >= n:
                self._switch_cache[key] = None  # no contention possible
            else:
                self._switch_cache[key] = self._factory(n, m)
        return self._switch_cache[key]

    def route_round(self, messages: list[Routed | None]) -> FatTreeStats:
        """Route one batch (``messages[i]`` leaves leaf i, or None).

        Ascent: at each level d, the messages that must rise *above*
        level d within each level-d subtree contend for that subtree's
        up-link capacity through a concentrator.  Descent: lossless.
        """
        stats, _ = self.route_round_detailed(messages)
        return stats

    def route_round_detailed(
        self, messages: list[Routed | None]
    ) -> tuple[FatTreeStats, list[Routed]]:
        """Like :meth:`route_round`, but also return the survivors —
        the messages actually delivered, in leaf order."""
        if len(messages) != self.leaves:
            raise ConfigurationError(
                f"expected {self.leaves} slots, got {len(messages)}"
            )
        live: list[Routed] = []
        for i, routed in enumerate(messages):
            if routed is None:
                continue
            if routed.src != i:
                raise ConfigurationError(f"message in slot {i} claims src {routed.src}")
            if not 0 <= routed.dst < self.leaves:
                raise ConfigurationError(f"bad destination {routed.dst}")
            live.append(routed)
        stats, alive = self.route_arrays(
            np.array([r.src for r in live], dtype=np.int64),
            np.array([r.dst for r in live], dtype=np.int64),
        )
        return stats, [r for r, ok in zip(live, alive) if ok]

    def route_arrays(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[FatTreeStats, np.ndarray]:
        """Route one round given as parallel arrays: one message per
        leaf in ``src`` (distinct leaves), bound for ``dst``.  Returns
        the stats and a per-message survival mask.

        Messages whose LCA is at level d leave the up path there.  At
        every level, each contended subtree (more rising messages than
        up-link capacity) is one row of a single ``setup_batch`` call on
        the level's concentrator; a row's input slot is the message's
        leaf offset within the subtree.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        stats = FatTreeStats(offered=len(src))
        alive = np.ones(len(src), dtype=bool)
        lca = lca_level(src, dst)
        for d in range(1, self.height):
            cap = self.capacity[d]
            width = 1 << d  # wires up from one level-d subtree's leaves
            if cap >= width:
                continue
            rising = np.flatnonzero(alive & (lca > d))
            if len(rising) <= cap:
                continue
            subtree = src[rising] >> d
            hot = np.bincount(subtree, minlength=self.leaves >> d) > cap
            contend = rising[hot[subtree]]
            if not len(contend):
                continue
            rows = (np.cumsum(hot) - 1)[src[contend] >> d]
            slots = src[contend] & (width - 1)
            valid = np.zeros((int(hot.sum()), width), dtype=bool)
            valid[rows, slots] = True
            io = self._switch(width, cap).setup_batch(valid).input_to_output
            lost = contend[io[rows, slots] < 0]
            if len(lost):
                alive[lost] = False
                stats.dropped_per_level[d] = len(lost)
        stats.delivered = int(np.count_nonzero(alive))
        return stats, alive


def universal_capacity(height: int, base: int = 2) -> Callable[[int], int]:
    """A capacity profile growing geometrically toward the root
    (area-universal-style): ``cap(d) = base^d / 2`` clamped to ≥ 1.
    Half-bisection: cheap, loses some worst-case permutations."""
    def cap(d: int) -> int:
        return max(1, (base**d) // 2)

    return cap


def full_bisection_capacity() -> Callable[[int], int]:
    """``cap(d) = 2^d``: every subtree can raise all its leaves'
    messages at once — permutation routing is lossless."""
    def cap(d: int) -> int:
        return 1 << d

    return cap


def constant_capacity(value: int) -> Callable[[int], int]:
    """A thin tree: the same up-link capacity at every level."""
    def cap(_d: int) -> int:
        return value

    return cap


def random_permutation_round(
    tree: FatTree, load: float, rng: np.random.Generator
) -> list[Routed | None]:
    """One round of permutation traffic: each leaf sends with
    probability ``load`` to a distinct random destination."""
    if not 0.0 <= load <= 1.0:
        raise ConfigurationError(f"load must be in [0, 1], got {load}")
    n = tree.leaves
    perm = rng.permutation(n)
    out: list[Routed | None] = [None] * n
    for src in range(n):
        if rng.random() < load and perm[src] != src:
            out[src] = Routed(
                message=Message.from_int(src % 256, 8), src=src, dst=int(perm[src])
            )
    return out
