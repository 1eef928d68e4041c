"""Fast-path bookkeeping: fast-vote support and the unlock conditions.

This module implements Definitions 7.1–7.7 of the paper as a self-contained,
per-round data structure so that the unlock logic can be unit- and
property-tested independently of the full protocol:

* ``supp(b)`` — the set of replicas from which a fast vote for block ``b``
  was received (Definition 7.1);
* ``max(k)`` — a rank-0 block with the largest support (Definition 7.2);
* ``nonLeaderBlocks(k)`` / ``nonMaxBlocks(k)`` (Definitions 7.4, 7.5);
* the two unlock conditions of Definition 7.6;
* unlock proofs (Definition 7.7) as per-block voter sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.smr.quorum import QuorumTracker
from repro.types.blocks import BlockId
from repro.types.certificates import UnlockProof


@dataclass(frozen=True)
class UnlockDecision:
    """Outcome of evaluating Definition 7.6 for one round.

    Attributes:
        unlocked_blocks: blocks unlocked via Condition 1 (or already known).
        all_unlocked: whether Condition 2 holds, unlocking *all* current and
            future blocks of the round.
    """

    unlocked_blocks: FrozenSet[BlockId]
    all_unlocked: bool


class FastPathState:
    """Per-round fast-vote support and unlock evaluation.

    Args:
        unlock_threshold: the value ``f + p``; support strictly above it
            triggers the unlock conditions.
        fast_quorum: the value ``n - p``; support at or above it FP-finalizes
            a rank-0 block.
    """

    def __init__(self, unlock_threshold: int, fast_quorum: int) -> None:
        if unlock_threshold < 0 or fast_quorum <= 0:
            raise ValueError("thresholds must be positive")
        self.unlock_threshold = unlock_threshold
        self.fast_quorum = fast_quorum
        #: Fast-vote support per block id (votes may precede the block),
        #: tallied by the shared quorum engine: duplicates are suppressed
        #: and a signer fast-voting for two blocks is recorded as
        #: equivocation evidence.
        self._support = QuorumTracker(fast_quorum)
        #: Rank of each *received* block (only received blocks participate in
        #: the unlock conditions, since their rank must be known).
        self._block_ranks: Dict[BlockId, int] = {}
        #: Whether Condition 2 has been met (sticky for the round).
        self._all_unlocked = False
        #: Received blocks with rank != 0 (``nonLeaderBlocks(k)`` as a set).
        self._non_leader: Set[BlockId] = set()
        #: ``supp(nonLeaderBlocks(k))`` maintained incrementally as votes
        #: and blocks arrive, so :meth:`evaluate_unlocks` — called on every
        #: fast vote — does not rebuild the union each time.
        self._non_leader_support: Set[int] = set()
        #: Blocks already unlocked via Condition 1.  Support only grows, so
        #: the condition is monotone and the set is sticky — re-evaluation
        #: skips these.
        self._unlocked: Set[BlockId] = set()
        #: Whether the support or the received blocks changed since the
        #: last :meth:`evaluate_unlocks`.  The recording methods set it
        #: whenever they return ``True``; a replica re-evaluates only then,
        #: since an evaluation over unchanged inputs decides nothing new.
        self.unevaluated = False

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_block(self, block_id: BlockId, rank: int) -> bool:
        """Register a received round-``k`` block and its rank.

        Returns whether the block was new.
        """
        if block_id in self._block_ranks:
            return False
        self._block_ranks[block_id] = rank
        if rank != 0:
            self._non_leader.add(block_id)
            # Votes may precede the block: fold its existing support in.
            self._non_leader_support |= self._support.voters(block_id)
        self.unevaluated = True
        return True

    def record_fast_vote(self, block_id: BlockId, voter: int) -> bool:
        """Register a fast vote from ``voter`` for ``block_id``.

        Returns whether the vote was new (a duplicate changes nothing).
        """
        if not self._support.add_vote(block_id, voter):
            return False
        if block_id in self._non_leader:
            self._non_leader_support.add(voter)
        self.unevaluated = True
        return True

    def merge_fast_votes(self, block_id: BlockId, voters: Iterable[int]) -> bool:
        """Register a certificate's fast votes for ``block_id`` in bulk.

        Returns whether any vote was new.
        """
        if not self._support.add_voters(block_id, voters):
            return False
        if block_id in self._non_leader:
            self._non_leader_support |= self._support.voters(block_id)
        self.unevaluated = True
        return True

    def merge_unlock_proof(self, proof: UnlockProof) -> bool:
        """Merge the voter sets carried by an unlock proof (Addition 1/2).

        Returns whether any vote was new.
        """
        changed = False
        for block_id, voters in proof.votes_by_block:
            if self.merge_fast_votes(block_id, voters):
                changed = True
        return changed

    # ------------------------------------------------------------------ #
    # Queries (Definitions 7.1 – 7.5)
    # ------------------------------------------------------------------ #

    def support(self, block_id: BlockId) -> FrozenSet[int]:
        """``supp(b)``: replicas that fast-voted for ``block_id``."""
        return self._support.voters(block_id)

    def support_of(self, block_ids: Iterable[BlockId]) -> FrozenSet[int]:
        """``supp(B)``: distinct replicas that fast-voted for any block in ``B``."""
        voters: Set[int] = set()
        for block_id in block_ids:
            voters |= self._support.voters(block_id)
        return frozenset(voters)

    def equivocators(self) -> FrozenSet[int]:
        """Signers whose fast votes supported more than one block this round.

        An honest replica fast-votes at most once per round, so any replica
        in this set has produced cryptographic evidence of misbehaviour —
        the seam adversary analyses and the Byzantine tests use.
        """
        return self._support.equivocators()

    def received_blocks(self) -> List[BlockId]:
        """Blocks of the round that have been received (rank known)."""
        return list(self._block_ranks)

    def rank_zero_blocks(self) -> List[BlockId]:
        """Received blocks of rank 0 (more than one only with a Byzantine leader)."""
        return [bid for bid, rank in self._block_ranks.items() if rank == 0]

    def non_leader_blocks(self) -> List[BlockId]:
        """``nonLeaderBlocks(k)``: received blocks with rank larger than 0."""
        return [bid for bid, rank in self._block_ranks.items() if rank != 0]

    def max_block(self) -> Optional[BlockId]:
        """``max(k)``: a rank-0 block with the largest support, if any."""
        rank_zero = self.rank_zero_blocks()
        if not rank_zero:
            return None
        return max(rank_zero, key=lambda bid: (self._support.count(bid), bid))

    def non_max_blocks(self) -> List[BlockId]:
        """``nonMaxBlocks(k)``: received blocks excluding ``max(k)``."""
        best = self.max_block()
        return [bid for bid in self._block_ranks if bid != best]

    # ------------------------------------------------------------------ #
    # Decisions (Definitions 6.2 and 7.6)
    # ------------------------------------------------------------------ #

    def evaluate_unlocks(self) -> UnlockDecision:
        """Evaluate Definition 7.6 over the received blocks.

        Condition 2 is sticky: once met, all current *and future* blocks of
        the round are unlocked, so later calls keep returning
        ``all_unlocked=True``.

        The replica calls this whenever a fast vote, an unlock proof or a
        received block changed the round's state (see
        :attr:`unevaluated`, which this clears), so both conditions are
        evaluated incrementally: Condition 1 is monotone (support only
        grows) and skips already-unlocked blocks, and
        ``supp(nonLeaderBlocks)`` is the maintained running union rather
        than rebuilt per call.  In an uncontested round (one rank-0 block,
        no non-leader blocks) a call is O(1) per pending block instead of
        O(n) set unions.
        """
        self.unevaluated = False
        non_leader_support = self._non_leader_support
        nls_size = len(non_leader_support)
        threshold = self.unlock_threshold
        unlocked = self._unlocked
        for block_id in self._block_ranks:
            if block_id in unlocked:
                continue
            if nls_size == 0:
                combined = self._support.count(block_id)
            else:
                # |supp(b) ∪ NLS| without materialising the union.
                combined = nls_size + self._support.count_outside(
                    block_id, non_leader_support
                )
            if combined > threshold:
                unlocked.add(block_id)
        if not self._all_unlocked and (
            len(self._block_ranks) > 1 or self._non_leader
        ):
            # Otherwise nonMaxBlocks(k) is empty (at most one received
            # block, of rank 0) and Condition 2 cannot hold — the
            # uncontested-round fast exit.
            non_max = self.non_max_blocks()
            if non_max and len(self.support_of(non_max)) > threshold:
                self._all_unlocked = True
        if self._all_unlocked:
            return UnlockDecision(
                unlocked_blocks=frozenset(self._block_ranks),
                all_unlocked=True,
            )
        return UnlockDecision(unlocked_blocks=frozenset(unlocked), all_unlocked=False)

    def fast_finalizable_blocks(self) -> List[BlockId]:
        """Rank-0 blocks whose support reaches the fast quorum ``n - p``."""
        if not self._support.fired_count():
            # No block has reached the fast quorum yet — skip the scan
            # (this runs on every new fast vote of the round).
            return []
        return [
            block_id
            for block_id in self.rank_zero_blocks()
            if self._support.reached(block_id)
        ]

    # ------------------------------------------------------------------ #
    # Unlock proofs (Definition 7.7)
    # ------------------------------------------------------------------ #

    def build_unlock_proof(self, round: int, block_id: BlockId) -> UnlockProof:
        """Build an unlock proof from every fast vote seen this round."""
        ordered: Tuple[Tuple[BlockId, FrozenSet[int]], ...] = tuple(
            sorted((bid, self._support.voters(bid)) for bid in self._support.blocks()
                   if self._support.count(bid))
        )
        return UnlockProof(round=round, block_id=block_id, votes_by_block=ordered)
