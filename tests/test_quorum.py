"""Property-style tests for the shared quorum/certificate engine.

The engine (:mod:`repro.smr.quorum`) is the one place vote tallies,
duplicate suppression, equivocation evidence, and threshold firing live;
these tests pin its contract independently of any protocol: the threshold
callback fires exactly once per block, duplicates never count, an
equivocating signer counts at most once per block (while being recorded as
evidence), and the behaviour holds at every quorum the protocols use —
``n - f``, ``⌈(n+f+1)/2⌉``, and ``n - p``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.protocols.base import ProtocolParams
from repro.smr.quorum import CertificateCollector, QuorumTracker
from repro.types.votes import VoteKind


class TestQuorumTracker:
    def test_threshold_fires_exactly_once(self):
        fired = []
        tracker = QuorumTracker(3, on_threshold=fired.append)
        for voter in range(3):
            tracker.add_vote("b1", voter)
        assert fired == ["b1"]
        # Votes beyond the threshold never re-fire.
        tracker.add_vote("b1", 3)
        tracker.add_vote("b1", 4)
        assert fired == ["b1"]
        assert tracker.reached("b1")

    def test_fires_once_per_block_independently(self):
        fired = []
        tracker = QuorumTracker(2, on_threshold=fired.append)
        tracker.add_vote("a", 0)
        tracker.add_vote("b", 0)
        tracker.add_vote("b", 1)
        tracker.add_vote("a", 1)
        assert fired == ["b", "a"]

    def test_merged_voter_sets_fire_once(self):
        fired = []
        tracker = QuorumTracker(3, on_threshold=fired.append)
        tracker.add_voters("b", {0, 1, 2, 3})
        tracker.add_voters("b", {2, 3, 4})
        assert fired == ["b"]
        assert tracker.voters("b") == frozenset({0, 1, 2, 3, 4})

    def test_duplicate_votes_ignored(self):
        tracker = QuorumTracker(3)
        assert tracker.add_vote("b", 7) is True
        for _ in range(10):
            assert tracker.add_vote("b", 7) is False
        assert tracker.count("b") == 1
        assert not tracker.reached("b")

    def test_equivocating_signer_counted_at_most_once_per_block(self):
        tracker = QuorumTracker(2)
        tracker.add_vote("a", 0)
        tracker.add_vote("b", 0)  # same signer, different block
        tracker.add_vote("a", 0)  # duplicate on the first block
        assert tracker.count("a") == 1
        assert tracker.count("b") == 1
        assert tracker.equivocators() == frozenset({0})
        assert tracker.evidence(0) == ("a", "b")

    def test_honest_voters_produce_no_evidence(self):
        tracker = QuorumTracker(2)
        for voter in range(5):
            tracker.add_vote("b", voter)
        assert tracker.equivocators() == frozenset()
        assert tracker.evidence(0) == ("b",)

    def test_insertion_order_preserved(self):
        # Protocols iterate tallies deterministically; the engine pins
        # first-vote insertion order (what the hand-rolled dicts had).
        tracker = QuorumTracker(1)
        for block in ("c", "a", "b"):
            tracker.add_vote(block, 0)
        assert tracker.blocks() == ["c", "a", "b"]
        assert tracker.reached_blocks() == ["c", "a", "b"]

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            QuorumTracker(0)

    @pytest.mark.parametrize("n,f,p", [(4, 1, 1), (7, 2, 1), (19, 6, 1), (19, 4, 4)])
    def test_fires_at_every_protocol_quorum(self, n, f, p):
        """The engine is quorum-agnostic: n-f, ⌈(n+f+1)/2⌉, and n-p all work."""
        params = ProtocolParams(n=n, f=f, p=p)
        for threshold in (params.icc_quorum, params.banyan_quorum,
                          params.fast_quorum):
            assert threshold == math.ceil(threshold)
            fired = []
            tracker = QuorumTracker(threshold, on_threshold=fired.append)
            for voter in range(threshold - 1):
                tracker.add_vote("b", voter)
            assert fired == [] and not tracker.reached("b")
            tracker.add_vote("b", threshold - 1)
            assert fired == ["b"] and tracker.reached("b")

    def test_random_vote_streams_property(self):
        """Random streams with duplicates and equivocators keep the invariants:

        * a block's count equals its distinct voters;
        * the callback fires iff the threshold is met, exactly once;
        * the equivocator set is exactly the voters seen on >1 block.
        """
        rng = random.Random(1234)
        for _ in range(25):
            n = rng.randint(4, 25)
            threshold = rng.randint(1, n)
            blocks = ["x", "y", "z"][: rng.randint(1, 3)]
            fired = []
            tracker = QuorumTracker(threshold, on_threshold=fired.append)
            seen = {}
            for _ in range(rng.randint(1, 6 * n)):
                voter = rng.randrange(n)
                block = rng.choice(blocks)
                tracker.add_vote(block, voter)
                seen.setdefault(block, set()).add(voter)
            for block, voters in seen.items():
                assert tracker.count(block) == len(voters)
                assert tracker.reached(block) == (len(voters) >= threshold)
                assert fired.count(block) == (1 if len(voters) >= threshold else 0)
            by_voter = {}
            for block, voters in seen.items():
                for voter in voters:
                    by_voter.setdefault(voter, set()).add(block)
            expected = {voter for voter, supported in by_voter.items()
                        if len(supported) > 1}
            assert tracker.equivocators() == frozenset(expected)


#: The voter-set shapes ``add_voters`` accepts: a certificate's frozenset,
#: a re-iterable sequence, and a one-shot iterable.
SHAPES = {
    "frozenset": frozenset,
    "list": list,
    "generator": lambda voters: (voter for voter in voters),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestAddVotersInputShapes:
    """``add_voters`` against the per-vote path, for every input shape.

    Each case replays the same history into two trackers — one merging the
    final voter set with ``add_voters``, one calling ``add_vote`` per
    voter in the order the set yields them — and compares the return
    value, the tallies, the moment ``on_threshold`` fired, and the
    equivocation evidence.
    """

    @staticmethod
    def _tracker(threshold):
        fired = []
        tracker = QuorumTracker(threshold)
        # Snapshot the tally the moment the callback fires: the crossing
        # voter must be the same on both paths.
        tracker.on_threshold = lambda block: fired.append(
            (block, sorted(tracker.voters(block))))
        # Voter 7 already supports another block: merging it for "b" is
        # equivocation evidence.
        tracker.add_vote("other", 7)
        for voter in (0, 1):
            tracker.add_vote("b", voter)
        return tracker, fired

    def _check(self, shape, threshold, merged, expect_new):
        ordered = list(SHAPES[shape](merged))
        merging, merged_fired = self._tracker(threshold)
        per_vote, per_vote_fired = self._tracker(threshold)
        new = merging.add_voters("b", SHAPES[shape](merged))
        per_vote_new = [per_vote.add_vote("b", voter) for voter in ordered]
        assert new is expect_new is any(per_vote_new)
        assert merging.voters("b") == per_vote.voters("b") == {0, 1, *merged}
        assert merged_fired == per_vote_fired
        assert merging.fired_count() == per_vote.fired_count()
        assert merging.equivocators() == per_vote.equivocators()
        for voter in {0, 1, 7, *merged}:
            assert merging.evidence(voter) == per_vote.evidence(voter)
        return merged_fired

    def test_noop_merge(self, shape):
        assert self._check(shape, threshold=5, merged=[1, 0], expect_new=False) == []

    def test_partial_merge(self, shape):
        assert self._check(shape, threshold=6, merged=[1, 2, 7],
                           expect_new=True) == []

    def test_threshold_crossing_merge(self, shape):
        fired = self._check(shape, threshold=4, merged=[5, 1, 7, 3, 2],
                            expect_new=True)
        assert len(fired) == 1 and len(fired[0][1]) == 4

    def test_merge_after_crossing_never_refires(self, shape):
        tracker, fired = self._tracker(3)
        assert tracker.add_voters("b", SHAPES[shape]([2, 3])) is True
        assert tracker.add_voters("b", SHAPES[shape]([4])) is True
        assert [block for block, _ in fired] == ["b"]
        assert tracker.equivocators() == frozenset()


class TestCertificateCollector:
    def test_trackers_keyed_by_round_and_kind(self):
        collector = CertificateCollector()
        notar = collector.tracker(1, VoteKind.NOTARIZATION, 3)
        final = collector.tracker(1, VoteKind.FINALIZATION, 3)
        assert notar is not final
        assert collector.tracker(1, VoteKind.NOTARIZATION, 3) is notar
        assert collector.tracker(2, VoteKind.NOTARIZATION, 3) is not notar

    def test_get_does_not_create(self):
        collector = CertificateCollector()
        assert collector.get(1, VoteKind.NOTARIZATION) is None
        collector.tracker(1, VoteKind.NOTARIZATION, 2)
        assert collector.get(1, VoteKind.NOTARIZATION) is not None

    def test_add_vote_shorthand(self):
        collector = CertificateCollector()
        assert collector.add_vote(3, VoteKind.FAST, "b", 0, threshold=2) is True
        assert collector.add_vote(3, VoteKind.FAST, "b", 0, threshold=2) is False
        assert collector.tracker(3, VoteKind.FAST, 2).count("b") == 1

    def test_equivocation_evidence_aggregated(self):
        collector = CertificateCollector()
        collector.add_vote(1, VoteKind.FAST, "a", 9, threshold=5)
        collector.add_vote(1, VoteKind.FAST, "b", 9, threshold=5)
        collector.add_vote(2, VoteKind.NOTARIZATION, "c", 4, threshold=5)
        assert collector.equivocation_evidence() == {
            (1, VoteKind.FAST): frozenset({9}),
        }
        assert collector.equivocators() == frozenset({9})

    def test_kind_table_is_live_and_evidence_keeps_creation_order(self):
        collector = CertificateCollector()
        notarizations = collector.table(VoteKind.NOTARIZATION)
        assert notarizations == {}
        keys = [(2, VoteKind.FAST), (1, VoteKind.NOTARIZATION), (1, VoteKind.FAST)]
        for round_k, kind in keys:
            tracker = collector.tracker(round_k, kind, 5)
            tracker.add_vote("a", 9)
            tracker.add_vote("b", 9)
        assert notarizations == {1: collector.get(1, VoteKind.NOTARIZATION)}
        assert collector.table(VoteKind.NOTARIZATION) is notarizations
        assert list(collector.equivocation_evidence()) == keys
