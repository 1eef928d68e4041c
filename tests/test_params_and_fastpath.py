"""Unit tests for protocol parameters (quorums, bounds) and the fast-path state.

These cover the arithmetic the paper's analysis relies on (Section 3,
Definitions 6.2 and 7.6) independently of any network execution.
"""

from __future__ import annotations

import math

import pytest

from repro.core.fastpath import FastPathState
from repro.protocols.base import ProtocolParams
from repro.types.certificates import UnlockProof


class TestProtocolParams:
    def test_icc_quorum_is_n_minus_f(self):
        params = ProtocolParams(n=19, f=6)
        assert params.icc_quorum == 13

    def test_banyan_quorum_formula(self):
        params = ProtocolParams(n=19, f=6)
        assert params.banyan_quorum == math.ceil((19 + 6 + 1) / 2) == 13

    def test_fast_quorum_is_n_minus_p(self):
        assert ProtocolParams(n=19, f=6, p=1).fast_quorum == 18
        assert ProtocolParams(n=19, f=4, p=4).fast_quorum == 15

    def test_unlock_threshold_is_f_plus_p(self):
        assert ProtocolParams(n=19, f=4, p=4).unlock_threshold == 8

    def test_resilience_bound_banyan(self):
        # n >= max(3f + 2p - 1, 3f + 1)
        ProtocolParams(n=19, f=6, p=1).validate_resilience(require_fast_path=True)
        ProtocolParams(n=19, f=4, p=4).validate_resilience(require_fast_path=True)
        with pytest.raises(ValueError):
            ProtocolParams(n=18, f=6, p=1).validate_resilience(require_fast_path=True)
        with pytest.raises(ValueError):
            ProtocolParams(n=18, f=4, p=4).validate_resilience(require_fast_path=True)

    def test_resilience_bound_with_p_one_equals_classic_bound(self):
        # With p = 1, Banyan needs only the classic n >= 3f + 1.
        ProtocolParams(n=4, f=1, p=1).validate_resilience(require_fast_path=True)
        with pytest.raises(ValueError):
            ProtocolParams(n=3, f=1, p=1).validate_resilience(require_fast_path=True)

    def test_resilience_bound_baselines(self):
        ProtocolParams(n=4, f=1).validate_resilience()
        with pytest.raises(ValueError):
            ProtocolParams(n=3, f=1).validate_resilience()

    def test_delays_scale_linearly_with_rank(self):
        params = ProtocolParams(n=4, f=1, rank_delay=0.4)
        assert params.proposal_delay(0) == 0.0
        assert params.proposal_delay(3) == pytest.approx(1.2)
        assert params.notarization_delay(2) == pytest.approx(0.8)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=0, f=0)
        with pytest.raises(ValueError):
            ProtocolParams(n=4, f=-1)
        with pytest.raises(ValueError):
            ProtocolParams(n=4, f=1, rank_delay=-0.1)

    def test_quorum_intersection_property(self):
        """Two Banyan quorums always intersect in an honest replica.

        This is the quorum arithmetic behind Lemma 8.4: two quorums of size
        ceil((n+f+1)/2) overlap in more than f replicas.
        """
        for f in range(1, 7):
            for p in range(1, f + 1):
                n = max(3 * f + 2 * p - 1, 3 * f + 1)
                quorum = math.ceil((n + f + 1) / 2)
                assert 2 * quorum - n > f

    def test_fast_and_slow_quorum_intersection(self):
        """A fast quorum and a notarization quorum intersect in an honest replica.

        This is the arithmetic behind Theorem 8.6's explicit-finalization case.
        """
        for f in range(1, 7):
            for p in range(1, f + 1):
                n = max(3 * f + 2 * p - 1, 3 * f + 1)
                slow_quorum = math.ceil((n + f + 1) / 2)
                fast_quorum = n - p
                assert slow_quorum + fast_quorum - n > f


class TestFastPathState:
    """Tests of Definitions 7.1–7.6 on hand-built scenarios."""

    def _state(self, f=1, p=1, n=4):
        return FastPathState(unlock_threshold=f + p, fast_quorum=n - p)

    def test_support_tracking(self):
        state = self._state()
        state.record_fast_vote("a", 0)
        state.record_fast_vote("a", 1)
        state.record_fast_vote("b", 1)
        assert state.support("a") == {0, 1}
        assert state.support_of(["a", "b"]) == {0, 1}
        assert state.support("missing") == frozenset()

    def test_max_block_is_best_supported_rank0(self):
        state = self._state()
        state.record_block("a", rank=0)
        state.record_block("b", rank=0)
        state.record_fast_vote("a", 0)
        state.record_fast_vote("b", 1)
        state.record_fast_vote("b", 2)
        assert state.max_block() == "b"
        assert set(state.non_max_blocks()) == {"a"}

    def test_max_block_none_without_rank0(self):
        state = self._state()
        state.record_block("x", rank=2)
        assert state.max_block() is None

    def test_non_leader_blocks(self):
        state = self._state()
        state.record_block("leader", rank=0)
        state.record_block("other", rank=3)
        assert state.non_leader_blocks() == ["other"]

    def test_condition1_unlocks_well_supported_leader_block(self):
        # n=4, f=1, p=1: threshold f+p = 2, so > 2 distinct supporters unlock.
        state = self._state()
        state.record_block("a", rank=0)
        for voter in (0, 1, 2):
            state.record_fast_vote("a", voter)
        decision = state.evaluate_unlocks()
        assert "a" in decision.unlocked_blocks
        assert not decision.all_unlocked

    def test_condition1_counts_non_leader_support_too(self):
        # Figure 4, round k: the rank-0 block has 2 fast votes and a rank-1
        # block has 1; the union exceeds f+p=2 so the rank-0 block unlocks.
        state = self._state()
        state.record_block("r0", rank=0)
        state.record_block("r1", rank=1)
        state.record_fast_vote("r0", 0)
        state.record_fast_vote("r0", 1)
        state.record_fast_vote("r1", 2)
        decision = state.evaluate_unlocks()
        assert "r0" in decision.unlocked_blocks
        assert not decision.all_unlocked

    def test_condition2_unlocks_everything(self):
        # Figure 4, round k+1: support outside the best rank-0 block exceeds
        # f+p, so all blocks (current and future) are unlocked.
        state = self._state()
        state.record_block("a", rank=0)
        state.record_block("b", rank=0)
        state.record_block("c", rank=1)
        state.record_fast_vote("a", 0)
        state.record_fast_vote("b", 1)
        state.record_fast_vote("b", 2)
        state.record_fast_vote("c", 3)
        # max is "b" (2 votes); support of non-max {a, c} = {0, 3}... not enough.
        assert not state.evaluate_unlocks().all_unlocked
        state.record_fast_vote("a", 3)
        state.record_fast_vote("c", 2)
        # non-max support is now {0, 2, 3} > 2.
        decision = state.evaluate_unlocks()
        assert decision.all_unlocked
        assert {"a", "b", "c"} <= set(decision.unlocked_blocks)

    def test_condition2_is_sticky_for_future_blocks(self):
        state = self._state()
        state.record_block("a", rank=0)
        state.record_block("b", rank=1)
        state.record_block("c", rank=2)
        for voter, bid in [(0, "b"), (1, "b"), (2, "c")]:
            state.record_fast_vote(bid, voter)
        assert state.evaluate_unlocks().all_unlocked
        state.record_block("late", rank=3)
        assert "late" in state.evaluate_unlocks().unlocked_blocks

    def test_under_threshold_unlocks_nothing(self):
        state = self._state()
        state.record_block("a", rank=0)
        state.record_fast_vote("a", 0)
        state.record_fast_vote("a", 1)
        decision = state.evaluate_unlocks()
        assert decision.unlocked_blocks == frozenset()

    def test_fast_finalizable_requires_rank0_and_quorum(self):
        state = self._state()  # fast quorum 3
        state.record_block("leader", rank=0)
        state.record_block("other", rank=1)
        for voter in (0, 1, 2):
            state.record_fast_vote("leader", voter)
            state.record_fast_vote("other", voter)
        assert state.fast_finalizable_blocks() == ["leader"]

    def test_duplicate_votes_do_not_inflate_support(self):
        state = self._state()
        state.record_block("a", rank=0)
        for _ in range(5):
            state.record_fast_vote("a", 0)
        assert len(state.support("a")) == 1
        assert state.fast_finalizable_blocks() == []

    def test_merge_unlock_proof(self):
        state = self._state()
        state.record_block("a", rank=0)
        proof = UnlockProof(round=1, block_id="a",
                            votes_by_block=(("a", frozenset({0, 1, 2})),))
        state.merge_unlock_proof(proof)
        assert state.support("a") == {0, 1, 2}
        assert "a" in state.evaluate_unlocks().unlocked_blocks

    def test_build_unlock_proof_roundtrip(self):
        state = self._state()
        state.record_block("a", rank=0)
        state.record_fast_vote("a", 0)
        state.record_fast_vote("b", 1)
        proof = state.build_unlock_proof(round=3, block_id="a")
        assert proof.round == 3
        assert proof.support("a") == {0}
        assert proof.support("b") == {1}
        other = self._state()
        other.merge_unlock_proof(proof)
        assert other.support("a") == {0}

    def test_recording_methods_report_changes(self):
        """Each recorder returns True exactly when the known blocks or the
        support changed, and marks the state unevaluated when it does."""
        state = self._state()
        assert state.record_block("a", rank=0) is True
        assert state.record_block("a", rank=0) is False
        assert state.record_block("a", rank=1) is False  # rank is fixed
        assert state.record_fast_vote("a", 0) is True
        assert state.record_fast_vote("a", 0) is False
        assert state.merge_fast_votes("a", frozenset({0})) is False
        assert state.merge_fast_votes("a", frozenset()) is False
        assert state.merge_fast_votes("a", frozenset({0, 1})) is True
        assert state.merge_fast_votes("a", [1, 0]) is False
        proof = UnlockProof(round=1, block_id="a", votes_by_block=(
            ("a", frozenset({0, 1})), ("b", frozenset({2}))))
        assert state.merge_unlock_proof(proof) is True  # only "b" is new
        assert state.merge_unlock_proof(proof) is False
        assert state.support("b") == {2}

    def test_only_changes_leave_the_state_unevaluated(self):
        state = self._state()
        assert not state.unevaluated
        state.record_block("a", rank=0)
        assert state.unevaluated
        state.evaluate_unlocks()
        assert not state.unevaluated
        state.record_block("a", rank=0)
        state.record_fast_vote("a", 0)
        assert state.unevaluated
        state.evaluate_unlocks()
        state.record_fast_vote("a", 0)
        state.merge_fast_votes("a", frozenset({0}))
        state.merge_unlock_proof(UnlockProof(
            round=1, block_id="a", votes_by_block=(("a", frozenset({0})),)))
        assert not state.unevaluated
        state.merge_fast_votes("a", frozenset({0, 3}))
        assert state.unevaluated

    def test_merge_into_non_leader_block_feeds_condition_support(self):
        # A generator is consumed once by the tally; the non-leader union
        # must still see every merged voter.
        state = self._state()
        state.record_block("leader", rank=0)
        state.record_block("other", rank=1)
        assert state.merge_fast_votes("other", (v for v in (0, 1, 2))) is True
        assert state.evaluate_unlocks().all_unlocked

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            FastPathState(unlock_threshold=-1, fast_quorum=3)
        with pytest.raises(ValueError):
            FastPathState(unlock_threshold=2, fast_quorum=0)

    def test_lemma_8_1_pigeonhole_scenario(self):
        """With an equivocating leader and all honest fast votes in, at least
        one block is unlocked (the pigeonhole argument of Lemma 8.1)."""
        f, p = 2, 1
        n = max(3 * f + 2 * p - 1, 3 * f + 1)  # 7
        state = FastPathState(unlock_threshold=f + p, fast_quorum=n - p)
        state.record_block("x", rank=0)
        state.record_block("y", rank=0)
        # Byzantine leader fast-votes both of its equivocating blocks.
        state.record_fast_vote("x", 0)
        state.record_fast_vote("y", 0)
        # The n - f = 5 honest replicas split their single fast vote arbitrarily.
        for voter, bid in [(1, "x"), (2, "x"), (3, "y"), (4, "y"), (5, "x")]:
            state.record_fast_vote(bid, voter)
        decision = state.evaluate_unlocks()
        assert decision.unlocked_blocks or decision.all_unlocked
