"""The batch engine's kernel: flat-table HMM-forward updates, bit-exact.

The belief recursion of Appendix A is an HMM forward pass, and this module
applies the standard HMM-acceleration idiom (ham / partis lexical tables):
precompute per-``(node, action, observation)`` lookup tables at engine
construction so the per-step work collapses to flat integer gathers plus one
batched matrix product — no per-node Python loop, no per-step ``np.where``
over the recover mask, no per-step allocation.

Bit-exactness
-------------

The fused update must reproduce the scalar update *bit for bit* (the
scalar parity suites are the gate), which rules out the naive elementwise
form ``(1 - b) * M[0, s] + b * M[1, s]``: BLAS evaluates the scalar
``[1 - b, b, 0] @ M`` product as a fused-multiply-add chain whose rounding
differs from the two-rounding elementwise form in the last ulp.  Two
observations restore exactness:

* **Exact zeros are FMA no-ops.**  ``fma(0, m, acc) == acc`` and appending
  zero terms never changes an FMA chain.  The action select can therefore
  be folded *into the matmul*: with the 4-row matrix ``M4 = [W_H; W_C;
  R_H; R_C]`` (live-state rows of the wait/recover kernels) and the
  embedding ``[(1-b)(1-a), b(1-a), (1-b)a, ba]`` — which is exactly
  ``[1-b, b, 0, 0]`` or ``[0, 0, 1-b, b]`` — the product
  ``(B, 4) @ (4, 2)`` equals the scalar per-action ``(B, 3) @ (3, 3)``
  product bitwise, eliminating both per-step matmuls and the recover-mask
  branch in one stroke.
* **Likelihoods stay separate.**  Pre-multiplying ``Z(o | s)`` into the
  transition columns (the textbook fused table) would change the rounding
  order, so the likelihoods are gathered from a flat ``(N * |O|,)`` table
  and applied after the product — the same two multiplies the scalar
  update performs.

Sampling uses exact CDF inversion: ``searchsorted(cdf, u, side="right")``
computes the same count as the scalar ``(cdf <= u).sum()`` comparison
(pure comparisons, no arithmetic), and the transition draw needs only the
first two CDF columns because the third entry is exactly ``1.0 > u``.
``BatchRecoveryEngine.step`` samples per step by exact rank lookup: the
transition is the two-column compare (:meth:`FusedKernel.sample_transitions`),
the observation one rank of ``u`` in the merged live-state observation CDFs
of the whole fleet plus one integer gather
(:meth:`FusedKernel.sample_observations`).
"""

from __future__ import annotations

import numpy as np

from ...core.node_model import NodeAction, NodeState

__all__ = ["FusedKernel"]

_HEALTHY = int(NodeState.HEALTHY)
_COMPROMISED = int(NodeState.COMPROMISED)
_WAIT = int(NodeAction.WAIT)
_RECOVER = int(NodeAction.RECOVER)


class FusedKernel:
    """Flat-table belief kernel and step samplers, bit-exact vs the scalar simulator."""

    def __init__(self, engine) -> None:
        self.engine = engine
        matrices = engine._matrices  # (N, |A|, |S|, |S|)
        num_nodes, num_actions, num_states, _ = matrices.shape
        if num_states != 3 or num_actions != 2:
            raise ValueError("fused kernels assume the 3-state, 2-action node POMDP")
        # (N, 4, 2): rows [W_H; W_C; R_H; R_C] of live-to-live transitions,
        # stored transposed for the ``prior = M4.T @ emb`` formulation, which
        # keeps every operand C-contiguous.
        m4 = np.empty((num_nodes, 4, 2))
        m4[:, 0:2, :] = matrices[:, _WAIT, 0:2, 0:2]
        m4[:, 2:4, :] = matrices[:, _RECOVER, 0:2, 0:2]
        self.m4t = np.ascontiguousarray(m4.transpose(0, 2, 1))
        pmf = engine._observation_pmf  # (N, |S|, |O|)
        self.num_observations = int(pmf.shape[2])
        # Flat likelihood tables, row (j * |O| + o) -> Z(o | s).
        self.like_healthy = np.ascontiguousarray(pmf[:, _HEALTHY, :]).reshape(-1)
        self.like_compromised = np.ascontiguousarray(pmf[:, _COMPROMISED, :]).reshape(-1)
        self.like_base = np.arange(num_nodes, dtype=np.int64) * self.num_observations
        # Transition CDF columns: next_state = (c0 <= u) + (c1 <= u) because
        # the third CDF entry is exactly 1.0 and u < 1 strictly.
        self.tc0 = np.ascontiguousarray(engine._transition_cdf_flat[:, 0])
        self.tc1 = np.ascontiguousarray(engine._transition_cdf_flat[:, 1])
        self._build_step_observation_table(engine)

    def _build_step_observation_table(self, engine) -> None:
        """One merged-CDF observation rank table for the whole fleet (``step``).

        The stepwise path ranks each fresh uniform once against the sorted
        union of the live-state observation CDFs of *every* node, then reads
        the observation index from a flat table: entry ``step_obs_base[j] +
        s * step_obs_width + rank`` is ``#{cdf_{j,s} <= u}`` for observed
        state ``s`` in ``{H, C}``.  The lookup is exact: ``rank =
        #{merged <= u}`` determines ``#{cdf_{j,s} <= u}`` for every CDF
        because each CDF value is itself a merged value, so no float
        arithmetic touches ``u``.  Nodes with equal CDF pairs share one
        block of the table, so a homogeneous fleet of any size stores a
        single block.
        """
        cdf = engine._observation_cdf[:, _HEALTHY : _COMPROMISED + 1, :]  # (N, 2, |O|)
        num_nodes = cdf.shape[0]
        models, node_model = np.unique(
            cdf.reshape(num_nodes, -1), axis=0, return_inverse=True
        )
        models = models.reshape(len(models), 2, -1)
        merged = np.unique(models)
        width = len(merged) + 1
        table = np.zeros((len(models), 2, width), dtype=np.int64)
        for m, s in np.ndindex(len(models), 2):
            table[m, s, 1:] = np.searchsorted(models[m, s], merged, side="right")
        # The top rank is unreachable (u < 1.0 == merged[-1]); clip it into
        # range so every table entry is a valid observation index.
        np.minimum(table, self.num_observations - 1, out=table)
        self._step_obs_merged = merged
        self._step_obs_bucket = self._bucket_grid(merged)
        self._step_obs_width = width
        self._step_obs_table = table.reshape(-1)
        self._step_obs_base = np.asarray(node_model).reshape(-1).astype(np.int64) * (
            2 * width
        )

    def sample_observations(self, u: np.ndarray, observed_state: np.ndarray) -> np.ndarray:
        """Observation indices ``#{cdf <= u}`` of ``(B, N)`` streams, exactly.

        ``observed_state`` is each stream's live state as the IDS sees it
        (``0`` healthy, ``1`` compromised); one rank of ``u`` in the merged
        fleet-wide CDF set plus one integer gather replaces the per-stream
        ``(cdf_rows <= u).sum()`` over ``|O|`` columns.
        """
        rank = self._ranks(u, self._step_obs_merged, self._step_obs_bucket)
        rank += observed_state * self._step_obs_width
        rank += self._step_obs_base
        return self._step_obs_table.take(rank)

    def sample_transitions(self, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Next states of ``(B, N)`` streams from flat transition-CDF rows.

        ``next_state = (c0 <= u) + (c1 <= u)``: the third CDF entry is
        exactly ``1.0`` and ``u < 1``, so two compares count ``#{cdf <= u}``.
        """
        next_state = (self.tc0.take(rows) <= u).astype(np.int64)
        next_state += self.tc1.take(rows) <= u
        return next_state

    @staticmethod
    def _bucket_grid(merged: np.ndarray):
        """Branchless bucket-grid rank lookup over a sorted value set.

        ``x -> trunc(fl(x * K))`` is monotone, so for a grid of ``K``
        buckets over ``[0, 1]`` every value in a lower bucket than ``u`` is
        ``<= u`` and every value in a higher bucket is ``> u``; candidates
        sharing ``u``'s bucket are resolved by explicit compares.  Hence
        ``rank(u) = cnt[b] + sum_m (vals[m][b] <= u)`` exactly, with ``b =
        trunc(u * K)``, ``cnt[b]`` the number of values in buckets below
        ``b`` and ``vals[m][b]`` the ``m``-th value inside bucket ``b``
        (``+inf`` padded).  ``K`` is doubled until buckets are singly
        occupied (tables get length ``K + 1``: ``fl(u * K)`` can round up
        to ``K``); at the 65536 cap up to 4 values may share a bucket, and
        denser value sets fall back to ``searchsorted`` (``None``).
        """
        k = max(64, 2 * len(merged))
        while True:
            bucket_of = (merged * float(k)).astype(np.int64)
            occupancy = int(np.bincount(bucket_of, minlength=1).max())
            if occupancy <= 1 or k >= 65536:
                break
            k *= 2
        if occupancy > 4:
            return None
        cnt = np.searchsorted(bucket_of, np.arange(k + 1), side="left")
        vals = [np.full(k + 1, np.inf) for _ in range(occupancy)]
        for i, b in enumerate(bucket_of):
            vals[i - cnt[b]][b] = merged[i]
        return float(k), np.ascontiguousarray(cnt.astype(np.int64)), vals

    @staticmethod
    def _ranks(u: np.ndarray, merged: np.ndarray, bucket) -> np.ndarray:
        """``rank(u) = #{merged <= u}`` elementwise, as a new ``int64`` array."""
        if bucket is None:
            return np.searchsorted(merged, u.ravel(), side="right").reshape(u.shape)
        kf, cnt, vals = bucket
        idx = (u * kf).astype(np.int64)
        rank = cnt.take(idx)
        for val in vals:
            rank += val.take(idx) <= u
        return rank

    # -- belief update -----------------------------------------------------------
    def make_step_workspace(self, num_episodes: int) -> dict:
        num_nodes = self.engine.scenario.num_nodes
        shape = (num_episodes, num_nodes)
        return {
            "emb": np.empty((num_nodes, 4, num_episodes)),
            "prior": np.empty((num_nodes, 2, num_episodes)),
            "obs_like": np.empty(shape, dtype=np.int64),
            "zh": np.empty(shape),
            "zc": np.empty(shape),
            "wh": np.empty(shape),
            "wc": np.empty(shape),
            "total": np.empty(shape),
            "ones": np.empty(shape),
            "updated": np.empty(shape),
        }

    def update_beliefs(
        self,
        recover: np.ndarray,
        observation_index: np.ndarray,
        belief: np.ndarray,
        workspace: dict | None = None,
    ) -> np.ndarray:
        """Fused Appendix A recursion over all ``(B, N)`` streams at once."""
        if workspace is None:
            workspace = self.make_step_workspace(belief.shape[0])
        emb = workspace["emb"]
        prior = workspace["prior"]
        self._embed(belief.T, recover.T, emb, prior)
        idx = workspace["obs_like"]
        np.add(observation_index, self.like_base, out=idx)
        zh = self.like_healthy.take(idx, out=workspace["zh"])
        zc = self.like_compromised.take(idx, out=workspace["zc"])
        return self._posterior(
            prior[:, 0].T,
            prior[:, 1].T,
            zh,
            zc,
            workspace["wh"],
            workspace["wc"],
            workspace["total"],
            workspace["ones"],
            workspace["updated"],
        )

    def _embed(
        self,
        belief: np.ndarray,
        recover: np.ndarray,
        emb: np.ndarray,
        prior: np.ndarray,
    ) -> None:
        """Fill ``emb`` with the action-folded embedding and run the matmul.

        ``belief`` / ``recover`` are node-major ``(N, B)``; ``emb`` is the
        transposed embedding ``(N, 4, B)`` and ``prior`` the transposed
        prediction ``(N, 2, B)`` — the matmul runs as ``M4.T @ emb`` so that
        every row the elementwise kernels touch is contiguous.  The
        embedding rows ``[(1-b)(1-a), b(1-a), (1-b)a, ba]`` are computed
        with exact arithmetic (``x - x == 0`` and ``x - 0 == x``), so each
        stream's column is exactly ``[1-b, b, 0, 0]`` (wait) or
        ``[0, 0, 1-b, b]`` (recover).
        """
        e0 = emb[:, 0]
        e1 = emb[:, 1]
        e2 = emb[:, 2]
        e3 = emb[:, 3]
        np.subtract(1.0, belief, out=e0)
        np.multiply(e0, recover, out=e2)
        np.subtract(e0, e2, out=e0)
        np.multiply(belief, recover, out=e3)
        np.subtract(belief, e3, out=e1)
        if emb.shape[0] == 1:
            np.matmul(self.m4t[0], emb[0], out=prior[0])
        else:
            np.matmul(self.m4t, emb, out=prior)

    def _posterior(
        self,
        prior_healthy: np.ndarray,
        prior_compromised: np.ndarray,
        zh: np.ndarray,
        zc: np.ndarray,
        wh: np.ndarray,
        wc: np.ndarray,
        total: np.ndarray,
        ones: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Bayes correction with the shared degenerate-observation fallback."""
        np.multiply(zh, prior_healthy, out=wh)
        np.multiply(zc, prior_compromised, out=wc)
        np.add(wh, wc, out=total)
        if self.engine._regular_observations or not (total <= 0.0).any():
            np.divide(wc, total, out=out)
            return out
        # Degenerate observation: drop it and renormalize the prediction
        # over the live states (b = 1 when even the live mass is zero) —
        # element for element the same operations as the batched scalar
        # update ``_batch_two_state_posterior``.
        live = wh  # the weight buffer is free to reuse here
        np.add(prior_healthy, prior_compromised, out=live)
        ones.fill(1.0)
        np.divide(prior_compromised, live, out=ones, where=live > 0.0)
        np.divide(wc, total, out=ones, where=total > 0.0)
        np.copyto(out, ones)
        return out
