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
``BatchRecoveryEngine.step`` samples per step by exact rank lookup, with no
buffer-wide precompute: the transition is the two-column compare
(:meth:`FusedKernel.sample_transitions`), the observation one rank of ``u``
in the merged live-state observation CDFs of the whole fleet plus one
integer gather (:meth:`FusedKernel.sample_observations`).  The run driver
instead ranks every uniform of the buffer up front against per-node merged
sets (:meth:`FusedKernel._uniform_ranks`) on fleets of up to
``_MAX_RANK_NODES`` nodes, and gathers CDF rows on larger ones.

The run driver additionally defers all bookkeeping (cost, recoveries,
compromises, delay windows, availability) to finalize time: it logs the raw
per-step states and recover masks (one ``uint8`` + one ``bool`` write per
step) and reconstructs everything exactly afterwards.  Integer sums are
order-independent, so the counters are a pure reordering; ``total_cost``,
float addition not being associative, is re-accumulated at finalize with an
explicit sequential loop over steps — the same element order as the eager
path, just outside the hot loop.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

from ...core.node_model import NodeAction, NodeState
from ...core.strategies import ThresholdStrategy

__all__ = ["FusedKernel"]

_HEALTHY = int(NodeState.HEALTHY)
_COMPROMISED = int(NodeState.COMPROMISED)
_CRASHED = int(NodeState.CRASHED)
_WAIT = int(NodeAction.WAIT)
_RECOVER = int(NodeAction.RECOVER)

#: Fleet sizes up to this use the precomputed-rank transition/observation
#: path; larger fleets amortize one big row-gather better.
_MAX_RANK_NODES = 4
#: Episode-chunk size (in ``T * N * B`` elements) for the deferred metrics
#: pass, keeping its boolean temporaries around L2/L3-cache sized.
_METRICS_CHUNK_ELEMS = 1 << 22


class FusedKernel:
    """Flat-table belief kernel and run driver, bit-exact vs the scalar simulator."""

    def __init__(self, engine) -> None:
        self.engine = engine
        matrices = engine._matrices  # (N, |A|, |S|, |S|)
        num_nodes, num_actions, num_states, _ = matrices.shape
        if num_states != 3 or num_actions != 2:
            raise ValueError("fused kernels assume the 3-state, 2-action node POMDP")
        # (N, 4, 2): rows [W_H; W_C; R_H; R_C] of live-to-live transitions.
        m4 = np.empty((num_nodes, 4, 2))
        m4[:, 0:2, :] = matrices[:, _WAIT, 0:2, 0:2]
        m4[:, 2:4, :] = matrices[:, _RECOVER, 0:2, 0:2]
        self.m4 = np.ascontiguousarray(m4)
        # Transposed copy for the run driver's ``prior.T = M4.T @ emb.T``
        # formulation, which keeps every operand C-contiguous.
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
        self._build_rank_tables(engine, pmf)
        self._build_step_observation_table(engine)
        self._build_transition_rank_tables(num_nodes, num_actions * num_states)
        #: uniforms-buffer -> precomputed rank arrays (see _uniform_ranks).
        self._rank_cache: dict = {}

    def _build_rank_tables(self, engine, pmf) -> None:
        """Merged-CDF observation rank tables for the run driver.

        One ``searchsorted`` against the sorted union of a node's healthy
        and compromised CDFs yields a *rank* from which both the observation
        index and both likelihoods follow by pure integer table lookups:
        ``rank = #{merged <= u}`` determines ``#{cdf_s <= u}`` exactly for
        either state ``s`` because every CDF value is itself a merged value
        — no float arithmetic touches ``u``, so exact inversion of both
        CDFs is preserved while paying for one binary search instead of two.
        Flat layout: entry ``rank_base[j] + s * rank_len[j] + rank``.
        """
        num_nodes = pmf.shape[0]
        zh_parts: list[np.ndarray] = []
        zc_parts: list[np.ndarray] = []
        self._obs_merged: list[np.ndarray] = []
        rank_base = np.empty(num_nodes, dtype=np.int64)
        rank_len = np.empty(num_nodes, dtype=np.int64)
        base = 0
        for j in range(num_nodes):
            cdf_h = np.ascontiguousarray(engine._observation_cdf[j, _HEALTHY])
            cdf_c = np.ascontiguousarray(engine._observation_cdf[j, _COMPROMISED])
            merged = np.unique(np.concatenate([cdf_h, cdf_c]))
            omap = np.concatenate(
                [
                    [0],
                    np.searchsorted(cdf_h, merged, side="right"),
                    [0],
                    np.searchsorted(cdf_c, merged, side="right"),
                ]
            ).astype(np.int64)
            # Top ranks are unreachable (u < 1.0 <= merged[-1]); clip them
            # into range so the likelihood tables can be built.
            np.minimum(omap, self.num_observations - 1, out=omap)
            self._obs_merged.append(merged)
            zh_parts.append(pmf[j, _HEALTHY][omap])
            zc_parts.append(pmf[j, _COMPROMISED][omap])
            rank_base[j] = base
            rank_len[j] = len(merged) + 1
            base += 2 * (len(merged) + 1)
        self._zh_tab = np.ascontiguousarray(np.concatenate(zh_parts))
        self._zc_tab = np.ascontiguousarray(np.concatenate(zc_parts))
        self._rank_base = rank_base
        self._rank_len = rank_len
        self._obs_bucket = [self._bucket_grid(m) for m in self._obs_merged]

    def _build_step_observation_table(self, engine) -> None:
        """One merged-CDF observation rank table for the whole fleet (``step``).

        The stepwise path ranks each fresh uniform once against the sorted
        union of the live-state observation CDFs of *every* node, then reads
        the observation index from a flat table: entry ``step_obs_base[j] +
        s * step_obs_width + rank`` is ``#{cdf_{j,s} <= u}`` for observed
        state ``s`` in ``{H, C}`` — exact for the same reason as the per-node
        tables of :meth:`_build_rank_tables`.  Nodes with equal CDF pairs
        share one block of the table, so a homogeneous fleet of any size
        stores a single block.
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
        # range like the per-node tables.
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

    def _build_transition_rank_tables(self, num_nodes: int, num_rows: int) -> None:
        """Merged-CDF *transition* rank tables, mirroring the observation ones.

        ``next_state = (tc0 <= u) + (tc1 <= u)`` and both thresholds are
        members of the node's merged transition-CDF value set, so with
        ``r = #{merged <= u}`` the next state is the pure integer
        ``(k0 < r) + (k1 < r)`` where ``k0``/``k1`` are the thresholds'
        positions in the sorted merged set — no float compare against ``u``
        remains once ``r`` is known.  Flat layout: entry
        ``t_base[j] + (a * |S| + s) * t_len[j] + r``.
        """
        parts: list[np.ndarray] = []
        self._t_merged: list[np.ndarray] = []
        t_base = np.empty(num_nodes, dtype=np.int64)
        t_len = np.empty(num_nodes, dtype=np.int64)
        base = 0
        for j in range(num_nodes):
            lo = self.tc0[j * num_rows : (j + 1) * num_rows]
            hi = self.tc1[j * num_rows : (j + 1) * num_rows]
            merged = np.unique(np.concatenate([lo, hi]))
            width = len(merged) + 1
            k0 = np.searchsorted(merged, lo)
            k1 = np.searchsorted(merged, hi)
            ranks = np.arange(width, dtype=np.int64)
            tab = (k0[:, None] < ranks).astype(np.int64)
            tab += k1[:, None] < ranks
            parts.append(tab.reshape(-1))
            self._t_merged.append(merged)
            t_base[j] = base
            t_len[j] = width
            base += num_rows * width
        # uint8 so the gather can write straight into the state log rows.
        self._ns_tab = np.ascontiguousarray(np.concatenate(parts).astype(np.uint8))
        self._t_base = t_base
        self._t_len = t_len
        self._t_bucket = [self._bucket_grid(m) for m in self._t_merged]

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

    def _uniform_ranks(self, uniforms: np.ndarray) -> np.ndarray:
        """Precomputed CDF ranks for every uniform in the buffer, memoized.

        Per-step binary searches over *fresh* uniforms defeat the branch
        predictor (~5x the microbenchmarked cost), and even the branchless
        per-step bucket lookup pays ~7 kernel dispatches per step.  The
        uniforms buffer is known up front, so both the transition rank and
        the observation rank of **every** draw are computed here in a few
        full-buffer vectorized passes; the run loop then turns each phase
        into one integer gather.  Returns a flat ``int64`` view of a
        *step-major* array of shape ``(width, 2, N, B)`` — transition ranks
        of within-stream draw ``k`` in row ``(k, 0)``, observation ranks in
        ``(k, 1)``.  Lock-step streams therefore gather from two contiguous
        rows per step (sequential, cache-friendly); streams lagging after a
        crash peek read slightly older, still-resident rows.  Entries are
        keyed by buffer identity (the buffer is pinned by the cache entry,
        so the address cannot be recycled while the key lives) — the
        engine's seed-memoized uniforms hit this cache on every rerun.
        """
        key = uniforms.__array_interface__["data"][0]
        entry = self._rank_cache.get(key)
        if entry is not None and entry[0] is uniforms:
            return entry[1]
        num_episodes, num_nodes, width = uniforms.shape
        ranks = np.empty((width, 2, num_nodes, num_episodes), dtype=np.int64)
        for j in range(num_nodes):
            ut = uniforms[:, j, :].T
            ranks[:, 0, j] = self._ranks(ut, self._t_merged[j], self._t_bucket[j])
            ranks[:, 1, j] = self._ranks(ut, self._obs_merged[j], self._obs_bucket[j])
        flat = ranks.reshape(-1)
        if len(self._rank_cache) >= 4:
            self._rank_cache.pop(next(iter(self._rank_cache)))
        self._rank_cache[key] = (uniforms, flat)
        return flat

    # -- stepwise belief update --------------------------------------------------
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
        single = emb.ndim == 2  # flattened single-node views (4, B) / (2, B)
        if single:
            e0, e1, e2, e3 = emb
        else:
            e0 = emb[:, 0]
            e1 = emb[:, 1]
            e2 = emb[:, 2]
            e3 = emb[:, 3]
        np.subtract(1.0, belief, out=e0)
        np.multiply(e0, recover, out=e2)
        np.subtract(e0, e2, out=e0)
        np.multiply(belief, recover, out=e3)
        np.subtract(belief, e3, out=e1)
        if single:
            np.matmul(self.m4t[0], emb, out=prior)
        elif emb.shape[0] == 1:
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

    # -- fused run driver --------------------------------------------------------
    def simulate(self, strategies, uniforms, profile=None):
        from ..engine import BatchSimulationResult  # deferred: package cycle

        engine = self.engine
        scenario = engine.scenario
        num_episodes, num_nodes, width = uniforms.shape
        horizon = scenario.horizon
        num_obs = self.num_observations

        B, N = num_episodes, num_nodes
        flat = uniforms.reshape(-1)
        # Node-major (N, B) layout: per-node slices are contiguous rows.
        # ``idx2[0]`` / ``idx2[1]`` are the absolute flat indices of each
        # stream's transition and observation uniforms — maintained
        # incrementally and consumed by one paired gather per step.
        idx2 = np.empty((2, N, B), dtype=np.int64)
        idx2[0] = (
            np.arange(N, dtype=np.int64)[:, None]
            + np.arange(B, dtype=np.int64)[None, :] * N
        ) * width
        idx2[1] = idx2[0] + 1
        state = np.zeros((N, B), dtype=np.int64)
        belief = np.empty((N, B))
        belief[:] = engine._initial_belief[:, None]
        tsr = np.zeros((N, B), dtype=np.int64)
        init_col = engine._initial_belief[:, None]
        deadline_col = engine._btr_deadline[:, None]
        tbase_col = engine._transition_node_base[:, None]
        like_base_col = self.like_base[:, None]

        # Deferred-metrics logs: everything integer is reconstructed from
        # these at finalize time.
        log_state = np.empty((horizon, N, B), dtype=np.uint8)
        log_recover = np.empty((horizon, N, B), dtype=bool)

        # Step buffers (allocated once per run).
        forced = np.empty((N, B), dtype=bool)
        ibuf = np.empty((N, B), dtype=np.int64)
        alive = np.empty((N, B), dtype=bool)
        reset = np.empty((N, B), dtype=bool)
        emb = np.empty((N, 4, B))
        prior = np.empty((N, 2, B))
        zh = np.empty((N, B))
        zc = np.empty((N, B))
        wh = np.empty((N, B))
        wc = np.empty((N, B))
        total = np.empty((N, B))
        ones = np.empty((N, B))
        use_rank = N <= _MAX_RANK_NODES
        if use_rank:
            # Precomputed per-uniform CDF ranks (memoized per buffer) in
            # step-major rows: a stream at within-stream draw ``k`` reads
            # its transition rank at flat ``k * 2NB + jb`` and its
            # observation rank (draw ``k + 1``) at ``+ 3NB``, so lock-step
            # streams gather from contiguous rows.  The sampled state is
            # gathered straight into this step's state-log row.
            ranks2 = self._uniform_ranks(uniforms)
            nb = N * B
            idx2[0] = (
                np.arange(N, dtype=np.int64)[:, None] * B
                + np.arange(B, dtype=np.int64)[None, :]
            )
            idx2[1] = idx2[0] + 3 * nb
            iuu = np.empty((2, N, B), dtype=np.int64)
            state = np.zeros((N, B), dtype=np.uint8)
            ns_live = np.empty((N, B), dtype=np.uint8)
            rank_len_col = self._rank_len[:, None]
            rank_base_col = self._rank_base[:, None]
            t_len_col = self._t_len[:, None]
            t_base_col = self._t_base[:, None]
        else:
            ns = np.empty((N, B), dtype=np.int64)
            uu = np.empty((2, N, B))
            u = uu[0]
            u2 = uu[1]
            g = np.empty((N, B))
            obs = np.empty((N, B), dtype=np.int64)
            c1 = np.empty((N, B), dtype=np.int64)
            c2 = np.empty((N, B), dtype=np.int64)
            obs_rows = np.empty((N, B, num_obs))
            obs_cmp = np.empty((N, B, num_obs), dtype=bool)
            obase_col = engine._observation_node_base[:, None]

        # Plain threshold strategies collapse the whole strategy phase to a
        # single broadcast compare (same `belief >= alpha` semantics).
        fast_thresholds = None
        if all(type(s) is ThresholdStrategy for s in strategies):
            fast_thresholds = np.array([s.alpha for s in strategies])[:, None]

        # Single-node fast path: rebind every per-step operand to a 1-D
        # ``(B,)`` view (same memory, same arithmetic) and the per-node
        # columns to scalars — less shape/broadcast machinery on each of
        # the ~30 kernel dispatches per step.
        flat1 = use_rank and N == 1
        if flat1:
            belief = belief.reshape(B)
            tsr = tsr.reshape(B)
            state = state.reshape(B)
            ns_live = ns_live.reshape(B)
            forced = forced.reshape(B)
            ibuf = ibuf.reshape(B)
            alive = alive.reshape(B)
            reset = reset.reshape(B)
            zh = zh.reshape(B)
            zc = zc.reshape(B)
            wh = wh.reshape(B)
            wc = wc.reshape(B)
            total = total.reshape(B)
            ones = ones.reshape(B)
            emb = emb.reshape(4, B)
            prior = prior.reshape(2, B)
            iuu = iuu.reshape(2, B)
            idx2 = idx2.reshape(2, B)
            init_col = float(engine._initial_belief[0])
            deadline_col = engine._btr_deadline[0]
            rank_len_col = self._rank_len[0]
            t_len_col = self._t_len[0]
            if fast_thresholds is not None:
                fast_thresholds = float(strategies[0].alpha)
            log_state_rows = log_state.reshape(horizon, B)
            log_recover_rows = log_recover.reshape(horizon, B)
        else:
            log_state_rows = log_state
            log_recover_rows = log_recover
        prior_h = prior[0] if flat1 else prior[:, 0]
        prior_c = prior[1] if flat1 else prior[:, 1]

        prof = profile
        for t in range(horizon):
            # -- strategy phase -------------------------------------------------
            if prof is not None:
                t0 = perf_counter_ns()
            # The recover mask is written straight into its log row (the
            # deferred-metrics log doubles as the step buffer).
            act = log_recover_rows[t]
            if fast_thresholds is not None:
                np.greater_equal(belief, fast_thresholds, out=act)
            elif flat1:
                act[...] = strategies[0].action_batch(belief, tsr)
            else:
                for j, strategy in enumerate(strategies):
                    act[j] = strategy.action_batch(belief[j], tsr[j])
            np.greater_equal(tsr, deadline_col, out=forced)
            np.logical_or(act, forced, out=act)
            if prof is not None:
                t1 = perf_counter_ns()
                prof.add("strategy", t1 - t0)
                t0 = t1

            # -- hidden-state transition ----------------------------------------
            np.multiply(act, 3, out=ibuf)
            np.add(ibuf, state, out=ibuf)
            if use_rank:
                # One paired gather pulls the precomputed transition and
                # observation ranks; the next state is a pure table read,
                # gathered directly into the state log.
                ranks2.take(idx2, out=iuu)
                np.multiply(ibuf, t_len_col, out=ibuf)
                if N > 1:
                    np.add(ibuf, t_base_col, out=ibuf)
                np.add(ibuf, iuu[0], out=ibuf)
                ns = log_state_rows[t]
                self._ns_tab.take(ibuf, out=ns)
                crash_any = bool(ns.max() >= _CRASHED)
            else:
                flat.take(idx2, out=uu)
                if N > 1:
                    np.add(ibuf, tbase_col, out=ibuf)
                self.tc0.take(ibuf, out=g)
                np.less_equal(g, u, out=c1)
                self.tc1.take(ibuf, out=g)
                np.less_equal(g, u, out=c2)
                np.add(c1, c2, out=ns)
                # c2 counts the second CDF column: nonzero iff a crash.
                crash_any = bool(c2.any())
                log_state[t] = ns
            if crash_any:
                np.greater_equal(ns, _CRASHED, out=reset)  # crashed streams ...
                np.logical_or(reset, act, out=reset)  # ... + recovers reset belief
                np.less(ns, _CRASHED, out=alive)
                if use_rank:
                    # Zero crashes outside the log row, which keeps raw states.
                    np.multiply(ns, alive, out=ns_live)
                    ns = ns_live
                else:
                    np.multiply(ns, alive, out=ns)  # crashed -> fresh healthy
            else:
                np.copyto(reset, act)
            if prof is not None:
                t1 = perf_counter_ns()
                prof.add("transition_sample", t1 - t0)
                t0 = t1

            # -- observation draw (crashed streams peek but do not consume) -----
            if use_rank:
                if crash_any:
                    # Advance 2 draws (rows), minus the crashed streams'
                    # unconsumed observation peek.
                    np.multiply(alive, 2 * nb, out=ibuf)
                    np.add(idx2[0], ibuf, out=idx2[0])
                    np.add(idx2[0], 2 * nb, out=idx2[0])
                    np.add(idx2[0], 3 * nb, out=idx2[1])
                else:
                    np.add(idx2, 4 * nb, out=idx2)
                # The gathered rank plus the live state (0/1, crashed
                # already zeroed) indexes the observation/likelihood tables.
                np.multiply(ns, rank_len_col, out=ibuf)
                if N > 1:
                    np.add(ibuf, rank_base_col, out=ibuf)
                np.add(ibuf, iuu[1], out=ibuf)
            else:
                if crash_any:
                    np.add(idx2[1], alive, out=idx2[0])
                else:
                    np.add(idx2[1], 1, out=idx2[0])
                np.add(idx2[0], 1, out=idx2[1])
                np.add(obase_col, ns, out=ibuf)
                np.take(engine._observation_cdf_flat, ibuf, axis=0, out=obs_rows)
                np.less_equal(obs_rows, u2[..., None], out=obs_cmp)
                np.sum(obs_cmp, axis=2, out=obs)
            if prof is not None:
                t1 = perf_counter_ns()
                prof.add("observation_draw", t1 - t0)
                t0 = t1

            # -- belief advance -------------------------------------------------
            self._embed(belief, act, emb, prior)
            if use_rank:
                self._zh_tab.take(ibuf, out=zh)
                self._zc_tab.take(ibuf, out=zc)
            else:
                idx = obs
                if N > 1:
                    np.add(obs, like_base_col, out=ibuf)
                    idx = ibuf
                self.like_healthy.take(idx, out=zh)
                self.like_compromised.take(idx, out=zc)
            self._posterior(prior_h, prior_c, zh, zc, wh, wc, total, ones, belief)
            np.copyto(belief, init_col, where=reset)
            np.add(tsr, 1, out=tsr)
            np.copyto(tsr, 0, where=reset)
            if prof is not None:
                t1 = perf_counter_ns()
                prof.add("belief_update", t1 - t0)
                t0 = t1

            if use_rank:
                # ``ns`` is the log row (or the crash-zeroed copy) — next
                # step reads it in place, no swap buffer needed.
                state = ns
            else:
                state, ns = ns, state
            if prof is not None:
                prof.steps += 1

        if prof is not None:
            t0 = perf_counter_ns()
        metrics = _metrics_from_logs(log_state, log_recover, scenario.f, engine._eta)
        if prof is not None:
            prof.add("bookkeeping", perf_counter_ns() - t0)
        total_cost = metrics["total_cost"]
        delay_sum = metrics["delay_sum"]
        delay_count = metrics["delay_count"]
        time_to_recovery = np.divide(
            delay_sum,
            delay_count,
            out=np.zeros((N, B)),
            where=delay_count > 0,
        )
        return BatchSimulationResult(
            average_cost=total_cost.T / horizon,
            time_to_recovery=time_to_recovery.T,
            recovery_frequency=metrics["recoveries"].T / horizon,
            num_recoveries=metrics["recoveries"].T,
            num_compromises=metrics["compromises"].T,
            steps=horizon,
            availability=(
                metrics["available"] / horizon if metrics["available"] is not None else None
            ),
        )


def _metrics_from_logs(
    log_state: np.ndarray,
    log_recover: np.ndarray,
    f: int | None,
    eta: np.ndarray,
) -> dict:
    """Reconstruct the episode metrics (cost included) from per-step logs.

    Exactly reproduces the eager per-step bookkeeping of
    :meth:`BatchRecoveryEngine.step` (including end-of-episode censoring of
    unresolved compromises), processed in episode chunks so the boolean
    temporaries stay cache-sized.  A compromise window opens at a
    healthy/crash-replaced ``-> C`` transition and closes on recover, crash
    or software-update restoration; the open flag follows the recurrence
    ``open_t = new_comp_t | (open_{t-1} & ~close_t)``, a window's delay
    contribution is the number of steps it stayed open (which makes
    end-of-episode censoring automatic), and every opened window resolves or
    is censored exactly once, so the window count equals the number of
    openings.  ``total_cost`` — the one float metric — takes per-step values
    in ``{0, 1, eta}``; when every ``eta`` is integer-valued (the paper
    default ``eta = 2``) all partial sums are exact small integers and the
    reduction order is free, otherwise the accumulation replays the eager
    step order so float non-associativity cannot shift the result.
    """
    horizon, num_nodes, num_episodes = log_state.shape
    shape = (num_nodes, num_episodes)
    recoveries = np.empty(shape, dtype=np.int64)
    compromises = np.empty(shape, dtype=np.int64)
    delay_sum = np.empty(shape, dtype=np.int64)
    total_cost = np.empty(shape)
    available = np.empty(num_episodes, dtype=np.int64) if f is not None else None
    eta_col = eta[:, None]
    # With integer eta every step cost is a small integer, so float sums of
    # them are exact in any order and the cost reduction can be vectorized;
    # otherwise the accumulation must replay the eager step order.
    int_eta = bool(np.all(eta == np.rint(eta)))
    step = max(1, _METRICS_CHUNK_ELEMS // max(1, horizon * num_nodes))
    for b0 in range(0, num_episodes, step):
        s = slice(b0, min(b0 + step, num_episodes))
        width = s.stop - s.start
        ns = log_state[:, :, s]
        rec = log_recover[:, :, s]
        is_c = ns == _COMPROMISED
        recoveries[:, s] = rec.sum(axis=0, dtype=np.int64)
        new_comp = np.empty_like(is_c)
        new_comp[0] = is_c[0]
        np.logical_and(is_c[1:], np.logical_not(is_c[:-1]), out=new_comp[1:])
        compromises[:, s] = new_comp.sum(axis=0, dtype=np.int64)
        # still == ~close: the window survives iff compromised and no recover.
        still = np.logical_and(is_c, np.logical_not(rec))
        if int_eta:
            # The state *entering* step t is ns[t - 1] with crashes replaced
            # by fresh healthy nodes: compromised exactly when is_c[t - 1].
            cost = np.zeros(is_c.shape)
            np.multiply(is_c[:-1], eta_col, out=cost[1:])
            np.copyto(cost, 1.0, where=rec)
            total_cost[:, s] = cost.sum(axis=0)
        else:
            acc = np.zeros((num_nodes, width))
            cost_t = np.empty((num_nodes, width))
            prev = np.zeros((num_nodes, width), dtype=bool)
            for t in range(horizon):
                np.multiply(prev, eta_col, out=cost_t)
                np.copyto(cost_t, 1.0, where=rec[t])
                np.add(acc, cost_t, out=acc)
                prev = is_c[t]
            total_cost[:, s] = acc
        # Sequential open-window recurrence: open_t = new_t | (open_{t-1} &
        # still_t).  The delay sum counts one step per open window per step
        # (end-of-episode censoring included for free), and the window count
        # equals the number of window openings, i.e. ``compromises``.
        open_ = np.zeros((num_nodes, width), dtype=bool)
        dsum = np.zeros((num_nodes, width), dtype=np.int64)
        for t in range(horizon):
            np.logical_and(open_, still[t], out=open_)
            np.logical_or(open_, new_comp[t], out=open_)
            np.add(dsum, open_, out=dsum)
        delay_sum[:, s] = dsum
        if available is not None:
            failed = np.logical_or(is_c, ns == _CRASHED)
            available[s] = (failed.sum(axis=1) <= f).sum(axis=0)
    return {
        "recoveries": recoveries,
        "compromises": compromises,
        "delay_sum": delay_sum.astype(float),
        "delay_count": compromises.copy(),
        "total_cost": total_cost,
        "available": available,
    }
