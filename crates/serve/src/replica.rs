//! One modeled replica: a GPU, a KV-pool shard, and the continuous-batching
//! engine step that advances it on the shared simulated clock.
//!
//! One *iteration* = one fused GPU schedule over every resident request:
//! decode requests contribute one row each at their current context length,
//! prefilling requests contribute a chunk of rows (chunked prefill). The
//! replica's GPU prices the iteration; the replica clock advances by that
//! much and the scheduler state steps. Eviction policy: when a decode row
//! cannot grow its KV allocation, the *youngest* running request is evicted
//! (its pages are handed back to the fleet, which may migrate them to a
//! sibling replica over the interconnect); the oldest running request is
//! never evicted, so the head of the line always progresses and the loop
//! terminates.
//!
//! In a *disaggregated* fleet a replica additionally carries a [`Role`]: a
//! `Prefill` replica runs only chunked prefill and, on a request's final
//! prefill chunk (the one whose forward pass emits the first token), hands
//! the request off — its KV pages leave this pool and stream over the
//! interconnect to a decode replica the fleet picks. A `Decode` replica
//! takes no fresh arrivals; it receives handed-off KV and decodes. `Unified`
//! is the classic colocated engine doing both.

use crate::engine::IterationPlanner;
use crate::error::Error;
use crate::kv::KvPool;
use crate::request::{Policy, ServeConfig};
use resoftmax_gpusim::{DeviceSpec, Gpu, Timeline};
use resoftmax_model::{price_batched_decode, ModelConfig, RunParams};

/// A replica's serving role in a (possibly disaggregated) fleet.
///
/// Prefill is DRAM-traffic-bound and decode is latency-bound, so dedicating
/// replicas per phase lets each run the batch shape it is good at: prefill
/// replicas never stall a prompt behind a decode batch, and decode replicas
/// never see a prompt chunk inflate an iteration. The price is the KV
/// handoff: the finished prefill's cache crosses the interconnect before
/// the first decode step can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Runs only chunked prefill; on a request's final prefill chunk its KV
    /// pages stream to a decode replica over the link.
    Prefill,
    /// Receives handed-off KV and decodes. Takes no fresh arrivals (it can
    /// still re-prefill a resident request that lost its cache to memory
    /// pressure — tracked as `decode_side_prefill_tokens`).
    Decode,
    /// Classic colocated serving: prefill and decode on one engine.
    Unified,
}

impl Role {
    /// Stable lowercase name, used in report rows.
    pub fn name(self) -> &'static str {
        match self {
            Role::Prefill => "prefill",
            Role::Decode => "decode",
            Role::Unified => "unified",
        }
    }

    /// `true` when this replica is routed fresh arrivals and displaced
    /// requests that still owe prefill work.
    pub fn prefill_capable(self) -> bool {
        matches!(self, Role::Prefill | Role::Unified)
    }

    /// `true` when this replica is routed KV handoffs and displaced
    /// decode-phase requests.
    pub fn decode_capable(self) -> bool {
        matches!(self, Role::Decode | Role::Unified)
    }
}

/// Fleet-level scheduling state of one request.
#[derive(Debug, Clone)]
pub(crate) struct ReqState {
    pub arrival_s: f64,
    /// Session the request belongs to (cache-affinity routing key).
    pub session: u64,
    pub prompt: usize,
    pub decode: usize,
    /// Output tokens emitted so far (survives eviction/failure — the text
    /// already reached the client).
    pub generated: usize,
    /// Tokens resident in the KV cache (zeroed by eviction or replica
    /// failure; preserved across a successful migration).
    pub cached: usize,
    /// Pool blocks held on the replica currently hosting the request.
    pub blocks: u64,
    /// Earliest simulated time the request can run (arrival time, or the
    /// completion of an in-flight KV migration or prefill→decode handoff).
    pub ready_s: f64,
    pub first_token_s: Option<f64>,
    /// Emission time of the latest output token (meaningful once
    /// `generated > 0`): the TBT sample for token *k+1* is the simulated
    /// gap since token *k*, which charges eviction re-queues and in-flight
    /// handoffs to the tokens they actually delay.
    pub last_token_s: f64,
}

impl ReqState {
    /// Tokens that must be resident in the KV cache before the next decode
    /// row can run: the prompt, plus every already-emitted token except the
    /// latest (the next decode pass embeds that one and writes its KV
    /// entry). Before the first token, the whole prompt — its final prefill
    /// chunk computes the logits that emit token one.
    pub fn prefill_target(&self) -> usize {
        if self.generated == 0 {
            self.prompt
        } else {
            self.prompt + self.generated - 1
        }
    }

    pub fn remaining_work(&self) -> usize {
        (self.prefill_target() - self.cached) + (self.decode - self.generated)
    }
}

enum Row {
    Prefill { id: usize, chunk: usize },
    Decode { id: usize },
}

/// One modeled replica of the fleet.
// The lifecycle flags (accepting/drained/failed/standby/warming) are
// deliberately independent booleans: drained+standby and failed+warming
// are reachable, so an enum would misstate the state space.
#[allow(clippy::struct_excessive_bools)]
pub(crate) struct Replica {
    pub id: usize,
    pub device: DeviceSpec,
    pub role: Role,
    pub gpu: Gpu,
    pub pool: KvPool,
    /// Simulated time this replica is committed through (busy-until).
    pub clock_s: f64,
    /// `false` once drained or failed: the router no longer sees it.
    pub accepting: bool,
    pub drained: bool,
    pub failed: bool,
    /// `true` while parked out of rotation as scale-up spare capacity
    /// (distinct from drained: a standby replica can come back).
    pub standby: bool,
    /// `true` while a control-plane scale-up warm-up transfer is in flight.
    pub warming: bool,
    /// Requests in the current continuous batch, admission order (oldest
    /// first — index 0 is never evicted).
    pub running: Vec<usize>,
    /// Admission queue (request ids; entries may hold migrated-in block
    /// reservations and per-request `ready_s` gates).
    pub waiting: Vec<usize>,
    // Accounting.
    pub iterations: usize,
    pub evictions: usize,
    pub completed: usize,
    pub prefill_tokens: u64,
    pub decode_tokens: u64,
    pub handoffs_in: usize,
    pub handoffs_out: usize,
    pub preemptions: usize,
    pub busy_s: f64,
    pub occ_sum: f64,
    pub occ_n: usize,
    /// Accumulated simulated kernel timeline, exported as this replica's
    /// trace stream (`Some` only while tracing is enabled).
    pub timeline: Option<Timeline>,
}

/// Fleet-level accumulators a step writes into.
#[derive(Debug, Default)]
pub(crate) struct StepAcc {
    pub ttft: Vec<f64>,
    pub tbt: Vec<f64>,
    pub completed: usize,
    pub last_completion_s: f64,
}

/// What one engine iteration hands back to the fleet for re-routing.
#[derive(Debug, Default)]
pub(crate) struct StepOutcome {
    /// Requests evicted this iteration, in eviction order; the fleet decides
    /// whether their KV pages migrate to a sibling or drop.
    pub evicted: Vec<usize>,
    /// Requests that finished their prefill on a `Prefill` replica this
    /// iteration and still owe decode tokens: their KV pages have left this
    /// pool and must be priced across the link to a decode replica.
    pub handoffs: Vec<usize>,
}

impl Replica {
    pub fn new(id: usize, device: DeviceSpec, role: Role, pool: KvPool) -> Self {
        Replica {
            id,
            gpu: Gpu::new(device.clone()),
            device,
            role,
            pool,
            clock_s: 0.0,
            accepting: true,
            drained: false,
            failed: false,
            standby: false,
            warming: false,
            running: Vec::new(),
            waiting: Vec::new(),
            iterations: 0,
            evictions: 0,
            completed: 0,
            prefill_tokens: 0,
            decode_tokens: 0,
            handoffs_in: 0,
            handoffs_out: 0,
            preemptions: 0,
            busy_s: 0.0,
            occ_sum: 0.0,
            occ_n: 0,
            timeline: None,
        }
    }

    /// The next simulated time this replica can act, or `None` when it has
    /// nothing to do (idle, drained, or failed with empty queues).
    pub fn next_time(&self, states: &[ReqState]) -> Option<f64> {
        if !self.running.is_empty() {
            return Some(self.clock_s);
        }
        self.waiting
            .iter()
            .map(|&id| states[id].ready_s)
            .min_by(f64::total_cmp)
            .map(|ready| ready.max(self.clock_s))
    }

    /// Frees every block `id` holds here (eviction, migration, drain).
    pub fn release(&mut self, states: &mut [ReqState], id: usize) {
        if states[id].blocks > 0 {
            self.pool.free(states[id].blocks);
            states[id].blocks = 0;
        }
    }

    /// Evicts the youngest running request (caller guarantees the tail is
    /// nonempty) and returns its id; the fleet decides whether its KV pages
    /// migrate or drop.
    fn evict_youngest(&mut self, states: &mut [ReqState]) -> usize {
        let victim = self.running.pop().expect("nonempty running tail");
        self.release(states, victim);
        self.evictions += 1;
        victim
    }

    /// Reclaims the block reservation of the waiting request closest to the
    /// queue tail (skipping `keep`); returns `false` when no waiting entry
    /// holds blocks. Reclaimed requests lose their cache and re-prefill.
    fn reclaim_waiting_blocks(&mut self, states: &mut [ReqState], keep: usize) -> bool {
        let Some(pos) = self
            .waiting
            .iter()
            .rposition(|&v| v != keep && states[v].blocks > 0)
        else {
            return false;
        };
        let v = self.waiting[pos];
        self.release(states, v);
        states[v].cached = 0;
        self.evictions += 1;
        true
    }

    /// Admission: strict head-of-line over the ready part of the waiting
    /// queue — a request is admitted only if the pool covers its full
    /// resident context (migrated-in requests already hold part of it).
    /// Under [`Policy::PreemptivePriority`] a full batch may additionally
    /// *preempt* running decodes for ready prefill-owing waiters (see
    /// [`preempt_for_prefill`](Self::preempt_for_prefill)).
    fn admit(&mut self, states: &mut [ReqState], cfg: &ServeConfig) {
        match cfg.policy {
            Policy::Fifo => {}
            Policy::ShortestRemaining => {
                self.waiting
                    .sort_by_key(|&id| (states[id].remaining_work(), id));
            }
            Policy::PreemptivePriority => {
                // Prefill-owing waiters first (arrival order within each
                // class): a prompt burst should not queue behind decode
                // re-admissions.
                self.waiting
                    .sort_by_key(|&id| (states[id].cached >= states[id].prefill_target(), id));
            }
        }
        while self.running.len() < cfg.max_batch {
            let Some(pos) = self
                .waiting
                .iter()
                .position(|&id| states[id].ready_s <= self.clock_s)
            else {
                break;
            };
            let id = self.waiting[pos];
            let need = self.pool.blocks_for(states[id].prefill_target());
            let extra = need.saturating_sub(states[id].blocks);
            if extra > 0 && !self.pool.try_alloc(extra) {
                // Reclaim migrated-in reservations parked further down the
                // queue before declaring head-of-line blockage.
                while !self.pool.can_alloc(extra) {
                    if !self.reclaim_waiting_blocks(states, id) {
                        break;
                    }
                }
                if !self.pool.try_alloc(extra) {
                    break;
                }
            }
            states[id].blocks = states[id].blocks.max(need);
            self.waiting.remove(pos);
            self.running.push(id);
        }
        if cfg.policy == Policy::PreemptivePriority && self.running.len() == cfg.max_batch {
            self.preempt_for_prefill(states, cfg);
        }
    }

    /// With the batch full, swaps running decode-phase requests out for
    /// ready prefill-owing waiters. Preemption frees a *batch slot*, not
    /// memory: the victim keeps its KV blocks and `cached` tokens, so its
    /// later re-admission allocates nothing (analyzer-clean) and decode
    /// resumes exactly where it stopped. The victim is the running request
    /// with the most decode tokens still owed (ties to the youngest), never
    /// the oldest (index 0) — the head of the line always progresses, so
    /// the loop-termination argument is untouched. Waiters whose KV pages
    /// would not fit do not trigger a preemption (the slot would go idle).
    fn preempt_for_prefill(&mut self, states: &mut [ReqState], cfg: &ServeConfig) {
        loop {
            let Some(pos) = self.waiting.iter().position(|&id| {
                let st = &states[id];
                let extra = self
                    .pool
                    .blocks_for(st.prefill_target())
                    .saturating_sub(st.blocks);
                st.ready_s <= self.clock_s
                    && st.cached < st.prefill_target()
                    && self.pool.can_alloc(extra)
            }) else {
                return;
            };
            // The victim: a running decode-phase request (its preserved KV
            // is exactly resumable), most decode tokens owed, youngest on
            // ties, never index 0.
            let Some(victim_i) = self
                .running
                .iter()
                .enumerate()
                .skip(1)
                .filter(|&(_, &v)| {
                    states[v].generated > 0 && states[v].cached == states[v].prefill_target()
                })
                .max_by_key(|&(_, &v)| (states[v].decode - states[v].generated, v))
                .map(|(i, _)| i)
            else {
                return;
            };
            let victim = self.running.remove(victim_i);
            self.waiting.push(victim);
            self.preemptions += 1;

            let id = self.waiting[pos];
            let need = self.pool.blocks_for(states[id].prefill_target());
            let extra = need.saturating_sub(states[id].blocks);
            let granted = extra == 0 || self.pool.try_alloc(extra);
            debug_assert!(granted, "preemption candidate was can_alloc-checked");
            if granted {
                states[id].blocks = states[id].blocks.max(need);
                self.waiting.remove(pos);
                self.running.push(id);
            }
            if self.running.len() < cfg.max_batch {
                return;
            }
        }
    }

    /// Runs one engine iteration at `self.clock_s` (the caller has already
    /// advanced it to this replica's next-action time). Returns the evicted
    /// and handed-off request ids for the fleet to re-route.
    pub fn step(
        &mut self,
        states: &mut [ReqState],
        cfg: &ServeConfig,
        model: &ModelConfig,
        params: &RunParams,
        planner: &dyn IterationPlanner,
        acc: &mut StepAcc,
    ) -> Result<StepOutcome, Error> {
        self.admit(states, cfg);

        // Build this iteration's rows, oldest request first. Decode rows
        // grow their KV allocation up front; on exhaustion they evict
        // younger requests (never older ones, and never already-granted
        // ones — victims sit strictly later in `running`).
        let mut ctxs: Vec<usize> = Vec::new();
        let mut rows: Vec<Row> = Vec::new();
        let mut evicted: Vec<usize> = Vec::new();
        let mut i = 0usize;
        while i < self.running.len() {
            let id = self.running[i];
            let (target, cached) = (states[id].prefill_target(), states[id].cached);
            if cached < target {
                let chunk = (target - cached).min(cfg.prefill_chunk);
                ctxs.extend((1..=chunk).map(|t| cached + t));
                rows.push(Row::Prefill { id, chunk });
            } else {
                let need = self.pool.blocks_for(cached + 1);
                let mut granted = need <= states[id].blocks;
                while !granted {
                    if self.pool.try_alloc(need - states[id].blocks) {
                        states[id].blocks = need;
                        granted = true;
                    } else if self.running.len() > i + 1 {
                        let victim = self.evict_youngest(states);
                        evicted.push(victim);
                    } else if self.reclaim_waiting_blocks(states, id) {
                        // Waiting reservations are the only holders left.
                    } else if i > 0 {
                        // Nobody left to evict; this request merely waits.
                        break;
                    } else {
                        // The build-time capacity check guarantees the
                        // oldest request can always grow.
                        return Err(Error::Stalled {
                            reason: format!(
                                "replica {}: oldest request {id} starved despite the \
                                 capacity check",
                                self.id
                            ),
                        });
                    }
                }
                if granted {
                    ctxs.push(cached + 1);
                    rows.push(Row::Decode { id });
                }
            }
            i += 1;
        }
        if ctxs.is_empty() {
            return Err(Error::Stalled {
                reason: format!("replica {} stepped with no runnable rows", self.id),
            });
        }

        // Price the fused iteration on this replica's GPU. Pricing drains
        // cost state (and flushes L2) so one `Gpu` serves the whole run
        // without re-paying construction per iteration. A traced run keeps
        // the timeline, its repeated layers still a count.
        let span = resoftmax_obs::span("serve.iteration", "serve");
        let iter_params = planner.plan(&ctxs, params);
        let priced = price_batched_decode(&mut self.gpu, model, &ctxs, &iter_params)?;
        let dt = priced.total_time_s();
        drop(span);
        if let Some(acc_tl) = &mut self.timeline {
            acc_tl.extend_from(&priced);
        }
        self.clock_s += dt;
        self.busy_s += dt;
        self.iterations += 1;
        self.occ_sum += self.pool.occupancy();
        self.occ_n += 1;

        // Step the per-request state.
        let mut finished: Vec<usize> = Vec::new();
        let mut handoffs: Vec<usize> = Vec::new();
        let mut complete = |st: &mut ReqState, id: usize, pool: &mut KvPool, n: &mut usize| {
            pool.free(st.blocks);
            st.blocks = 0;
            finished.push(id);
            *n += 1;
            acc.completed += 1;
            acc.last_completion_s = acc.last_completion_s.max(self.clock_s);
        };
        for row in rows {
            match row {
                Row::Prefill { id, chunk } => {
                    let st = &mut states[id];
                    st.cached += chunk;
                    self.prefill_tokens += chunk as u64;
                    if st.generated == 0 && st.cached == st.prompt {
                        // The final prompt chunk's forward pass produces the
                        // logits for the first output token: TTFT is *this*
                        // completion, not the first decode iteration's.
                        st.generated = 1;
                        self.decode_tokens += 1;
                        st.first_token_s = Some(self.clock_s);
                        st.last_token_s = self.clock_s;
                        acc.ttft.push(self.clock_s - st.arrival_s);
                        if st.generated == st.decode {
                            complete(st, id, &mut self.pool, &mut self.completed);
                        } else if self.role == Role::Prefill {
                            // Prefill-only replica: the request owes decode
                            // tokens, so its KV pages leave for the decode
                            // side. (TBT for token two starts ticking now —
                            // the link transfer shows up in that gap.)
                            handoffs.push(id);
                        }
                    } else if st.generated > 0
                        && st.cached == st.prefill_target()
                        && self.role == Role::Prefill
                    {
                        // A displaced request re-prefilled its lost cache
                        // here; no token is emitted (the next decode pass
                        // does that), but the restored KV now hands off.
                        handoffs.push(id);
                    }
                }
                Row::Decode { id } => {
                    let st = &mut states[id];
                    st.cached += 1;
                    st.generated += 1;
                    self.decode_tokens += 1;
                    debug_assert!(
                        st.first_token_s.is_some(),
                        "decode rows only run after the prefill that emits token one"
                    );
                    // TBT is the simulated gap between consecutive output
                    // tokens, not the iteration time: eviction re-queues and
                    // prefill→decode handoffs land in the token they delay.
                    acc.tbt.push(self.clock_s - st.last_token_s);
                    st.last_token_s = self.clock_s;
                    if st.generated == st.decode {
                        complete(st, id, &mut self.pool, &mut self.completed);
                    }
                }
            }
        }
        for &id in &handoffs {
            // The KV pages depart over the link: free this pool's blocks but
            // keep `cached` — the decode side receives the pages, it does
            // not recompute them.
            self.release(states, id);
            self.handoffs_out += 1;
        }
        if !finished.is_empty() || !handoffs.is_empty() {
            self.running
                .retain(|id| !finished.contains(id) && !handoffs.contains(id));
        }
        Ok(StepOutcome { evicted, handoffs })
    }
}
