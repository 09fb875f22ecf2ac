//! Buffer def-use analysis over the schedule's [`BufferUse`] declarations.
//!
//! The schedule is a straight-line program whose "variables" are the named
//! device buffers; kernels are its statements. Within one kernel, reads
//! observe the *old* contents and writes happen after — in-place updates
//! (scale/mask rewriting the score matrix, fused bias epilogues) are
//! therefore ordinary read-then-write events, not hazards.
//!
//! Checks:
//!
//! * **use-before-def** — a buffer is read before any kernel wrote it.
//!   Buffers the schedule never writes at all are external inputs (token
//!   ids, weights) and exempt — *except* the attention intermediates
//!   (`scores`, `x'`, `m'`, `d'`, `r'`, `probs`, `q`/`k`/`v`, `attn_out`),
//!   which by construction must be produced in-schedule; a renamed or
//!   dropped producer surfaces here.
//! * **dead store** — a write no later kernel reads (the final layer
//!   boundary `l{layers}.x` is the schedule's sink and exempt).
//! * **WAW hazard** — a buffer overwritten with no intervening reader: the
//!   first write was wasted work.
//! * **shape** — all uses of a buffer must declare the same byte count, and
//!   buffers with a known role must match the size implied by the run
//!   dimensions (`L`, `N_sv`, FP16 element width).
//!
//! [`BufferUse`]: resoftmax_gpusim::BufferUse

use crate::diagnostic::{Diagnostic, Rule};
use crate::spec::ScheduleSpec;
use resoftmax_gpusim::{BufferId, KernelDesc, Scope};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const FP16_BYTES: u64 = 2;

/// One read or write of a buffer: `slot` numbers the buffer by first use.
#[derive(Debug, Clone, Copy)]
struct Event {
    slot: usize,
    kernel: usize,
    is_write: bool,
    bytes: u64,
}

/// Buffer roles that must be produced by the schedule itself; reading one
/// that nothing writes is a wiring bug, not an external input.
fn is_attention_intermediate(role: &str) -> bool {
    matches!(
        role,
        "scores"
            | "probs"
            | "x_prime"
            | "m_prime"
            | "d_prime"
            | "r_prime"
            | "q"
            | "k"
            | "v"
            | "attn_out"
    )
}

/// The byte counts the run dimensions imply for the buffers of known role,
/// worked out once per schedule.
struct Expected {
    attn: u64,
    intermediate: u64,
    head: u64,
    row: u64,
    ff: u64,
}

impl Expected {
    fn new(spec: &ScheduleSpec) -> Self {
        let inst = spec.instances();
        let l = spec.seq_len as u64;
        let rows = (spec.seq_len * spec.batch) as u64;
        let heads = spec.heads as u64;
        // Batched decode: each row's score slice and m'/d'/r' plane are sized
        // by its own context length, so the sizes are per-row sums.
        let attn = match (&spec.decode, &spec.sparse) {
            (Some(dec), _) => dec.total_ctx() * FP16_BYTES * heads,
            (None, Some(s)) => s.nnz_elements() as u64 * FP16_BYTES * inst,
            (None, None) => l * spec.seq_len as u64 * FP16_BYTES * inst,
        };
        let intermediate = match (&spec.decode, &spec.sparse) {
            (Some(dec), _) => dec.total_sub_vectors(spec.tile_n) * FP16_BYTES * heads,
            (None, Some(s)) => s.intermediate_elements() as u64 * FP16_BYTES * inst,
            (None, None) => {
                let n_sv = (spec.seq_len / spec.tile_n).max(1) as u64;
                l * n_sv * FP16_BYTES * inst
            }
        };
        Expected {
            attn,
            intermediate,
            head: l * spec.d_head() as u64 * FP16_BYTES * inst,
            row: rows * spec.d_model as u64 * FP16_BYTES,
            ff: rows * spec.d_ff as u64 * FP16_BYTES,
        }
    }

    /// The byte count of a buffer of `role`; `None` for buffers the
    /// analyzer has no formula for (token ids, model-specific extras).
    fn bytes(&self, role: &str) -> Option<u64> {
        match role {
            "scores" | "probs" | "x_prime" => Some(self.attn),
            "m_prime" | "d_prime" | "r_prime" => Some(self.intermediate),
            "q" | "k" | "v" | "attn_out" => Some(self.head),
            "x" | "proj" | "ln1" | "ff2" => Some(self.row),
            "ff1" => Some(self.ff),
            _ => None,
        }
    }
}

/// A multiply-rotate hash over each written word (rustc's FxHash): a few
/// cycles per id where the default SipHash costs tens of nanoseconds, and
/// ample spread for a schedule's few hundred buffers.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let word = chunk
                .iter()
                .rev()
                .fold(0, |word, &b| word << 8 | u64::from(b));
            self.add(word);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Runs the def-use checks over the whole schedule.
///
/// Uses are grouped by typed id. Each buffer's diagnostics are then emitted
/// in the order of the buffers' rendered names, so a report reads the same
/// whatever order the kernels first touched them in.
pub fn check(spec: &ScheduleSpec, kernels: &[KernelDesc], diags: &mut Vec<Diagnostic>) {
    let n_uses = kernels.iter().map(|k| k.reads.len() + k.writes.len()).sum();
    let mut slots: HashMap<BufferId, usize, BuildHasherDefault<FxHasher>> =
        HashMap::with_capacity_and_hasher(n_uses, BuildHasherDefault::default());
    let mut ids = Vec::new();
    let mut events = Vec::with_capacity(n_uses);
    for (kernel, k) in kernels.iter().enumerate() {
        let uses = (k.reads.iter().map(|b| (b, false))).chain(k.writes.iter().map(|b| (b, true)));
        for (b, is_write) in uses {
            let slot = *slots.entry(b.id).or_insert_with(|| {
                ids.push(b.id);
                ids.len() - 1
            });
            events.push(Event {
                slot,
                kernel,
                is_write,
                bytes: b.bytes,
            });
        }
    }
    // Stable: each buffer's events stay in schedule order, a kernel's reads
    // before its writes.
    events.sort_by_key(|e| e.slot);

    let sink = Scope::layer(spec.layers).id("x");
    let expected = Expected::new(spec);
    let mut flagged: Vec<(String, Vec<Diagnostic>)> = Vec::new();
    for events in events.chunk_by(|a, b| a.slot == b.slot) {
        let id = ids[events[0].slot];
        // Weights have no role-based rule; every other id is checked by its
        // role within its scope.
        let role = (!id.is_weight()).then(|| id.role());
        let mut found = Vec::new();
        check_def_use(kernels, id, role, events, sink, &mut found);
        check_shape(&expected, id, role, events, &mut found);
        if !found.is_empty() {
            flagged.push((id.to_string(), found));
        }
    }
    flagged.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
    diags.extend(flagged.into_iter().flat_map(|(_, found)| found));
}

fn check_def_use(
    kernels: &[KernelDesc],
    id: BufferId,
    role: Option<&str>,
    events: &[Event],
    sink: BufferId,
    diags: &mut Vec<Diagnostic>,
) {
    let first_write = events.iter().find(|e| e.is_write);
    match first_write {
        None => {
            // Never written: an external input — unless it's an attention
            // intermediate, which the schedule itself must produce.
            if role.is_some_and(is_attention_intermediate) {
                let reader = events[0].kernel;
                diags.push(Diagnostic::error(
                    Rule::DataflowUseBeforeDef,
                    reader,
                    format!(
                        "`{}` reads `{id}`, an attention intermediate no kernel writes",
                        kernels[reader].name
                    ),
                ));
            }
            return;
        }
        Some(w) => {
            for e in events.iter().take_while(|e| !e.is_write) {
                if e.kernel < w.kernel {
                    diags.push(Diagnostic::error(
                        Rule::DataflowUseBeforeDef,
                        e.kernel,
                        format!(
                            "`{}` reads `{id}` before its first writer (`{}`, kernel #{}) runs",
                            kernels[e.kernel].name, kernels[w.kernel].name, w.kernel
                        ),
                    ));
                }
            }
        }
    }

    // Dead store: no read event after the last write event.
    let last_write_pos = events
        .iter()
        .rposition(|e| e.is_write)
        .expect("has a write");
    let read_after = events[last_write_pos + 1..].iter().any(|e| !e.is_write);
    if !read_after && id != sink {
        let k = events[last_write_pos].kernel;
        diags.push(Diagnostic::warning(
            Rule::DataflowDeadStore,
            k,
            format!(
                "`{}` writes `{id}` but no later kernel reads it",
                kernels[k].name
            ),
        ));
    }

    // WAW hazard: two writes from different kernels with no read between.
    let mut last: Option<&Event> = None;
    for e in events {
        if e.is_write {
            if let Some(prev) = last {
                if prev.is_write && prev.kernel != e.kernel {
                    diags.push(Diagnostic::warning(
                        Rule::DataflowWawHazard,
                        e.kernel,
                        format!(
                            "`{}` overwrites `{id}` though nothing read the value \
                             `{}` (kernel #{}) wrote",
                            kernels[e.kernel].name, kernels[prev.kernel].name, prev.kernel
                        ),
                    ));
                }
            }
        }
        last = Some(e);
    }
}

fn check_shape(
    expected: &Expected,
    id: BufferId,
    role: Option<&str>,
    events: &[Event],
    diags: &mut Vec<Diagnostic>,
) {
    let first = events[0].bytes;
    if let Some(e) = events.iter().find(|e| e.bytes != first) {
        diags.push(Diagnostic::error(
            Rule::DataflowShape,
            e.kernel,
            format!(
                "`{id}` is used with conflicting resident footprints: {first} B vs {} B",
                e.bytes
            ),
        ));
        return; // one size conflict per buffer is enough
    }
    if let Some(expected) = role.and_then(|role| expected.bytes(role)) {
        if first != expected {
            diags.push(Diagnostic::error(
                Rule::DataflowShape,
                events[0].kernel,
                format!("`{id}` has footprint {first} B but the run dimensions imply {expected} B"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScheduleSpec;
    use resoftmax_gpusim::{KernelCategory, KernelDesc};

    fn spec() -> ScheduleSpec {
        let mut s = ScheduleSpec::dense_test(1024, 1);
        s.layers = 1;
        s
    }

    fn attn_bytes(s: &ScheduleSpec) -> u64 {
        (s.seq_len * s.seq_len * 2) as u64 * s.instances()
    }

    #[test]
    fn clean_chain_passes() {
        let s = spec();
        let a = attn_bytes(&s);
        let mut qk = KernelDesc::builder("qk", KernelCategory::MatMulQk);
        qk.reads("tokens", 100).writes("l0.scores", a);
        let mut sm = KernelDesc::builder("sm", KernelCategory::Softmax);
        sm.reads("l0.scores", a)
            .writes("l1.x", (s.seq_len * s.d_model * 2) as u64);
        let mut diags = Vec::new();
        check(&s, &[qk.build(), sm.build()], &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn in_place_update_is_not_a_hazard() {
        let s = spec();
        let a = attn_bytes(&s);
        let mut qk = KernelDesc::builder("qk", KernelCategory::MatMulQk);
        qk.writes("l0.scores", a);
        let mut scale = KernelDesc::builder("scale", KernelCategory::Scale);
        scale.reads("l0.scores", a).writes("l0.scores", a);
        let mut sm = KernelDesc::builder("sm", KernelCategory::Softmax);
        sm.reads("l0.scores", a)
            .writes("l1.x", (s.seq_len * s.d_model * 2) as u64);
        let mut diags = Vec::new();
        check(&s, &[qk.build(), scale.build(), sm.build()], &mut diags);
        assert!(
            !diags.iter().any(|d| d.rule == Rule::DataflowWawHazard),
            "{diags:?}"
        );
    }

    #[test]
    fn unwritten_intermediate_is_use_before_def() {
        let s = spec();
        let mut pv = KernelDesc::builder("pv", KernelCategory::MatMulPv);
        pv.reads("l0.probs", attn_bytes(&s));
        let mut diags = Vec::new();
        check(&s, &[pv.build()], &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::DataflowUseBeforeDef && d.kernel == Some(0)));
    }

    #[test]
    fn read_before_later_writer_is_flagged() {
        let s = spec();
        let a = attn_bytes(&s);
        let mut sm = KernelDesc::builder("sm", KernelCategory::Softmax);
        sm.reads("l0.scores", a);
        let mut qk = KernelDesc::builder("qk", KernelCategory::MatMulQk);
        qk.writes("l0.scores", a);
        let mut diags = Vec::new();
        check(&s, &[sm.build(), qk.build()], &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::DataflowUseBeforeDef && d.kernel == Some(0)));
        // ... and the now-unread write is dead.
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::DataflowDeadStore && d.kernel == Some(1)));
    }

    #[test]
    fn waw_without_reader_is_flagged() {
        let s = spec();
        let a = attn_bytes(&s);
        let mut qk1 = KernelDesc::builder("qk1", KernelCategory::MatMulQk);
        qk1.writes("l0.scores", a);
        let mut qk2 = KernelDesc::builder("qk2", KernelCategory::MatMulQk);
        qk2.writes("l0.scores", a);
        let mut sm = KernelDesc::builder("sm", KernelCategory::Softmax);
        sm.reads("l0.scores", a)
            .writes("l1.x", (s.seq_len * s.d_model * 2) as u64);
        let mut diags = Vec::new();
        check(&s, &[qk1.build(), qk2.build(), sm.build()], &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::DataflowWawHazard && d.kernel == Some(1)));
    }

    #[test]
    fn sink_write_is_not_dead() {
        let s = spec();
        let mut ln = KernelDesc::builder("ln", KernelCategory::LayerNorm);
        ln.writes("l1.x", (s.seq_len * s.d_model * 2) as u64);
        let mut diags = Vec::new();
        check(&s, &[ln.build()], &mut diags);
        assert!(!diags.iter().any(|d| d.rule == Rule::DataflowDeadStore));
    }

    /// Dataflow diagnostics come out in rendered-id order: `l10.scores`
    /// sorts before `l2.scores` as text, though layer 10 follows layer 2.
    #[test]
    fn diagnostics_follow_rendered_id_order() {
        let s = spec();
        let a = attn_bytes(&s);
        let mut pv = KernelDesc::builder("pv", KernelCategory::MatMulPv);
        pv.reads("l2.scores", a).reads("l10.scores", a);
        let mut diags = Vec::new();
        check(&s, &[pv.build()], &mut diags);
        let report = crate::Report::new(diags).render();
        let (l10, l2) = (report.find("`l10.scores`"), report.find("`l2.scores`"));
        assert!(l10.is_some() && l2.is_some(), "{report}");
        assert!(l10 < l2, "{report}");
    }

    #[test]
    fn footprint_conflict_and_wrong_size_are_shape_errors() {
        let s = spec();
        let a = attn_bytes(&s);
        let mut qk = KernelDesc::builder("qk", KernelCategory::MatMulQk);
        qk.writes("l0.scores", a);
        let mut sm = KernelDesc::builder("sm", KernelCategory::Softmax);
        sm.reads("l0.scores", a / 2)
            .writes("l1.x", (s.seq_len * s.d_model * 2) as u64);
        let mut diags = Vec::new();
        check(&s, &[qk.build(), sm.build()], &mut diags);
        assert!(diags.iter().any(|d| d.rule == Rule::DataflowShape));

        // consistent but wrong against the run dimensions
        let mut qk = KernelDesc::builder("qk", KernelCategory::MatMulQk);
        qk.writes("l0.scores", a * 2);
        let mut sm = KernelDesc::builder("sm", KernelCategory::Softmax);
        sm.reads("l0.scores", a * 2)
            .writes("l1.x", (s.seq_len * s.d_model * 2) as u64);
        let mut diags = Vec::new();
        check(&s, &[qk.build(), sm.build()], &mut diags);
        assert!(
            diags.iter().any(|d| d.rule == Rule::DataflowShape),
            "{diags:?}"
        );
    }
}
