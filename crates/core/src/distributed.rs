//! Process-per-worker distributed execution of the merge-tree walk, with
//! superstep checkpointing and kill-and-resume recovery.
//!
//! The BSP engine in `euler_bsp` simulates workers as threads of one
//! process; this module makes "distributed" real and survivable. A
//! **coordinator** (driven by [`crate::pipeline::BspBackend`] once a
//! transport is configured) owns the merge-tree walk; **workers** — OS
//! threads over the in-memory transport, or genuine OS *processes* spawned
//! via `std::process::Command` running the `euler-worker` binary over a
//! TCP/Unix socket transport — hold the partition states and execute
//! Phase 1/2, exchanging typed messages through the framed, checksummed
//! codec of [`euler_bsp::transport`].
//!
//! ## Protocol
//!
//! ```text
//! worker                         coordinator
//!   | -- Hello{worker} ------------> |      (handshake, after connect)
//!   | <-- Init{tree,seeds,plan} ---- |
//!   | -- Ready{ckpt0 longs} -------> |
//!   |                                |      per merge level L:
//!   | <-- Start{L, child states} --- |
//!   |  …compute, heartbeats…         |
//!   | -- Done{L, reports, ships,     |
//!   |         fragments, ckpt} ----> |      (barrier when all arrive)
//!   |                                |
//!   | <-- Restore{L} --------------- |      (after a detected death)
//!   | -- RestoreAck / Failed ------> |
//!   | <-- Shutdown ----------------- |
//!   | -- Bye ----------------------> |
//! ```
//!
//! ## Determinism & recovery invariant
//!
//! Fragments found by a worker carry **provisional ids** — bit 63 set, then
//! `(superstep, slot, sequence)` — so their identity is independent of
//! worker count, scheduling, and recovery history. At the last level the
//! coordinator sorts all shipped fragments by provisional id (which equals
//! the sequential in-process push order), densely renumbers them, and
//! replays them into the pipeline's fragment store: a distributed run's
//! circuit is bit-identical to the sequential in-process run, killed or
//! not.
//!
//! After each superstep a worker persists its partition states (the wire
//! codec) and that superstep's fragments (the spill record codec) to a
//! versioned checkpoint file: `ckpt-w{W}-s{K}` holds the state *entering*
//! superstep `K`. When the coordinator detects a death during superstep
//! `s` it rolls every survivor back to checkpoint `s`, respawns the dead
//! worker, restores it from the same checkpoint, re-delivers the superstep
//! `s` inputs it retained, and resumes. Without usable checkpoints it
//! falls back to a full deterministic replay from the level-0 seed.

use crate::error::EulerError;
use crate::fragment::{
    decode_fragment, encode_fragment_remapped, Fragment, FragmentId, FragmentStore,
};
use crate::merge_strategy::MergeStrategy;
use crate::merge_tree::{MergePair, MergeTree};
use crate::phase1::ArenaPool;
use crate::phase2::merge_partitions;
use crate::pipeline::{
    active_memory_longs, remote_needed_now, transfer_longs, wire, LevelOutcome,
    LevelPartitionReport,
};
use crate::state::{EdgeRef, WorkingPartition};
use euler_bsp::checkpoint::{
    checkpoint_file, read_checkpoint, write_checkpoint, CheckpointError,
};
use euler_bsp::fault::{FaultPlan, FaultPolicy, KillMode, RecoveryStats};
use euler_bsp::transport::{
    connect_endpoint, word_payload, Connection, FrameError, Listener, Transport, WordReader,
    WordWriter,
};
use euler_bsp::{EngineStats, SuperstepStats};
use euler_graph::PartitionId;
use euler_metrics::TimeBreakdown;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Provisional fragment identity.
// ---------------------------------------------------------------------------

/// Bit 63 marks a provisional (distributed) fragment id.
const PROV_BIT: u64 = 1 << 63;
const PROV_SS_SHIFT: u32 = 47; // 16 bits of superstep
const PROV_SLOT_SHIFT: u32 = 27; // 20 bits of slot (partition id)
const PROV_SEQ_MASK: u64 = (1 << PROV_SLOT_SHIFT) - 1; // 27 bits of sequence

/// Provisional id of the `seq`-th fragment pushed by `slot` at `superstep`.
/// Numeric order over provisional ids equals `(superstep, slot, seq)`
/// lexicographic order — the sequential in-process push order.
fn prov_id(superstep: u32, slot: u32, seq: u64) -> u64 {
    debug_assert!(superstep < 1 << 16 && slot < 1 << 20 && seq <= PROV_SEQ_MASK);
    PROV_BIT | ((superstep as u64) << PROV_SS_SHIFT) | ((slot as u64) << PROV_SLOT_SHIFT) | seq
}

/// Remaps a scratch-store id (dense, bit 63 clear) to its provisional id;
/// ids that are already provisional (earlier supersteps) pass through.
fn remap(id: FragmentId, superstep: u32, slot: u32) -> FragmentId {
    if id.0 & PROV_BIT != 0 {
        id
    } else {
        FragmentId(prov_id(superstep, slot, id.0))
    }
}

// ---------------------------------------------------------------------------
// Word-level protocol codec.
// ---------------------------------------------------------------------------
//
// Every payload is a little-endian u64 word array, encoded straight into the
// bytes a frame is sent from ([`WordWriter`]) and decoded in place
// ([`WordReader`]); nested partition states and fragment records are
// length-prefixed blocks inside it.

mod kind {
    pub const HELLO: u16 = 1;
    pub const INIT: u16 = 2;
    pub const READY: u16 = 3;
    pub const START: u16 = 4;
    pub const DONE: u16 = 5;
    pub const HEARTBEAT: u16 = 6;
    pub const RESTORE: u16 = 7;
    pub const RESTORE_ACK: u16 = 8;
    pub const RESTORE_FAILED: u16 = 9;
    pub const SHUTDOWN: u16 = 10;
    pub const BYE: u16 = 11;
}

/// The words of a small fixed message (Hello, Ready, Restore and its
/// answers), which must hold exactly `N`.
fn read_words<const N: usize>(payload: &[u8]) -> Result<[u64; N], String> {
    let mut r = WordReader::new(payload)?;
    let mut out = [0u64; N];
    for slot in &mut out {
        *slot = r.word()?;
    }
    r.finish()?;
    Ok(out)
}

fn encode_tree(out: &mut Vec<u8>, tree: &MergeTree) {
    out.put_word(tree.levels.len() as u64);
    for level in &tree.levels {
        out.put_word(level.len() as u64);
        for p in level {
            out.put_words(&[p.parent.0 as u64, p.child.0 as u64, p.weight]);
        }
    }
    out.put_word(tree.root.0 as u64);
    out.put_word(tree.leaves.len() as u64);
    for l in &tree.leaves {
        out.put_word(l.0 as u64);
    }
}

fn decode_tree(r: &mut WordReader<'_>) -> Result<MergeTree, String> {
    let n_levels = r.word()? as usize;
    let mut levels = Vec::with_capacity(r.cap(n_levels, 1));
    for _ in 0..n_levels {
        let n_pairs = r.word()? as usize;
        let mut pairs = Vec::with_capacity(r.cap(n_pairs, 3));
        for _ in 0..n_pairs {
            let [parent, child, weight] = [r.word()?, r.word()?, r.word()?];
            pairs.push(MergePair {
                parent: PartitionId(parent as u32),
                child: PartitionId(child as u32),
                weight,
            });
        }
        levels.push(pairs);
    }
    let root = PartitionId(r.word()? as u32);
    let n_leaves = r.word()? as usize;
    let leaves =
        r.words(n_leaves)?.iter().map(|l| PartitionId(u64::from_le_bytes(*l) as u32)).collect();
    Ok(MergeTree { levels, root, leaves })
}

/// A worker's run settings, carried by the Init message ahead of the merge
/// tree and the worker's level-0 states.
struct InitMsg {
    worker_id: u32,
    num_workers: u32,
    strategy: MergeStrategy,
    heartbeat_interval: Duration,
    kill: Option<(u32, u32)>,
    kill_mode: KillMode,
    checkpoint_dir: Option<PathBuf>,
}

/// Init: `[settings…, tree, n, n × state block]`, encoded into `out`
/// (replacing its contents, reusing its capacity).
fn encode_init(m: &InitMsg, tree: &MergeTree, seeds: &[WorkingPartition], out: &mut Vec<u8>) {
    out.clear();
    out.put_words(&[m.worker_id as u64, m.num_workers as u64]);
    out.put_word(match m.strategy {
        MergeStrategy::Duplicated => 0,
        MergeStrategy::Deduplicated => 1,
        MergeStrategy::Deferred => 2,
    });
    out.put_word(m.heartbeat_interval.as_nanos() as u64);
    match m.kill {
        Some((w, s)) => out.put_words(&[1, w as u64, s as u64]),
        None => out.put_words(&[0, 0, 0]),
    }
    out.put_word(match m.kill_mode {
        KillMode::Exit => 0,
        KillMode::Stall => 1,
    });
    match &m.checkpoint_dir {
        Some(d) => {
            out.put_word(1);
            out.put_str(&d.to_string_lossy());
        }
        None => out.put_word(0),
    }
    encode_tree(out, tree);
    out.put_word(seeds.len() as u64);
    for wp in seeds {
        let at = out.begin_block();
        wire::encode(wp, out);
        out.end_block(at);
    }
}

fn decode_init(payload: &[u8]) -> Result<(InitMsg, MergeTree, Vec<WorkingPartition>), String> {
    let mut r = WordReader::new(payload)?;
    let worker_id = r.word()? as u32;
    let num_workers = r.word()? as u32;
    let strategy = match r.word()? {
        0 => MergeStrategy::Duplicated,
        1 => MergeStrategy::Deduplicated,
        2 => MergeStrategy::Deferred,
        t => return Err(format!("unknown merge strategy tag {t}")),
    };
    let heartbeat_interval = Duration::from_nanos(r.word()?);
    let kill_flag = r.word()?;
    let kill_w = r.word()? as u32;
    let kill_s = r.word()? as u32;
    let kill = (kill_flag != 0).then_some((kill_w, kill_s));
    let kill_mode = if r.word()? == 0 { KillMode::Exit } else { KillMode::Stall };
    let checkpoint_dir = if r.word()? != 0 { Some(PathBuf::from(r.str()?)) } else { None };
    let tree = decode_tree(&mut r)?;
    let n_seeds = r.word()? as usize;
    let mut seeds = Vec::with_capacity(r.cap(n_seeds, 7));
    for _ in 0..n_seeds {
        seeds.push(wire::decode(r.block()?)?);
    }
    r.finish()?;
    let init = InitMsg {
        worker_id,
        num_workers,
        strategy,
        heartbeat_interval,
        kill,
        kill_mode,
        checkpoint_dir,
    };
    Ok((init, tree, seeds))
}

/// Start: `[superstep, n, n × state block]` — the encoded child states a
/// worker merges at `superstep` — encoded into `out` (replacing its
/// contents, reusing its capacity).
fn encode_start(superstep: u32, states: &[&[u8]], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(16 + states.iter().map(|s| 8 + s.len()).sum::<usize>());
    out.put_words(&[superstep as u64, states.len() as u64]);
    for state in states {
        out.put_word(state.len() as u64 / 8);
        out.extend_from_slice(state);
    }
}

/// Decodes a Start in place: the superstep and the state blocks, still
/// encoded, borrowed from the payload.
fn decode_start(payload: &[u8]) -> Result<(u32, Vec<&[u8]>), String> {
    let mut r = WordReader::new(payload)?;
    let superstep = r.word()? as u32;
    let n = r.word()? as usize;
    let mut states = Vec::with_capacity(r.cap(n, 1));
    for _ in 0..n {
        states.push(r.block()?);
    }
    r.finish()?;
    Ok((superstep, states))
}

/// Words per partition report in a Done message.
const REPORT_WORDS: usize = 19;

/// Appends one partition report plus its post-Phase-1 `memory_longs`.
fn encode_report(out: &mut Vec<u8>, r: &LevelPartitionReport, post_memory: u64) {
    out.put_words(&[
        r.partition.0 as u64,
        r.counts.even_internal,
        r.counts.even_boundary,
        r.counts.odd_boundary,
        r.counts.remote_edges,
        r.counts.local_edges,
        r.complexity,
        r.phase1_time.as_nanos() as u64,
        r.merge_time.as_nanos() as u64,
        r.memory_longs,
        r.remote_needed_now,
        r.transfer_in_longs,
        r.paths_found,
        r.cycles_found,
        r.internal_cycles_merged,
        r.splice_pivot_lookups,
        r.splice_linked_splices,
        r.splice_materialization_longs,
        post_memory,
    ]);
}

/// Appends `[n, n × (provisional id, fragment block)]` for the fragments
/// each slot found at `level` (`(slot, scratch store)` pairs, in slot
/// order): scratch ids become provisional ids while encoding, so nothing
/// is cloned to rename it.
fn encode_found(out: &mut Vec<u8>, level: u32, found: &[(u32, FragmentStore)]) {
    out.put_word(found.iter().map(|(_, store)| store.len() as u64).sum());
    for &(slot, ref store) in found {
        store.with_all(|frags| {
            for f in frags {
                out.put_word(remap(f.id, level, slot).0);
                let at = out.begin_block();
                encode_fragment_remapped(f, |id| remap(id, level, slot), out);
                out.end_block(at);
            }
        });
    }
}

/// What a worker ships back from one superstep, before encoding.
#[derive(Default)]
struct DoneOut {
    superstep: u32,
    reports: Vec<LevelPartitionReport>,
    /// Post-Phase-1 `memory_longs` per report partition, for engine stats.
    post_memory: Vec<u64>,
    /// `(destination partition, state)` ships.
    outgoing: Vec<(u32, WorkingPartition)>,
    /// `(slot, scratch store)`: the fragments each slot found this level.
    found: Vec<(u32, FragmentStore)>,
    transfer_longs: u64,
    checkpoint_longs: u64,
}

/// Done: `[superstep, n, n × report, n_out, n_out × (to, state block),
/// n_frags, n_frags × (provisional id, fragment block), transfer_longs,
/// checkpoint_longs]`, encoded into `out` (replacing its contents, reusing
/// its capacity).
fn encode_done(m: &DoneOut, out: &mut Vec<u8>) {
    out.clear();
    out.put_words(&[m.superstep as u64, m.reports.len() as u64]);
    for (r, &post) in m.reports.iter().zip(&m.post_memory) {
        encode_report(out, r, post);
    }
    out.put_word(m.outgoing.len() as u64);
    for (to, wp) in &m.outgoing {
        out.put_word(*to as u64);
        let at = out.begin_block();
        wire::encode(wp, out);
        out.end_block(at);
    }
    encode_found(out, m.superstep, &m.found);
    out.put_words(&[m.transfer_longs, m.checkpoint_longs]);
}

/// A Done as the coordinator reads it, in place: reports decoded, shipped
/// states still encoded (they are forwarded, not merged, here), fragments
/// decoded once under their provisional ids. (The superstep is read by
/// the barrier before this, and stamped on each report.)
struct DoneMsg<'a> {
    reports: Vec<LevelPartitionReport>,
    post_memory: Vec<u64>,
    outgoing: Vec<(u32, &'a [u8])>,
    fragments: Vec<Fragment>,
    transfer_longs: u64,
    checkpoint_longs: u64,
}

fn decode_done(payload: &[u8]) -> Result<DoneMsg<'_>, String> {
    let mut r = WordReader::new(payload)?;
    let superstep = r.word()? as u32;
    let n_reports = r.word()? as usize;
    let mut reports = Vec::with_capacity(r.cap(n_reports, REPORT_WORDS));
    let mut post_memory = Vec::with_capacity(reports.capacity());
    for _ in 0..n_reports {
        let block: &[[u8; 8]; REPORT_WORDS] =
            r.words(REPORT_WORDS)?.try_into().map_err(|_| "partition report: expected 19 words")?;
        let [partition, even_internal, even_boundary, odd_boundary, remote_edges, local_edges, complexity, phase1_ns, merge_ns, memory_longs, remote_needed_now, transfer_in_longs, paths_found, cycles_found, internal_cycles_merged, splice_pivot_lookups, splice_linked_splices, splice_materialization_longs, post_mem] =
            block.map(u64::from_le_bytes);
        reports.push(LevelPartitionReport {
            level: superstep,
            partition: PartitionId(partition as u32),
            counts: crate::state::VertexTypeCounts {
                even_internal,
                even_boundary,
                odd_boundary,
                remote_edges,
                local_edges,
            },
            complexity,
            phase1_time: Duration::from_nanos(phase1_ns),
            merge_time: Duration::from_nanos(merge_ns),
            memory_longs,
            remote_needed_now,
            transfer_in_longs,
            paths_found,
            cycles_found,
            internal_cycles_merged,
            splice_pivot_lookups,
            splice_linked_splices,
            splice_materialization_longs,
        });
        post_memory.push(post_mem);
    }
    let n_out = r.word()? as usize;
    let mut outgoing = Vec::with_capacity(r.cap(n_out, 2));
    for _ in 0..n_out {
        let to = r.word()? as u32;
        outgoing.push((to, r.block()?));
    }
    let n_frags = r.word()? as usize;
    let mut fragments = Vec::with_capacity(r.cap(n_frags, 6));
    for _ in 0..n_frags {
        let id = r.word()?;
        fragments.push(decode_fragment(FragmentId(id), r.block()?)?);
    }
    let transfer_longs = r.word()?;
    let checkpoint_longs = r.word()?;
    r.finish()?;
    Ok(DoneMsg {
        reports,
        post_memory,
        outgoing,
        fragments,
        transfer_longs,
        checkpoint_longs,
    })
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// A worker's reason for refusing a Restore.
#[derive(Debug)]
struct RestoreRefusal {
    /// True when a checkpoint file was present but detected as unusable and
    /// ignored (vs simply missing / checkpointing disabled).
    ignored: bool,
}

/// The worker's live state between supersteps.
struct WorkerState {
    init: InitMsg,
    tree: Arc<MergeTree>,
    /// Active partition states, keyed by slot (= partition id).
    slots: BTreeMap<u32, WorkingPartition>,
    /// Phase-1 scratch reused across this worker's partitions and levels.
    pool: ArenaPool,
    kill_consumed: bool,
}

impl WorkerState {
    fn build(init: InitMsg, tree: MergeTree, seeds: Vec<WorkingPartition>) -> Self {
        let slots = seeds.into_iter().map(|wp| (wp.id.0, wp)).collect();
        WorkerState { init, tree: Arc::new(tree), slots, pool: ArenaPool::new(), kill_consumed: false }
    }

    /// Writes the checkpoint entering `superstep`: the partition states plus
    /// the fragments found at `superstep - 1` (`found`, as in [`DoneOut`]),
    /// `[n, n × state block, fragments as in a Done]`. Returns Longs written
    /// (0 when checkpointing is off).
    fn write_ckpt(&self, superstep: u32, found: &[(u32, FragmentStore)]) -> u64 {
        let Some(dir) = &self.init.checkpoint_dir else { return 0 };
        let mut payload = Vec::new();
        payload.put_word(self.slots.len() as u64);
        for wp in self.slots.values() {
            let at = payload.begin_block();
            wire::encode(wp, &mut payload);
            payload.end_block(at);
        }
        encode_found(&mut payload, superstep.saturating_sub(1), found);
        let path = checkpoint_file(dir, self.init.worker_id, superstep);
        write_checkpoint(&path, &payload).unwrap_or_default()
    }

    /// Restores the state entering `superstep` from this worker's
    /// checkpoint. A refusal says whether a file was present but unusable
    /// (torn write, foreign version, bad checksum, undecodable payload) —
    /// i.e. *ignored* — as opposed to simply absent.
    fn restore(&mut self, superstep: u32) -> Result<u64, RestoreRefusal> {
        let Some(dir) = &self.init.checkpoint_dir else {
            return Err(RestoreRefusal { ignored: false });
        };
        let path = checkpoint_file(dir, self.init.worker_id, superstep);
        let payload = match read_checkpoint(&path) {
            Ok(p) => p,
            Err(CheckpointError::Missing) => {
                return Err(RestoreRefusal { ignored: false })
            }
            Err(_) => return Err(RestoreRefusal { ignored: true }),
        };
        match decode_checkpoint(&payload) {
            Ok(slots) => {
                self.slots = slots;
                Ok(payload.len() as u64 / 8)
            }
            Err(_) => Err(RestoreRefusal { ignored: true }),
        }
    }

    /// Runs one superstep: merge inbound child states, Phase 1 per owned
    /// slot (ascending), ship retiring states, checkpoint. Encodes the Done
    /// into `out`; an inbound state that does not decode is an error.
    fn superstep(
        &mut self,
        superstep: u32,
        inbox: &[&[u8]],
        out: &mut Vec<u8>,
    ) -> Result<(), String> {
        let level = superstep;
        let tree = &self.tree;
        let strategy = self.init.strategy;
        let height = tree.height();

        // Decode inbound child states and order them exactly as the
        // in-process backend merges: by position in the previous level's
        // pair list.
        let prev_pairs: &[MergePair] =
            if level > 0 { tree.pairs_at(level - 1) } else { &[] };
        let mut inbound =
            inbox.iter().map(|state| wire::decode(state)).collect::<Result<Vec<_>, _>>()?;
        inbound.sort_by_key(|child| {
            prev_pairs.iter().position(|p| p.child == child.id).unwrap_or(usize::MAX)
        });
        let mut inbound: Vec<Option<WorkingPartition>> = inbound.into_iter().map(Some).collect();

        let mut done = DoneOut { superstep, ..Default::default() };
        let slot_ids: Vec<u32> = self.slots.keys().copied().collect();
        for slot in slot_ids {
            let mut wp = self
                .slots
                .remove(&slot)
                .ok_or_else(|| format!("slot {slot} vanished during superstep {superstep}"))?;
            // --- Phase 2: merge child states addressed to this slot. -----
            let mut merge_time = Duration::ZERO;
            let mut transfer_in = 0u64;
            for entry in &mut inbound {
                let addressed = entry.as_ref().is_some_and(|c| {
                    prev_pairs.iter().any(|p| p.child == c.id && p.parent.0 == slot)
                });
                let Some(child) = entry.take_if(|_| addressed) else { continue };
                transfer_in +=
                    transfer_longs(&child, tree, level.saturating_sub(1), strategy);
                let t0 = Instant::now();
                let (merged, _stats) =
                    merge_partitions(wp, child, tree, level.saturating_sub(1));
                merge_time += t0.elapsed();
                wp = merged;
            }

            // --- Phase 1 on a fresh scratch store. -----------------------
            let memory = active_memory_longs(&wp, tree, level, strategy);
            let needed_now = remote_needed_now(&wp, tree, level);
            let scratch = FragmentStore::new();
            let t1 = Instant::now();
            let out = self.pool.run_phase1(&mut wp, &scratch);
            let phase1_time = t1.elapsed();

            // New fragments were pushed with dense scratch ids 0..n; they
            // take their (superstep, slot, seq) identity when encoded. The
            // partition's residual virtual edges point at them too.
            for e in &mut wp.local_edges {
                if let EdgeRef::Virtual(id) = &mut e.edge {
                    *id = remap(*id, level, slot);
                }
            }
            done.found.push((slot, scratch));

            done.post_memory.push(wp.memory_longs());
            done.reports.push(LevelPartitionReport {
                level,
                partition: wp.id,
                counts: out.counts_before,
                complexity: out.complexity,
                phase1_time,
                merge_time,
                memory_longs: memory,
                remote_needed_now: needed_now,
                transfer_in_longs: transfer_in,
                paths_found: out.path_map.num_paths() as u64,
                cycles_found: out.path_map.num_cycles() as u64,
                internal_cycles_merged: out.path_map.internal_cycles_merged,
                splice_pivot_lookups: out.splice.pivot_lookups,
                splice_linked_splices: out.splice.linked_splices,
                splice_materialization_longs: out.splice.materialization_longs,
            });

            // --- Ship to the merge parent if this slot retires here. -----
            let retires = if level < height {
                tree.pairs_at(level).iter().find(|p| p.child.0 == slot).map(|p| p.parent.0)
            } else {
                None
            };
            if let Some(parent) = retires {
                done.transfer_longs += transfer_longs(&wp, tree, level, strategy);
                done.outgoing.push((parent, wp));
                // Retired: the slot does not come back.
            } else {
                self.slots.insert(slot, wp);
            }
        }

        done.checkpoint_longs = self.write_ckpt(superstep + 1, &done.found);
        encode_done(&done, out);
        Ok(())
    }
}

/// Decodes a checkpoint payload written by [`WorkerState::write_ckpt`] into
/// the partition states it holds. The fragment section is validated and
/// dropped: the coordinator already holds every fragment committed at a
/// barrier.
fn decode_checkpoint(payload: &[u8]) -> Result<BTreeMap<u32, WorkingPartition>, String> {
    let mut r = WordReader::new(payload)?;
    let n_slots = r.word()?;
    let mut slots = BTreeMap::new();
    for _ in 0..n_slots {
        let wp = wire::decode(r.block()?)?;
        slots.insert(wp.id.0, wp);
    }
    let n_frags = r.word()?;
    for _ in 0..n_frags {
        let id = r.word()?;
        decode_fragment(FragmentId(id), r.block()?)?;
    }
    r.finish()?;
    Ok(slots)
}

/// Runs the worker protocol loop over an established connection. Returns
/// when told to shut down, or exits early on an injected kill / protocol
/// failure (the coordinator sees the connection drop and recovers).
pub(crate) fn run_worker(conn: Arc<dyn Connection>, worker_id: u32) -> Result<(), String> {
    conn.send(kind::HELLO, &word_payload(&[worker_id as u64]))
        .map_err(|e| format!("hello failed: {e}"))?;

    let mut state: Option<WorkerState> = None;
    // Heartbeats flow only while a superstep is being computed; an idle
    // worker is silent, so a worker that never received its Start (dropped
    // frame) is indistinguishable from a dead one — by design, the
    // coordinator's timeout recovers both the same way.
    let busy = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let mut heartbeat: Option<std::thread::JoinHandle<()>> = None;
    // One Done buffer for the worker's life: later supersteps encode into
    // memory the first one already faulted in.
    let mut done = Vec::new();

    let result = loop {
        let (k, payload) = match conn.recv_timeout(None) {
            Ok(f) => f,
            Err(FrameError::Closed) => break Ok(()),
            Err(e) => break Err(format!("worker recv failed: {e}")),
        };
        match k {
            kind::INIT => {
                let (init, tree, seeds) = decode_init(&payload)?;
                drop(payload);
                if heartbeat.is_none() {
                    let interval = init.heartbeat_interval;
                    let conn2 = Arc::clone(&conn);
                    let busy2 = Arc::clone(&busy);
                    let stop2 = Arc::clone(&stop);
                    heartbeat = Some(std::thread::spawn(move || loop {
                        std::thread::sleep(interval);
                        if stop2.load(Ordering::Relaxed) {
                            return;
                        }
                        if busy2.load(Ordering::Relaxed)
                            && conn2.send(kind::HEARTBEAT, &[]).is_err()
                        {
                            return;
                        }
                    }));
                }
                let st = WorkerState::build(init, tree, seeds);
                let ckpt0 = st.write_ckpt(0, &[]);
                state = Some(st);
                conn.send(kind::READY, &word_payload(&[ckpt0]))
                    .map_err(|e| format!("ready failed: {e}"))?;
            }
            kind::START => {
                let st = state.as_mut().ok_or("Start before Init")?;
                let (superstep, inbox) = decode_start(&payload)?;
                busy.store(true, Ordering::Relaxed);
                if let Some((kw, ks)) = st.init.kill {
                    if kw == st.init.worker_id && ks == superstep && !st.kill_consumed {
                        st.kill_consumed = true;
                        match st.init.kill_mode {
                            // Thread workers can't be SIGKILLed individually:
                            // dying is dropping the connection mid-superstep.
                            KillMode::Exit => break Ok(()),
                            // Process workers stall so the coordinator's
                            // SIGKILL lands mid-superstep, before any Done.
                            KillMode::Stall => {
                                std::thread::sleep(Duration::from_millis(600))
                            }
                        }
                    }
                }
                let computed = st.superstep(superstep, &inbox, &mut done);
                drop(inbox);
                drop(payload);
                let send = computed.and_then(|()| {
                    conn.send(kind::DONE, &done).map_err(|e| format!("done failed: {e}"))
                });
                busy.store(false, Ordering::Relaxed);
                send?;
            }
            kind::RESTORE => {
                let st = state.as_mut().ok_or("Restore before Init")?;
                let [superstep] = read_words(&payload)?;
                let superstep = superstep as u32;
                match st.restore(superstep) {
                    Ok(longs) => conn
                        .send(kind::RESTORE_ACK, &word_payload(&[superstep as u64, longs]))
                        .map_err(|e| format!("restore ack failed: {e}"))?,
                    Err(refusal) => {
                        conn.send(
                            kind::RESTORE_FAILED,
                            &word_payload(&[superstep as u64, u64::from(refusal.ignored)]),
                        )
                        .map_err(|e| format!("restore nack failed: {e}"))?;
                    }
                }
            }
            kind::SHUTDOWN => {
                conn.send(kind::BYE, &[]).ok();
                break Ok(());
            }
            other => break Err(format!("unexpected frame kind {other} at worker")),
        }
    };
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = heartbeat {
        h.join().ok();
    }
    result
}

/// Entry point of the `euler-worker` binary: connect to the coordinator
/// `endpoint` (scheme-prefixed: `tcp:…`, `unix:…`) and serve as worker
/// `worker_id` until shut down.
pub fn worker_main(endpoint: &str, worker_id: u32) -> Result<(), String> {
    let conn = connect_endpoint(endpoint, 50, Duration::from_millis(10))
        .map_err(|e| format!("worker {worker_id} could not connect to {endpoint}: {e}"))?;
    run_worker(Arc::from(conn), worker_id)
}

/// Resolves the worker binary to spawn for process workers:
/// `$EULER_WORKER_BIN` if set, else an `euler-worker` next to (or one
/// directory above) the current executable — which covers both installed
/// layouts and cargo's `target/debug/deps/` test binaries.
pub fn default_worker_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("EULER_WORKER_BIN") {
        return Some(PathBuf::from(p));
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    [dir.join("euler-worker"), dir.parent()?.join("euler-worker")]
        .into_iter()
        .find(|cand| cand.is_file())
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

/// How the coordinator brings workers into existence.
#[derive(Clone, Debug)]
pub(crate) enum WorkerSpawn {
    /// Worker threads in this process (any transport).
    Threads,
    /// Worker *processes* running the given binary (socket transports only).
    Processes { worker_bin: PathBuf },
}

/// Static configuration of a distributed run.
pub(crate) struct DistConfig {
    pub transport: Arc<dyn Transport>,
    pub spawn: WorkerSpawn,
    pub num_workers: usize,
    pub checkpoint_dir: Option<PathBuf>,
    pub policy: FaultPolicy,
    pub plan: FaultPlan,
}

enum Event {
    Frame { worker: u32, epoch: u64, kind: u16, payload: Vec<u8> },
    Dead { worker: u32, epoch: u64 },
}

struct WorkerHandle {
    conn: Arc<dyn Connection>,
    child: Option<std::process::Child>,
    epoch: u64,
    restarts: u32,
    last_heard: Instant,
    stop_rx: Arc<AtomicBool>,
    recv_handle: Option<std::thread::JoinHandle<()>>,
}

/// The coordinator of one distributed run: spawns workers, drives one
/// barrier per merge level, detects deaths, and recovers.
pub(crate) struct DistRun {
    cfg: DistConfig,
    tree: Arc<MergeTree>,
    strategy: MergeStrategy,
    /// Level-0 states per worker, retained for re-Init.
    seeds_by_worker: Vec<Vec<WorkingPartition>>,
    listener: Box<dyn Listener>,
    workers: Vec<WorkerHandle>,
    events_tx: mpsc::Sender<Event>,
    events_rx: mpsc::Receiver<Event>,
    /// Current superstep's encoded Start per worker, retained until the
    /// barrier commits so it can be re-delivered after a rollback.
    inbox: Vec<Vec<u8>>,
    /// Fragments committed per superstep (barrier-complete only), under
    /// their provisional ids.
    committed_frags: BTreeMap<u32, Vec<Fragment>>,
    /// Done payloads collected by the in-flight barrier (filled by
    /// `wait_barrier`, decoded and consumed by `commit`).
    pending_dones: Vec<(u32, Vec<u8>)>,
    superstep_stats: Vec<SuperstepStats>,
    recovery: RecoveryStats,
    warnings: Vec<String>,
    kill_consumed: bool,
    start_seq: u64,
    t_start: Instant,
    total_wall: Duration,
    finished: bool,
}

impl DistRun {
    /// Spawns and initialises the worker fleet over the level-0 seed: every
    /// worker is spawned and sent its Init before any Ready is awaited, so
    /// the workers decode their seeds concurrently.
    pub fn new(
        cfg: DistConfig,
        tree: Arc<MergeTree>,
        strategy: MergeStrategy,
        seed: Vec<WorkingPartition>,
    ) -> Result<Self, EulerError> {
        let t_start = Instant::now();
        let mut cfg = cfg;
        cfg.num_workers = cfg.num_workers.max(1);
        let num_workers = cfg.num_workers;
        let mut seeds_by_worker: Vec<Vec<WorkingPartition>> = vec![Vec::new(); num_workers];
        for wp in seed {
            seeds_by_worker[owner(wp.id.0, num_workers)].push(wp);
        }
        let listener = cfg
            .transport
            .listen()
            .map_err(|e| EulerError::Distributed(format!("listen failed: {e}")))?;
        let (events_tx, events_rx) = mpsc::channel();
        let mut run = DistRun {
            tree,
            strategy,
            seeds_by_worker,
            listener,
            workers: Vec::new(),
            events_tx,
            events_rx,
            inbox: vec![Vec::new(); num_workers],
            committed_frags: BTreeMap::new(),
            pending_dones: Vec::new(),
            superstep_stats: Vec::new(),
            recovery: RecoveryStats::default(),
            warnings: Vec::new(),
            kill_consumed: false,
            start_seq: 0,
            t_start,
            total_wall: Duration::ZERO,
            finished: false,
            cfg,
        };
        for start in &mut run.inbox {
            encode_start(0, &[], start);
        }
        let all: Vec<u32> = (0..num_workers as u32).collect();
        run.spawn_workers(&all)?;
        run.init_workers(&all)?;
        for w in all {
            run.start_receiver(w);
        }
        Ok(run)
    }

    /// Runs one merge level to completion (recovering as needed) and
    /// returns its outcome.
    pub fn step(&mut self, level: u32) -> Result<LevelOutcome, EulerError> {
        self.run_superstep(level, true)?.ok_or_else(|| {
            EulerError::Distributed(format!("superstep {level} committed without an outcome"))
        })
    }

    /// Moves every committed fragment into `store` in deterministic order:
    /// sorted by provisional id (= the sequential push order), densely
    /// renumbered, every virtual reference rewritten.
    pub fn flush_fragments(&mut self, store: &FragmentStore) -> Result<(), EulerError> {
        let mut all: Vec<Fragment> =
            std::mem::take(&mut self.committed_frags).into_values().flatten().collect();
        all.sort_by_key(|f| f.id);
        let ids: Vec<FragmentId> = all.iter().map(|f| f.id).collect();
        for (i, mut f) in all.into_iter().enumerate() {
            for e in &mut f.edges {
                if let crate::fragment::TourEdge::Virtual { fragment, .. } = e {
                    let dense = ids.binary_search(fragment).map_err(|_| {
                        EulerError::Distributed(format!(
                            "fragment {:#x} references unknown fragment {:#x}",
                            f.id.0, fragment.0
                        ))
                    })?;
                    *fragment = FragmentId(dense as u64);
                }
            }
            let assigned = store.push(f);
            debug_assert_eq!(assigned.0, i as u64);
        }
        Ok(())
    }

    /// Shuts the fleet down (Shutdown/Bye), reaps workers, removes the
    /// checkpoint directory of a cleanly completed run.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for h in &self.workers {
            h.conn.send(kind::SHUTDOWN, &[]).ok();
        }
        // Best-effort Bye drain so sockets flush before teardown.
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut byes = 0;
        while byes < self.workers.len() && Instant::now() < deadline {
            match self.events_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Event::Frame { kind: kind::BYE, .. }) => byes += 1,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        for h in &mut self.workers {
            h.stop_rx.store(true, Ordering::Relaxed);
            if let Some(mut child) = h.child.take() {
                child.kill().ok();
                child.wait().ok();
            }
            if let Some(recv) = h.recv_handle.take() {
                recv.join().ok();
            }
        }
        if let Some(dir) = &self.cfg.checkpoint_dir {
            std::fs::remove_dir_all(dir).ok();
        }
        self.total_wall = self.t_start.elapsed();
    }

    /// Engine-statistics view of the run so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            supersteps: self.superstep_stats.clone(),
            num_workers: self.cfg.num_workers,
            total_wall_time: if self.finished { self.total_wall } else { self.t_start.elapsed() },
            modelled_platform_overhead: Duration::ZERO,
            recovery: self.recovery,
        }
    }

    /// Human-readable recovery notes for `RunReport::warnings`.
    pub fn warnings(&self) -> Vec<String> {
        self.warnings.clone()
    }

    // -- internals ----------------------------------------------------------

    /// Spawns workers `ws` (threads or processes) all at once, then accepts
    /// connections until each of them has said Hello. Connect order may
    /// differ from spawn order; a Hello from any other worker (a late,
    /// stale one) is dropped, and its closing connection sends it back
    /// through recovery.
    fn spawn_workers(&mut self, ws: &[u32]) -> Result<(), EulerError> {
        let endpoint = self.listener.endpoint();
        let mut children: Vec<(u32, Option<std::process::Child>)> = Vec::with_capacity(ws.len());
        let mut spawned = Ok(());
        for &w in ws {
            match self.spawn_one(w, &endpoint) {
                Ok(child) => children.push((w, child)),
                Err(e) => {
                    spawned = Err(e);
                    break;
                }
            }
        }
        let connected = spawned.and_then(|()| self.accept_hellos(&mut children));
        if connected.is_err() {
            // Reap whatever was spawned but never joined the fleet.
            for (_, child) in &mut children {
                if let Some(mut child) = child.take() {
                    child.kill().ok();
                    child.wait().ok();
                }
            }
        }
        connected
    }

    /// Starts worker `w` connecting to `endpoint`: a thread, or a process
    /// whose handle is returned.
    fn spawn_one(&self, w: u32, endpoint: &str) -> Result<Option<std::process::Child>, EulerError> {
        match &self.cfg.spawn {
            WorkerSpawn::Threads => {
                let attempts = self.cfg.policy.connect_attempts;
                let backoff = self.cfg.policy.connect_backoff;
                let transport = Arc::clone(&self.cfg.transport);
                let endpoint = endpoint.to_string();
                std::thread::spawn(move || {
                    let conn = match euler_bsp::transport::connect_with_retry(
                        transport.as_ref(),
                        &endpoint,
                        attempts,
                        backoff,
                    ) {
                        Ok(c) => c,
                        Err(_) => return,
                    };
                    // A worker death (injected or real) is just this thread
                    // returning; the coordinator recovers from the dropped
                    // connection, so the error itself needs no channel.
                    run_worker(Arc::from(conn), w).ok();
                });
                Ok(None)
            }
            WorkerSpawn::Processes { worker_bin } => std::process::Command::new(worker_bin)
                .arg("--endpoint")
                .arg(endpoint)
                .arg("--worker-id")
                .arg(w.to_string())
                .stdout(std::process::Stdio::null())
                .spawn()
                .map(Some)
                .map_err(|e| {
                    EulerError::Distributed(format!(
                        "spawning worker process {} failed: {e}",
                        worker_bin.display()
                    ))
                }),
        }
    }

    /// Accepts until every worker in `children` has said Hello, then
    /// installs their handles in worker order (moving each process handle
    /// in).
    fn accept_hellos(
        &mut self,
        children: &mut [(u32, Option<std::process::Child>)],
    ) -> Result<(), EulerError> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut waiting: Vec<u32> = children.iter().map(|(w, _)| *w).collect();
        let mut joined: Vec<(u32, Arc<dyn Connection>)> = Vec::with_capacity(waiting.len());
        while !waiting.is_empty() {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return Err(EulerError::Distributed(format!(
                    "worker(s) {waiting:?} never connected"
                )));
            };
            let conn = self
                .listener
                .accept(left.max(Duration::from_millis(1)))
                .map_err(|e| EulerError::Distributed(format!("accept failed: {e}")))?;
            let (k, payload) = conn
                .recv_timeout(Some(Duration::from_secs(10)))
                .map_err(|e| EulerError::Distributed(format!("handshake failed: {e}")))?;
            let hello = read_words::<1>(&payload).ok().filter(|_| k == kind::HELLO);
            let Some(at) = hello.and_then(|[id]| waiting.iter().position(|&w| u64::from(w) == id))
            else {
                continue;
            };
            let w = waiting.swap_remove(at);
            // A stalled worker must not block a coordinator send past the
            // fault deadlines: bound every send by the heartbeat timeout so
            // a full socket buffer surfaces as FrameError::Timeout and flows
            // into the existing send-retry / dead-worker path.
            conn.set_send_timeout(Some(self.cfg.policy.heartbeat_timeout));
            joined.push((w, Arc::from(conn)));
        }
        joined.sort_by_key(|(w, _)| *w);
        for (w, conn) in joined {
            let child = children.iter_mut().find(|(c, _)| *c == w).and_then(|(_, c)| c.take());
            self.install(w, conn, child);
        }
        Ok(())
    }

    /// Installs worker `w`'s fresh connection: a new handle, or — for a
    /// respawn — the next epoch of its existing one.
    fn install(&mut self, w: u32, conn: Arc<dyn Connection>, child: Option<std::process::Child>) {
        let handle = WorkerHandle {
            conn,
            child,
            epoch: 0,
            restarts: 0,
            last_heard: Instant::now(),
            stop_rx: Arc::new(AtomicBool::new(false)),
            recv_handle: None,
        };
        if let Some(existing) = self.workers.get_mut(w as usize) {
            let old = std::mem::replace(existing, handle);
            existing.epoch = old.epoch + 1;
            existing.restarts = old.restarts;
            // Old receiver thread and connection wind down via stop flag.
        } else {
            debug_assert_eq!(self.workers.len(), w as usize);
            self.workers.push(handle);
        }
    }

    /// Worker `w`'s Init settings. The injected kill plan is delivered only
    /// while unconsumed.
    fn init_msg(&self, w: u32) -> InitMsg {
        InitMsg {
            worker_id: w,
            num_workers: self.cfg.num_workers as u32,
            strategy: self.strategy,
            heartbeat_interval: self.cfg.policy.heartbeat_interval,
            kill: self.cfg.plan.kill.filter(|_| !self.kill_consumed),
            kill_mode: match self.cfg.spawn {
                WorkerSpawn::Threads => KillMode::Exit,
                WorkerSpawn::Processes { .. } => KillMode::Stall,
            },
            checkpoint_dir: self.cfg.checkpoint_dir.clone(),
        }
    }

    /// Sends every worker in `ws` its Init (with its retained seeds), then
    /// waits for all their Readys under one 30 s deadline.
    fn init_workers(&mut self, ws: &[u32]) -> Result<(), EulerError> {
        let mut payload = Vec::new();
        for &w in ws {
            let seeds = &self.seeds_by_worker[w as usize];
            encode_init(&self.init_msg(w), &self.tree, seeds, &mut payload);
            self.workers[w as usize]
                .conn
                .send(kind::INIT, &payload)
                .map_err(|e| EulerError::Distributed(format!("init of worker {w} failed: {e}")))?;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        for &w in ws {
            let left = deadline.saturating_duration_since(Instant::now());
            let (k, payload) = self.workers[w as usize]
                .conn
                .recv_timeout(Some(left.max(Duration::from_millis(1))))
                .map_err(|e| EulerError::Distributed(format!("worker {w} not ready: {e}")))?;
            if k != kind::READY {
                return Err(EulerError::Distributed(format!(
                    "worker {w} answered Init with frame kind {k}"
                )));
            }
            let [ckpt0] = read_words(&payload).map_err(EulerError::Distributed)?;
            if ckpt0 > 0 {
                self.recovery.checkpoints_written += 1;
                self.recovery.checkpoint_longs_written += ckpt0;
            }
        }
        Ok(())
    }
    fn start_receiver(&mut self, w: u32) {
        let h = &self.workers[w as usize];
        let conn = Arc::clone(&h.conn);
        let stop = Arc::clone(&h.stop_rx);
        let epoch = h.epoch;
        let tx = self.events_tx.clone();
        let handle = std::thread::spawn(move || loop {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            match conn.recv_timeout(Some(Duration::from_millis(100))) {
                Ok((kind, payload)) => {
                    if tx.send(Event::Frame { worker: w, epoch, kind, payload }).is_err() {
                        return;
                    }
                }
                Err(FrameError::Timeout) => continue,
                Err(_) => {
                    tx.send(Event::Dead { worker: w, epoch }).ok();
                    return;
                }
            }
        });
        self.workers[w as usize].recv_handle = Some(handle);
    }

    /// Coordinator→worker send of worker `w`'s retained Start with bounded
    /// retry, plus the scripted drop/delay injection (counted over Start
    /// frames).
    fn send_start(&mut self, w: u32) -> Result<(), FrameError> {
        let seq = self.start_seq;
        self.start_seq += 1;
        if self.cfg.plan.drop_nth_send == Some(seq) {
            return Ok(()); // injected loss: pretend it went out
        }
        if let Some((n, d)) = self.cfg.plan.delay_nth_send {
            if n == seq {
                std::thread::sleep(d);
            }
        }
        let conn = &self.workers[w as usize].conn;
        let payload = &self.inbox[w as usize];
        let mut last = FrameError::Closed;
        for attempt in 0..=self.cfg.policy.send_retries {
            match conn.send(kind::START, payload) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    last = e;
                    if attempt < self.cfg.policy.send_retries {
                        self.recovery.send_retries += 1;
                        std::thread::sleep(Duration::from_millis(5 << attempt));
                    }
                }
            }
        }
        Err(last)
    }

    /// Drives superstep `level` to a committed barrier. `record` is false
    /// during full-restart replay (the walk already consumed those levels).
    fn run_superstep(
        &mut self,
        level: u32,
        record: bool,
    ) -> Result<Option<LevelOutcome>, EulerError> {
        loop {
            let t_level = Instant::now();
            let mut deaths: Vec<u32> = Vec::new();
            for w in 0..self.cfg.num_workers as u32 {
                self.workers[w as usize].last_heard = Instant::now();
                if self.send_start(w).is_err() {
                    deaths.push(w);
                }
            }
            // Injected SIGKILL for process workers: the target stalls at
            // this superstep; kill it for real, mid-superstep.
            if let (Some((kw, ks)), WorkerSpawn::Processes { .. }, false) =
                (self.cfg.plan.kill, &self.cfg.spawn, self.kill_consumed)
            {
                if ks == level {
                    std::thread::sleep(Duration::from_millis(150));
                    if let Some(child) = &mut self.workers[kw as usize].child {
                        child.kill().ok();
                    }
                }
            }
            if deaths.is_empty() {
                deaths = self.wait_barrier(level)?.err().unwrap_or_default();
                if deaths.is_empty() {
                    // Barrier complete: commit the Done set stored by
                    // wait_barrier.
                    let dones = std::mem::take(&mut self.pending_dones);
                    return self.commit(level, dones, record, t_level.elapsed());
                }
            }
            self.recover(level, &deaths)?;
        }
    }

    /// Waits until every worker answered Done for `level` or died.
    /// `Ok(Ok(()))` leaves the Done payloads in `pending_dones`;
    /// `Ok(Err(dead))` lists the deceased.
    fn wait_barrier(&mut self, level: u32) -> Result<Result<(), Vec<u32>>, EulerError> {
        let mut pending: Vec<bool> = vec![true; self.cfg.num_workers];
        let mut deaths: Vec<u32> = Vec::new();
        self.pending_dones.clear();
        while pending.iter().any(|&p| p) {
            match self.events_rx.recv_timeout(Duration::from_millis(25)) {
                Ok(Event::Frame { worker, epoch, kind: k, payload }) => {
                    if self.workers[worker as usize].epoch != epoch {
                        continue; // stale connection
                    }
                    self.workers[worker as usize].last_heard = Instant::now();
                    match k {
                        kind::DONE => {
                            // Only the superstep is read here; the payload is
                            // decoded once, when the barrier commits.
                            let superstep = WordReader::new(&payload)
                                .and_then(|mut r| r.word())
                                .map_err(|e| {
                                    EulerError::Distributed(format!(
                                        "Done of worker {worker} is malformed: {e}"
                                    ))
                                })?;
                            if superstep == u64::from(level) && pending[worker as usize] {
                                pending[worker as usize] = false;
                                self.pending_dones.push((worker, payload));
                            }
                        }
                        kind::HEARTBEAT | kind::BYE | kind::RESTORE_ACK
                        | kind::RESTORE_FAILED | kind::READY => {}
                        other => {
                            return Err(EulerError::Distributed(format!(
                                "unexpected frame kind {other} from worker {worker}"
                            )))
                        }
                    }
                }
                Ok(Event::Dead { worker, epoch }) => {
                    if self.workers[worker as usize].epoch == epoch
                        && pending[worker as usize]
                    {
                        pending[worker as usize] = false;
                        deaths.push(worker);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(EulerError::Distributed(
                        "coordinator event channel closed".into(),
                    ))
                }
            }
            // Heartbeat deadline sweep over still-pending workers.
            let timeout = self.cfg.policy.heartbeat_timeout;
            for (w, still_pending) in pending.iter_mut().enumerate() {
                if *still_pending && self.workers[w].last_heard.elapsed() > timeout {
                    *still_pending = false;
                    deaths.push(w as u32);
                    self.recovery.heartbeat_misses += 1;
                    self.warnings.push(format!(
                        "worker {w} missed heartbeats for {timeout:?} at superstep {level}; declared dead"
                    ));
                    // Tear the connection down so a stuck-but-alive worker
                    // (or its receiver thread) cannot haunt the new epoch.
                    self.workers[w].stop_rx.store(true, Ordering::Relaxed);
                    if let Some(child) = &mut self.workers[w].child {
                        child.kill().ok();
                    }
                }
            }
        }
        Ok(if deaths.is_empty() { Ok(()) } else { Err(deaths) })
    }

    /// Commits a completed barrier: decodes each Done once, routes shipped
    /// states into the next superstep's Start payloads, stores fragments,
    /// accounts stats, and (when `record`) assembles the level outcome. A
    /// Done that does not decode fails the run.
    fn commit(
        &mut self,
        level: u32,
        mut dones: Vec<(u32, Vec<u8>)>,
        record: bool,
        wall: Duration,
    ) -> Result<Option<LevelOutcome>, EulerError> {
        dones.sort_by_key(|(w, _)| *w);
        let mut decoded = Vec::with_capacity(dones.len());
        for (w, payload) in &dones {
            let done = decode_done(payload).map_err(|e| {
                EulerError::Distributed(format!("Done of worker {w} did not decode: {e}"))
            })?;
            decoded.push((*w, done));
        }
        let mut stats = SuperstepStats::new(level);
        stats.wall_time = wall;
        let mut routes: Vec<Vec<&[u8]>> = vec![Vec::new(); self.cfg.num_workers];
        let mut frags: Vec<Fragment> = Vec::new();
        let mut outcome = LevelOutcome::default();
        for (w, done) in &mut decoded {
            for &(to, state) in &done.outgoing {
                let dst = owner(to, self.cfg.num_workers);
                let bytes = state.len() as u64;
                if dst == *w as usize {
                    stats.local_messages += 1;
                    stats.local_bytes += bytes;
                } else {
                    stats.remote_messages += 1;
                    stats.remote_bytes += bytes;
                }
                routes[dst].push(state);
            }
            frags.append(&mut done.fragments);
            if done.checkpoint_longs > 0 {
                self.recovery.checkpoints_written += 1;
                self.recovery.checkpoint_longs_written += done.checkpoint_longs;
            }
            for (r, post) in done.reports.iter().zip(&done.post_memory) {
                stats.compute_time += r.phase1_time + r.merge_time;
                let mut bd = TimeBreakdown::new();
                bd.add("phase1_tour", r.phase1_time);
                bd.add("create_partition_object", r.merge_time);
                stats.per_partition_compute.push((r.partition.0, bd));
                stats.memory.record(format!("P{}", r.partition.0), *post);
            }
            outcome.transfer_longs += done.transfer_longs;
            outcome.reports.append(&mut done.reports);
        }
        // The committed barrier's Starts are spent: their buffers take the
        // next superstep's.
        for (start, states) in self.inbox.iter_mut().zip(&routes) {
            encode_start(level + 1, states, start);
        }
        outcome.reports.sort_by_key(|r| r.partition);
        stats.active_partitions = outcome.reports.len();
        stats.per_partition_compute.sort_by_key(|(p, _)| *p);
        self.committed_frags.insert(level, frags);
        if record {
            self.superstep_stats.push(stats);
            Ok(Some(outcome))
        } else {
            Ok(None)
        }
    }
    /// Recovers from worker deaths detected during `level`: rollback +
    /// respawn + restore when checkpoints exist, full deterministic replay
    /// otherwise.
    fn recover(&mut self, level: u32, deaths: &[u32]) -> Result<(), EulerError> {
        for &w in deaths {
            let h = &mut self.workers[w as usize];
            h.restarts += 1;
            if h.restarts > self.cfg.policy.max_worker_restarts {
                return Err(EulerError::Distributed(format!(
                    "worker {w} exceeded the restart budget ({}) at superstep {level}",
                    self.cfg.policy.max_worker_restarts
                )));
            }
            h.stop_rx.store(true, Ordering::Relaxed);
            if let Some(mut child) = h.child.take() {
                child.kill().ok();
                child.wait().ok();
            }
            self.recovery.restarts += 1;
        }
        if self.cfg.plan.kill.is_some_and(|(_, ks)| ks == level) {
            self.kill_consumed = true;
        }
        if self.cfg.checkpoint_dir.is_some() {
            self.warnings.push(format!(
                "worker(s) {deaths:?} died at superstep {level}; rolling back to checkpoint {level} and respawning"
            ));
            if self.try_rollback_restore(level, deaths)? {
                return Ok(());
            }
            self.warnings
                .push(format!("checkpoint restore for superstep {level} failed; replaying the run from the seed"));
        } else {
            self.warnings.push(format!(
                "worker(s) {deaths:?} died at superstep {level} with checkpointing disabled; replaying the run from the seed"
            ));
        }
        self.full_restart(level, deaths)
    }

    /// Rollback path: survivors reload checkpoint `level`, the dead are
    /// respawned and restored from the same checkpoint. Returns false if
    /// any restore was refused (missing/torn/foreign checkpoint).
    fn try_rollback_restore(
        &mut self,
        level: u32,
        deaths: &[u32],
    ) -> Result<bool, EulerError> {
        let mut ok = true;
        let restore = word_payload(&[level as u64]);
        // Survivors first: they are idle after the broken barrier.
        for w in 0..self.cfg.num_workers as u32 {
            if deaths.contains(&w) {
                continue;
            }
            if self.workers[w as usize].conn.send(kind::RESTORE, &restore).is_err() {
                ok = false;
                continue;
            }
            ok &= self.await_restore_ack(w, level)?;
        }
        self.spawn_workers(deaths)?;
        self.init_workers(deaths)?;
        for &w in deaths {
            if self.workers[w as usize].conn.send(kind::RESTORE, &restore).is_err() {
                ok = false;
            } else {
                ok &= self.await_restore_ack_direct(w, level)?;
            }
            self.start_receiver(w);
        }
        Ok(ok)
    }

    /// Books a RESTORE_ACK / RESTORE_FAILED answer for `level`; returns
    /// whether the restore succeeded. Other frames are ignored (`None`).
    fn restore_answer(
        &mut self,
        k: u16,
        payload: &[u8],
        level: u32,
    ) -> Result<Option<bool>, EulerError> {
        match k {
            kind::RESTORE_ACK => {
                let [superstep, longs] = read_words(payload).map_err(EulerError::Distributed)?;
                if superstep != u64::from(level) {
                    return Ok(None); // a stale answer for another superstep
                }
                self.recovery.checkpoint_longs_restored += longs;
                Ok(Some(true))
            }
            kind::RESTORE_FAILED => {
                let [_, ignored] = read_words(payload).map_err(EulerError::Distributed)?;
                self.recovery.checkpoints_ignored += ignored;
                Ok(Some(false))
            }
            _ => Ok(None),
        }
    }

    /// Restore acknowledgement for a worker whose receiver thread is live
    /// (survivors): consumed through the event channel.
    fn await_restore_ack(&mut self, w: u32, level: u32) -> Result<bool, EulerError> {
        let deadline = Instant::now() + self.cfg.policy.heartbeat_timeout;
        while Instant::now() < deadline {
            match self.events_rx.recv_timeout(Duration::from_millis(25)) {
                Ok(Event::Frame { worker, epoch, kind: k, payload })
                    if worker == w && self.workers[w as usize].epoch == epoch =>
                {
                    // Anything else is a stale Done/heartbeat from the broken
                    // barrier.
                    if let Some(restored) = self.restore_answer(k, &payload, level)? {
                        return Ok(restored);
                    }
                }
                Ok(Event::Dead { worker, epoch })
                    if worker == w && self.workers[w as usize].epoch == epoch =>
                {
                    return Ok(false)
                }
                Ok(_) => {}
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(EulerError::Distributed(
                        "coordinator event channel closed".into(),
                    ))
                }
            }
        }
        Ok(false)
    }

    /// Restore acknowledgement read directly off a fresh connection (the
    /// respawned worker's receiver thread starts only afterwards).
    fn await_restore_ack_direct(&mut self, w: u32, level: u32) -> Result<bool, EulerError> {
        let answer =
            self.workers[w as usize].conn.recv_timeout(Some(self.cfg.policy.heartbeat_timeout));
        match answer {
            Ok((k, payload)) => Ok(self.restore_answer(k, &payload, level)?.unwrap_or(false)),
            Err(_) => Ok(false),
        }
    }

    /// Full-restart path: the dead are respawned fresh, survivors are
    /// re-initialised in place, and supersteps `0..level` replay
    /// deterministically with their outcomes suppressed (the walk already
    /// consumed them).
    fn full_restart(&mut self, level: u32, deaths: &[u32]) -> Result<(), EulerError> {
        self.recovery.full_restarts += 1;
        let survivors: Vec<u32> =
            (0..self.cfg.num_workers as u32).filter(|w| !deaths.contains(w)).collect();
        for &w in &survivors {
            // Restart the receiver under a new epoch so frames of the
            // abandoned barrier cannot leak into the replay. The old
            // receiver is *joined* (it exits within one poll interval)
            // before re-Init, so it cannot steal the Ready frame off the
            // still-shared connection.
            let h = &mut self.workers[w as usize];
            h.stop_rx.store(true, Ordering::Relaxed);
            if let Some(recv) = h.recv_handle.take() {
                recv.join().ok();
            }
            h.epoch += 1;
            h.stop_rx = Arc::new(AtomicBool::new(false));
        }
        self.spawn_workers(deaths)?;
        let all: Vec<u32> = (0..self.cfg.num_workers as u32).collect();
        self.init_workers(&all)?;
        for w in all {
            self.start_receiver(w);
        }
        for start in &mut self.inbox {
            encode_start(0, &[], start);
        }
        for ss in 0..level {
            self.run_superstep(ss, false)?;
        }
        Ok(())
    }
}
impl Drop for DistRun {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Owner worker of a partition slot: round-robin by partition id.
fn owner(slot: u32, num_workers: usize) -> usize {
    (slot as usize) % num_workers.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::encode_fragment;
    use crate::state::{LocalEdge, RemoteRef};
    use euler_graph::{EdgeId, VertexId};
    use crate::test_support::{alloc_probe, mutate, ALLOC_RATIO, ALLOC_SLACK};
    use proptest::prelude::*;
    use std::sync::{Mutex, OnceLock};

    fn tiny_tree() -> MergeTree {
        MergeTree {
            levels: vec![vec![MergePair {
                parent: PartitionId(0),
                child: PartitionId(1),
                weight: 3,
            }]],
            root: PartitionId(0),
            leaves: vec![PartitionId(0), PartitionId(1)],
        }
    }

    fn test_init(dir: Option<PathBuf>) -> InitMsg {
        InitMsg {
            worker_id: 0,
            num_workers: 1,
            strategy: MergeStrategy::Deferred,
            heartbeat_interval: Duration::from_millis(50),
            kill: None,
            kill_mode: KillMode::Exit,
            checkpoint_dir: dir,
        }
    }

    fn sample_state(id: u32) -> WorkingPartition {
        WorkingPartition {
            id: PartitionId(id),
            leaves: vec![PartitionId(id)],
            level: 0,
            local_edges: vec![
                LocalEdge { edge: EdgeRef::Real(EdgeId(7)), u: VertexId(1), v: VertexId(2) },
                LocalEdge {
                    edge: EdgeRef::Virtual(FragmentId(prov_id(0, id, 3))),
                    u: VertexId(2),
                    v: VertexId(1),
                },
            ],
            remote_edges: vec![RemoteRef {
                edge: EdgeId(9),
                local: VertexId(1),
                remote: VertexId(40),
                local_leaf: PartitionId(id),
                remote_leaf: PartitionId(id + 1),
            }],
            isolated_vertices: 2,
        }
    }

    fn encoded(wp: &WorkingPartition) -> Vec<u8> {
        let mut out = Vec::new();
        wire::encode(wp, &mut out);
        out
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("euler-dist-hygiene-{}-{}", tag, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn init_message_roundtrips() {
        let dir = Some(PathBuf::from("/tmp/ckpts"));
        let mut m = test_init(dir.clone());
        m.kill = Some((3, 2));
        let seeds = vec![sample_state(0), sample_state(2)];
        let mut payload = Vec::new();
        encode_init(&m, &tiny_tree(), &seeds, &mut payload);
        let (got, tree, got_seeds) = decode_init(&payload).unwrap();
        assert_eq!(got.worker_id, m.worker_id);
        assert_eq!(got.kill, m.kill);
        assert_eq!(got.checkpoint_dir, dir);
        assert_eq!(tree.leaves, tiny_tree().leaves);
        assert_eq!(tree.levels, tiny_tree().levels);
        assert_eq!(
            got_seeds.iter().map(encoded).collect::<Vec<_>>(),
            seeds.iter().map(encoded).collect::<Vec<_>>()
        );
    }

    #[test]
    fn missing_checkpoint_refusal_is_not_ignored() {
        // Checkpointing disabled → refusal without "ignored" (nothing was
        // found and discarded); same for an enabled dir with no file yet.
        let mut s = WorkerState::build(test_init(None), tiny_tree(), Vec::new());
        assert!(!s.restore(0).unwrap_err().ignored);
        let dir = scratch("missing");
        let mut s = WorkerState::build(test_init(Some(dir.clone())), tiny_tree(), Vec::new());
        assert!(!s.restore(0).unwrap_err().ignored);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_checkpoint_is_detected_and_ignored_at_restore() {
        let dir = scratch("torn");
        let mut s = WorkerState::build(test_init(Some(dir.clone())), tiny_tree(), Vec::new());
        assert!(s.write_ckpt(0, &[]) > 0);
        assert!(s.restore(0).is_ok(), "pristine checkpoint must restore");
        // Tear the file mid-payload, as a crash during a (non-atomic) write
        // or a truncated copy would.
        let path = checkpoint_file(&dir, 0, 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(s.restore(0).unwrap_err().ignored);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn foreign_version_checkpoint_is_detected_and_ignored_at_restore() {
        let dir = scratch("version");
        let mut s = WorkerState::build(test_init(Some(dir.clone())), tiny_tree(), Vec::new());
        assert!(s.write_ckpt(1, &[]) > 0);
        // Word 1 of the container is the format version; stamp a future one.
        let path = checkpoint_file(&dir, 0, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(s.restore(1).unwrap_err().ignored);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupted_checkpoint_payload_is_detected_and_ignored_at_restore() {
        let dir = scratch("corrupt");
        let mut s = WorkerState::build(test_init(Some(dir.clone())), tiny_tree(), Vec::new());
        assert!(s.write_ckpt(2, &[]) > 0);
        let path = checkpoint_file(&dir, 0, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(s.restore(2).unwrap_err().ignored);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Every frame sent, as `(kind, payload)`.
    type Frames = Arc<Mutex<Vec<(u16, Vec<u8>)>>>;

    /// A [`Transport`] over [`euler_bsp::MemTransport`] that records every
    /// frame sent.
    struct Recorder {
        frames: Frames,
    }

    struct RecordingListener {
        inner: Box<dyn Listener>,
        frames: Frames,
    }

    struct RecordingConnection {
        inner: Box<dyn Connection>,
        frames: Frames,
    }

    impl Connection for RecordingConnection {
        fn send(&self, kind: u16, payload: &[u8]) -> Result<(), FrameError> {
            self.frames.lock().unwrap().push((kind, payload.to_vec()));
            self.inner.send(kind, payload)
        }

        fn recv_timeout(&self, timeout: Option<Duration>) -> Result<(u16, Vec<u8>), FrameError> {
            self.inner.recv_timeout(timeout)
        }
    }

    impl Listener for RecordingListener {
        fn endpoint(&self) -> String {
            self.inner.endpoint()
        }

        fn accept(&self, timeout: Duration) -> Result<Box<dyn Connection>, FrameError> {
            let inner = self.inner.accept(timeout)?;
            Ok(Box::new(RecordingConnection { inner, frames: Arc::clone(&self.frames) }))
        }
    }

    impl Transport for Recorder {
        fn name(&self) -> &'static str {
            "recording-mem"
        }

        fn listen(&self) -> Result<Box<dyn Listener>, FrameError> {
            let inner = euler_bsp::MemTransport.listen()?;
            Ok(Box::new(RecordingListener { inner, frames: Arc::clone(&self.frames) }))
        }

        fn connect(&self, endpoint: &str) -> Result<Box<dyn Connection>, FrameError> {
            let inner = euler_bsp::MemTransport.connect(endpoint)?;
            Ok(Box::new(RecordingConnection { inner, frames: Arc::clone(&self.frames) }))
        }
    }

    /// Real payloads of every decoder, taken from an 8-part torus run on
    /// two workers over the in-memory transport.
    struct Corpus {
        inits: Vec<Vec<u8>>,
        starts: Vec<Vec<u8>>,
        dones: Vec<Vec<u8>>,
        states: Vec<Vec<u8>>,
        fragments: Vec<Vec<u8>>,
    }

    fn corpus() -> &'static Corpus {
        static CORPUS: OnceLock<Corpus> = OnceLock::new();
        CORPUS.get_or_init(|| {
            let frames = Arc::new(Mutex::new(Vec::new()));
            let g = euler_gen::synthetic::torus_grid(12, 12);
            crate::EulerPipeline::builder()
                .graph(&g)
                .partitioner(euler_partition::HashPartitioner::new(8))
                .backend(
                    crate::BspBackend::with_engine(euler_bsp::BspConfig::with_workers(2))
                        .with_transport(Arc::new(Recorder { frames: Arc::clone(&frames) })),
                )
                .build()
                .unwrap()
                .run()
                .unwrap();
            let frames = std::mem::take(&mut *frames.lock().unwrap());
            let of = |k: u16| -> Vec<Vec<u8>> {
                frames.iter().filter(|(fk, _)| *fk == k).map(|(_, p)| p.clone()).collect()
            };
            let (inits, starts, dones) = (of(kind::INIT), of(kind::START), of(kind::DONE));
            let mut states: Vec<Vec<u8>> = Vec::new();
            for init in &inits {
                states.extend(decode_init(init).unwrap().2.iter().map(encoded));
            }
            for start in &starts {
                states.extend(decode_start(start).unwrap().1.iter().map(|s| s.to_vec()));
            }
            let mut fragments = Vec::new();
            for done in &dones {
                for f in decode_done(done).unwrap().fragments {
                    let mut rec = Vec::new();
                    encode_fragment(&f, &mut rec);
                    fragments.push(rec);
                }
            }
            Corpus { inits, starts, dones, states, fragments }
        })
    }

    fn pick(items: &[Vec<u8>], which: u64) -> &[u8] {
        &items[(which % items.len() as u64) as usize]
    }

    #[test]
    fn the_corpus_covers_every_decoder_and_decodes() {
        let c = corpus();
        for (name, items) in [
            ("init", &c.inits),
            ("start", &c.starts),
            ("done", &c.dones),
            ("state", &c.states),
            ("fragment", &c.fragments),
        ] {
            assert!(!items.is_empty(), "no {name} payloads captured");
        }
        assert_eq!(c.inits.len(), 2, "one Init per worker");
        assert!(c.starts.iter().any(|s| !decode_start(s).unwrap().1.is_empty()));
        for s in &c.states {
            assert_eq!(encoded(&wire::decode(s).unwrap()), *s);
        }
        for f in &c.fragments {
            let mut rec = Vec::new();
            encode_fragment(&decode_fragment(FragmentId(0), f).unwrap(), &mut rec);
            assert_eq!(rec, *f);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Start messages round-trip for any superstep and payload set.
        #[test]
        fn start_message_roundtrips(
            superstep in 0u64..1000,
            msgs in prop::collection::vec(prop::collection::vec(0u64..1_000_000, 0..12), 0..6),
        ) {
            let msgs: Vec<Vec<u8>> = msgs.iter().map(|m| word_payload(m)).collect();
            let slices: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
            let mut payload = Vec::new();
            encode_start(superstep as u32, &slices, &mut payload);
            let (ss, got) = decode_start(&payload).unwrap();
            prop_assert_eq!(ss, superstep as u32);
            prop_assert_eq!(got, slices);
        }

        /// Decoding random garbage words returns a typed error or a
        /// harmless value — never a panic, never an unbounded allocation.
        #[test]
        fn protocol_decoders_never_panic_on_garbage(
            words in prop::collection::vec(0u64..u64::MAX, 0..40),
        ) {
            let payload = word_payload(&words);
            let _ = decode_init(&payload);
            let _ = decode_start(&payload);
            let _ = decode_done(&payload);
            let _ = wire::decode(&payload);
            let _ = decode_fragment(FragmentId(0), &payload);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every decoder past the trust boundary, fed a real payload with a
        /// flipped byte, a truncation or appended words, returns `Ok` or a
        /// typed error — no panic — and makes no allocation larger than a
        /// small multiple of the payload (plus a constant for error text).
        #[test]
        fn mutated_real_payloads_yield_typed_errors_without_over_allocating(
            which in any::<u64>(),
            op in 0u64..4,
            at in any::<u64>(),
            noise in any::<u64>(),
        ) {
            let c = corpus();
            let check = |name: &str, payload: &[u8], decode: &dyn Fn(&[u8]) -> bool| {
                let mutated = mutate(payload, op, at, noise);
                let (_, largest) = alloc_probe::largest_during(|| decode(&mutated));
                assert!(
                    largest <= ALLOC_RATIO * mutated.len() + ALLOC_SLACK,
                    "{name}: a {}-byte payload allocated {largest} bytes",
                    mutated.len()
                );
            };
            check("init", pick(&c.inits, which), &|p| decode_init(p).is_ok());
            check("start", pick(&c.starts, which), &|p| decode_start(p).is_ok());
            check("done", pick(&c.dones, which), &|p| decode_done(p).is_ok());
            check("state", pick(&c.states, which), &|p| wire::decode(p).is_ok());
            check("fragment", pick(&c.fragments, which), &|p| {
                decode_fragment(FragmentId(0), p).is_ok()
            });
        }
    }

    /// Checkpoint restore reads real worker state (a captured Init, one
    /// superstep run) back through a mutated payload: `Ok` or a refusal,
    /// never a panic, no allocation beyond a small multiple of the file.
    #[test]
    fn restore_of_a_mutated_real_checkpoint_is_refused_or_ok() {
        let dir = scratch("mutated");
        let (mut init, tree, seeds) = decode_init(&corpus().inits[0]).unwrap();
        init.checkpoint_dir = Some(dir.clone());
        let mut st = WorkerState::build(init, tree, seeds);
        st.superstep(0, &[], &mut Vec::new()).unwrap();
        let path = checkpoint_file(&dir, 0, 1);
        let pristine = read_checkpoint(&path).unwrap();
        assert!(st.restore(1).is_ok(), "the pristine checkpoint restores");
        let mut rng = proptest::TestRng::for_case("restore_mutations", 0);
        for case in 0..96 {
            let mut payload = mutate(&pristine, case, rng.next_u64(), rng.next_u64());
            payload.truncate(payload.len() / 8 * 8); // the container holds whole words
            write_checkpoint(&path, &payload).unwrap();
            let file_len = std::fs::metadata(&path).unwrap().len() as usize;
            let (result, largest) = alloc_probe::largest_during(|| st.restore(1));
            assert!(
                largest <= ALLOC_RATIO * file_len + ALLOC_SLACK,
                "{file_len}-byte file allocated {largest}"
            );
            if let Err(refusal) = result {
                assert!(refusal.ignored, "a present but unusable checkpoint is ignored");
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
