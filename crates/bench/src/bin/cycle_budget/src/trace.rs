//! In-memory spans for the traced pass.
//!
//! The benchmark opens a span around every call it makes into a layer
//! (workload → repetition → op → direct layer probe); the protocol's
//! own phases arrive as `PhaseEnter`/`PhaseExit` events on the cluster's
//! existing [`EventBus`](skt_cluster::EventBus) and become child spans
//! of whatever the *emitting thread* has open — rank closures bind
//! their thread to a rank, so a phase lands under that rank's op.
//! `BytesMoved` and `Collective` events are counted into the innermost
//! open span, so ratios are measured at the boundary where the work
//! happens. Nothing is written until the run ends.

use crate::json;
use skt_cluster::{Event, Observer};
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// Index of a span in the tracer's table.
pub type SpanId = usize;

/// Work counted at a span boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `Event::Collective`s completed.
    pub collectives: u64,
    /// Payload bytes this rank contributed to them.
    pub collective_bytes: u64,
    /// Time this rank spent inside them.
    pub collective_ns: u64,
    /// `Event::BytesMoved` bytes (the flush copies).
    pub bytes_moved: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.collectives += o.collectives;
        self.collective_bytes += o.collective_bytes;
        self.collective_ns += o.collective_ns;
        self.bytes_moved += o.bytes_moved;
    }
}

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    pub name: String,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Dense index of the thread that opened the span.
    pub thread: usize,
    /// Rank that thread was bound to, when the benchmark launched it.
    pub rank: Option<usize>,
    /// Checkpoint epoch, for op and phase spans.
    pub epoch: Option<u64>,
    /// Work counted directly into this span (children excluded).
    pub counts: Counts,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct ThreadState {
    index: usize,
    rank: Option<usize>,
    open: Vec<SpanId>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    threads: HashMap<ThreadId, ThreadState>,
    /// Parent for spans opened by threads with nothing open — rank
    /// threads a library call launched on the benchmark's behalf.
    ambient: Option<SpanId>,
}

impl Inner {
    fn thread(&mut self) -> &mut ThreadState {
        let next = self.threads.len();
        self.threads
            .entry(std::thread::current().id())
            .or_insert_with(|| ThreadState {
                index: next,
                ..ThreadState::default()
            })
    }

    fn innermost(&mut self) -> Option<SpanId> {
        let ambient = self.ambient;
        self.thread().open.last().copied().or(ambient)
    }
}

/// The span table. Shared by the benchmark's threads and, as an
/// [`Observer`], by every thread that emits on a subscribed bus.
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Every update leaves the table valid, so a rank thread that
        // panicked while recording must not hide the spans of the rest.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open_at(&self, parent: Option<SpanId>, name: &str, epoch: Option<u64>) -> SpanId {
        let start_ns = self.now_ns();
        let mut g = self.lock();
        let id = g.spans.len();
        let parent = parent.or_else(|| g.innermost());
        let t = g.thread();
        t.open.push(id);
        let (thread, rank) = (t.index, t.rank);
        g.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            thread,
            rank,
            epoch,
            counts: Counts::default(),
        });
        id
    }

    /// Open a span under whatever this thread has open (else under the
    /// ambient span).
    pub fn open(&self, name: &str, epoch: Option<u64>) -> SpanId {
        self.open_at(None, name, epoch)
    }

    /// Open a span on this thread under an explicit parent — how a rank
    /// thread hangs its op under the repetition the main thread opened.
    pub fn open_under(&self, parent: SpanId, name: &str, epoch: Option<u64>) -> SpanId {
        self.open_at(Some(parent), name, epoch)
    }

    /// Close `id` (and anything this thread opened inside it that an
    /// error path left open).
    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        let mut g = self.lock();
        let open = &mut g.thread().open;
        let Some(pos) = open.iter().rposition(|&s| s == id) else {
            return;
        };
        let closed: Vec<SpanId> = open.drain(pos..).collect();
        for s in closed {
            g.spans[s].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn within<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, None);
        let out = f();
        self.close(id);
        out
    }

    /// Attribute everything this thread records from now on to `rank`.
    pub fn bind_rank(&self, rank: usize) {
        self.lock().thread().rank = Some(rank);
    }

    /// Set the parent of spans from threads that have nothing open.
    pub fn set_ambient(&self, span: Option<SpanId>) {
        self.lock().ambient = span;
    }

    /// Snapshot of every span recorded so far, id order. Spans still
    /// open (an aborted rank's phases) read as zero-length.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

impl Observer for Tracer {
    fn on_event(&self, event: &Event) {
        match *event {
            Event::PhaseEnter { label, epoch } => {
                self.open(label, Some(epoch));
            }
            Event::PhaseExit { label, .. } => {
                let id = {
                    let mut g = self.lock();
                    let Inner { spans, threads, .. } = &mut *g;
                    threads
                        .get(&std::thread::current().id())
                        .and_then(|t| t.open.iter().rev().find(|&&s| spans[s].name == label))
                        .copied()
                };
                if let Some(id) = id {
                    self.close(id);
                }
            }
            Event::BytesMoved { bytes, .. } => {
                let mut g = self.lock();
                if let Some(s) = g.innermost() {
                    g.spans[s].counts.bytes_moved += bytes;
                }
            }
            Event::Collective { bytes, elapsed, .. } => {
                let mut g = self.lock();
                if let Some(s) = g.innermost() {
                    let c = &mut g.spans[s].counts;
                    c.collectives += 1;
                    c.collective_bytes += bytes;
                    c.collective_ns += elapsed.as_nanos() as u64;
                }
            }
            _ => {}
        }
    }
}

/// Run `f` inside a span when tracing (`ambient`: the span also adopts
/// what threads a library call launches record), plainly otherwise.
pub fn scoped<T>(
    tracer: Option<&Arc<Tracer>>,
    name: &str,
    ambient: bool,
    f: impl FnOnce() -> T,
) -> T {
    let Some(t) = tracer else {
        return f();
    };
    let id = t.open(name, None);
    if ambient {
        t.set_ambient(Some(id));
    }
    let out = f();
    if ambient {
        t.set_ambient(None);
    }
    t.close(id);
    out
}

/// Per span, its duration minus the part of that interval its child
/// spans cover. Children on different threads overlap, so their union
/// is subtracted, not their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span, the counts of the span and everything beneath it.
pub fn inclusive_counts(spans: &[Span]) -> Vec<Counts> {
    let mut total: Vec<Counts> = spans.iter().map(|s| s.counts).collect();
    // A parent is always opened before its children, so ids descend
    // toward the root.
    for s in spans.iter().rev() {
        if let Some(p) = s.parent {
            let child = total[s.id];
            total[p].add(&child);
        }
    }
    total
}

/// Durations in milliseconds of every closed span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.end_ns > s.start_ns)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

fn opt(v: Option<impl std::fmt::Display>) -> String {
    v.map_or("null".into(), |v| v.to_string())
}

/// Write `<prefix>.spans.jsonl` (one span per line, with self time and
/// inclusive counts) and `<prefix>.chrome.json` (open it in
/// `chrome://tracing` or <https://ui.perfetto.dev>).
pub fn write_files(prefix: &str, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let totals = inclusive_counts(spans);
    let mut f = std::io::BufWriter::new(std::fs::File::create(format!("{prefix}.spans.jsonl"))?);
    for s in spans {
        let c = totals[s.id];
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
             \"thread\":{},\"rank\":{},\"epoch\":{},\"collectives\":{},\"collective_bytes\":{},\
             \"collective_ns\":{},\"bytes_moved\":{}}}",
            s.id,
            opt(s.parent),
            json::quote(&s.name),
            s.start_ns,
            s.end_ns,
            selfs[s.id],
            s.thread,
            opt(s.rank),
            opt(s.epoch),
            c.collectives,
            c.collective_bytes,
            c.collective_ns,
            c.bytes_moved,
        )?;
    }
    f.flush()?;

    let mut f = std::io::BufWriter::new(std::fs::File::create(format!("{prefix}.chrome.json"))?);
    writeln!(f, "[")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            f,
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"rank\":{},\"epoch\":{},\"self_us\":{:.3}}}}}{}",
            json::quote(&s.name),
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            opt(s.parent),
            opt(s.rank),
            opt(s.epoch),
            selfs[s.id] as f64 / 1e3,
            if i + 1 == spans.len() { "" } else { "," },
        )?;
    }
    writeln!(f, "]")?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            thread: 0,
            rank: None,
            epoch: None,
            counts: Counts::default(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60), // overlaps span 1 (another rank's thread)
            span(3, Some(0), 90, 130), // runs past the parent: clipped
            span(4, Some(1), 10, 40), // grandchild: only taxes span 1
        ];
        // children cover [10, 60) and [90, 100): 60 of 100
        assert_eq!(self_times(&spans), vec![40, 0, 30, 40, 30]);
    }

    #[test]
    fn counts_roll_up_to_every_ancestor() {
        let mut spans = vec![
            span(0, None, 0, 9),
            span(1, Some(0), 1, 8),
            span(2, Some(1), 2, 3),
            span(3, Some(1), 4, 5),
        ];
        spans[2].counts.bytes_moved = 64;
        spans[3].counts.collectives = 2;
        spans[3].counts.collective_bytes = 16;
        spans[1].counts.collectives = 1;
        let t = inclusive_counts(&spans);
        assert_eq!((t[0].collectives, t[0].bytes_moved), (3, 64));
        assert_eq!(t[1], t[0]);
        assert_eq!(t[2].bytes_moved, 64);
        assert_eq!(t[3].collective_bytes, 16);
    }

    #[test]
    fn events_land_under_the_emitting_threads_rank() {
        let tracer = Tracer::new();
        let rep = tracer.open("repetition", None);
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            for rank in 0..2usize {
                let (tracer, gate) = (&tracer, &gate);
                scope.spawn(move || {
                    tracer.bind_rank(rank);
                    let op = tracer.open_under(rep, "make", Some(7));
                    // both ranks are inside their op before either emits
                    gate.wait();
                    tracer.on_event(&Event::PhaseEnter {
                        label: "ckpt-flush-b",
                        epoch: 7,
                    });
                    tracer.on_event(&Event::BytesMoved {
                        label: "ckpt-flush-b",
                        bytes: 100 + rank as u64,
                    });
                    tracer.on_event(&Event::PhaseExit {
                        label: "ckpt-flush-b",
                        epoch: 7,
                        elapsed: Duration::from_micros(1),
                    });
                    tracer.on_event(&Event::Collective {
                        op: "reduce",
                        bytes: 8,
                        elapsed: Duration::from_nanos(5),
                    });
                    tracer.close(op);
                });
            }
        });
        tracer.close(rep);
        let spans = tracer.spans();
        let totals = inclusive_counts(&spans);
        for rank in 0..2usize {
            let op = spans
                .iter()
                .find(|s| s.name == "make" && s.rank == Some(rank))
                .expect("each rank recorded its op");
            assert_eq!(op.parent, Some(rep));
            let phase = spans
                .iter()
                .find(|s| s.name == "ckpt-flush-b" && s.rank == Some(rank))
                .expect("the phase inherits the thread's rank");
            assert_eq!(
                phase.parent,
                Some(op.id),
                "phase nests under its own rank's op"
            );
            assert_eq!(phase.epoch, Some(7));
            assert_eq!(phase.counts.bytes_moved, 100 + rank as u64);
            assert_eq!(
                op.counts.collectives, 1,
                "the collective ran outside the phase"
            );
            assert_eq!(totals[op.id].bytes_moved, 100 + rank as u64);
        }
        assert_eq!(totals[rep].collectives, 2);
        assert_ne!(
            spans.iter().find(|s| s.rank == Some(0)).map(|s| s.thread),
            spans.iter().find(|s| s.rank == Some(1)).map(|s| s.thread),
        );
    }

    #[test]
    fn unbound_threads_fall_back_to_the_ambient_span() {
        let tracer = Tracer::new();
        let op = tracer.open("service.run", None);
        tracer.set_ambient(Some(op));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                tracer.on_event(&Event::PhaseEnter {
                    label: "ckpt-encode",
                    epoch: 1,
                });
                tracer.on_event(&Event::PhaseExit {
                    label: "ckpt-encode",
                    epoch: 1,
                    elapsed: Duration::ZERO,
                });
            });
        });
        tracer.set_ambient(None);
        tracer.close(op);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(op));
        assert_eq!(spans[1].rank, None);
    }

    #[test]
    fn closing_an_op_closes_phases_an_error_path_left_open() {
        let tracer = Tracer::new();
        let op = tracer.open("recover", None);
        tracer.on_event(&Event::PhaseEnter {
            label: "recover",
            epoch: 3,
        });
        tracer.close(op);
        let spans = tracer.spans();
        assert_eq!(spans[1].end_ns, spans[0].end_ns);
        assert!(tracer.lock().thread().open.is_empty());
    }
}
