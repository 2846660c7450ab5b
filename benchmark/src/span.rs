//! In-memory spans, recorded from the benchmark's own files around the
//! calls into each layer's public functions, written out at exit.
//!
//! Only the traced mode creates a recorder that is ever switched on;
//! the timed mode records nothing.

use std::cell::RefCell;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// The layer a span's time belongs to: one per crate on the query path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `dnsttl-wire`.
    Wire,
    /// `dnsttl-auth`.
    Auth,
    /// `dnsttl-netsim`.
    Netsim,
    /// `dnsttl-resolver`.
    Resolver,
    /// `dnsttl-atlas`, and the experiment's world construction.
    Atlas,
    /// `dnsttl-telemetry`.
    Telemetry,
    /// `dnsttl-analysis`.
    Analysis,
}

impl Layer {
    /// The layer's name in metrics and in `trace.jsonl`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Wire => "wire",
            Layer::Auth => "auth",
            Layer::Netsim => "netsim",
            Layer::Resolver => "resolver",
            Layer::Atlas => "atlas",
            Layer::Telemetry => "telemetry",
            Layer::Analysis => "analysis",
        }
    }
}

/// One closed (or still open) span. Ids start at 1; parent 0 is "none".
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// This span's id.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: u32,
    /// What was called.
    pub name: &'static str,
    /// Whose time it is.
    pub layer: Layer,
    /// Host nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Host nanoseconds the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span store. Cheap to consult when off: one flag test.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The recorder as the driver and the wrapped services share it (the
/// simulation is single-threaded, like its `Rc<RefCell<…>>` services).
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    /// A recorder, switched off.
    pub fn shared() -> SharedRecorder {
        Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    /// Switches recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span under whichever span is open now. `None` when off.
    pub fn open(&mut self, name: &'static str, layer: Layer) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    /// Closes the span [`Recorder::open`] returned.
    pub fn close(&mut self, id: u32) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Takes the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "no span is open between passes");
        std::mem::take(&mut self.spans)
    }
}

/// Runs `f` inside a span.
pub fn span<T>(rec: &SharedRecorder, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
    let id = rec.borrow_mut().open(name, layer);
    let out = f();
    if let Some(id) = id {
        rec.borrow_mut().close(id);
    }
    out
}

/// Self time of each span: its duration minus the part its children
/// cover. Children never overlap (the simulation is single-threaded),
/// so the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    // Ids are per recorder, not per slice: index by position of the id.
    let base = spans.first().map_or(1, |s| s.id);
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent >= base {
            let p = (s.parent - base) as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Writes spans as JSON lines: `{id, parent, name, layer, start_ns, end_ns}`.
pub fn write_jsonl(path: &Path, groups: &[&[Span]]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in groups.iter().flat_map(|g| g.iter()) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let rec = Recorder::shared();
        rec.borrow_mut().set_on(true);
        span(&rec, "outer", Layer::Resolver, || {
            span(&rec, "inner", Layer::Auth, || std::hint::black_box(0));
            span(&rec, "inner", Layer::Auth, || std::hint::black_box(0));
        });
        let spans = rec.borrow_mut().take();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (0, 1, 1)
        );
        let own = self_times_ns(&spans);
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let rec = Recorder::shared();
        span(&rec, "outer", Layer::Resolver, || ());
        assert!(rec.borrow_mut().take().is_empty());
    }
}
