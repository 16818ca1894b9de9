//! In-memory spans recorded around the calls into each layer.
//!
//! Each traced thread owns a recorder in thread-local storage, so a span
//! costs two clock reads and a `Vec` push, and the scheme wrapper can open
//! spans from inside `Comparison::run` without shared state.  Spans carry a
//! name, start, end, the span that caused them and the request they belong
//! to; they are collected when the traced pass ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.  `parent` indexes the span list it was collected into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub const fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread; times are measured from `epoch`, which
/// every thread of one pass shares.
pub fn start(epoch: Instant) {
    RECORDER.with(|cell| {
        *cell.borrow_mut() = Some(Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        });
    });
}

/// Tags the spans opened from now on with `request`.
pub fn set_request(request: u64) {
    RECORDER.with(|cell| {
        if let Some(recorder) = cell.borrow_mut().as_mut() {
            recorder.request = request;
        }
    });
}

/// Stops recording on this thread and returns its spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|cell| {
        cell.borrow_mut()
            .take()
            .map(|r| r.spans)
            .unwrap_or_default()
    })
}

/// An open span; it closes when dropped.  Opening one on a thread that is
/// not recording does nothing.
#[must_use]
pub struct Guard {
    index: Option<usize>,
}

pub fn span(name: &'static str) -> Guard {
    let index = RECORDER.with(|cell| {
        let mut slot = cell.borrow_mut();
        let recorder = slot.as_mut()?;
        let now = elapsed_ns(recorder.epoch);
        let index = recorder.spans.len();
        recorder.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: recorder.open.last().copied(),
            request: recorder.request,
        });
        recorder.open.push(index);
        Some(index)
    });
    Guard { index }
}

/// Records an already finished span under the innermost open one, for a
/// call whose layer is known only from its outcome.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    RECORDER.with(|cell| {
        if let Some(recorder) = cell.borrow_mut().as_mut() {
            let since = |at: Instant| {
                u64::try_from(at.saturating_duration_since(recorder.epoch).as_nanos())
                    .unwrap_or(u64::MAX)
            };
            let span = Span {
                name,
                start_ns: since(start),
                end_ns: since(end),
                parent: recorder.open.last().copied(),
                request: recorder.request,
            };
            recorder.spans.push(span);
        }
    });
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        RECORDER.with(|cell| {
            if let Some(recorder) = cell.borrow_mut().as_mut() {
                recorder.spans[index].end_ns = elapsed_ns(recorder.epoch);
                recorder.open.retain(|&open| open != index);
            }
        });
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Concatenates per-thread span lists, rebasing each list's parent indices.
pub fn merge(threads: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for spans in threads {
        let offset = all.len();
        all.extend(spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }
    all
}

/// Each span's self time: its duration minus the part of its interval that
/// the union of its children's intervals covers.  Children that overlap
/// each other are counted once; any part of a child outside its parent is
/// ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let layer = out.entry(span.name).or_default();
        layer.count += 1;
        layer.total_ns += span.duration_ns();
        layer.self_ns += own;
    }
    out
}

/// Tab-separated dump, one span per line, for offline inspection.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
    for (id, (span, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
            span.request, span.name, span.start_ns, span.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("session", 10, 90, Some(0)),
            span("decide", 20, 30, Some(1)),
            span("decide", 50, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 10, 20]);
        let layers = layers(&spans);
        assert_eq!(
            layers["decide"],
            Layer {
                count: 2,
                total_ns: 30,
                self_ns: 30
            }
        );
        // Self times partition the root: 20 + 50 + 30 = 100.
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn overlapping_children_are_covered_by_their_union() {
        let spans = vec![
            span("worker", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 35, 50, Some(0)),
            // Sticks out past the parent's end: only 90..100 counts.
            span("d", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn recorder_links_parents_and_requests_across_threads() {
        let epoch = Instant::now();
        let record = |request| {
            start(epoch);
            set_request(request);
            {
                let _outer = super::span("outer");
                let _inner = super::span("inner");
            }
            finish()
        };
        let merged = merge(vec![record(1), record(2)]);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[1].parent, Some(0));
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(merged[3].request, 2);
        assert!(merged.iter().all(|s| s.end_ns >= s.start_ns));
        // A thread that is not recording opens no spans.
        let _ignored = super::span("ignored");
        assert!(finish().is_empty());
    }
}
