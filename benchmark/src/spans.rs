//! The benchmark's own span recorder: spans are opened and closed around
//! the calls into the stack, kept in memory, and written out when the run
//! ends. The tree is `workload -> request -> op`; every span carries both
//! clocks.

use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    pub fn virt_ns(&self) -> u64 {
        self.virt_end_ns - self.virt_start_ns
    }
}

/// Per-name totals: self time is a span's duration minus the part its
/// direct children cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameTotals {
    pub name: &'static str,
    pub count: u64,
    pub host_ns: u64,
    pub host_self_ns: u64,
    pub virt_ns: u64,
    pub virt_self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Recorder { origin: Instant::now(), spans: Vec::with_capacity(spans), open: Vec::new() }
    }

    fn host_now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, virt_now_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let host = self.host_now();
        self.spans.push(Span {
            id,
            parent,
            name,
            host_start_ns: host,
            host_end_ns: host,
            virt_start_ns: virt_now_ns,
            virt_end_ns: virt_now_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32, virt_now_ns: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let host = self.host_now();
        let span = &mut self.spans[id as usize];
        span.host_end_ns = host;
        span.virt_end_ns = virt_now_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, in order of first appearance.
    pub fn totals(&self) -> Vec<NameTotals> {
        let mut child_host = vec![0u64; self.spans.len()];
        let mut child_virt = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_host[s.parent as usize] += s.host_ns();
                child_virt[s.parent as usize] += s.virt_ns();
            }
        }
        let mut out: Vec<NameTotals> = Vec::new();
        for s in &self.spans {
            let idx = match out.iter().position(|t| t.name == s.name) {
                Some(i) => i,
                None => {
                    out.push(NameTotals {
                        name: s.name,
                        count: 0,
                        host_ns: 0,
                        host_self_ns: 0,
                        virt_ns: 0,
                        virt_self_ns: 0,
                    });
                    out.len() - 1
                }
            };
            let t = &mut out[idx];
            t.count += 1;
            t.host_ns += s.host_ns();
            t.host_self_ns += s.host_ns().saturating_sub(child_host[s.id as usize]);
            t.virt_ns += s.virt_ns();
            t.virt_self_ns += s.virt_ns().saturating_sub(child_virt[s.id as usize]);
        }
        out
    }

    /// The trace file: per-name totals, then the first `max_spans` spans
    /// (a 3 M-op run would otherwise write a 300 MB file).
    pub fn to_json(&self, workload: &str, critical_path: &str, max_spans: usize) -> String {
        let mut out = String::new();
        let written = self.spans.len().min(max_spans);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{written},\
             \"virtual_critical_path\":{critical_path},\"totals\":[",
            self.spans.len()
        );
        for (i, t) in self.totals().iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"count\":{},\"host_ns\":{},\"host_self_ns\":{},\
                 \"virt_ns\":{},\"virt_self_ns\":{}}}",
                if i > 0 { "," } else { "" },
                t.name,
                t.count,
                t.host_ns,
                t.host_self_ns,
                t.virt_ns,
                t.virt_self_ns
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans[..written].iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            let _ = write!(
                out,
                "{}\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"host_start_ns\":{},\
                 \"host_end_ns\":{},\"virt_start_ns\":{},\"virt_end_ns\":{}}}",
                if i > 0 { "," } else { "" },
                s.id,
                s.name,
                s.host_start_ns,
                s.host_end_ns,
                s.virt_start_ns,
                s.virt_end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let mut r = Recorder::with_capacity(8);
        let w = r.begin("workload", 0);
        let q = r.begin("request", 100);
        let a = r.begin("op", 100);
        r.end(a, 400);
        let b = r.begin("op", 450);
        r.end(b, 550);
        r.end(q, 600);
        r.end(w, 1_000);

        let totals = r.totals();
        let get = |n: &str| totals.iter().find(|t| t.name == n).unwrap().clone();
        assert_eq!(get("op").count, 2);
        assert_eq!(get("op").virt_ns, 400);
        assert_eq!(get("op").virt_self_ns, 400);
        // request spans 500 virtual ns, its two ops cover 400 of them.
        assert_eq!(get("request").virt_ns, 500);
        assert_eq!(get("request").virt_self_ns, 100);
        // workload: 1000 minus the request's 500 (grandchildren not counted twice).
        assert_eq!(get("workload").virt_self_ns, 500);
        // Host clock: a parent's self time never exceeds its duration.
        assert!(get("request").host_self_ns <= get("request").host_ns);
        assert_eq!(r.spans()[2].parent, q);
        assert_eq!(r.spans()[0].parent, NO_PARENT);
    }

    #[test]
    fn trace_file_is_truncated_but_totals_cover_every_span() {
        let mut r = Recorder::with_capacity(8);
        for i in 0..5 {
            let id = r.begin("op", i * 10);
            r.end(id, i * 10 + 5);
        }
        let json = r.to_json("w", "{}", 2);
        assert!(json.contains("\"spans_recorded\":5,\"spans_written\":2"));
        assert!(json.contains("\"count\":5"));
        assert_eq!(json.matches("\"id\":").count(), 2);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::with_capacity(2);
        let a = r.begin("a", 0);
        let _b = r.begin("b", 0);
        r.end(a, 1);
    }
}
