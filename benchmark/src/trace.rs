//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is `(request, operation, parent, start, end, units)`; spans
//! of one packet share its request id. They are kept in memory and
//! analysed (and written out) only after the timed region ends. The
//! chains are generic over [`Tracer`], so the untraced runs that give
//! the end-to-end metrics compile the calls away ([`NoTrace`]).

use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `op` is an index into the workload's operation
/// table (a list of layer-qualified names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Request (packet) the span belongs to.
    pub req: u32,
    /// Operation index.
    pub op: u16,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
    /// Work done inside the span, in the operation's own unit (LLRs,
    /// OFDM symbols, bit·iterations, …) — counted where the work
    /// happens so per-unit costs need no second bookkeeping.
    pub units: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the chains call at each layer boundary.
pub trait Tracer {
    /// Open a span for `op`, nested in the innermost open span.
    fn begin(&mut self, op: u16) -> u32;
    /// Close span `id` (the innermost open one), crediting it `units`
    /// of work.
    fn end(&mut self, id: u32, units: u64);
}

/// Tracing off: every call is a no-op the optimizer removes.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _op: u16) -> u32 {
        0
    }
    #[inline(always)]
    fn end(&mut self, _id: u32, _units: u64) {}
}

/// Tracing on: spans appended to a pre-reserved vector, one clock read
/// per boundary.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    req: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// Empty log with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            req: 0,
            stack: Vec::with_capacity(8),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Set the request id stamped on subsequent spans.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    /// ns since the log's epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand the recorded spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Tracer for SpanLog {
    #[inline]
    fn begin(&mut self, op: u16) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req: self.req,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            units: 0,
        });
        id
    }

    #[inline]
    fn end(&mut self, id: u32, units: u64) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.units = units;
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-operation totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpTotals {
    /// Spans seen.
    pub spans: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed work units.
    pub units: u64,
    /// Self time summed per request, one entry per request that ran
    /// the operation (for per-packet medians).
    pub per_req_ns: Vec<f64>,
}

/// Where the time of the requests rooted at `root_op` went.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Totals indexed by operation.
    pub ops: Vec<OpTotals>,
    /// Summed duration of the root spans, ns — the chain's wall time.
    pub wall_ns: u64,
    /// Root spans seen (= requests).
    pub requests: u64,
}

impl Budget {
    /// Close the budget of every request rooted at `root_op` over a
    /// table of `n_ops` operations. The root's own self time is the
    /// unattributed remainder, so Σ self + unattributed = wall by
    /// construction — the sum is checked, not assumed, by the tests.
    pub fn close(spans: &[Span], n_ops: usize, root_op: u16) -> Self {
        let own = self_times(spans);
        let mut ops = vec![OpTotals::default(); n_ops];
        let mut last_req = vec![u32::MAX; n_ops];
        let mut wall_ns = 0;
        let mut requests = 0;
        for (s, &self_ns) in spans.iter().zip(&own) {
            let o = s.op as usize;
            let t = &mut ops[o];
            t.spans += 1;
            t.self_ns += self_ns;
            t.units += s.units;
            if last_req[o] == s.req {
                *t.per_req_ns.last_mut().expect("request already opened") += self_ns as f64;
            } else {
                last_req[o] = s.req;
                t.per_req_ns.push(self_ns as f64);
            }
            if s.op == root_op && s.parent == NO_PARENT {
                wall_ns += s.dur_ns();
                requests += 1;
            }
        }
        Self {
            ops,
            wall_ns,
            requests,
        }
    }

    /// Share of the chain's wall time spent in `op` itself.
    pub fn share(&self, op: u16) -> f64 {
        self.ops[op as usize].self_ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Median over requests of the self time spent in `op`, ns.
    pub fn ns_per_req(&self, op: u16) -> f64 {
        crate::stats::median(&self.ops[op as usize].per_req_ns)
    }

    /// Self time per work unit of `op`, ns.
    pub fn ns_per_unit(&self, op: u16) -> f64 {
        let t = &self.ops[op as usize];
        t.self_ns as f64 / t.units.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u32, op: u16, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req,
            op,
            parent,
            start_ns,
            end_ns,
            units: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // request 0: root [0,100) → a [10,40) → a.child [20,30); b [50,90)
        // request 1: root [200,260) → a [210,250)
        let spans = [
            span(0, 0, NO_PARENT, 0, 100),
            span(0, 1, 0, 10, 40),
            span(0, 3, 1, 20, 30),
            span(0, 2, 0, 50, 90),
            span(1, 0, NO_PARENT, 200, 260),
            span(1, 1, 4, 210, 250),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40, 20, 40]);

        let b = Budget::close(&spans, 4, 0);
        assert_eq!(b.requests, 2);
        assert_eq!(b.wall_ns, 160);
        // Σ stage self time + unattributed (the root's self time) = wall.
        let staged: u64 = b.ops[1..].iter().map(|t| t.self_ns).sum();
        assert_eq!(staged, 110);
        assert_eq!(b.ops[0].self_ns, 50);
        assert_eq!(staged + b.ops[0].self_ns, b.wall_ns);
        assert_eq!(b.share(1), 60.0 / 160.0);
        assert_eq!(b.ops[1].per_req_ns, vec![20.0, 40.0]);
        assert_eq!(b.ns_per_req(1), 30.0);
    }

    #[test]
    fn repeated_op_in_one_request_sums_per_request() {
        // two code blocks: op 1 runs twice under the same root
        let spans = [
            span(7, 0, NO_PARENT, 0, 50),
            span(7, 1, 0, 0, 10),
            span(7, 1, 0, 20, 35),
        ];
        let b = Budget::close(&spans, 2, 0);
        assert_eq!(b.ops[1].spans, 2);
        assert_eq!(b.ops[1].per_req_ns, vec![25.0]);
    }

    #[test]
    fn span_log_nests_and_stamps_requests() {
        let mut log = SpanLog::with_capacity(8);
        log.set_request(3);
        let root = log.begin(0);
        let a = log.begin(1);
        log.end(a, 12);
        log.end(root, 0);
        let s = log.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].req, s[0].parent), (3, NO_PARENT));
        assert_eq!((s[1].parent, s[1].units), (0, 12));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(NoTrace.begin(1), 0);
    }
}
