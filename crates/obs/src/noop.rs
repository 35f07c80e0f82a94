//! Span timing compiled out (the `enabled` feature off): the guard is
//! zero-sized and opening a span reads no clock. Counters and gauges
//! are unaffected — they live in [`crate::imp`] in every build.

/// Zero-sized span guard; dropping it does nothing.
#[must_use = "a span measures the scope of its guard"]
pub struct SpanGuard;

/// No-op span (no clock read, no state).
#[inline(always)]
pub fn span(_name: &'static str) -> SpanGuard {
    SpanGuard
}
